// Package store persists the simulation service's state across restarts: a
// disk-backed, content-addressed artifact store (one directory per spec hash
// holding the deterministic JSON/CSV/aggregate-CSV artifact bytes plus a
// metadata record), the cell and spec record tiers (see cells.go), and an
// append-only job log from which the service rebuilds its job table on
// startup.
//
// Crash atomicity: artifacts are staged in a temporary directory, every file
// is fsync'd before the staging directory is renamed into place, and the
// parent directory is fsync'd after the rename, so a reader observes either
// no entry or a complete one. Entries that fail verification on read — a
// truncated or bit-flipped artifact file, undecodable metadata, a hash
// mismatch — are quarantined (moved to quarantine/ for inspection) rather
// than deleted, and report ErrCorrupt so the caller can recompute; a corrupt
// or missing entry never affects lookups of other hashes. Partial staging
// directories left behind by a crash are swept on Open.
//
// All three tiers share one path for each of these steps: entry validates a
// hash key and locates it, publish renames a synced stage into place (the
// compacted job log goes through it too), remove deletes, quarantine moves
// a damaged entry aside, and list walks a tier for GC. Only what an entry
// is (a directory or one record file) and how it verifies differ per tier.
//
// Layout under the data directory:
//
//	artifacts/<hh>/<hash>/  meta.json, matrix.json, cells.csv, aggregate.csv
//	cells/<hh>/<hash>       one JSON record per simulated cell (see cells.go)
//	specs/<hh>/<hash>       canonical spec bytes of in-flight matrices
//	quarantine/             corrupt entries moved aside as <hash>.<n>
//	tmp/                    staging area for atomic writes (swept on Open)
//	jobs.log                append-only JSONL job records, periodically compacted
//
// Entries are sharded by the first two hex digits of the hash (<hh>), so
// entry counts per directory stay ~1/256th of the total and never brush
// filesystem per-directory limits. An entry in the flat layout of builds
// before sharding (artifacts/<hash>/) is not read: walks skip every name
// under a tier root that is not a 2-character prefix, and lookups miss.
//
// An entry's record is also its transfer form between shards: EncodeArtifacts
// renders an artifact entry as its meta.json manifest plus the three parts
// it describes, EncodeCell renders the cell record file itself, and
// DecodeArtifacts and DecodeCell run the same per-tier check on what a peer
// sent that GetArtifacts and GetCell run on the disk. Only the store knows
// a record's envelope; a shard adopting a peer's entry verifies it with the
// store's own reader before installing it through Put.
//
// The spec hash is the on-disk key: internal/service/spec guarantees its
// stability across releases (see the package documentation there), which is
// what makes a data directory written by one build readable by the next.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Errors reported by the store.
var (
	// ErrNotFound reports a hash with no stored artifact entry.
	ErrNotFound = errors.New("store: artifact not found")
	// ErrCorrupt reports an entry that failed verification and has been
	// moved to quarantine/. The caller should recompute.
	ErrCorrupt = errors.New("store: artifact corrupt")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("store: closed")
)

// Artifact file names inside an entry directory.
const (
	metaFile      = "meta.json"
	jsonFile      = "matrix.json"
	csvFile       = "cells.csv"
	aggregateFile = "aggregate.csv"
)

// Artifacts is one content-addressed entry: the deterministic artifact bytes
// of a completed run matrix, keyed by its spec hash.
type Artifacts struct {
	// Hash is the spec content address (lowercase hex SHA-256).
	Hash string
	// JSON, CSV, and AggregateCSV are the three artifact renderings.
	JSON         []byte
	CSV          []byte
	AggregateCSV []byte
	// Cells is the matrix size, carried for metrics.
	Cells int
	// CreatedAt is when the matrix was computed. It survives restarts and
	// anchors TTL expiry.
	CreatedAt time.Time
}

// Info is the summary of one stored entry of any tier, as listed for GC
// sweeps.
type Info struct {
	Hash string
	// Bytes is the entry's size: the artifact bytes its metadata records,
	// or the record file's size.
	Bytes int64
	// CreatedAt anchors TTL expiry: the creation time an artifact or cell
	// records, or a spec record's modification time.
	CreatedAt time.Time
}

// meta is the manifest of an entry, stored as meta.json. Sizes and
// checksums let reads detect truncation and bit rot. The record
// EncodeArtifacts renders is the manifest with Parts filled in; on disk the
// parts are the entry's files and Parts is omitted.
type meta struct {
	Hash        string              `json:"hash"`
	Cells       int                 `json:"cells"`
	CreatedAtMs int64               `json:"created_at_ms"`
	Files       map[string]fileMeta `json:"files"`
	Parts       map[string][]byte   `json:"parts,omitempty"`
}

type fileMeta struct {
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// Store is a disk-backed artifact store plus job log rooted at one data
// directory. All methods are safe for concurrent use. Artifact operations
// rely on atomic renames; the job log is guarded by a mutex.
type Store struct {
	dir     string
	artDir  string
	cellDir string
	specDir string
	tmpDir  string
	quarDir string

	mu      sync.Mutex // guards the job log and closed
	logf    *os.File
	appends int // records appended since the last compaction
	closed  bool
}

// Open creates (if needed) and opens the data directory, sweeps staging
// leftovers from a previous crash, and opens the job log for appending.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:     dir,
		artDir:  filepath.Join(dir, "artifacts"),
		cellDir: filepath.Join(dir, "cells"),
		specDir: filepath.Join(dir, "specs"),
		tmpDir:  filepath.Join(dir, "tmp"),
		quarDir: filepath.Join(dir, "quarantine"),
	}
	for _, d := range []string{s.artDir, s.cellDir, s.specDir, s.tmpDir, s.quarDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	// A crash between staging and rename leaves a partial directory in tmp/.
	// It was never visible under artifacts/, so removal cannot affect lookups.
	leftovers, err := os.ReadDir(s.tmpDir)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	for _, e := range leftovers {
		if err := os.RemoveAll(filepath.Join(s.tmpDir, e.Name())); err != nil {
			return nil, fmt.Errorf("store: sweep tmp: %w", err)
		}
	}
	if err := healJobLog(s.jobLogPath()); err != nil {
		return nil, err
	}
	s.logf, err = os.OpenFile(s.jobLogPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open job log: %w", err)
	}
	return s, nil
}

// healJobLog terminates a torn trailing line left by a crash mid-append so
// the partial line cannot swallow the next record appended after it (replay
// already skips the undecodable line itself).
func healJobLog(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: heal job log: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: heal job log: %w", err)
	}
	if st.Size() == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return fmt.Errorf("store: heal job log: %w", err)
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.WriteAt([]byte{'\n'}, st.Size()); err != nil {
		return fmt.Errorf("store: heal job log: %w", err)
	}
	return f.Sync()
}

// Dir returns the data directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobLogPath() string { return filepath.Join(s.dir, "jobs.log") }

// Close syncs and closes the job log. It is idempotent; artifact methods and
// appends fail with ErrClosed afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.logf.Sync(); err != nil {
		s.logf.Close()
		return fmt.Errorf("store: close: %w", err)
	}
	return s.logf.Close()
}

// validHash rejects anything that is not a lowercase-hex digest, both to
// catch caller bugs and to keep path construction traversal-safe.
func validHash(hash string) error {
	if len(hash) < 16 {
		return fmt.Errorf("store: invalid hash %q", hash)
	}
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: invalid hash %q", hash)
		}
	}
	return nil
}

// entry is the one gate of every hash-keyed operation: it validates the
// key, checks the store is open, and returns where the entry lives under
// the tier root, sharded by the 2-hex-digit prefix of its hash.
func (s *Store) entry(root, hash string) (string, error) {
	if err := validHash(hash); err != nil {
		return "", err
	}
	if s.isClosed() {
		return "", ErrClosed
	}
	return filepath.Join(root, hash[:2], hash), nil
}

// PutArtifacts atomically writes one entry: the files are staged under tmp/,
// fsync'd, and renamed into artifacts/<hash> as a unit. An existing entry
// under the same hash is replaced — harmless, because equal hashes mean equal
// bytes (the runner is deterministic).
func (s *Store) PutArtifacts(a Artifacts) error {
	dst, err := s.entry(s.artDir, a.Hash)
	if err != nil {
		return err
	}
	files := a.parts()
	if files[metaFile], err = json.Marshal(a.manifest()); err != nil {
		return fmt.Errorf("store: encode meta: %w", err)
	}
	stage, err := os.MkdirTemp(s.tmpDir, a.Hash+".")
	if err != nil {
		return fmt.Errorf("store: stage: %w", err)
	}
	for name, data := range files {
		if err := writeFileSync(filepath.Join(stage, name), data); err != nil {
			os.RemoveAll(stage)
			return fmt.Errorf("store: stage %s: %w", name, err)
		}
	}
	if err := syncDir(stage); err != nil {
		os.RemoveAll(stage)
		return fmt.Errorf("store: sync stage: %w", err)
	}
	return publish(stage, dst)
}

// parts maps each artifact file name of an entry to its bytes.
func (a Artifacts) parts() map[string][]byte {
	return map[string][]byte{jsonFile: a.JSON, csvFile: a.CSV, aggregateFile: a.AggregateCSV}
}

// manifest returns the entry's metadata record, with the size and checksum
// of each part.
func (a Artifacts) manifest() meta {
	m := meta{Hash: a.Hash, Cells: a.Cells, CreatedAtMs: a.CreatedAt.UnixMilli(),
		Files: map[string]fileMeta{}}
	for name, data := range a.parts() {
		m.Files[name] = checksum(data)
	}
	return m
}

// EncodeArtifacts renders an entry as one record: the manifest PutArtifacts
// writes as meta.json plus the parts it describes, keyed by file name. It is
// what a shard serves a peer, and DecodeArtifacts reads it back.
func EncodeArtifacts(a Artifacts) ([]byte, error) {
	m := a.manifest()
	m.Parts = a.parts()
	return json.Marshal(m)
}

// DecodeArtifacts decodes and verifies a record rendered by EncodeArtifacts
// against the hash the caller asked for, with the check GetArtifacts runs on
// an entry on disk. A record that fails it reports ErrCorrupt.
func DecodeArtifacts(hash string, data []byte) (Artifacts, error) {
	m, err := decodeMeta(data, hash)
	if err != nil {
		return Artifacts{}, err
	}
	return m.artifacts(func(name string) ([]byte, error) { return m.Parts[name], nil })
}

// GetArtifacts reads and verifies the entry stored under hash. A missing
// entry reports ErrNotFound; an entry that fails verification is moved to
// quarantine/ and reports ErrCorrupt. Neither affects other entries.
func (s *Store) GetArtifacts(hash string) (Artifacts, error) {
	dir, err := s.entry(s.artDir, hash)
	if err != nil {
		return Artifacts{}, err
	}
	metaBytes, err := os.ReadFile(filepath.Join(dir, metaFile))
	if errors.Is(err, fs.ErrNotExist) {
		if _, statErr := os.Stat(dir); statErr == nil {
			// Directory present but no metadata: a damaged entry.
			return Artifacts{}, s.quarantine(dir, hash, corrupt(hash, "missing metadata"))
		}
		return Artifacts{}, fmt.Errorf("%w: %s", ErrNotFound, hash)
	}
	if err != nil {
		return Artifacts{}, fmt.Errorf("store: read meta: %w", err)
	}
	m, err := decodeMeta(metaBytes, hash)
	var a Artifacts
	if err == nil {
		a, err = m.artifacts(func(name string) ([]byte, error) {
			return os.ReadFile(filepath.Join(dir, name))
		})
	}
	if err != nil {
		return Artifacts{}, s.quarantine(dir, hash, err)
	}
	return a, nil
}

// decodeMeta decodes an entry's manifest and checks that it names the
// entry's hash and a cell count that is not negative. A manifest that fails
// reports ErrCorrupt.
func decodeMeta(data []byte, hash string) (meta, error) {
	var m meta
	if err := json.Unmarshal(data, &m); err != nil {
		return m, corrupt(hash, "bad metadata: "+err.Error())
	}
	if m.Hash != hash {
		return m, corrupt(hash, "metadata names hash "+m.Hash)
	}
	if m.Cells < 0 {
		return m, corrupt(hash, fmt.Sprintf("metadata carries cell count %d", m.Cells))
	}
	return m, nil
}

// artifacts reads each part of the entry with read and checks it against
// the size and checksum its manifest m records: the one check of an
// artifact's parts, which read from the entry's files in GetArtifacts and
// from the record itself in DecodeArtifacts. A part that fails reports
// ErrCorrupt.
func (m meta) artifacts(read func(name string) ([]byte, error)) (Artifacts, error) {
	a := Artifacts{Hash: m.Hash, Cells: m.Cells, CreatedAt: time.UnixMilli(m.CreatedAtMs)}
	for _, f := range []struct {
		name string
		dst  *[]byte
	}{
		{jsonFile, &a.JSON},
		{csvFile, &a.CSV},
		{aggregateFile, &a.AggregateCSV},
	} {
		want, ok := m.Files[f.name]
		if !ok {
			return Artifacts{}, corrupt(m.Hash, "metadata missing "+f.name)
		}
		data, err := read(f.name)
		if err != nil {
			return Artifacts{}, corrupt(m.Hash, f.name+": "+err.Error())
		}
		if got := checksum(data); got != want {
			return Artifacts{}, corrupt(m.Hash,
				fmt.Sprintf("%s: %d bytes, want %d (or checksum mismatch)", f.name, got.Size, want.Size))
		}
		*f.dst = data
	}
	return a, nil
}

// DeleteArtifacts removes the entry stored under hash; deleting a missing
// entry is not an error.
func (s *Store) DeleteArtifacts(hash string) error { return s.remove(s.artDir, hash) }

// ListArtifacts summarizes every stored entry from its metadata record.
// Entries whose metadata cannot be read are quarantined and skipped, never
// failing the listing.
func (s *Store) ListArtifacts() ([]Info, error) {
	return s.list(s.artDir, true, func(hash, dir string) (Info, bool) {
		data, err := os.ReadFile(filepath.Join(dir, metaFile))
		var m meta
		if err == nil {
			m, err = decodeMeta(data, hash)
		}
		if err != nil {
			_ = s.quarantine(dir, hash, err)
			return Info{}, false
		}
		info := Info{Hash: hash, CreatedAt: time.UnixMilli(m.CreatedAtMs)}
		for _, f := range m.Files {
			info.Bytes += f.Size
		}
		return info, true
	})
}

// list walks the sharded tier under root and summarizes, with info, every
// hash-named entry that is a directory when dirs is set and a file
// otherwise; info reports false for an entry it skips. Junk names, misfiled
// entries and an unreadable prefix directory are skipped for this pass
// without failing the walk, which the GC sweep depends on.
func (s *Store) list(root string, dirs bool, info func(hash, path string) (Info, bool)) ([]Info, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	prefixes, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", filepath.Base(root), err)
	}
	var infos []Info
	for _, p := range prefixes {
		if !p.IsDir() || len(p.Name()) != 2 {
			continue
		}
		dirents, err := os.ReadDir(filepath.Join(root, p.Name()))
		if err != nil {
			continue
		}
		for _, e := range dirents {
			hash := e.Name()
			if e.IsDir() != dirs || validHash(hash) != nil || hash[:2] != p.Name() {
				continue
			}
			if in, ok := info(hash, filepath.Join(root, p.Name(), hash)); ok {
				infos = append(infos, in)
			}
		}
	}
	return infos, nil
}

// publish moves a fully synced stage — an entry directory or a record file
// under tmp/ — to dst and fsyncs dst's prefix directory so the rename
// survives a crash, and the tier root too when publish created the prefix.
// A rename over an existing dst fails only when a directory is involved (a
// concurrent writer won the race, a TTL-expired entry is being refreshed,
// or a stray directory or file is in the way); then dst is cleared and the
// rename retried once: entries are content-addressed, so the replacement
// is byte-identical. A file stage never clears a file it failed to
// replace, so a failed compaction keeps jobs.log. The stage is removed on
// failure.
func publish(stage, dst string) error {
	pfx := filepath.Dir(dst)
	_, statErr := os.Stat(pfx)
	err := os.MkdirAll(pfx, 0o755)
	if err == nil {
		err = os.Rename(stage, dst)
		if err != nil && (isDir(dst) || isDir(stage)) {
			if err = os.RemoveAll(dst); err == nil {
				err = os.Rename(stage, dst)
			}
		}
	}
	if err != nil {
		os.RemoveAll(stage)
		return fmt.Errorf("store: publish: %w", err)
	}
	if err := syncDir(pfx); err != nil {
		return fmt.Errorf("store: sync prefix dir: %w", err)
	}
	if statErr != nil { // publish created the prefix in the tier root
		if err := syncDir(filepath.Dir(pfx)); err != nil {
			return fmt.Errorf("store: sync tier dir: %w", err)
		}
	}
	return nil
}

// isDir reports whether path is a directory, not following a symlink.
func isDir(path string) bool {
	fi, err := os.Lstat(path)
	return err == nil && fi.IsDir()
}

// remove deletes the entry stored under hash in root — a directory or a
// record file — and fsyncs its prefix directory. A missing entry or prefix
// directory is not an error.
func (s *Store) remove(root, hash string) error {
	path, err := s.entry(root, hash)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(path); err != nil {
		return fmt.Errorf("store: delete: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: delete: %w", err)
	}
	return nil
}

// quarantine moves a damaged entry at src (a directory or a record file)
// to quarantine/<hash>.<n>, at the first n not taken by an earlier
// corruption of the same hash, so it cannot fail the same lookup twice. It
// returns cause, the ErrCorrupt to hand to the caller.
func (s *Store) quarantine(src, hash string, cause error) error {
	for n := 0; n < 1000; n++ {
		dst := filepath.Join(s.quarDir, fmt.Sprintf("%s.%d", hash, n))
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		err := os.Rename(src, dst)
		if err == nil || errors.Is(err, fs.ErrNotExist) {
			break // moved, or a concurrent reader already quarantined it
		}
	}
	return cause
}

// corrupt is the ErrCorrupt of the entry or record under hash that failed
// verification for reason.
func corrupt(hash, reason string) error {
	return fmt.Errorf("%w: %s (%s)", ErrCorrupt, hash, reason)
}

func (s *Store) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func checksum(data []byte) fileMeta {
	sum := sha256.Sum256(data)
	return fileMeta{Size: int64(len(data)), SHA256: hex.EncodeToString(sum[:])}
}

// writeFileSync writes data to a new file at path; see writeClose.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	return writeClose(f, data)
}

// writeClose writes data to f and fsyncs it before closing, so a rename that
// follows cannot publish a file whose contents are still buffered.
func writeClose(f *os.File, data []byte) error {
	_, err := f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
