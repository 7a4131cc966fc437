// Package store persists the simulation service's state across restarts: a
// disk-backed, content-addressed result store (one record file per spec hash
// holding the deterministic JSON/CSV/aggregate-CSV artifact bytes behind a
// manifest line), the cell and spec record tiers (see cells.go), and an
// append-only job log from which the service rebuilds its job table on
// startup.
//
// Crash atomicity: every entry is one file, staged under tmp/ and fsync'd
// before it is renamed into place, and the directory that receives it is
// fsync'd after the rename, so a reader observes either no entry or a
// complete one. Entries that fail verification on read — a truncated or
// bit-flipped part, an undecodable manifest, a hash mismatch — are
// quarantined (moved to quarantine/ for inspection) rather than deleted, and
// report ErrCorrupt so the caller can recompute; an entry that cannot be read
// at all stays in place and reports a plain error, and a corrupt or missing
// entry never affects lookups of other hashes. Partial stages left behind by
// a crash are swept on Open.
//
// All three tiers share one path for each of these steps: entry validates a
// hash key and locates it, publishFile stages a record and publish renames
// it into place (the compacted job log goes through both too), get reads a
// record, checks it and quarantines it when the check fails, remove deletes,
// and list walks a tier for GC. Only how a record verifies differs per tier.
//
// Layout under the data directory:
//
//	results/<hh>/<hash>  manifest line, then matrix.json, cells.csv, aggregate.csv
//	cells/<hh>/<hash>    one JSON record per simulated cell (see cells.go)
//	specs/<hh>/<hash>    canonical spec bytes of in-flight matrices
//	quarantine/          corrupt entries moved aside as <hash>.<n>
//	tmp/                 staging area for atomic writes (swept on Open)
//	jobs.log             append-only JSONL job records, periodically compacted
//
// Entries are sharded by the first two hex digits of the hash (<hh>), so
// entry counts per directory stay ~1/256th of the total and never brush
// filesystem per-directory limits. The artifacts/ tree of earlier builds, in
// either of its layouts (artifacts/<hash>/ or artifacts/<hh>/<hash>/, a
// directory of four files per entry), is not read: its matrices miss and are
// assembled again from their cells or recomputed.
//
// An entry's record is also its transfer form between shards: EncodeArtifacts
// and EncodeCell render the record file itself, and DecodeArtifacts and
// DecodeCell run the same check on what a peer sent that GetArtifacts and
// GetCell run on the disk. Only the store knows a record's envelope; a shard
// adopting a peer's entry verifies it with the store's own reader before
// installing it through Put.
//
// The spec hash is the on-disk key: internal/service/spec guarantees its
// stability across releases (see the package documentation there), which is
// what makes a data directory written by one build readable by the next.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Errors reported by the store.
var (
	// ErrNotFound reports a hash with no stored entry.
	ErrNotFound = errors.New("store: not found")
	// ErrCorrupt reports an entry that failed verification and has been
	// moved to quarantine/. The caller should recompute.
	ErrCorrupt = errors.New("store: artifact corrupt")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("store: closed")
)

// Names of an artifact entry's parts in its manifest.
const (
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
	// Bytes is the entry's size: the artifact bytes its manifest records,
	// or the record file's size.
	Bytes int64
	// CreatedAt anchors TTL expiry: the creation time an artifact or cell
	// records, or a spec record's modification time.
	CreatedAt time.Time
}

// meta is the manifest of an artifact entry, the first line of its record.
// Sizes and checksums let reads detect truncation and bit rot.
type meta struct {
	Hash        string              `json:"hash"`
	Cells       int                 `json:"cells"`
	CreatedAtMs int64               `json:"created_at_ms"`
	Files       map[string]fileMeta `json:"files"`
}

type fileMeta struct {
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// Store is a disk-backed artifact store plus job log rooted at one data
// directory. All methods are safe for concurrent use. Entry operations
// rely on atomic renames; the job log is guarded by a mutex.
type Store struct {
	dir       string
	resultDir string
	cellDir   string
	specDir   string
	tmpDir    string
	quarDir   string

	mu      sync.Mutex // guards the job log and closed
	logf    *os.File
	appends int // records appended since the last compaction
	closed  bool
}

// Open creates (if needed) and opens the data directory, sweeps staging
// leftovers from a previous crash, and opens the job log for appending.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:       dir,
		resultDir: filepath.Join(dir, "results"),
		cellDir:   filepath.Join(dir, "cells"),
		specDir:   filepath.Join(dir, "specs"),
		tmpDir:    filepath.Join(dir, "tmp"),
		quarDir:   filepath.Join(dir, "quarantine"),
	}
	for _, d := range []string{s.resultDir, s.cellDir, s.specDir, s.tmpDir, s.quarDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	// A crash between staging and rename leaves a partial stage in tmp/. It
	// was never visible under a tier root, so removal cannot affect lookups.
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

// Close syncs and closes the job log. It is idempotent; entry methods and
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

// PutArtifacts atomically writes one entry, the record EncodeArtifacts
// renders, to results/<hh>/<hash>. An existing entry under the same hash is
// replaced — harmless, because equal hashes mean equal bytes (the runner is
// deterministic).
func (s *Store) PutArtifacts(a Artifacts) error {
	dst, err := s.entry(s.resultDir, a.Hash)
	if err != nil {
		return err
	}
	rec, err := EncodeArtifacts(a)
	if err != nil {
		return err
	}
	return s.publishFile(dst, rec)
}

// part is one of an entry's three artifact renderings, under its manifest
// name.
type part struct {
	name string
	data *[]byte
}

// parts lists a's renderings in the order its record carries them.
func (a *Artifacts) parts() []part {
	return []part{{jsonFile, &a.JSON}, {csvFile, &a.CSV}, {aggregateFile, &a.AggregateCSV}}
}

// EncodeArtifacts renders an entry as its record: the manifest (hash, cell
// count, creation time, and the size and SHA-256 of each part) as one JSON
// line, then the raw bytes of matrix.json, cells.csv and aggregate.csv in
// that order. It is the file PutArtifacts writes and what a shard serves a
// peer; DecodeArtifacts reads it back.
func EncodeArtifacts(a Artifacts) ([]byte, error) {
	m := meta{Hash: a.Hash, Cells: a.Cells, CreatedAtMs: a.CreatedAt.UnixMilli(),
		Files: map[string]fileMeta{}}
	size := 0
	for _, p := range a.parts() {
		m.Files[p.name] = checksum(*p.data)
		size += len(*p.data)
	}
	line, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("store: encode manifest: %w", err)
	}
	rec := make([]byte, 0, len(line)+1+size)
	rec = append(append(rec, line...), '\n')
	for _, p := range a.parts() {
		rec = append(rec, *p.data...)
	}
	return rec, nil
}

// DecodeArtifacts decodes and verifies a record rendered by EncodeArtifacts
// against the hash the caller asked for: the manifest must name it and
// carry a cell count that is not negative, each part must match the size
// and checksum the manifest records for it, and no bytes may follow the
// last part. GetArtifacts runs the same check on the file on disk. A record
// that fails it reports ErrCorrupt. The parts returned share data's memory.
func DecodeArtifacts(hash string, data []byte) (Artifacts, error) {
	line, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return Artifacts{}, corrupt(hash, "no manifest line")
	}
	m, err := decodeMeta(line, hash)
	if err != nil {
		return Artifacts{}, err
	}
	a := Artifacts{Hash: m.Hash, Cells: m.Cells, CreatedAt: time.UnixMilli(m.CreatedAtMs)}
	for _, p := range a.parts() {
		want, ok := m.Files[p.name]
		if !ok {
			return Artifacts{}, corrupt(hash, "metadata missing "+p.name)
		}
		if want.Size < 0 || want.Size > int64(len(rest)) {
			return Artifacts{}, corrupt(hash, fmt.Sprintf("%s: %d bytes left, want %d", p.name, len(rest), want.Size))
		}
		*p.data, rest = rest[:want.Size:want.Size], rest[want.Size:]
		if checksum(*p.data) != want {
			return Artifacts{}, corrupt(hash, p.name+": checksum mismatch")
		}
	}
	if len(rest) != 0 {
		return Artifacts{}, corrupt(hash, fmt.Sprintf("%d bytes past the last part", len(rest)))
	}
	return a, nil
}

// GetArtifacts reads and verifies the entry stored under hash; see get.
func (s *Store) GetArtifacts(hash string) (Artifacts, error) {
	return get(s, s.resultDir, "artifact", hash, DecodeArtifacts)
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

// DeleteArtifacts removes the entry stored under hash; deleting a missing
// entry is not an error.
func (s *Store) DeleteArtifacts(hash string) error { return s.remove(s.resultDir, hash) }

// ListArtifacts summarizes every stored entry from its manifest line alone,
// so a GC sweep never reads the parts. An entry whose manifest fails its
// check is quarantined and skipped; one that cannot be read is skipped for
// this pass. Neither fails the listing.
func (s *Store) ListArtifacts() ([]Info, error) {
	return s.list(s.resultDir, func(hash, path string) (Info, bool) {
		line, err := readLine(path)
		if err != nil {
			return Info{}, false
		}
		m, err := decodeMeta(line, hash)
		if err != nil {
			_ = s.quarantine(path, hash, err)
			return Info{}, false
		}
		info := Info{Hash: hash, CreatedAt: time.UnixMilli(m.CreatedAtMs)}
		for _, f := range m.Files {
			info.Bytes += f.Size
		}
		return info, true
	})
}

// readLine reads the file at path up to its first newline, or all of it
// when it has none, in reads of a manifest's size.
func readLine(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	line, err := bufio.NewReaderSize(f, 512).ReadBytes('\n')
	if err == io.EOF {
		err = nil
	}
	return line, err
}

// get reads the record stored under hash in root and checks it with
// decode, the one read path of every tier. A missing record reports
// ErrNotFound naming kind, and a read that fails a plain error that leaves
// the record in place; a record that was read and fails decode is moved to
// quarantine/ and reports ErrCorrupt. None of them affects other entries.
func get[T any](s *Store, root, kind, hash string, decode func(hash string, data []byte) (T, error)) (T, error) {
	var zero T
	path, err := s.entry(root, hash)
	if err != nil {
		return zero, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return zero, fmt.Errorf("%w: %s %s", ErrNotFound, kind, hash)
	}
	if err != nil {
		return zero, fmt.Errorf("store: read %s: %w", kind, err)
	}
	v, err := decode(hash, data)
	if err != nil {
		return zero, s.quarantine(path, hash, err)
	}
	return v, nil
}

// list walks the sharded tier under root and summarizes, with info, every
// hash-named entry; info reports false for an entry it skips. Junk names,
// directories, misfiled entries and an unreadable prefix directory are
// skipped for this pass without failing the walk, which the GC sweep
// depends on.
func (s *Store) list(root string, info func(hash, path string) (Info, bool)) ([]Info, error) {
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
			if e.IsDir() || validHash(hash) != nil || hash[:2] != p.Name() {
				continue
			}
			if in, ok := info(hash, filepath.Join(root, p.Name(), hash)); ok {
				infos = append(infos, in)
			}
		}
	}
	return infos, nil
}

// publishFile atomically writes one record file: staged under tmp/ and
// fsync'd, then published at dst. Every store write goes through it.
func (s *Store) publishFile(dst string, data []byte) error {
	f, err := os.CreateTemp(s.tmpDir, filepath.Base(dst)+".")
	if err != nil {
		return fmt.Errorf("store: stage: %w", err)
	}
	if err := writeClose(f, data); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("store: stage: %w", err)
	}
	return publish(f.Name(), dst)
}

// publish moves a fully synced record file staged under tmp/ to dst and
// fsyncs dst's prefix directory so the rename survives a crash, and the
// tier root too when publish created the prefix. A rename replaces a file
// at dst (a concurrent writer's, or a TTL-expired entry being refreshed:
// entries are content-addressed, so the replacement is byte-identical) but
// fails on a stray directory there; then dst is cleared and the rename
// retried once. A rename that fails for another reason clears nothing, so
// a failed compaction keeps jobs.log. The stage is removed on failure.
func publish(stage, dst string) error {
	pfx := filepath.Dir(dst)
	_, statErr := os.Stat(pfx)
	err := os.MkdirAll(pfx, 0o755)
	if err == nil {
		err = os.Rename(stage, dst)
		if err != nil && isDir(dst) {
			if err = os.RemoveAll(dst); err == nil {
				err = os.Rename(stage, dst)
			}
		}
	}
	if err != nil {
		os.Remove(stage)
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

// remove deletes the entry stored under hash in root and fsyncs its prefix
// directory. A missing entry or prefix directory is not an error.
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

// quarantine moves a damaged record at src to quarantine/<hash>.<n>, at the
// first n not taken by an earlier corruption of the same hash, so it cannot
// fail the same lookup twice. It returns cause, the ErrCorrupt to hand to
// the caller.
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
