package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Cell-level tier: alongside whole-matrix results the store keeps two
// smaller content-addressed namespaces —
//
//	cells/<hh>/<hash>  one JSON record per simulated matrix cell, keyed by
//	                   the cell content hash (internal/service/spec.CellHash)
//	specs/<hh>/<hash>  the canonical spec bytes of matrices that are still
//	                   executing, keyed by the matrix hash, so a restart can
//	                   requeue interrupted jobs instead of failing them
//
// Every tier's entry is one record file and goes through the same helpers
// (see store.go): entry checks and locates the key, publishFile stages the
// record in tmp/, fsyncs it and publishes it (a reader observes no record
// or a complete one), get reads it and quarantines a record that fails its
// check with ErrCorrupt so the caller recomputes, remove deletes, and list
// walks the tier. Cell records carry a size and payload checksum; spec
// records are self-verifying — their file name is the SHA-256 of their
// contents.

// Cell is one content-addressed cell record: the coordinate-independent
// payload of one simulated matrix cell, keyed by its cell content hash.
type Cell struct {
	// Hash is the cell content address (lowercase hex SHA-256).
	Hash string
	// Payload is the canonical JSON of the cell outcome
	// (runner.CellPayload).
	Payload []byte
	// CreatedAt is when the cell was computed; it anchors TTL expiry and
	// oldest-first byte-budget eviction.
	CreatedAt time.Time
}

// cellRecord is the on-disk form of a cell, and its form on the peer wire.
// The payload checksum lets reads detect truncation and bit rot without a
// separate metadata file.
type cellRecord struct {
	Hash        string          `json:"hash"`
	CreatedAtMs int64           `json:"created_at_ms"`
	fileMeta                    // size and SHA-256 of Payload
	Payload     json.RawMessage `json:"payload"`
}

// PutCell atomically writes one cell record: staged under tmp/, fsync'd,
// and renamed into cells/<hh>/. Replacing an existing record is harmless —
// equal cell hashes mean equal payloads (the runner is deterministic).
func (s *Store) PutCell(c Cell) error {
	dst, err := s.entry(s.cellDir, c.Hash)
	if err != nil {
		return err
	}
	rec, err := EncodeCell(c)
	if err != nil {
		return err
	}
	return s.publishFile(dst, rec)
}

// EncodeCell renders a cell as its record: the file PutCell writes, which a
// shard also serves a peer as is. The record carries the payload as JSON
// encoding re-emits it (compacted), and its size and checksum cover exactly
// those bytes.
func EncodeCell(c Cell) ([]byte, error) {
	payload, err := json.Marshal(json.RawMessage(c.Payload))
	if err != nil {
		return nil, fmt.Errorf("store: encode cell: %w", err)
	}
	return json.Marshal(cellRecord{
		Hash:        c.Hash,
		CreatedAtMs: c.CreatedAt.UnixMilli(),
		fileMeta:    checksum(payload),
		Payload:     payload,
	})
}

// DecodeCell decodes and verifies a cell record against the hash the caller
// asked for: the record must name it, and its payload must match the size
// and checksum the record declares. GetCell runs the same check on the file
// on disk. A record that fails it reports ErrCorrupt.
func DecodeCell(hash string, data []byte) (Cell, error) {
	rec, err := decodeCellRecord(data, hash)
	if err != nil {
		return Cell{}, err
	}
	if checksum(rec.Payload) != rec.fileMeta {
		return Cell{}, corrupt(hash, "cell payload checksum mismatch")
	}
	return Cell{Hash: hash, Payload: []byte(rec.Payload), CreatedAt: time.UnixMilli(rec.CreatedAtMs)}, nil
}

// GetCell reads and verifies the cell stored under hash; see get.
func (s *Store) GetCell(hash string) (Cell, error) {
	return get(s, s.cellDir, "cell", hash, DecodeCell)
}

// decodeCellRecord decodes a cell record's envelope and checks that it
// names hash, without verifying the payload. A record that fails reports
// ErrCorrupt.
func decodeCellRecord(data []byte, hash string) (cellRecord, error) {
	var rec cellRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, corrupt(hash, "bad cell record: "+err.Error())
	}
	if rec.Hash != hash {
		return rec, corrupt(hash, "cell record names hash "+rec.Hash)
	}
	return rec, nil
}

// HasCell reports whether a cell record exists under hash without reading
// or verifying it. It is the cheap existence probe behind SRPT job sizing
// (counting uncached cells); a record that later fails verification still
// degrades to recomputation at lookup time, so a false positive here only
// perturbs a scheduling estimate, never a result.
func (s *Store) HasCell(hash string) bool {
	path, err := s.entry(s.cellDir, hash)
	if err != nil {
		return false
	}
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// DeleteCell removes the cell stored under hash; deleting a missing cell is
// not an error.
func (s *Store) DeleteCell(hash string) error { return s.remove(s.cellDir, hash) }

// ListCells summarizes every stored cell record. A record whose envelope
// fails its check is quarantined and skipped, and one that cannot be read
// is skipped for this pass; neither fails the listing. Payload checksums
// are deliberately not reverified here (GetCell does) so a GC sweep over a
// large tier stays cheap.
func (s *Store) ListCells() ([]Info, error) {
	return s.list(s.cellDir, func(hash, path string) (Info, bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			return Info{}, false
		}
		rec, err := decodeCellRecord(data, hash)
		if err != nil {
			_ = s.quarantine(path, hash, err)
			return Info{}, false
		}
		return Info{Hash: hash, Bytes: int64(len(data)), CreatedAt: time.UnixMilli(rec.CreatedAtMs)}, true
	})
}

// PutSpec atomically stores the canonical spec bytes under their matrix
// hash, making an in-flight matrix recoverable after a crash. The caller
// guarantees hash == SHA-256(canonical) (internal/service/spec.Hash); reads
// reverify it.
func (s *Store) PutSpec(hash string, canonical []byte) error {
	dst, err := s.entry(s.specDir, hash)
	if err != nil {
		return err
	}
	return s.publishFile(dst, canonical)
}

// GetSpec reads the canonical spec bytes stored under hash; see get. The
// content is self-verifying: bytes whose SHA-256 does not match the name
// are quarantined and report ErrCorrupt.
func (s *Store) GetSpec(hash string) ([]byte, error) {
	return get(s, s.specDir, "spec", hash, func(hash string, data []byte) ([]byte, error) {
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != hash {
			return nil, corrupt(hash, "spec bytes do not hash to their name")
		}
		return data, nil
	})
}

// DeleteSpec removes the spec stored under hash; deleting a missing spec is
// not an error.
func (s *Store) DeleteSpec(hash string) error { return s.remove(s.specDir, hash) }

// ListSpecs summarizes every stored spec record; a spec's CreatedAt is the
// file's modification time (when the spec was stored).
func (s *Store) ListSpecs() ([]Info, error) {
	return s.list(s.specDir, func(hash, path string) (Info, bool) {
		st, err := os.Stat(path)
		if err != nil {
			return Info{}, false
		}
		return Info{Hash: hash, Bytes: st.Size(), CreatedAt: st.ModTime()}, true
	})
}
