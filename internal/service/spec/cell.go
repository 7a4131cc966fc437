package spec

// Cell-level content addressing. A matrix is a deterministic reduce over its
// cells — one (scheduler, sweep point, seed replicate) simulation each — and
// every cell's outcome is a pure function of the single-cell projection of
// the spec: the shared workload, one scheduler row with its effective
// tunables, one point, and the replicate's derived seed. Two cells in two
// different matrices that project to the same single-cell spec therefore
// produce the same payload, which is what lets internal/store cache cell
// results across overlapping sweeps and lets a crashed matrix resume from
// the cells it already persisted.
//
// # Cell-hash stability contract (cell schema version 1)
//
// Like the matrix hash, the cell hash is an on-disk key (internal/store's
// cells/ tier), so its derivation is frozen: a hash computed by one build
// must match the hash computed by every later build. Frozen for cell schema
// version 1:
//
//   - the single-cell projection rules of CellSpec below (point-level Params
//     overrides collapsed into the scheduler row, Runs pinned to 1, BaseSeed
//     replaced by the replicate's CellSeed, SeedStride omitted);
//   - the cellKey struct's field order and json tags (its scheduler and
//     point are runner.SchedulerSpec and runner.Point), with the workload
//     replaced by the SHA-256 of its canonical encoding so per-cell hashing
//     costs O(axes), not O(workload);
//   - the cellDomain prefix that separates cell hashes from matrix hashes;
//   - SHA-256 over prefix+key bytes, rendered as lowercase hex.
//
// Any change that alters the hash of an existing cell MUST bump CellVersion
// instead of mutating version 1. cell_test.go pins a golden hash.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mrclone/internal/runner"
)

// CellVersion is the current (and only) cell-addressing schema version.
const CellVersion = 1

// cellDomain separates the cell-hash namespace from the matrix-hash
// namespace: a single-cell matrix spec and its own cell projection share
// canonical bytes, and the prefix keeps their hashes from aliasing across
// the two store tiers.
const cellDomain = "mrclone-cell-v1\n"

// cellKey is the hashed identity of one cell. It is equivalent to the full
// single-cell projection (CellSpec): two cells have equal keys exactly when
// their projections have equal canonical bytes — the workload is represented
// by the digest of its canonical encoding, everything else verbatim.
type cellKey struct {
	Cell      int       `json:"cell"`     // CellVersion
	Workload  string    `json:"workload"` // SHA-256 hex of canonical workload JSON
	Scheduler Scheduler `json:"scheduler"`
	Point     Point     `json:"point"`
	Seed      int64     `json:"seed"`
	MaxSlots  int64     `json:"max_slots,omitempty"`
}

// cellAxes resolves cell coordinates against the normalized spec: the
// scheduler row with its effective params (a point-level override replaces
// the row's tunables) and the point stripped of that override. Callers have
// validated the spec; only the coordinates are checked here.
func (s Spec) cellAxes(si, pi, run int) (Scheduler, Point, error) {
	if si < 0 || si >= len(s.Schedulers) || pi < 0 || pi >= len(s.Points) ||
		run < 0 || run >= s.Runs {
		return Scheduler{}, Point{}, fmt.Errorf(
			"spec: cell (%d,%d,%d) outside %dx%dx%d matrix",
			si, pi, run, len(s.Schedulers), len(s.Points), s.Runs)
	}
	sc := s.Schedulers[si]
	pt := s.Points[pi]
	if pt.Params != nil {
		sc.Params = *pt.Params
		pt.Params = nil
	}
	return sc, pt, nil
}

// CellSpec returns the single-cell projection of cell (si, pi, run): a valid
// spec describing exactly that simulation — the same workload, the one
// scheduler with its effective tunables, the one point, one run, and the
// replicate's derived seed as the base seed. Identical cells in different
// matrices project to identical specs, and a projection is a fixed point:
// proj.CellSpec(0, 0, 0) equals proj.
func (s Spec) CellSpec(si, pi, run int) (Spec, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	sc, pt, err := s.cellAxes(si, pi, run)
	if err != nil {
		return Spec{}, err
	}
	proj := Spec{
		Version:    Version,
		Workload:   s.Workload,
		Schedulers: []Scheduler{sc},
		Points:     []Point{pt},
		Runs:       1,
		BaseSeed:   runner.CellSeed(s.BaseSeed, s.SeedStride, run),
		MaxSlots:   s.MaxSlots,
	}
	return proj.Normalize(), nil
}

// CellHasher hashes the cells of one matrix. The workload digest — the
// expensive part for explicit multi-thousand-row workloads — is computed
// once at construction, so Hash costs one small JSON marshal per cell.
type CellHasher struct {
	spec     Spec   // normalized and validated
	workload string // SHA-256 hex of the canonical workload encoding
}

// CellHasher validates the spec and precomputes its workload digest.
func (s Spec) CellHasher() (*CellHasher, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wb, err := json.Marshal(s.Workload)
	if err != nil {
		return nil, fmt.Errorf("spec: encode workload: %w", err)
	}
	sum := sha256.Sum256(wb)
	return &CellHasher{spec: s, workload: hex.EncodeToString(sum[:])}, nil
}

// Hash returns the content address of cell (si, pi, run): the lowercase-hex
// SHA-256 of the domain-prefixed cellKey encoding. Equal across matrices
// exactly when the cells' single-cell projections are equal.
func (h *CellHasher) Hash(si, pi, run int) (string, error) {
	sc, pt, err := h.spec.cellAxes(si, pi, run)
	if err != nil {
		return "", err
	}
	key, err := json.Marshal(cellKey{
		Cell:      CellVersion,
		Workload:  h.workload,
		Scheduler: sc,
		Point:     pt,
		Seed:      runner.CellSeed(h.spec.BaseSeed, h.spec.SeedStride, run),
		MaxSlots:  h.spec.MaxSlots,
	})
	if err != nil {
		return "", fmt.Errorf("spec: encode cell key: %w", err)
	}
	sum := sha256.New()
	sum.Write([]byte(cellDomain))
	sum.Write(key)
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// CellHash is the one-shot form of CellHasher().Hash for callers addressing
// a single cell; loops over many cells should hold a CellHasher instead.
func (s Spec) CellHash(si, pi, run int) (string, error) {
	h, err := s.CellHasher()
	if err != nil {
		return "", err
	}
	return h.Hash(si, pi, run)
}
