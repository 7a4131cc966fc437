// Package spec defines the canonical, versioned wire format for run-matrix
// specifications: everything a client must send to reproduce a
// runner.Run call — the workload (trace generator parameters or explicit
// trace rows), the scheduler axis with tunables, the sweep-point axis, and
// the seeding scheme.
//
// The format is designed for content addressing. Parse is strict (unknown
// fields and duplicate workloads are rejected), Normalize maps every spec
// to a unique representative of its equivalence class (defaults filled,
// version pinned), and Canonical marshals that representative with a fixed
// field order and shortest round-trip float encoding. Hash is the SHA-256
// of the canonical bytes, so two specs share a hash exactly when they
// describe the same simulation — the key property that lets the service
// layer deduplicate in-flight work and cache results: the runner guarantees
// byte-identical artifacts for equal specs at any parallelism.
//
// # Hash stability contract
//
// The hash is not just an in-process cache key: internal/store uses it as
// the on-disk directory name of persisted artifacts, so a hash computed by
// one build must match the hash computed by every later build or warm disk
// caches silently die on upgrade. Concretely, the following are frozen for
// spec version 1:
//
//   - the canonical JSON field order and json tags of the Spec and Workload
//     structs below and of the types they carry on the wire unchanged:
//     runner.SchedulerSpec and runner.Point (the row and column encoding),
//     trace.Params and trace.JobRow;
//   - the normalization rules (version pinned, Runs defaulted to 1, default
//     seed stride and unit machine speed collapsed to their omitted forms);
//   - encoding/json's shortest round-trip float encoding; and
//   - SHA-256 over the canonical bytes, rendered as lowercase hex.
//
// Any change that alters canonical bytes for an existing spec — a new
// field with a non-omitted zero value, a reordered field, a changed
// normalization — MUST bump Version instead of mutating version 1; old
// hashes then remain valid names for old artifacts. Adding a field that is
// omitted when unset (omitempty/omitzero) keeps existing hashes intact and
// is allowed. spec_test.go pins golden hashes to catch accidental drift.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"mrclone/internal/job"
	"mrclone/internal/runner"
	"mrclone/internal/sched"
	"mrclone/internal/trace"
)

// Version is the current (and only) spec schema version.
const Version = 1

// Errors reported by spec parsing and validation.
var (
	ErrVersion      = errors.New("spec: unsupported version")
	ErrNoWorkload   = errors.New("spec: workload needs exactly one of trace params or rows")
	ErrNoSchedulers = errors.New("spec: need at least one scheduler")
	ErrNoPoints     = errors.New("spec: need at least one sweep point")
)

// Workload is the job source of a matrix: either synthetic-trace generator
// parameters (expanded deterministically server-side) or explicit trace
// rows. Exactly one of Trace and Rows must be set.
type Workload struct {
	// Trace, when non-nil, generates the workload from parameters; the
	// expansion is deterministic, so equal parameters mean equal jobs.
	Trace *trace.Params `json:"trace,omitempty"`
	// Jobs truncates a generated trace to its first n arrivals (0 = all).
	// Only meaningful with Trace.
	Jobs int `json:"jobs,omitempty"`
	// Rows is an explicit workload, one row per job (the CSV trace schema).
	Rows []trace.JobRow `json:"rows,omitempty"`
}

// Scheduler is one row of the matrix: a registered scheduler name plus its
// tunables. It is the runner's own row type, sent on the wire unchanged.
type Scheduler = runner.SchedulerSpec

// Point is one column of the matrix: a sweep coordinate and the cluster
// shape it maps to, optionally overriding the scheduler tunables. It is the
// runner's own column type, sent on the wire unchanged.
type Point = runner.Point

// Spec is the versioned wire form of a run matrix.
type Spec struct {
	Version    int         `json:"version"`
	Workload   Workload    `json:"workload"`
	Schedulers []Scheduler `json:"schedulers"`
	Points     []Point     `json:"points"`
	// Runs is the number of seed replicates per (scheduler, point) pair
	// (0 = 1).
	Runs int `json:"runs,omitempty"`
	// BaseSeed anchors replicate seeds (runner.CellSeed).
	BaseSeed int64 `json:"base_seed,omitempty"`
	// SeedStride overrides the replicate seed spacing
	// (0 = runner.DefaultSeedStride).
	SeedStride int64 `json:"seed_stride,omitempty"`
	// MaxSlots bounds simulated time (0 = engine default).
	MaxSlots int64 `json:"max_slots,omitempty"`
}

// Parse decodes a spec strictly: unknown fields are rejected, trailing
// garbage is rejected, and the result is validated.
func Parse(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: decode: %w", err)
	}
	// Anything after the spec object — valid JSON or garbage — is an error;
	// only clean EOF is acceptable.
	if err := dec.Decode(&json.RawMessage{}); !errors.Is(err, io.EOF) {
		return Spec{}, errors.New("spec: trailing data after spec object")
	}
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Normalize maps the spec to the unique representative of its equivalence
// class so equivalent specs hash identically: the version is pinned, Runs
// defaults to 1, the default seed stride is collapsed to 0 (omitted from
// the canonical encoding), and unit machine speed is collapsed to the
// omitted default 0 (the engine treats both as speed 1; its reported Speed
// is the normalized value, so artifacts are identical too). A zero-valued
// point Params override is NOT collapsed to nil — nil keeps the scheduler
// row's tunables while an explicit zero replaces them.
func (s Spec) Normalize() Spec {
	if s.Version == 0 {
		s.Version = Version
	}
	if s.Runs == 0 {
		s.Runs = 1 // negative values are rejected by Validate, not defaulted
	}
	if s.SeedStride == runner.DefaultSeedStride {
		s.SeedStride = 0
	}
	for i, p := range s.Points {
		if p.Speed != 1 {
			continue
		}
		// Copy-on-write: callers keep their original Points slice.
		points := make([]Point, len(s.Points))
		copy(points, s.Points)
		for j := i; j < len(points); j++ {
			if points[j].Speed == 1 {
				points[j].Speed = 0
			}
		}
		s.Points = points
		break
	}
	return s
}

// Validate checks the spec deeply: schema version, workload shape and
// generator parameters, registered scheduler names and tunables, and the
// runner-level matrix invariants.
func (s Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("%w: %d (want %d)", ErrVersion, s.Version, Version)
	}
	switch {
	case s.Workload.Trace == nil && len(s.Workload.Rows) == 0:
		return ErrNoWorkload
	case s.Workload.Trace != nil && len(s.Workload.Rows) > 0:
		return ErrNoWorkload
	case s.Workload.Trace == nil && s.Workload.Jobs != 0:
		return errors.New("spec: workload jobs truncation requires trace params")
	case s.Workload.Jobs < 0:
		return fmt.Errorf("spec: workload jobs %d", s.Workload.Jobs)
	}
	if s.Workload.Trace != nil {
		if err := s.Workload.Trace.Validate(); err != nil {
			return fmt.Errorf("spec: workload: %w", err)
		}
	}
	if len(s.Schedulers) == 0 {
		return ErrNoSchedulers
	}
	for i, sc := range s.Schedulers {
		if !sched.Has(sc.Name) {
			return fmt.Errorf("spec: scheduler %d: unknown name %q (have %v)",
				i, sc.Name, sched.Names())
		}
	}
	if len(s.Points) == 0 {
		return ErrNoPoints
	}
	for i, p := range s.Points {
		if p.Machines <= 0 {
			return fmt.Errorf("spec: point %d (x=%v): machines %d, need > 0", i, p.X, p.Machines)
		}
		if p.Speed < 0 {
			return fmt.Errorf("spec: point %d (x=%v): speed %v", i, p.X, p.Speed)
		}
	}
	// Build each scheduler once per distinct set of tunables its cells run
	// with, so an out-of-range tunable is rejected here and not by every
	// cell of an accepted run. The work is linear in the spec, as Parse runs
	// this on unauthenticated submissions.
	build := func(i, pi int, params sched.Params) error {
		if _, err := sched.Build(s.Schedulers[i].Name, params); err != nil {
			return fmt.Errorf("spec: scheduler %d (%s) at point %d (x=%v): %w",
				i, s.Schedulers[i].Name, pi, s.Points[pi].X, err)
		}
		return nil
	}
	// Rows run with their own tunables at points without an override, so
	// each distinct row is built at the first such point.
	if pi := slices.IndexFunc(s.Points, func(p Point) bool { return p.Params == nil }); pi >= 0 {
		rows := make(map[Scheduler]bool)
		for i, sc := range s.Schedulers {
			if rows[sc] {
				continue
			}
			rows[sc] = true
			if err := build(i, pi, sc.Params); err != nil {
				return err
			}
		}
	}
	// A point's override gives every row of one name the same scheduler, so
	// each distinct override is built once per name, against its first row.
	var firsts []int // at most one per registered name
	for i, sc := range s.Schedulers {
		if !slices.ContainsFunc(firsts, func(f int) bool { return s.Schedulers[f].Name == sc.Name }) {
			firsts = append(firsts, i)
		}
	}
	overrides := make(map[sched.Params]bool)
	for pi, p := range s.Points {
		if p.Params == nil || overrides[*p.Params] {
			continue
		}
		overrides[*p.Params] = true
		for _, i := range firsts {
			if err := build(i, pi, *p.Params); err != nil {
				return err
			}
		}
	}
	if s.Runs < 0 {
		return fmt.Errorf("spec: runs %d", s.Runs)
	}
	if s.SeedStride < 0 {
		return fmt.Errorf("spec: seed stride %d", s.SeedStride)
	}
	if s.MaxSlots < 0 {
		return fmt.Errorf("spec: max slots %d", s.MaxSlots)
	}
	// Explicit rows are checked by the trace rules without building the
	// per-job distributions: Validate runs several times on the submission
	// path, and expanding a 6000-row workload here would be wasted work.
	for i, r := range s.Workload.Rows {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("spec: workload rows: row %d (id %d): %w", i, r.ID, err)
		}
	}
	if err := trace.UniqueIDs(s.Workload.Rows); err != nil {
		return fmt.Errorf("spec: workload rows: %w", err)
	}
	return nil
}

// Canonical returns the canonical encoding: the normalized spec marshaled
// compactly with the fixed struct field order. Two specs are equivalent
// exactly when their canonical bytes are equal.
func (s Spec) Canonical() ([]byte, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// Hash returns the content address of the spec: the lowercase-hex SHA-256
// of its canonical encoding.
func (s Spec) Hash() (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// HashSubmission parses a raw submission body strictly and returns the
// spec content hash without building any execution context: the workload is
// validated structurally but never expanded into job specs, so a routing
// tier (internal/gateway) can compute the placement key of a 6000-row trace
// submission for the cost of one JSON decode. The hash is identical to what
// the owning shard computes for the same bytes — the property that makes
// hash routing a pure placement decision.
func HashSubmission(data []byte) (string, error) {
	s, err := Parse(data)
	if err != nil {
		return "", err
	}
	return s.Hash()
}

// jobSpecs expands the workload into engine-ready job specs.
func (s Spec) jobSpecs() ([]job.Spec, error) {
	if s.Workload.Trace != nil {
		tr, err := trace.Generate(*s.Workload.Trace)
		if err != nil {
			return nil, fmt.Errorf("spec: workload: %w", err)
		}
		if s.Workload.Jobs > 0 && s.Workload.Jobs < len(tr.Rows) {
			tr = tr.Subset(s.Workload.Jobs)
		}
		return tr.Specs()
	}
	tr := &trace.Trace{Rows: s.Workload.Rows}
	specs, err := tr.Specs()
	if err != nil {
		return nil, fmt.Errorf("spec: workload rows: %w", err)
	}
	return specs, nil
}

// Axes expands everything about the spec except its workload: the
// scheduler axis, sweep axis, and seeding scheme of the runner.Spec, with
// Specs left nil. The result is enough to enumerate cell coordinates (for
// runner.Assemble and cell-count estimates) without paying for trace
// generation and per-job distribution construction; callers that will
// actually simulate use Runner, which fills the workload in. The result
// shares the normalized spec's axis slices; the runner only reads them.
func (s Spec) Axes() (runner.Spec, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return runner.Spec{}, err
	}
	return runner.Spec{
		Schedulers: s.Schedulers,
		Points:     s.Points,
		Runs:       s.Runs,
		BaseSeed:   s.BaseSeed,
		SeedStride: s.SeedStride,
		MaxSlots:   s.MaxSlots,
	}, nil
}

// WorkloadJobs returns the number of jobs every cell of the matrix
// simulates, without expanding the workload: the row count for explicit
// workloads, the (possibly truncated) generator job count for trace
// workloads. Together with the uncached cell count it estimates a job's
// remaining work for the SRPT dequeue policy.
func (s Spec) WorkloadJobs() int {
	if s.Workload.Trace == nil {
		return len(s.Workload.Rows)
	}
	n := s.Workload.Trace.Jobs
	if s.Workload.Jobs > 0 && s.Workload.Jobs < n {
		n = s.Workload.Jobs
	}
	return n
}

// Runner expands the spec into the runner.Spec it describes. The expansion
// is deterministic: equal canonical specs yield matrices with byte-identical
// artifacts (see internal/runner).
func (s Spec) Runner() (runner.Spec, error) {
	rs, err := s.Axes()
	if err != nil {
		return runner.Spec{}, err
	}
	jobs, err := s.Normalize().jobSpecs()
	if err != nil {
		return runner.Spec{}, err
	}
	rs.Specs = jobs
	if err := rs.Validate(); err != nil {
		return runner.Spec{}, err
	}
	return rs, nil
}
