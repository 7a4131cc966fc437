// Package runner orchestrates experiment run matrices: the cross product of
// schedulers × sweep points × seed replicates that every figure of the
// paper's evaluation (and every ad-hoc parameter study) reduces to. Cells
// are executed on a bounded worker pool with context cancellation, and the
// whole matrix is deterministic: each cell's RNG seed is a pure function of
// the base seed and the cell's replicate coordinate, results are stored by
// cell index rather than completion order, and every reduction (averages,
// CDFs, artifacts) folds runs in index order — so artifacts are
// byte-identical at any parallelism level, including 1.
//
// Seed derivation deliberately uses common random numbers: only the
// replicate index shifts the seed (CellSeed), never the scheduler or sweep
// coordinate, so every scheduler and every sweep point face the same
// random workload realizations. That is the paired-comparison design of the
// paper's evaluation (each configuration averaged over the same ten seeds)
// and a classic variance-reduction technique for A/B scheduler comparisons.
//
// See README.md in this directory for the matrix model, the seed-derivation
// scheme, and the aggregation semantics.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/metrics"
	"mrclone/internal/sched"
)

// DefaultSeedStride separates replicate seeds. The stride is a prime large
// enough that replicate streams do not trivially overlap; it matches the
// historical sequential harness so regenerated artifacts stay comparable.
const DefaultSeedStride = 7919

// Errors reported by the runner.
var (
	ErrNoWorkload   = errors.New("runner: matrix needs a non-empty workload")
	ErrNoSchedulers = errors.New("runner: matrix needs at least one scheduler")
	ErrNoPoints     = errors.New("runner: matrix needs at least one sweep point")
	ErrNoRaw        = errors.New("runner: raw results were not kept (set Options.KeepRaw)")
)

// SchedulerSpec is one row of the matrix: a registered scheduler name plus
// its tunables. It is also the wire form of a row: internal/service/spec
// sends it unchanged, and its fields and json tags are part of the frozen
// encoding that names every stored spec and cell, so changing either
// re-keys them all.
type SchedulerSpec struct {
	// Name is the registry name passed to sched.Build ("srptms+c", "sca",
	// "mantri", ...).
	Name string `json:"name"`
	// Params are the scheduler tunables; a sweep point may override them.
	Params sched.Params `json:"params,omitzero"`
}

// Point is one column of the matrix: a sweep coordinate with the cluster
// shape (and optionally the scheduler tunables) it maps to. Sweeping
// epsilon or r varies Params; sweeping cluster size varies Machines;
// speed-augmentation studies vary Speed. Like SchedulerSpec it is the wire
// form of a column, so changing a field or a json tag re-keys every stored
// spec and cell.
type Point struct {
	// X is the coordinate as plotted (epsilon, r, machine count, ...).
	X float64 `json:"x"`
	// Machines is the cluster size M for this point. Required > 0.
	Machines int `json:"machines"`
	// Speed is the machine speed (0 means unit speed).
	Speed float64 `json:"speed,omitempty"`
	// Params, when non-nil, replaces the scheduler's Params at this point.
	Params *sched.Params `json:"params,omitempty"`
}

// Spec describes a run matrix over one workload. Everything it holds is
// read-only once it reaches Run or Assemble: cells running concurrently
// share it, and internal/service/spec.Axes hands over the wire spec's own
// axis slices.
type Spec struct {
	// Specs is the shared workload; every cell simulates the same jobs.
	Specs []job.Spec
	// Schedulers is the scheduler axis. Required non-empty.
	Schedulers []SchedulerSpec
	// Points is the sweep axis. Required non-empty.
	Points []Point
	// Runs is the number of seed replicates per (scheduler, point) pair
	// (the paper repeats each simulation ten times). 0 means 1.
	Runs int
	// BaseSeed anchors the replicate seeds; see CellSeed.
	BaseSeed int64
	// SeedStride overrides the replicate seed spacing (0 = DefaultSeedStride).
	SeedStride int64
	// MaxSlots is passed through to cluster.Config.
	MaxSlots int64
}

// CellSeed derives the RNG seed of replicate run from the base seed. The
// scheduler and sweep coordinates are deliberately excluded (common random
// numbers — see the package comment); the replicate index is the only
// coordinate that shifts the seed, so results are reproducible at any
// parallelism level and paired across the other two axes.
func CellSeed(base int64, stride int64, run int) int64 {
	if stride == 0 {
		stride = DefaultSeedStride
	}
	return base + int64(run)*stride
}

// normalize fills Spec defaults.
func (s Spec) normalize() Spec {
	if s.Runs <= 0 {
		s.Runs = 1
	}
	return s
}

// Total returns the number of matrix cells after normalization:
// schedulers × points × runs.
func (s Spec) Total() int {
	s = s.normalize()
	return len(s.Schedulers) * len(s.Points) * s.Runs
}

// Validate rejects malformed matrices before any cell runs. Run calls it
// internally; service layers call it up front so malformed specs are
// rejected at submission time rather than after queueing.
func (s Spec) Validate() error {
	if len(s.Specs) == 0 {
		return ErrNoWorkload
	}
	if len(s.Schedulers) == 0 {
		return ErrNoSchedulers
	}
	if len(s.Points) == 0 {
		return ErrNoPoints
	}
	for i, p := range s.Points {
		if p.Machines <= 0 {
			return fmt.Errorf("runner: point %d (x=%v): machines %d, need > 0", i, p.X, p.Machines)
		}
	}
	return nil
}

// Options configures matrix execution, not matrix content.
type Options struct {
	// Parallelism bounds concurrently running cells. <= 0 means
	// runtime.GOMAXPROCS(0). Results do not depend on it.
	Parallelism int
	// Progress, when non-nil, is called after each cell lands with the
	// counts of finished cells, cells resolved from CellCache, and the
	// matrix size. Calls are serialized and monotone in done; keep the
	// callback cheap.
	Progress func(done, cached, total int)
	// CellTime, when non-nil, is called after each cell lands with the
	// wall-clock duration the cell took to resolve and whether it came from
	// CellCache. Calls are serialized with Progress; keep the
	// callback cheap. Durations are observational only — they depend on the
	// machine and on cache state, never on matrix content.
	CellTime func(d time.Duration, fromCache bool)
	// CellCache, when non-nil, is consulted before each cell executes and
	// receives each freshly computed cell. A Lookup hit skips the
	// simulation entirely: the payload is restamped with this matrix's
	// coordinates, so the reduced artifacts are byte-identical whether 0%,
	// 50%, or 100% of cells resolved from the cache, at any parallelism.
	// Lookups are skipped when KeepRaw is set (a cached payload carries no
	// raw result); Publish still runs.
	CellCache CellCache
	// KeepRaw retains each cell's full *cluster.Result (per-job records),
	// enabling CDF reductions at the cost of memory proportional to
	// jobs × cells.
	KeepRaw bool
}

// CellCache supplies previously computed cell payloads and receives fresh
// ones. Implementations are called concurrently from the worker pool and
// must be safe for concurrent use; how cells are keyed (e.g. the content
// hashes of internal/service/spec.CellHash) is the implementation's
// business — the runner only speaks coordinates.
type CellCache interface {
	// Lookup returns the payload of cell (si, pi, run) if it resolves.
	Lookup(si, pi, run int) (CellPayload, bool)
	// Publish offers the payload of a freshly computed cell. Failures to
	// store are the implementation's to swallow: publishing is an
	// optimization, never a correctness requirement.
	Publish(si, pi, run int, p CellPayload)
}

// CellPayload is the coordinate-independent outcome of one cell —
// everything CellResult carries except its (scheduler, point, run) position
// in a particular matrix. It is the unit of cross-matrix caching: a payload
// computed inside one matrix restamps as the CellResult of any other matrix
// whose cell has the same content identity.
type CellPayload struct {
	Seed int64 `json:"seed"`

	SchedulerName string  `json:"scheduler_name"` // engine-reported name
	X             float64 `json:"x"`
	Machines      int     `json:"machines"`
	Speed         float64 `json:"speed"`

	Summary       metrics.FlowtimeSummary `json:"summary"`
	Slots         int64                   `json:"slots"`
	TotalCopies   int64                   `json:"total_copies"`
	CloneCopies   int64                   `json:"clone_copies"`
	MachineSlots  int64                   `json:"machine_slots"`
	WastedCopyWrk float64                 `json:"wasted_copy_work"`
	FinishedJobs  int                     `json:"finished_jobs"`
}

// CellResult is the outcome of one matrix cell, identified by its
// coordinates (Scheduler, Point, Run) on the three axes. The embedded
// payload keeps the JSON encoding flat and byte-identical to the historical
// artifact schema.
type CellResult struct {
	Scheduler int `json:"scheduler"` // index into Spec.Schedulers
	Point     int `json:"point"`     // index into Spec.Points
	Run       int `json:"run"`       // replicate index
	CellPayload

	// Raw is the full simulation result; nil unless Options.KeepRaw.
	Raw *cluster.Result `json:"-"`
}

// Result holds a completed matrix, cells stored scheduler-major, then
// point, then run — a fixed order independent of execution interleaving.
type Result struct {
	Schedulers []string     `json:"schedulers"` // registry names, matrix order
	Points     []float64    `json:"points"`     // sweep coordinates, matrix order
	Runs       int          `json:"runs"`
	BaseSeed   int64        `json:"base_seed"`
	Cells      []CellResult `json:"cells"`
}

// cellIndex maps coordinates to the flat cell slot.
func (r *Result) cellIndex(si, pi, run int) int {
	return (si*len(r.Points)+pi)*r.Runs + run
}

// Cell returns the result of one cell by coordinates.
func (r *Result) Cell(si, pi, run int) *CellResult {
	return &r.Cells[r.cellIndex(si, pi, run)]
}

// cellError is one failed cell, kept with its flat index so the joined
// error lists cells in matrix order regardless of completion order.
type cellError struct {
	idx int
	err error
}

// Run executes every cell of the matrix on a bounded worker pool and
// returns the assembled result. Cells whose payloads resolve from
// Options.CellCache skip execution and reduce alongside fresh cells in
// matrix order. The first cell error (or a context cancellation) stops the
// feed and drains in-flight cells; every cell that failed is reported,
// joined in matrix order with its (scheduler, point, run) coordinates.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	spec = spec.normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Every cell runs the same jobs, so they are validated, sorted and
	// given their moments once for all workers.
	workload, err := cluster.NewWorkload(spec.Specs)
	if err != nil {
		return nil, fmt.Errorf("runner: workload: %w", err)
	}
	res := spec.newResult()
	total := len(res.Cells)
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu     sync.Mutex
		errs   []cellError
		done   int
		cached int
		wg     sync.WaitGroup
	)
	fail := func(idx int, err error) {
		mu.Lock()
		errs = append(errs, cellError{idx: idx, err: err})
		if len(errs) == 1 {
			cancel() // stop the feed; in-flight cells drain and may add errors
		}
		mu.Unlock()
	}
	land := func(idx int, cell *CellResult, fromCache bool, dur time.Duration) {
		mu.Lock()
		res.Cells[idx] = *cell
		done++
		if fromCache {
			cached++
		}
		if opts.Progress != nil {
			opts.Progress(done, cached, total)
		}
		if opts.CellTime != nil {
			opts.CellTime(dur, fromCache)
		}
		mu.Unlock()
	}
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's cells run one after another in the same engine
			// memory, which goes with the worker.
			var st cluster.Storage
			for idx := range idxCh {
				start := time.Now()
				if cell, ok := spec.cachedCell(idx, opts); ok {
					land(idx, cell, true, time.Since(start))
					continue
				}
				cell, err := spec.runCell(idx, workload, &st, opts.KeepRaw)
				if err != nil {
					fail(idx, err)
					continue
				}
				if opts.CellCache != nil {
					si, pi, run := spec.cellCoords(idx)
					opts.CellCache.Publish(si, pi, run, cell.CellPayload)
				}
				land(idx, cell, false, time.Since(start))
			}
		}()
	}
feed:
	for idx := 0; idx < total; idx++ {
		select {
		case idxCh <- idx:
		case <-runCtx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	if len(errs) > 0 {
		// Matrix order, not completion order, so the joined message is
		// deterministic for a fixed set of failing cells.
		sort.Slice(errs, func(i, j int) bool { return errs[i].idx < errs[j].idx })
		joined := make([]error, len(errs))
		for i, ce := range errs {
			joined[i] = ce.err
		}
		return nil, errors.Join(joined...)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("runner: canceled after %d/%d cells: %w", done, total, err)
	}
	return res, nil
}

// Assemble builds the full matrix result purely from cache, without
// simulating (or even carrying) a workload: every cell must resolve from
// the CellCache with identity fields matching the matrix coordinates, or
// Assemble reports false. spec.Specs may be nil — only the scheduler axis,
// sweep axis, and seeding scheme are read (see
// internal/service/spec.Axes) — which is what makes the fully-cached fast
// path cheap: a submission whose cells all persist from earlier matrices
// reduces to Total() cache reads, no trace expansion and no worker slot.
// Assemble aborts on the first miss, so probing a cold spec costs one
// lookup.
func Assemble(spec Spec, cache CellCache) (*Result, bool) {
	if cache == nil {
		return nil, false
	}
	spec = spec.normalize()
	// The workload-free subset of Validate: Assemble never simulates, so
	// an empty Specs is fine, but the axes must still describe a matrix.
	if len(spec.Schedulers) == 0 || len(spec.Points) == 0 {
		return nil, false
	}
	res := spec.newResult()
	opts := Options{CellCache: cache}
	for idx := range res.Cells {
		cell, ok := spec.cachedCell(idx, opts)
		if !ok {
			return nil, false
		}
		res.Cells[idx] = *cell
	}
	return res, true
}

// newResult allocates the result of the normalized matrix: its axis labels
// and one empty slot per cell.
func (s *Spec) newResult() *Result {
	res := &Result{
		Schedulers: make([]string, len(s.Schedulers)),
		Points:     make([]float64, len(s.Points)),
		Runs:       s.Runs,
		BaseSeed:   s.BaseSeed,
		Cells:      make([]CellResult, s.Total()),
	}
	for i, sc := range s.Schedulers {
		res.Schedulers[i] = sc.Name
	}
	for i, p := range s.Points {
		res.Points[i] = p.X
	}
	return res
}

// cellCoords maps a flat cell index to its (scheduler, point, run)
// coordinates; the inverse of Result.cellIndex.
func (s *Spec) cellCoords(idx int) (si, pi, run int) {
	run = idx % s.Runs
	pi = (idx / s.Runs) % len(s.Points)
	si = idx / (s.Runs * len(s.Points))
	return si, pi, run
}

// cachedCell resolves one cell from Options.CellCache, restamped with this
// matrix's coordinates. Payloads whose identity fields contradict the cell —
// a stale or miskeyed cache entry — are rejected as misses, so a bad cache
// degrades to recomputation, never to a wrong artifact.
func (s *Spec) cachedCell(idx int, opts Options) (*CellResult, bool) {
	if opts.CellCache == nil || opts.KeepRaw {
		return nil, false
	}
	si, pi, run := s.cellCoords(idx)
	p, ok := opts.CellCache.Lookup(si, pi, run)
	if !ok {
		return nil, false
	}
	pt := s.Points[pi]
	if p.Seed != CellSeed(s.BaseSeed, s.SeedStride, run) ||
		p.X != pt.X || p.Machines != pt.Machines {
		return nil, false
	}
	return &CellResult{Scheduler: si, Point: pi, Run: run, CellPayload: p}, true
}

// runCell simulates one cell of the matrix whose prepared workload is w, in
// the calling worker's engine memory st. It is called concurrently:
// everything it touches on spec and w is read-only, and it builds a private
// scheduler and engine.
func (s *Spec) runCell(idx int, w *cluster.Workload, st *cluster.Storage, keepRaw bool) (*CellResult, error) {
	si, pi, run := s.cellCoords(idx)

	ss := s.Schedulers[si]
	pt := s.Points[pi]
	params := ss.Params
	if pt.Params != nil {
		params = *pt.Params
	}
	seed := CellSeed(s.BaseSeed, s.SeedStride, run)
	fail := func(err error) (*CellResult, error) {
		return nil, fmt.Errorf("runner: cell (si=%d,pi=%d,run=%d) %s x=%v: %w",
			si, pi, run, ss.Name, pt.X, err)
	}

	schedImpl, err := sched.Build(ss.Name, params)
	if err != nil {
		return fail(err)
	}
	eng, err := cluster.NewEngine(cluster.Config{
		Machines: pt.Machines,
		Speed:    pt.Speed,
		MaxSlots: s.MaxSlots,
		Seed:     seed,
	}, schedImpl, w, st)
	if err != nil {
		return fail(err)
	}
	raw, err := eng.Run()
	if err != nil {
		return fail(err)
	}
	sum, err := metrics.Summarize(raw)
	if err != nil {
		return fail(err)
	}
	cell := &CellResult{
		Scheduler: si,
		Point:     pi,
		Run:       run,
		CellPayload: CellPayload{
			Seed:          seed,
			SchedulerName: raw.Scheduler,
			X:             pt.X,
			Machines:      raw.Machines,
			Speed:         raw.Speed,
			Summary:       sum,
			Slots:         raw.Slots,
			TotalCopies:   raw.TotalCopies,
			CloneCopies:   raw.CloneCopies,
			MachineSlots:  raw.MachineSlots,
			WastedCopyWrk: raw.WastedCopyWrk,
			FinishedJobs:  raw.FinishedJobs,
		},
	}
	if keepRaw {
		cell.Raw = raw
	}
	return cell, nil
}
