// Package schedutil provides helpers shared by the scheduler
// implementations: priority ordering, random task picking, the
// largest-remainder integer rounding used to convert fractional machine
// shares into whole machines, the first-copy fill, and the per-phase scan
// cache and straggler order of the detection baselines.
//
// Schedulers invoked once per engine event keep a Sorter and an Apportioner
// as scratch, and the other helpers take caller-owned buffers, so none of
// them allocates in steady state. Scratch values are not safe for
// concurrent use; each engine builds its own scheduler, so per-scheduler
// scratch is single-threaded by construction.
package schedutil

import (
	"cmp"
	"math"
	"slices"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/rng"
)

// keyedJob pairs a job with its precomputed sort key so comparisons inside
// the sort do not recompute priorities O(n log n) times.
type keyedJob struct {
	j *job.Job
	p float64
}

// compareKeyedDesc orders by descending priority, ties by ascending job ID
// for determinism. Job IDs are unique, so the order is total and the stable
// sort's output is the unique sorted permutation.
func compareKeyedDesc(a, b keyedJob) int {
	switch {
	case a.p > b.p:
		return -1
	case a.p < b.p:
		return 1
	case a.j.Spec.ID < b.j.Spec.ID:
		return -1
	case a.j.Spec.ID > b.j.Spec.ID:
		return 1
	default:
		return 0
	}
}

// Sorter holds reusable scratch for the priority sorts. The zero value is
// ready to use.
type Sorter struct {
	keyed []keyedJob
}

// ByPriorityDesc sorts jobs in place by descending priority w_i/U_i(l)
// (Equation 4 with the given deviation factor), breaking ties by ascending
// job ID for determinism.
func (s *Sorter) ByPriorityDesc(jobs []*job.Job, deviationFactor float64) {
	ks := s.keyed[:0]
	for _, j := range jobs {
		ks = append(ks, keyedJob{j: j, p: j.Priority(deviationFactor)})
	}
	slices.SortStableFunc(ks, compareKeyedDesc)
	for i := range ks {
		jobs[i] = ks[i].j
	}
	s.keyed = ks
}

// ByOfflinePriorityDesc sorts jobs by the offline priority w_i/phi_i
// (Equation 2), descending, ties by ascending ID.
func (s *Sorter) ByOfflinePriorityDesc(jobs []*job.Job, deviationFactor float64) {
	ks := s.keyed[:0]
	for _, j := range jobs {
		phi := j.EffectiveWorkload(deviationFactor)
		p := 0.0
		if phi > 0 {
			p = j.Spec.Weight / phi
		}
		ks = append(ks, keyedJob{j: j, p: p})
	}
	slices.SortStableFunc(ks, compareKeyedDesc)
	for i := range ks {
		jobs[i] = ks[i].j
	}
	s.keyed = ks
}

// PickRandomInPlace chooses k distinct tasks uniformly at random (the
// paper's "choose one unscheduled task at random") from a slice the caller
// owns: it reorders tasks in place and returns a prefix of it. When
// k >= len(tasks) the slice is returned unshuffled with no draws; when
// k <= 0 it returns nil.
func PickRandomInPlace(tasks []*job.Task, k int, src *rng.Source) []*job.Task {
	if k >= len(tasks) {
		return tasks
	}
	if k <= 0 {
		return nil
	}
	// Partial Fisher–Yates.
	for i := 0; i < k; i++ {
		r := i + src.Intn(len(tasks)-i)
		tasks[i], tasks[r] = tasks[r], tasks[i]
	}
	return tasks[:k]
}

// frac is one entry of the largest-remainder ranking.
type frac struct {
	idx  int
	part float64
}

// compareFracDesc orders by descending fractional part, ties by lower index.
func compareFracDesc(a, b frac) int {
	switch {
	case a.part > b.part:
		return -1
	case a.part < b.part:
		return 1
	default:
		return a.idx - b.idx
	}
}

// Apportioner holds reusable scratch for largest-remainder rounding. The
// zero value is ready to use.
type Apportioner struct {
	out   []int
	fracs []frac
}

// LargestRemainder rounds non-negative fractional shares to integers whose
// sum equals the floor of the total share mass, distributing the residual
// units to the entries with the largest fractional parts (ties broken by
// lower index). It is the standard apportionment rule and preserves
// monotonicity of the input ordering. The returned slice is scratch owned by
// the Apportioner, valid until its next call.
func (ap *Apportioner) LargestRemainder(shares []float64, total int) []int {
	out := ap.out[:0]
	for range shares {
		out = append(out, 0)
	}
	ap.out = out
	if total <= 0 || len(shares) == 0 {
		return out
	}
	sum := 0
	fracs := ap.fracs[:0]
	for i, s := range shares {
		if s < 0 {
			s = 0
		}
		w := int(s)
		out[i] = w
		sum += w
		fracs = append(fracs, frac{idx: i, part: s - float64(w)})
	}
	ap.fracs = fracs
	remaining := total - sum
	if remaining <= 0 {
		return out
	}
	slices.SortStableFunc(fracs, compareFracDesc)
	for i := 0; i < len(fracs) && remaining > 0; i++ {
		// Only top up entries that asked for a nonzero share.
		if shares[fracs[i].idx] <= 0 {
			continue
		}
		out[fracs[i].idx]++
		remaining--
	}
	return out
}

// WithUnscheduledTasks filters jobs in place to those with at least one
// unscheduled task (the paper's alive set psi^s(l) for scheduling purposes)
// and returns the filtered prefix. Callers pass Context.AliveJobs scratch,
// which is documented as filterable in place.
func WithUnscheduledTasks(jobs []*job.Job) []*job.Job {
	out := jobs[:0]
	for _, j := range jobs {
		if j.Unscheduled(job.PhaseMap) > 0 || j.Unscheduled(job.PhaseReduce) > 0 {
			out = append(out, j)
		}
	}
	return out
}

// LaunchSingles launches one copy each of up to limit unscheduled tasks of
// j in AppendUnscheduled order, maps before reduces. Reduces go once the map
// phase is done or, with gate, while it is still open as gated copies that
// hold a machine but make no progress until the last map finishes
// (constraint 1g). It returns false once no machine is free or a launch
// failed, so the caller stops, and true when it may go on to another job.
// buf is scratch for the task snapshots and is returned for reuse.
func LaunchSingles(ctx *cluster.Context, j *job.Job, limit int, gate bool, buf []*job.Task) ([]*job.Task, bool) {
	for _, p := range [...]job.Phase{job.PhaseMap, job.PhaseReduce} {
		gated := p == job.PhaseReduce && !j.MapPhaseDone()
		if gated && !gate {
			break
		}
		buf = j.AppendUnscheduled(buf[:0], p)
		for _, t := range buf {
			if limit == 0 || ctx.FreeMachines() == 0 {
				return buf, ctx.FreeMachines() > 0
			}
			if _, err := ctx.Launch(j, t, 1, gated); err != nil {
				return buf, false
			}
			limit--
		}
	}
	return buf, ctx.FreeMachines() > 0
}

// LaunchFirstCopies launches one copy of every unscheduled task it can, job
// by job in the given order, through LaunchSingles without a limit or gated
// reduces. It stops when no machine is free or a launch fails, and reports
// whether machines remain free. buf is scratch for the task snapshots and is
// returned for reuse.
func LaunchFirstCopies(ctx *cluster.Context, jobs []*job.Job, buf []*job.Task) ([]*job.Task, bool) {
	free := ctx.FreeMachines() > 0
	for i := 0; free && i < len(jobs); i++ {
		buf, free = LaunchSingles(ctx, jobs[i], math.MaxInt, false, buf)
	}
	return buf, free
}

// PhaseScan is what a detection baseline's scan of one job phase found.
type PhaseScan struct {
	// Wake is the earliest slot at which a task of the phase could become
	// a candidate while its job does not change; math.MaxInt64 means never.
	Wake int64
	// Again asks for a scan on the next call whatever Wake says: the scan
	// found candidates, or a wake it reported is provisional.
	Again bool
	// At is the slot of the scan, set by ScanCache.Scan; -1 before the
	// phase's first scan.
	At int64
}

// unscanned is the PhaseScan of a phase never scanned: due at once.
var unscanned = PhaseScan{Wake: math.MinInt64, At: -1}

// ScanCache lets a detection baseline rescan only the job phases whose last
// scan may be stale. It keeps each alive job's Changes count at its last
// scan and the PhaseScan of both its phases, in arrival order, and a
// Scheduler keeps one for all its calls. The zero value is ready to use.
type ScanCache struct {
	jobs []scannedJob
}

// scannedJob is one alive job's entry in a ScanCache.
type scannedJob struct {
	j       *job.Job
	changes uint64       // j.Changes() at the last Scan; any change rescans both phases
	phases  [2]PhaseScan // map, reduce
}

// Scan calls scan on every phase of the alive jobs that needs it, job by
// job in the given order, maps before reduces, and returns the earliest
// Wake over all phases, fresh or cached. A phase needs a scan when its job
// has changed since its last one, when its Wake is at or before now, or
// when that scan asked for another; every other phase keeps its cached
// PhaseScan. scan gets the phase's previous PhaseScan as last. alive must be
// Context.AliveJobs in arrival order: the cache follows it by a merge walk,
// which drops retired jobs and appends new ones.
func (c *ScanCache) Scan(ctx *cluster.Context, alive []*job.Job,
	scan func(ctx *cluster.Context, j *job.Job, p job.Phase, last PhaseScan) PhaseScan) int64 {
	now := ctx.Now()
	wake := int64(math.MaxInt64)
	kept, next := 0, 0 // entries c.jobs[:kept] are alive; c.jobs[next] is read next
	for _, j := range alive {
		for next < len(c.jobs) && c.jobs[next].j != j {
			next++ // retired since the last call
		}
		if next == len(c.jobs) {
			// New since the last call, so after every cached job.
			c.jobs = append(c.jobs, scannedJob{j: j, phases: [2]PhaseScan{unscanned, unscanned}})
		}
		if next != kept {
			c.jobs[kept] = c.jobs[next]
		}
		sj := &c.jobs[kept]
		kept, next = kept+1, next+1
		changed := sj.changes != j.Changes()
		for i, p := range [...]job.Phase{job.PhaseMap, job.PhaseReduce} {
			if ps := &sj.phases[i]; changed || ps.Again || ps.Wake <= now {
				*ps = scan(ctx, j, p, *ps)
				ps.At = now
			}
			wake = min(wake, sj.phases[i].Wake)
		}
		sj.changes = j.Changes()
	}
	clear(c.jobs[kept:]) // retired jobs and moved entries
	c.jobs = c.jobs[:kept]
	return wake
}

// Straggler is a running task a detection baseline wants to back up.
type Straggler struct {
	J   *job.Job
	T   *job.Task
	Rem float64 // estimated remaining time of the task's best copy
}

// compareStragglers orders the largest estimated remaining time first, ties
// by ascending job ID, then task index.
func compareStragglers(a, b Straggler) int {
	switch {
	case a.Rem > b.Rem:
		return -1
	case a.Rem < b.Rem:
		return 1
	case a.J.Spec.ID != b.J.Spec.ID:
		return cmp.Compare(a.J.Spec.ID, b.J.Spec.ID)
	default:
		return cmp.Compare(a.T.ID.Index, b.T.ID.Index)
	}
}

// SortStragglers orders stragglers worst first: largest estimated remaining
// time, ties by ascending job ID, then task index. The sort is stable, so
// a job's map and reduce tasks of equal index keep their scan order.
func SortStragglers(s []Straggler) { slices.SortStableFunc(s, compareStragglers) }

// TotalWeight sums job weights (W(l), Equation 5).
func TotalWeight(jobs []*job.Job) float64 {
	var w float64
	for _, j := range jobs {
		w += j.Spec.Weight
	}
	return w
}
