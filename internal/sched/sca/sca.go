// Package sca implements the Smart Cloning Algorithm (SCA) baseline from
// Xu & Lau's earlier work (INFOCOM 2015, reference [26] of the paper):
// a cloning scheduler that, at the beginning of each slot, decides how many
// copies each task receives by optimizing a concave speedup objective, then
// launches all copies on available machines.
//
// The original SCA solves a convex program over the tasks of the *arriving*
// jobs ("make clones for each task of the arriving jobs... which aims at
// minimizing the total job elapsed time", Section I). The objective is
// separable and concave in the per-task copy counts with one total-machines
// constraint, so the exact optimizer of the discretized problem is greedy
// marginal allocation ("water-filling"): repeatedly grant the next machine
// to the task whose job gains the most weighted expected-duration reduction.
// This implementation uses that greedy allocation in place of a convex
// solver.
//
// The greedy steps one job level at a time, not one copy. A job's
// allocations in one call are contiguous, of one phase (its reduces are
// reached only once its map phase is done) and all at one copy, so they
// share weight, mean and copy count and therefore every marginal gain. The
// per-copy greedy, ordered by (gain descending, job ID, task index), would
// give the group's lowest-indexed task copies for as long as its next gain
// stays at or above the gain it was picked at g — at equal gain it still
// wins the tie — then do the same for each sibling in index order, since
// every other group's gain is below g or ties at a larger job ID. So one
// heap step grants every task of the top group the run of levels whose
// gains are at least g, and a budget short of that block goes out in
// ascending task index, a full run per task, after which the greedy stops.
// The result is bit-identical to granting copies one at a time, with one
// heap operation per job level instead of one per copy.
//
// Crucially, SCA does not prioritize across jobs the way SRPT does — the
// paper's stated limitation of the cloning baselines is that "it remains a
// problem to prioritize different jobs". Jobs therefore receive first copies
// in arrival (FIFO) order, with the cloning budget shared by marginal gain.
package sca

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mrclone/internal/cluster"
	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/sched/schedutil"
)

// Config parameterizes SCA.
type Config struct {
	// Speedup is the concave speedup model used by the convex objective.
	// Nil means ParetoSpeedup(alpha=2), matching heavy-tailed traces.
	Speedup dist.Speedup
	// DeviationFactor is r, validated like the other schedulers' but never
	// read: SCA has no priority, so no effective workload to weight.
	DeviationFactor float64
	// MaxClonesPerTask caps copies per task. Zero means 8.
	MaxClonesPerTask int
}

// DefaultMaxClones bounds per-task cloning when Config.MaxClonesPerTask is 0.
const DefaultMaxClones = 8

// tabledLevels bounds the marginal table New fills: copy counts past it,
// reachable only under a clone cap that large, evaluate the speedup model
// directly, so a huge configured cap costs no memory.
const tabledLevels = 1 << 10

// paretoSpeedup is the model a nil Config.Speedup selects, the only one a
// service spec can reach, and paretoMarginal its table at tabledLevels,
// filled once and shared read-only: New with it evaluates no speedup and
// allocates no table, however large the clone cap, so checking a spec's
// tunables costs constant time per SCA build.
var (
	paretoSpeedup, _ = dist.NewParetoSpeedup(2) // alpha 2 > 1 is valid
	paretoMarginal   = (&Scheduler{cfg: Config{Speedup: paretoSpeedup}}).table(tabledLevels)
)

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// and must not be shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	// marginal[k] = 1/s(k) - 1/s(k+1) for 1 <= k < min(cap, tabledLevels);
	// marginal[0] is never read, as every allocation holds a copy. Read
	// only: under the default speedup it is a prefix of paretoMarginal.
	marginal []float64

	allocs []allocation
	groups groupHeap
	order  []int
	tasks  []*job.Task
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// New returns an SCA scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.DeviationFactor < 0 || math.IsNaN(cfg.DeviationFactor) {
		return nil, fmt.Errorf("sca: deviation factor %v negative", cfg.DeviationFactor)
	}
	if cfg.MaxClonesPerTask < 0 {
		return nil, fmt.Errorf("sca: max clones %d negative", cfg.MaxClonesPerTask)
	}
	if cfg.MaxClonesPerTask == 0 {
		cfg.MaxClonesPerTask = DefaultMaxClones
	}
	n := min(cfg.MaxClonesPerTask, tabledLevels)
	if cfg.Speedup == nil {
		cfg.Speedup = paretoSpeedup
		return &Scheduler{cfg: cfg, marginal: paretoMarginal[:n:n]}, nil
	}
	s := &Scheduler{cfg: cfg}
	s.marginal = s.table(n)
	return s, nil
}

// table returns the first n levels of the marginal table.
func (s *Scheduler) table(n int) []float64 {
	m := make([]float64, n)
	for k := 1; k < n; k++ {
		m[k] = s.drop(k)
	}
	return m
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string { return "SCA" }

// EventDriven implements cluster.EventDriven: the greedy gain allocation is
// recomputed from task states each slot, so idle slots may be skipped.
func (s *Scheduler) EventDriven() bool { return true }

// allocation is one task's tentative copy count inside the greedy solver.
type allocation struct {
	j      *job.Job
	t      *job.Task
	mean   float64 // E of the task's phase
	weight float64 // job weight
	copies int     // copies tentatively granted this slot
}

// drop returns 1/s(k) - 1/s(k+1), the reduction in expected duration per
// unit of mean from a (k+1)-th copy.
func (s *Scheduler) drop(k int) float64 {
	return 1/s.cfg.Speedup.At(float64(k)) - 1/s.cfg.Speedup.At(float64(k+1))
}

// gain returns the weighted reduction in expected duration from granting one
// more copy: w * E * (1/s(k) - 1/s(k+1)).
func (s *Scheduler) gain(a *allocation) float64 {
	if a.copies >= s.cfg.MaxClonesPerTask {
		return 0
	}
	if a.copies < len(s.marginal) {
		return a.weight * a.mean * s.marginal[a.copies]
	}
	return a.weight * a.mean * s.drop(a.copies)
}

// group is one job's allocations in Phase B, allocs[lo:hi], all at one copy
// count and so at one marginal gain.
type group struct {
	gain   float64
	id     int // job ID
	lo, hi int
}

// before is the heap order: gain descending, then job ID ascending. Job IDs
// are unique (cluster.New rejects duplicates), so the order is total.
func (g group) before(o group) bool {
	if g.gain != o.gain {
		return g.gain > o.gain
	}
	return g.id < o.id
}

// groupHeap is a binary max-heap of job groups. It is hand-rolled like the
// engine's calendar, over pointer-free values, so sifts make no interface
// calls and no write barriers.
type groupHeap []group

func (h groupHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h groupHeap) down(i int) {
	n := len(h)
	node := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(node) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = node
}

// Schedule implements cluster.Scheduler.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	psi := schedutil.WithUnscheduledTasks(ctx.AliveJobs())
	if len(psi) == 0 {
		return
	}
	// Jobs are served in arrival (FIFO) order: SCA clones arriving jobs but
	// does not reorder them by remaining work.

	// Phase A: guarantee one copy to every unscheduled task in arrival
	// order (the program's feasibility baseline). Allocations live in a
	// reused value slice; pointers into it are taken only after it stops
	// growing.
	allocs := s.allocs[:0]
	budget := ctx.FreeMachines()
	for _, j := range psi {
		if budget == 0 {
			break
		}
		for _, p := range []job.Phase{job.PhaseMap, job.PhaseReduce} {
			if p == job.PhaseReduce && !j.MapPhaseDone() {
				break
			}
			stats := j.PhaseStats(p)
			s.tasks = j.AppendUnscheduled(s.tasks[:0], p)
			for _, t := range s.tasks {
				if budget == 0 {
					break
				}
				allocs = append(allocs, allocation{
					j: j, t: t, mean: stats.Mean, weight: j.Spec.Weight, copies: 1,
				})
				budget--
			}
		}
	}
	s.allocs = allocs

	// Phase B: water-fill the remaining budget by marginal weighted gain.
	if budget > 0 && len(allocs) > 0 {
		s.fill(allocs, budget)
	}

	// Launch every allocation.
	for i := range allocs {
		a := &allocs[i]
		n := a.copies
		if n > ctx.FreeMachines() {
			n = ctx.FreeMachines()
		}
		if n == 0 {
			return
		}
		if _, err := ctx.Launch(a.j, a.t, n, false); err != nil {
			return
		}
	}
}

// fill grants budget spare copies over allocs, each holding one copy and
// each job's allocations contiguous, by greedy marginal gain, one job level
// per heap step (see the package comment).
func (s *Scheduler) fill(allocs []allocation, budget int) {
	h := s.groups[:0]
	for lo := 0; lo < len(allocs); {
		hi := lo + 1
		for hi < len(allocs) && allocs[hi].j == allocs[lo].j {
			hi++
		}
		h = append(h, group{gain: s.gain(&allocs[lo]), id: allocs[lo].j.Spec.ID, lo: lo, hi: hi})
		lo = hi
	}
	s.groups = h
	h.heapify()
	for budget > 0 {
		top := &h[0]
		if top.gain <= 0 {
			return
		}
		// The run: levels k, k+1, ... of the group's tasks whose gains are
		// at least top.gain, capped by the budget (a longer run could not be
		// granted to even one task).
		probe := allocs[top.lo]
		r := 1
		for probe.copies++; r < budget && s.gain(&probe) >= top.gain; probe.copies++ {
			r++
		}
		block := allocs[top.lo:top.hi]
		if len(block)*r > budget {
			s.grantShort(block, r, budget)
			return
		}
		for i := range block {
			block[i].copies += r
		}
		budget -= len(block) * r
		top.gain = s.gain(&probe)
		h.down(0)
	}
}

// grantShort hands out a budget short of a full level block: r copies to
// each task in ascending task index, the last granted task the remainder,
// which is the per-copy greedy's task-index tie-break. The allocation order
// is left as it is, since launches (and so copy sampling) follow it.
func (s *Scheduler) grantShort(block []allocation, r, budget int) {
	order := s.order[:0]
	for i := range block {
		order = append(order, i)
	}
	s.order = order
	slices.SortFunc(order, func(x, y int) int {
		return cmp.Compare(block[x].t.ID.Index, block[y].t.ID.Index)
	})
	for _, i := range order {
		g := min(r, budget)
		block[i].copies += g
		if budget -= g; budget == 0 {
			return
		}
	}
}
