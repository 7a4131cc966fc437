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
// Crucially, SCA does not prioritize across jobs the way SRPT does — the
// paper's stated limitation of the cloning baselines is that "it remains a
// problem to prioritize different jobs". Jobs therefore receive first copies
// in arrival (FIFO) order, with the cloning budget shared by marginal gain.
package sca

import (
	"container/heap"
	"fmt"
	"math"

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
	// DeviationFactor is r in the priority's effective workload.
	DeviationFactor float64
	// MaxClonesPerTask caps copies per task. Zero means 8.
	MaxClonesPerTask int
}

// DefaultMaxClones bounds per-task cloning when Config.MaxClonesPerTask is 0.
const DefaultMaxClones = 8

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// and must not be shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	allocs []allocation
	items  []*allocation
	tasks  []*job.Task
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// New returns an SCA scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Speedup == nil {
		s, err := dist.NewParetoSpeedup(2)
		if err != nil {
			return nil, err
		}
		cfg.Speedup = s
	}
	if cfg.DeviationFactor < 0 || math.IsNaN(cfg.DeviationFactor) {
		return nil, fmt.Errorf("sca: deviation factor %v negative", cfg.DeviationFactor)
	}
	if cfg.MaxClonesPerTask < 0 {
		return nil, fmt.Errorf("sca: max clones %d negative", cfg.MaxClonesPerTask)
	}
	if cfg.MaxClonesPerTask == 0 {
		cfg.MaxClonesPerTask = DefaultMaxClones
	}
	return &Scheduler{cfg: cfg}, nil
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
	index  int     // heap index
}

// gain returns the weighted reduction in expected duration from granting one
// more copy: w * E * (1/s(k) - 1/s(k+1)).
func (s *Scheduler) gain(a *allocation) float64 {
	k := float64(a.copies)
	if a.copies >= s.cfg.MaxClonesPerTask {
		return 0
	}
	return a.weight * a.mean * (1/s.cfg.Speedup.At(k) - 1/s.cfg.Speedup.At(k+1))
}

// gainHeap is a max-heap of allocations by marginal gain.
type gainHeap struct {
	items []*allocation
	s     *Scheduler
}

func (h gainHeap) Len() int { return len(h.items) }
func (h gainHeap) Less(i, j int) bool {
	gi, gj := h.s.gain(h.items[i]), h.s.gain(h.items[j])
	if gi != gj {
		return gi > gj
	}
	// Deterministic tie-break: job then task index.
	a, b := h.items[i], h.items[j]
	if a.j.Spec.ID != b.j.Spec.ID {
		return a.j.Spec.ID < b.j.Spec.ID
	}
	return a.t.ID.Index < b.t.ID.Index
}
func (h gainHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}
func (h *gainHeap) Push(x interface{}) {
	a := x.(*allocation)
	a.index = len(h.items)
	h.items = append(h.items, a)
}
func (h *gainHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return item
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
	// heap.Init and repeated pushes can lay the heap array out differently,
	// but the comparator is a total order, so the element at the top — the
	// only one the loop reads — is the unique maximum either way.
	if budget > 0 && len(allocs) > 0 {
		items := s.items[:0]
		for i := range allocs {
			allocs[i].index = i
			items = append(items, &allocs[i])
		}
		s.items = items
		h := &gainHeap{items: items, s: s}
		heap.Init(h)
		for budget > 0 && h.Len() > 0 {
			top := h.items[0]
			if s.gain(top) <= 0 {
				break
			}
			top.copies++
			budget--
			heap.Fix(h, 0)
		}
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
