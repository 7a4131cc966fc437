// Package srptms implements SRPTMS+C — Shortest Remaining Processing Time
// based Machine Sharing plus Cloning — the online scheduling algorithm of
// Section V of Xu & Lau (ICDCS 2015), this repository's core contribution.
//
// Each slot the scheduler:
//
//  1. collects psi^s(l), the alive jobs with unscheduled tasks, and sorts
//     them by descending priority w_i / U_i(l) on remaining effective
//     workload (Equation 4);
//  2. computes the epsilon-fraction machine shares g_i(l): the jobs whose
//     cumulative weight falls inside the top epsilon fraction of the total
//     alive weight W(l) share the M machines in proportion to their weights
//     (Section V-A);
//  3. non-preemptively assigns each job xi_i(l) = g_i(l) - sigma_i(l) new
//     machines, where sigma_i(l) counts machines still running the job's
//     copies (jobs over their share simply keep their machines);
//  4. fills a job's machines with its unscheduled tasks, cloning when the
//     allocation exceeds the number of unscheduled tasks: each task receives
//     roughly x/c copies (Section V-B). Reduce tasks are scheduled only
//     after the job's map phase has completed.
//
// With epsilon = 1 the scheduler degenerates to the Hadoop fair scheduler;
// as epsilon -> 0 it approaches pure SRPT. The paper proves SRPTMS+C is
// (1+eps)-speed o(1/eps^2)-competitive for the weighted sum of flowtimes.
package srptms

import (
	"fmt"
	"math"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/sched/schedutil"
)

// Config parameterizes SRPTMS+C.
type Config struct {
	// Epsilon is the sharing fraction in (0, 1]. The paper's evaluation
	// selects 0.6.
	Epsilon float64
	// DeviationFactor is r, the weight of the standard deviation inside the
	// effective workload (Equations 2 and 4). The paper's evaluation selects
	// 3 for the unweighted metric.
	DeviationFactor float64
	// MaxClonesPerTask caps the number of live copies a single task may
	// receive. The paper's formula is uncapped; in a lightly loaded cluster
	// it would dedicate the entire cluster to cloning one task, which no
	// practical system does (Ananthanarayanan et al. cap at 2-3 copies).
	// Zero means DefaultMaxClones.
	MaxClonesPerTask int
	// Strict disables the work-conserving surplus pass: exactly Algorithm 2,
	// where machines the epsilon band cannot absorb (because of the clone
	// cap) idle rather than flowing to lower-priority jobs. Only
	// strict_test.go sets it.
	Strict bool
}

// DefaultMaxClones bounds per-task cloning when Config.MaxClonesPerTask is 0.
const DefaultMaxClones = 8

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// for the per-event sort, apportionment, and task snapshots, so a Scheduler
// must not be shared by concurrently running engines (the runner builds one
// per cell).
type Scheduler struct {
	cfg Config

	sorter   schedutil.Sorter
	app      schedutil.Apportioner
	fracs    []float64
	suffixes []float64
	tasks    []*job.Task
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// New returns an SRPTMS+C scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Epsilon <= 0 || cfg.Epsilon > 1 || math.IsNaN(cfg.Epsilon) {
		return nil, fmt.Errorf("srptms: epsilon %v outside (0, 1]", cfg.Epsilon)
	}
	if cfg.DeviationFactor < 0 || math.IsNaN(cfg.DeviationFactor) {
		return nil, fmt.Errorf("srptms: deviation factor %v negative", cfg.DeviationFactor)
	}
	if cfg.MaxClonesPerTask < 0 {
		return nil, fmt.Errorf("srptms: max clones %d negative", cfg.MaxClonesPerTask)
	}
	if cfg.MaxClonesPerTask == 0 {
		cfg.MaxClonesPerTask = DefaultMaxClones
	}
	return &Scheduler{cfg: cfg}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string {
	return fmt.Sprintf("SRPTMS+C(eps=%g,r=%g)", s.cfg.Epsilon, s.cfg.DeviationFactor)
}

// EventDriven implements cluster.EventDriven: Schedule is a pure function
// of the alive jobs' task states and the free-machine count, so decisions
// only change on completions or arrivals and idle slots may be skipped.
func (s *Scheduler) EventDriven() bool { return true }

// Epsilon returns the configured sharing fraction.
func (s *Scheduler) Epsilon() float64 { return s.cfg.Epsilon }

// DeviationFactor returns the configured r.
func (s *Scheduler) DeviationFactor() float64 { return s.cfg.DeviationFactor }

// Schedule implements cluster.Scheduler (Algorithm 2).
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	psi := schedutil.WithUnscheduledTasks(ctx.AliveJobs())
	if len(psi) == 0 {
		return
	}
	s.sorter.ByPriorityDesc(psi, s.cfg.DeviationFactor)
	shares := s.Shares(psi, ctx.Machines())

	for i, j := range psi {
		if ctx.FreeMachines() == 0 {
			return
		}
		gi := shares[i]
		if gi <= 0 {
			continue
		}
		// Non-preemption: machines still running this job's copies count
		// against its share; only the surplus is newly assigned.
		xi := gi - j.RunningCopies
		if xi <= 0 {
			continue
		}
		if xi > ctx.FreeMachines() {
			xi = ctx.FreeMachines()
		}
		s.scheduleTasks(ctx, j, xi)
	}

	// Work-conserving pass. The paper's formula always absorbs a job's full
	// share with clones; the practical per-task clone cap can leave part of
	// a share unusable, so surplus machines flow down the priority order as
	// plain (non-cloned) first copies rather than idling.
	if !s.cfg.Strict {
		s.tasks, _ = schedutil.LaunchFirstCopies(ctx, psi, s.tasks)
	}
}

// Shares computes the integer machine shares g_i(l) for jobs already sorted
// by descending priority. The fractional shares follow Section V-A exactly;
// largest-remainder rounding converts them to integers summing to at most M.
// The returned slice is scratch owned by the Scheduler, valid until the next
// Shares call.
func (s *Scheduler) Shares(sorted []*job.Job, machines int) []int {
	frac := s.fracs[:0]
	for range sorted {
		frac = append(frac, 0)
	}
	s.fracs = frac
	w := schedutil.TotalWeight(sorted)
	if w <= 0 {
		return s.app.LargestRemainder(frac, 0)
	}
	eps := s.cfg.Epsilon
	m := float64(machines)

	// W_i(l) sums the weights of jobs with priority <= job i's, including
	// job i itself: a suffix sum over the descending-priority order.
	suffix := 0.0
	suffixes := s.suffixes[:0]
	for range sorted {
		suffixes = append(suffixes, 0)
	}
	s.suffixes = suffixes
	for i := len(sorted) - 1; i >= 0; i-- {
		suffix += sorted[i].Spec.Weight
		suffixes[i] = suffix
	}
	threshold := (1 - eps) * w
	for i, j := range sorted {
		wi := j.Spec.Weight
		switch {
		case suffixes[i]-wi >= threshold:
			frac[i] = wi * m / (eps * w)
		case suffixes[i] < threshold:
			frac[i] = 0
		default:
			frac[i] = (suffixes[i] - threshold) * m / (eps * w)
		}
	}
	return s.app.LargestRemainder(frac, machines)
}

// scheduleTasks implements the task-scheduling procedure of Algorithm 2 for
// one job with x newly allocated machines.
func (s *Scheduler) scheduleTasks(ctx *cluster.Context, j *job.Job, x int) {
	if x <= 0 {
		return
	}
	if m := j.Unscheduled(job.PhaseMap); m > 0 {
		s.launchPhase(ctx, j, job.PhaseMap, x)
		return
	}
	// Reduce tasks are scheduled only once the map phase has completed
	// (Section V-B); until then the surplus machines flow to the next job.
	if !j.MapPhaseDone() {
		return
	}
	if r := j.Unscheduled(job.PhaseReduce); r > 0 {
		s.launchPhase(ctx, j, job.PhaseReduce, x)
	}
}

// launchPhase launches copies of unscheduled tasks of one phase using x
// machines: one copy for x random tasks when x <= c; otherwise about x/c
// copies per task with the remainder spread one extra copy at a time.
func (s *Scheduler) launchPhase(ctx *cluster.Context, j *job.Job, p job.Phase, x int) {
	tasks := j.AppendUnscheduled(s.tasks[:0], p)
	s.tasks = tasks
	c := len(tasks)
	if c == 0 {
		return
	}
	if x <= c {
		for _, t := range schedutil.PickRandomInPlace(tasks, x, ctx.Rand()) {
			if ctx.FreeMachines() == 0 {
				return
			}
			if _, err := ctx.Launch(j, t, 1, false); err != nil {
				return
			}
		}
		return
	}
	// Cloning: spread x machines over c tasks as evenly as possible.
	base := x / c
	extra := x % c
	if base > s.cfg.MaxClonesPerTask {
		base = s.cfg.MaxClonesPerTask
		extra = 0
	}
	order := schedutil.PickRandomInPlace(tasks, c, ctx.Rand())
	for i, t := range order {
		n := base
		if i < extra && base < s.cfg.MaxClonesPerTask {
			n++
		}
		if n > ctx.FreeMachines() {
			n = ctx.FreeMachines()
		}
		if n == 0 {
			return
		}
		if _, err := ctx.Launch(j, t, n, false); err != nil {
			return
		}
	}
}
