// Package late implements a LATE-style baseline (Zaharia et al., OSDI 2008,
// reference [28] of the paper): Longest Approximate Time to End. LATE ranks
// running tasks by their estimated remaining time and speculatively
// re-executes the ones expected to finish farthest in the future, subject to
// a cap on concurrent speculative copies, and only for tasks whose progress
// is below a threshold relative to the phase average.
//
// Like Mantri it is a straggler-*detection* scheme with FIFO job order; the
// two differ in the relaunch rule. It broadens the detection-family
// comparison beyond the paper's Figures 4-6.
//
// The scheduler runs on the engine's event calendar by reporting its next
// possible backup with cluster.Context.WakeAt. Reported progress is linear
// in time, so within a phase every observed fraction, and hence their mean,
// is linear in time until the observed set changes — which happens when a
// copy completes its observation window, itself a wake. A task's gap to the
// slow cut is therefore linear too, and its root is the first slot at which
// the task can become a candidate.
package late

import (
	"fmt"
	"math"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/sched/schedutil"
)

// Config parameterizes LATE.
type Config struct {
	// SpeculativeCap bounds concurrently running speculative copies as a
	// fraction of cluster size (LATE's SpeculativeCap, default 0.1).
	SpeculativeCap float64
	// SlowTaskThreshold: only tasks whose progress fraction is below this
	// quantile-ish threshold of the phase mean are candidates (default 0.25
	// below mean progress).
	SlowTaskThreshold float64
	// MinObservationSlots before a copy's progress is trusted (default 8).
	MinObservationSlots int64
}

// Defaults for Config zero values.
const (
	DefaultSpeculativeCap    = 0.1
	DefaultSlowTaskThreshold = 0.25
	DefaultMinObservation    = 8
)

// wakeSlack is subtracted from a task's gap to the slow cut (a progress
// fraction) before its root is taken, so floating-point rounding of the
// phase mean makes a wake early, never late.
const wakeSlack = 1e-9

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// for the task snapshots, the observed set and the candidate list, so a
// Scheduler must not be shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	tasks []*job.Task
	obs   []observed
	cands []schedutil.Straggler
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// observed is a running task whose best copy has completed its observation
// window.
type observed struct {
	t    *job.Task
	prog cluster.CopyProgress
	rate float64 // growth of prog.Fraction per slot
}

// New returns a LATE-style scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.SpeculativeCap == 0 {
		cfg.SpeculativeCap = DefaultSpeculativeCap
	}
	if cfg.SpeculativeCap < 0 || cfg.SpeculativeCap > 1 {
		return nil, fmt.Errorf("late: speculative cap %v outside [0, 1]", cfg.SpeculativeCap)
	}
	if cfg.SlowTaskThreshold == 0 {
		cfg.SlowTaskThreshold = DefaultSlowTaskThreshold
	}
	if cfg.SlowTaskThreshold < 0 || cfg.SlowTaskThreshold > 1 {
		return nil, fmt.Errorf("late: slow-task threshold %v outside [0, 1]", cfg.SlowTaskThreshold)
	}
	if cfg.MinObservationSlots == 0 {
		cfg.MinObservationSlots = DefaultMinObservation
	}
	if cfg.MinObservationSlots < 0 {
		return nil, fmt.Errorf("late: negative observation window %d", cfg.MinObservationSlots)
	}
	return &Scheduler{cfg: cfg}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string { return fmt.Sprintf("LATE(cap=%g)", s.cfg.SpeculativeCap) }

// Schedule implements cluster.Scheduler.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	alive := ctx.AliveJobs() // FIFO

	// Pass 1: first copies, FIFO, maps before reduces.
	var free bool
	if s.tasks, free = schedutil.LaunchFirstCopies(ctx, alive, s.tasks); !free {
		return
	}

	// Pass 2: rank candidate stragglers by longest approximate time to end.
	now := ctx.Now()
	wake := int64(math.MaxInt64)
	var specCopies int // currently running speculative copies
	cands := s.cands[:0]
	for _, j := range alive {
		for _, p := range [...]job.Phase{job.PhaseMap, job.PhaseReduce} {
			s.tasks = j.AppendRunning(s.tasks[:0], p)
			// Phase-average progress across observed running tasks, and
			// the average rate at which their fractions grow.
			var sum, rates float64
			obs := s.obs[:0]
			for _, t := range s.tasks {
				if t.Copies > 1 {
					specCopies += t.Copies - 1
				}
				pr, ok := ctx.BestProgress(t)
				if !ok {
					continue
				}
				if pr.Tied {
					// The report can switch between tied copies with no
					// event between.
					wake = min(wake, now+1)
				}
				if wait := s.cfg.MinObservationSlots - pr.Elapsed; wait > 0 {
					// Joining the observed set moves the phase mean.
					wake = min(wake, now+wait)
					continue
				}
				rate := pr.Fraction / float64(pr.Elapsed)
				sum += pr.Fraction
				rates += rate
				obs = append(obs, observed{t: t, prog: pr, rate: rate})
			}
			s.obs = obs
			if len(obs) == 0 {
				continue
			}
			mean := sum / float64(len(obs))
			cut := mean - s.cfg.SlowTaskThreshold
			meanRate := rates / float64(len(obs))
			for _, o := range obs {
				if o.t.Copies > 1 {
					continue // one speculative copy per task
				}
				if o.prog.Fraction >= cut {
					// Not slow enough relative to the phase, yet.
					wake = min(wake, fallsBelow(now, o, cut, meanRate))
					continue
				}
				if o.prog.Fraction <= 0 {
					continue
				}
				tte := float64(o.prog.Elapsed) * (1 - o.prog.Fraction) / o.prog.Fraction
				cands = append(cands, schedutil.Straggler{J: j, T: o.t, Rem: tte})
			}
		}
	}
	s.cands = cands
	budget := int(s.cfg.SpeculativeCap*float64(ctx.Machines())) - specCopies
	if budget <= 0 {
		// The budget grows back only when a speculative copy stops, which
		// takes a completion.
		ctx.WakeAt(math.MaxInt64)
		return
	}
	if len(cands) == 0 {
		ctx.WakeAt(wake)
		return
	}
	schedutil.SortStragglers(cands) // longest approximate time to end first
	for _, c := range cands {
		if budget == 0 || ctx.FreeMachines() == 0 {
			return
		}
		if _, err := ctx.Launch(c.J, c.T, 1, false); err != nil {
			return
		}
		budget--
	}
}

// fallsBelow returns the first slot after now at which an observed task at
// or above the slow cut could fall below it, while its phase's observed set
// stays as it is; math.MaxInt64 means never. The task's fraction grows at
// its own rate and the cut at meanRate, so the gap closes linearly.
func fallsBelow(now int64, o observed, cut, meanRate float64) int64 {
	gap := o.prog.Fraction - cut - wakeSlack
	if gap <= 0 {
		return now + 1
	}
	closing := meanRate - o.rate
	if closing <= 0 {
		return math.MaxInt64
	}
	d := gap / closing
	if d >= 1<<62 {
		return math.MaxInt64
	}
	return now + max(1, int64(d))
}
