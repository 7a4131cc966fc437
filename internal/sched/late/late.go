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
//
// The earliest of those slots in a phase, the ends of observation windows
// included, stays put while the phase's job is unchanged, so a call
// rescans only the job phases that changed since their last scan, whose
// earliest slot has come, or whose last scan found candidates;
// schedutil.ScanCache keeps each phase's result in between. The budget of
// speculative copies comes from cluster.Context.SpeculativeCopies and is
// checked before any scan.
//
// A rescan reads the phase's progress view (job.Job.RunningSpans): one
// pointer-free (start, finish) entry per running task, in running order, for
// every task whose one copy is active. It works out each such task's
// elapsed slots, fraction and rate exactly as from a
// cluster.Context.BestProgress report, and asks BestProgress only for the
// tasks the view does not cover: those with a speculative copy. The phase
// mean sums the same fractions in the same order, so it is bit-identical to
// a scan that asks BestProgress for every task.
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
// for the task snapshots, the observed set and the candidate list, and the
// scan cache, so a Scheduler must not be shared by concurrently running
// engines.
type Scheduler struct {
	cfg Config

	tasks []*job.Task
	obs   []observed
	cands []schedutil.Straggler
	scans schedutil.ScanCache
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// observed is a running task with one copy whose copy has completed its
// observation window. It holds no pointer, so scanPhase writes it field by
// field into reused scratch.
type observed struct {
	i       int     // index of the task in the phase's running order
	elapsed int64   // slots the copy has run
	frac    float64 // its reported progress fraction
	rate    float64 // growth of frac per slot
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

	budget := int(s.cfg.SpeculativeCap*float64(ctx.Machines())) - ctx.SpeculativeCopies()
	if budget <= 0 {
		// The budget grows back only when a speculative copy stops, which
		// takes a completion.
		ctx.WakeAt(math.MaxInt64)
		return
	}

	// Pass 2: rank candidate stragglers by longest approximate time to end.
	s.cands = s.cands[:0]
	wake := s.scans.Scan(ctx, alive, s.scanPhase)
	if len(s.cands) == 0 {
		ctx.WakeAt(wake)
		return
	}
	schedutil.SortStragglers(s.cands) // longest approximate time to end first
	for _, c := range s.cands {
		if budget == 0 || ctx.FreeMachines() == 0 {
			return
		}
		if _, err := ctx.Launch(c.J, c.T, 1, false); err != nil {
			return
		}
		budget--
	}
}

// scanPhase appends the phase's candidate stragglers to s.cands, in running
// order, and reports the first slot at which another task could become one.
//
// It reads each task's progress from the phase's progress view and asks
// BestProgress only for a task the view does not cover, one with several
// copies or a gated one. A covered task's copy is the task's only one, so
// its report is never tied.
func (s *Scheduler) scanPhase(ctx *cluster.Context, j *job.Job, p job.Phase, _ schedutil.PhaseScan) schedutil.PhaseScan {
	now := ctx.Now()
	minObs := s.cfg.MinObservationSlots
	scan := schedutil.PhaseScan{Wake: math.MaxInt64}
	view := j.RunningSpans(p)
	s.tasks = j.AppendRunning(s.tasks[:0], p)
	obs := s.obs[:cap(s.obs)]
	if len(obs) < len(view) {
		obs = make([]observed, len(view))
	}
	// Phase-average progress across observed running tasks, and the average
	// rate at which their fractions grow. A task with more than one copy
	// counts towards both but is no candidate, so it gets no record.
	var sum, rates float64
	var count, n int
	for i, sp := range view {
		var elapsed int64
		var frac float64
		single := true
		if sp.Covered() {
			elapsed = sp.Elapsed(now)
			if wait := minObs - elapsed; wait > 0 {
				// Joining the observed set moves the phase mean.
				scan.Wake = min(scan.Wake, now+wait)
				continue
			}
			frac = sp.Fraction(elapsed)
		} else {
			t := s.tasks[i]
			pr, ok := ctx.BestProgress(t)
			if !ok {
				continue
			}
			if pr.Tied {
				// The report can switch between tied copies with no event
				// between.
				scan.Wake = min(scan.Wake, now+1)
			}
			if wait := minObs - pr.Elapsed; wait > 0 {
				scan.Wake = min(scan.Wake, now+wait)
				continue
			}
			elapsed, frac, single = pr.Elapsed, pr.Fraction, t.Copies <= 1
		}
		rate := frac / float64(elapsed)
		sum += frac
		rates += rate
		count++
		if !single {
			continue // one speculative copy per task
		}
		o := &obs[n]
		o.i, o.elapsed, o.frac, o.rate = i, elapsed, frac, rate
		n++
	}
	s.obs = obs
	if count == 0 {
		return scan
	}
	mean := sum / float64(count)
	cut := mean - s.cfg.SlowTaskThreshold
	meanRate := rates / float64(count)
	for k := range obs[:n] {
		o := &obs[k]
		if o.frac >= cut {
			// Not slow enough relative to the phase, yet.
			scan.Wake = min(scan.Wake, fallsBelow(now, o, cut, meanRate))
			continue
		}
		if o.frac <= 0 {
			continue
		}
		tte := float64(o.elapsed) * (1 - o.frac) / o.frac
		s.cands = append(s.cands, schedutil.Straggler{J: j, T: s.tasks[o.i], Rem: tte})
		scan.Again = true
	}
	return scan
}

// fallsBelow returns the first slot after now at which an observed task at
// or above the slow cut could fall below it, while its phase's observed set
// stays as it is; math.MaxInt64 means never. The task's fraction grows at
// its own rate and the cut at meanRate, so the gap closes linearly.
func fallsBelow(now int64, o *observed, cut, meanRate float64) int64 {
	gap := o.frac - cut - wakeSlack
	closing := meanRate - o.rate
	// Every case is computed and the last that applies wins, which the
	// compiler turns into conditional moves: in running order the sign of
	// closing is a coin toss, too random for a branch.
	d := gap / closing
	wake := now + max(1, int64(d))
	if d >= 1<<62 {
		wake = math.MaxInt64
	}
	if closing <= 0 {
		wake = math.MaxInt64
	}
	if gap <= 0 {
		wake = now + 1
	}
	return wake
}
