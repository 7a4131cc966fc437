// Package mantri implements the Mantri-style speculative-execution baseline
// the paper compares against (Section VI-A): a straggler-*detection* scheme
// that monitors task progress and launches a backup copy when the estimated
// remaining time of a running task dwarfs the expected duration of a fresh
// copy.
//
// The decision rule is the one the paper attributes to Mantri: relaunch when
// P(t_rem > 2 * t_new) > delta. Because schedulers in this model only know
// the first two moments of task duration, the probability is bounded with
// the one-sided Chebyshev (Cantelli) inequality:
//
//	P(t_new >= t_rem/2) <= sigma^2 / (sigma^2 + (t_rem/2 - E)^2)  for t_rem/2 > E,
//
// so a backup launches when t_rem > 2E and 1 - that bound exceeds delta.
// t_rem is estimated from the copy's reported progress fraction f as
// t_rem = elapsed * (1-f) / f, the standard progress-rate estimator.
//
// Jobs are served in arrival (FIFO) order — Mantri mitigates stragglers
// within jobs but does not prioritize across jobs, which is exactly the
// weakness the paper's SRPT-based algorithms exploit.
//
// The scheduler runs on the engine's event calendar by reporting its next
// possible backup with cluster.Context.WakeAt. Reported progress is linear
// in time, so t_rem equals the copy's true remaining slots and falls by
// exactly one per slot, and the relaunch rule is monotone in t_rem: a copy
// that does not qualify once observed never will. So the only slot at which
// a copy can newly qualify is the first check slot after its observation
// window, and the scan that looks for candidates works that slot out.
//
// That slot does not move while the task's job is unchanged, so a check
// rescans only the job phases that changed since their last scan, whose
// earliest such slot has come, or whose last scan found candidates or saw
// a copy with no progress yet (its slot is provisional until the copy's
// rate shows); schedutil.ScanCache keeps each phase's result in between.
//
// A rescan reads the phase's progress view (job.Job.RunningSpans): one
// pointer-free (start, finish) entry per running task, in running order, for
// every task whose one copy is active. It works out such a task's progress
// report exactly as cluster.Context.BestProgress would, and asks
// BestProgress only for the tasks the view does not cover: those with a
// backup copy.
package mantri

import (
	"fmt"
	"math"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/sched/schedutil"
)

// Config parameterizes the Mantri baseline.
type Config struct {
	// Delta is the confidence threshold of the relaunch rule. The original
	// system uses a high-confidence setting; 0.25 is a reasonable default
	// given Cantelli's conservativeness. Must be in (0, 1).
	Delta float64
	// MinObservationSlots is the minimum elapsed time before a copy's
	// progress is trusted — detection "needs to wait for the collection of
	// enough samples" (Section II). Zero means DefaultMinObservation.
	MinObservationSlots int64
	// MaxBackupsPerTask caps speculative copies per task (Mantri restarts or
	// duplicates at most once or twice in practice). Zero means 2.
	MaxBackupsPerTask int
	// CheckIntervalSlots is how often the straggler-detection scan runs.
	// Production systems poll task progress periodically, not every second.
	// Zero means DefaultCheckInterval; 1 scans every slot.
	CheckIntervalSlots int64
}

// Defaults for Config zero values.
const (
	DefaultDelta          = 0.25
	DefaultMinObservation = 8
	DefaultMaxBackups     = 2
	DefaultCheckInterval  = 5
)

// wakeSlack widens an extrapolated remaining-time estimate by this fraction
// of the copy's total duration, so floating-point rounding of the
// extrapolation makes a wake early, never late.
const wakeSlack = 1e-9

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// for the task snapshots and the candidate list, and the scan cache, so a
// Scheduler must not be shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	tasks []*job.Task
	cands []schedutil.Straggler
	scans schedutil.ScanCache
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// New returns a Mantri-style scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Delta == 0 {
		cfg.Delta = DefaultDelta
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 || math.IsNaN(cfg.Delta) {
		return nil, fmt.Errorf("mantri: delta %v outside (0, 1)", cfg.Delta)
	}
	if cfg.MinObservationSlots == 0 {
		cfg.MinObservationSlots = DefaultMinObservation
	}
	if cfg.MinObservationSlots < 0 {
		return nil, fmt.Errorf("mantri: negative observation window %d", cfg.MinObservationSlots)
	}
	if cfg.MaxBackupsPerTask == 0 {
		cfg.MaxBackupsPerTask = DefaultMaxBackups
	}
	if cfg.MaxBackupsPerTask < 0 {
		return nil, fmt.Errorf("mantri: negative backup cap %d", cfg.MaxBackupsPerTask)
	}
	if cfg.CheckIntervalSlots == 0 {
		cfg.CheckIntervalSlots = DefaultCheckInterval
	}
	if cfg.CheckIntervalSlots < 0 {
		return nil, fmt.Errorf("mantri: negative check interval %d", cfg.CheckIntervalSlots)
	}
	return &Scheduler{cfg: cfg}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string { return fmt.Sprintf("Mantri(delta=%g)", s.cfg.Delta) }

// Schedule implements cluster.Scheduler.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	alive := ctx.AliveJobs() // arrival order == FIFO

	// Pass 1: launch first copies of unscheduled tasks, FIFO across jobs,
	// maps before reduces within a job.
	var free bool
	if s.tasks, free = schedutil.LaunchFirstCopies(ctx, alive, s.tasks); !free {
		return
	}

	// Pass 2: with leftover machines, launch backups for detected
	// stragglers, worst (largest estimated remaining time) first. The scan
	// runs on the configured polling cadence.
	now := ctx.Now()
	if now%s.cfg.CheckIntervalSlots != 0 {
		ctx.WakeAt(s.checkSlotFrom(now))
		return
	}
	s.cands = s.cands[:0]
	wake := s.scans.Scan(ctx, alive, s.scanPhase)
	if len(s.cands) == 0 {
		ctx.WakeAt(wake)
		return
	}
	schedutil.SortStragglers(s.cands)
	for _, c := range s.cands {
		if ctx.FreeMachines() == 0 {
			return
		}
		if _, err := ctx.Launch(c.J, c.T, 1, false); err != nil {
			return
		}
	}
}

// scanPhase appends the phase's running tasks that qualify for a backup to
// s.cands, in running order, and reports the first check slot at which
// another could qualify.
//
// It reads each task's progress from the phase's progress view and asks
// BestProgress only for a task the view does not cover, one with several
// copies or a gated one. A covered task has had one copy ever, and its
// report is never tied.
//
// If the phase's last scan found no candidates, it skips every covered task
// whose copy had been observed by then: that task qualified for no backup at
// the last scan, its estimate has only shrunk since, so it qualifies neither
// now nor later, and its nextChance is math.MaxInt64.
func (s *Scheduler) scanPhase(ctx *cluster.Context, j *job.Job, p job.Phase, last schedutil.PhaseScan) schedutil.PhaseScan {
	now := ctx.Now()
	stats := j.PhaseStats(p)
	settled := int64(-1) // a covered task whose copy started by this slot is skipped
	if !last.Again && last.At >= 0 {
		settled = last.At - s.cfg.MinObservationSlots
	}
	scan := schedutil.PhaseScan{Wake: math.MaxInt64}
	view := j.RunningSpans(p)
	s.tasks = j.AppendRunning(s.tasks[:0], p)
	for i, sp := range view {
		var pr cluster.CopyProgress
		if sp.Covered() {
			if sp.Start <= settled {
				continue
			}
			pr.Elapsed = sp.Elapsed(now)
			pr.Fraction = sp.Fraction(pr.Elapsed)
		} else {
			if s.tasks[i].Copies >= 1+s.cfg.MaxBackupsPerTask {
				continue
			}
			var ok bool
			if pr, ok = ctx.BestProgress(s.tasks[i]); !ok {
				continue
			}
		}
		if trem, ok := s.estimateRemaining(pr); ok && s.shouldBackup(trem, stats) {
			s.cands = append(s.cands, schedutil.Straggler{J: j, T: s.tasks[i], Rem: trem})
			scan.Again = true
		} else {
			scan.Wake = min(scan.Wake, s.nextChance(now, pr, stats))
			// With no progress yet nextChance cannot extrapolate; the next
			// check sees the copy's rate and may rule the slot out.
			scan.Again = scan.Again || pr.Fraction == 0
		}
	}
	return scan
}

// estimateRemaining returns the progress-based remaining-time estimate of
// the task's best copy (the task finishes when its best copy does), or
// ok=false when no copy has been observed long enough.
func (s *Scheduler) estimateRemaining(p cluster.CopyProgress) (float64, bool) {
	if p.Elapsed < s.cfg.MinObservationSlots || p.Fraction <= 0 {
		return 0, false
	}
	return float64(p.Elapsed) * (1 - p.Fraction) / p.Fraction, true
}

// nextChance returns the first check slot after now at which a running task
// that is no candidate now could become one if no arrival or completion
// comes first; math.MaxInt64 means never. Only a copy still inside its
// observation window can qualify later, on the first check slot after the
// window, and only if the rule holds for its estimate extrapolated there.
func (s *Scheduler) nextChance(now int64, p cluster.CopyProgress, stats job.Stats) int64 {
	if p.Tied {
		// The report can switch between tied copies with no event between.
		return s.checkSlotFrom(now + 1)
	}
	wait := s.cfg.MinObservationSlots - p.Elapsed
	if wait <= 0 {
		return math.MaxInt64
	}
	due := s.checkSlotFrom(now + wait)
	if p.Fraction <= 0 {
		return due
	}
	total := float64(p.Elapsed) / p.Fraction
	trem := total - float64(p.Elapsed+due-now)
	if !s.shouldBackup(trem+wakeSlack*total, stats) {
		return math.MaxInt64
	}
	return due
}

// checkSlotFrom returns the first check slot at or after t.
func (s *Scheduler) checkSlotFrom(t int64) int64 {
	every := s.cfg.CheckIntervalSlots
	if r := t % every; r != 0 {
		return t + every - r
	}
	return t
}

// shouldBackup applies the relaunch rule P(t_rem > 2 t_new) > delta using the
// Cantelli bound over the phase's (E, sigma). It is monotone in t_rem: a
// larger estimate never turns a backup down.
func (s *Scheduler) shouldBackup(trem float64, stats job.Stats) bool {
	if stats.Mean <= 0 {
		return false
	}
	half := trem / 2
	if half <= stats.Mean {
		return false // a fresh copy is not expected to beat the running one
	}
	if stats.StdDev == 0 {
		return true // deterministic t_new < t_rem/2 with certainty
	}
	if math.IsInf(stats.StdDev, 1) {
		// Infinite variance (Pareto alpha <= 2): Cantelli is vacuous, so
		// fall back to the expectation rule t_rem > 2 E[t_new], which the
		// half > mean guard above has already established.
		return true
	}
	d := half - stats.Mean
	pNewExceeds := stats.StdDev * stats.StdDev / (stats.StdDev*stats.StdDev + d*d)
	return 1-pNewExceeds > s.cfg.Delta
}
