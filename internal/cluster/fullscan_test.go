package cluster_test

// Full-rescan references for the detection baselines. Mantri and LATE
// rescan only the job phases that changed or are due (schedutil.ScanCache);
// the types below make the same decisions by rescanning every running task
// of every alive job on each call, LATE summing its speculative copies as
// it goes, with the helpers they use copied alongside.
// TestFullScanReference pins that the incremental scans make the same
// launches on the same slots and give the same wake hints.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/sched/late"
	"mrclone/internal/sched/mantri"
	"mrclone/internal/sched/schedutil"
)

// fullScanMantri is Mantri rescanning every running task at each check.
type fullScanMantri struct {
	name  string
	cfg   mantri.Config
	tasks []*job.Task
	cands []schedutil.Straggler
}

// newFullScanMantri applies mantri.New's defaults to a valid cfg.
func newFullScanMantri(name string, cfg mantri.Config) *fullScanMantri {
	if cfg.Delta == 0 {
		cfg.Delta = mantri.DefaultDelta
	}
	if cfg.MinObservationSlots == 0 {
		cfg.MinObservationSlots = mantri.DefaultMinObservation
	}
	if cfg.MaxBackupsPerTask == 0 {
		cfg.MaxBackupsPerTask = mantri.DefaultMaxBackups
	}
	if cfg.CheckIntervalSlots == 0 {
		cfg.CheckIntervalSlots = mantri.DefaultCheckInterval
	}
	return &fullScanMantri{name: name, cfg: cfg}
}

func (s *fullScanMantri) Name() string { return s.name }

func (s *fullScanMantri) Schedule(ctx *cluster.Context) {
	alive := ctx.AliveJobs()
	var free bool
	if s.tasks, free = schedutil.LaunchFirstCopies(ctx, alive, s.tasks); !free {
		return
	}
	now := ctx.Now()
	if now%s.cfg.CheckIntervalSlots != 0 {
		ctx.WakeAt(s.checkSlotFrom(now))
		return
	}
	wake := int64(math.MaxInt64)
	cands := s.cands[:0]
	for _, j := range alive {
		for _, p := range [...]job.Phase{job.PhaseMap, job.PhaseReduce} {
			stats := j.PhaseStats(p)
			s.tasks = j.AppendRunning(s.tasks[:0], p)
			for _, t := range s.tasks {
				if t.Copies >= 1+s.cfg.MaxBackupsPerTask {
					continue
				}
				pr, ok := ctx.BestProgress(t)
				if !ok {
					continue
				}
				if trem, ok := s.estimateRemaining(pr); ok && s.shouldBackup(trem, stats) {
					cands = append(cands, schedutil.Straggler{J: j, T: t, Rem: trem})
				} else {
					wake = min(wake, s.nextChance(now, pr, stats))
				}
			}
		}
	}
	s.cands = cands
	if len(cands) == 0 {
		ctx.WakeAt(wake)
		return
	}
	schedutil.SortStragglers(cands)
	for _, c := range cands {
		if ctx.FreeMachines() == 0 {
			return
		}
		if _, err := ctx.Launch(c.J, c.T, 1, false); err != nil {
			return
		}
	}
}

func (s *fullScanMantri) estimateRemaining(p cluster.CopyProgress) (float64, bool) {
	if p.Elapsed < s.cfg.MinObservationSlots || p.Fraction <= 0 {
		return 0, false
	}
	return float64(p.Elapsed) * (1 - p.Fraction) / p.Fraction, true
}

func (s *fullScanMantri) nextChance(now int64, p cluster.CopyProgress, stats job.Stats) int64 {
	if p.Tied {
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
	if !s.shouldBackup(trem+1e-9*total, stats) {
		return math.MaxInt64
	}
	return due
}

func (s *fullScanMantri) checkSlotFrom(t int64) int64 {
	every := s.cfg.CheckIntervalSlots
	if r := t % every; r != 0 {
		return t + every - r
	}
	return t
}

func (s *fullScanMantri) shouldBackup(trem float64, stats job.Stats) bool {
	if stats.Mean <= 0 {
		return false
	}
	half := trem / 2
	if half <= stats.Mean {
		return false
	}
	if stats.StdDev == 0 {
		return true
	}
	if math.IsInf(stats.StdDev, 1) {
		return true
	}
	d := half - stats.Mean
	pNewExceeds := stats.StdDev * stats.StdDev / (stats.StdDev*stats.StdDev + d*d)
	return 1-pNewExceeds > s.cfg.Delta
}

// fullScanLATE is LATE rescanning every running task on each call and
// summing the speculative copies as it goes.
type fullScanLATE struct {
	name  string
	cfg   late.Config
	tasks []*job.Task
	obs   []fullScanObserved
	cands []schedutil.Straggler
}

type fullScanObserved struct {
	t    *job.Task
	prog cluster.CopyProgress
	rate float64
}

// newFullScanLATE applies late.New's defaults to a valid cfg.
func newFullScanLATE(name string, cfg late.Config) *fullScanLATE {
	if cfg.SpeculativeCap == 0 {
		cfg.SpeculativeCap = late.DefaultSpeculativeCap
	}
	if cfg.SlowTaskThreshold == 0 {
		cfg.SlowTaskThreshold = late.DefaultSlowTaskThreshold
	}
	if cfg.MinObservationSlots == 0 {
		cfg.MinObservationSlots = late.DefaultMinObservation
	}
	return &fullScanLATE{name: name, cfg: cfg}
}

func (s *fullScanLATE) Name() string { return s.name }

func (s *fullScanLATE) Schedule(ctx *cluster.Context) {
	alive := ctx.AliveJobs()
	var free bool
	if s.tasks, free = schedutil.LaunchFirstCopies(ctx, alive, s.tasks); !free {
		return
	}
	now := ctx.Now()
	wake := int64(math.MaxInt64)
	var specCopies int
	cands := s.cands[:0]
	for _, j := range alive {
		for _, p := range [...]job.Phase{job.PhaseMap, job.PhaseReduce} {
			s.tasks = j.AppendRunning(s.tasks[:0], p)
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
					wake = min(wake, now+1)
				}
				if wait := s.cfg.MinObservationSlots - pr.Elapsed; wait > 0 {
					wake = min(wake, now+wait)
					continue
				}
				rate := pr.Fraction / float64(pr.Elapsed)
				sum += pr.Fraction
				rates += rate
				obs = append(obs, fullScanObserved{t: t, prog: pr, rate: rate})
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
					continue
				}
				if o.prog.Fraction >= cut {
					wake = min(wake, fullScanFallsBelow(now, o, cut, meanRate))
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
		ctx.WakeAt(math.MaxInt64)
		return
	}
	if len(cands) == 0 {
		ctx.WakeAt(wake)
		return
	}
	schedutil.SortStragglers(cands)
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

func fullScanFallsBelow(now int64, o fullScanObserved, cut, meanRate float64) int64 {
	gap := o.prog.Fraction - cut - 1e-9
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

// detectionCase is one configuration of a detection baseline: the
// incremental scheduler and its full-rescan reference.
type detectionCase struct {
	name string
	inc  func(t *testing.T) cluster.Scheduler
	ref  func(t *testing.T) cluster.Scheduler
}

// detectionCases returns Mantri and LATE at their defaults, then with one
// non-default field each: the scan cadence and observation window at both
// extremes, a single backup per task, a tiny and a full speculative cap,
// and a low slow-task threshold.
func detectionCases() []detectionCase {
	var cases []detectionCase
	for _, c := range []struct {
		name string
		cfg  mantri.Config
	}{
		{"mantri", mantri.Config{}},
		{"mantri/check1", mantri.Config{CheckIntervalSlots: 1}},
		{"mantri/check7", mantri.Config{CheckIntervalSlots: 7}},
		{"mantri/minobs1", mantri.Config{MinObservationSlots: 1}},
		{"mantri/minobs40", mantri.Config{MinObservationSlots: 40}},
		{"mantri/backups1", mantri.Config{MaxBackupsPerTask: 1}},
	} {
		inc := func(t *testing.T) cluster.Scheduler {
			t.Helper()
			s, err := mantri.New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		cases = append(cases, detectionCase{c.name, inc, func(t *testing.T) cluster.Scheduler {
			return newFullScanMantri(inc(t).Name(), c.cfg)
		}})
	}
	for _, c := range []struct {
		name string
		cfg  late.Config
	}{
		{"late", late.Config{}},
		{"late/minobs1", late.Config{MinObservationSlots: 1}},
		{"late/minobs40", late.Config{MinObservationSlots: 40}},
		{"late/cap0.01", late.Config{SpeculativeCap: 0.01}},
		{"late/cap1", late.Config{SpeculativeCap: 1}},
		{"late/threshold0.05", late.Config{SlowTaskThreshold: 0.05}},
	} {
		inc := func(t *testing.T) cluster.Scheduler {
			t.Helper()
			s, err := late.New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		cases = append(cases, detectionCase{c.name, inc, func(t *testing.T) cluster.Scheduler {
			return newFullScanLATE(inc(t).Name(), c.cfg)
		}})
	}
	return cases
}

// callCounter counts Schedule calls.
type callCounter struct {
	cluster.Scheduler
	calls int
}

func (c *callCounter) Schedule(ctx *cluster.Context) {
	c.calls++
	c.Scheduler.Schedule(ctx)
}

// TestFullScanReference runs every detection case against its full-rescan
// reference on both loops: the mixed 40-job workload for every case, and the
// 300x600 trace seeds of TestWakePromisesHold for the defaults (skipped by
// -short). Every Result must equal the reference's, the naive run of the
// incremental scheduler must keep its wake promises, and on the production
// loop it must be called exactly as often as the reference: the scans get
// cheaper, the wakes stay the same.
func TestFullScanReference(t *testing.T) {
	mixed := wakeWorkload{"mixed40x100", mixedTrace(t, 40), 100, 7}
	for _, dc := range detectionCases() {
		ws := []wakeWorkload{mixed}
		if dc.name == "mantri" || dc.name == "late" {
			ws = append(ws, paperWorkloads(t)...)
		}
		for _, w := range ws {
			id := fmt.Sprintf("%s on %s, seed %d", dc.name, w.name, w.seed)
			want := runWith(t, dc.ref(t), cluster.LoopNaive, w.machines, w.seed, w.tr)
			audit := cluster.NewWakeAudit(dc.inc(t))
			if got := runWith(t, audit, cluster.LoopNaive, w.machines, w.seed, w.tr); !reflect.DeepEqual(want, got) {
				t.Errorf("%s: naive loop: incremental and full-scan results differ", id)
			}
			if err := audit.Err(); err != nil {
				t.Errorf("%s: %v", id, err)
			}
			ref, inc := &callCounter{Scheduler: dc.ref(t)}, &callCounter{Scheduler: dc.inc(t)}
			if got := runWith(t, ref, cluster.LoopAuto, w.machines, w.seed, w.tr); !reflect.DeepEqual(want, got) {
				t.Errorf("%s: production loop: full-scan results differ from its naive run", id)
			}
			if got := runWith(t, inc, cluster.LoopAuto, w.machines, w.seed, w.tr); !reflect.DeepEqual(want, got) {
				t.Errorf("%s: production loop: incremental and full-scan results differ", id)
			}
			if inc.calls != ref.calls {
				t.Errorf("%s: production loop: %d calls, full scan %d", id, inc.calls, ref.calls)
			}
		}
	}
}
