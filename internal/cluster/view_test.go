package cluster_test

import (
	"fmt"
	"math"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/sched"
)

// viewOracle checks, before and after every call of the scheduler it wraps,
// each running task's progress-view entry against Context.BestProgress: a
// task whose one copy is active must be covered, with the same Elapsed and
// the same Fraction bits, and any other task, with several copies or only a
// gated one, must be uncovered. It keeps the wrapped scheduler's
// EventDriven and GatedLauncher answers, so the production loop calls it
// exactly when it would call the scheduler.
type viewOracle struct {
	cluster.Scheduler
	tasks []*job.Task
	seen  viewCounts
	err   error
}

// viewCounts counts the entries a viewOracle checked, by kind.
type viewCounts struct {
	covered, multi, gated int
}

func (o *viewOracle) EventDriven() bool {
	ed, ok := o.Scheduler.(cluster.EventDriven)
	return ok && ed.EventDriven()
}

func (o *viewOracle) LaunchesGatedCopies() bool {
	gl, ok := o.Scheduler.(cluster.GatedLauncher)
	return ok && gl.LaunchesGatedCopies()
}

func (o *viewOracle) Schedule(ctx *cluster.Context) {
	o.check(ctx)
	o.Scheduler.Schedule(ctx)
	o.check(ctx)
}

func (o *viewOracle) check(ctx *cluster.Context) {
	if o.err != nil {
		return
	}
	now := ctx.Now()
	for _, j := range ctx.AliveJobs() {
		for _, p := range [...]job.Phase{job.PhaseMap, job.PhaseReduce} {
			o.tasks = j.AppendRunning(o.tasks[:0], p)
			view := j.RunningSpans(p)
			if len(view) != len(o.tasks) {
				o.err = fmt.Errorf("slot %d: job %d %v: %d view entries for %d running tasks",
					now, j.Spec.ID, p, len(view), len(o.tasks))
				return
			}
			for i, t := range o.tasks {
				sp := view[i]
				pr, ok := ctx.BestProgress(t)
				switch {
				case t.Copies == 1 && ok:
					o.seen.covered++
					if !sp.Covered() {
						o.err = fmt.Errorf("slot %d: task %v has one active copy but no view entry", now, t.ID)
						return
					}
					elapsed := sp.Elapsed(now)
					frac := sp.Fraction(elapsed)
					if elapsed != pr.Elapsed || math.Float64bits(frac) != math.Float64bits(pr.Fraction) {
						o.err = fmt.Errorf("slot %d: task %v: view reads elapsed %d, fraction %v; BestProgress %d, %v",
							now, t.ID, elapsed, frac, pr.Elapsed, pr.Fraction)
						return
					}
				case sp.Covered():
					o.err = fmt.Errorf("slot %d: task %v with %d copies (active %v) is covered by the view",
						now, t.ID, t.Copies, ok)
					return
				case !ok:
					o.seen.gated++
				default:
					o.seen.multi++
				}
			}
		}
	}
}

// TestProgressViewMatchesBestProgress runs every registered scheduler and
// every detection case under a viewOracle: on both loops over the mixed
// 40-job workload, and on the production loop over the 300x600 trace seeds
// of paperWorkloads (skipped by -short). Between them the runs must check
// covered, multi-copy and gated entries alike.
func TestProgressViewMatchesBestProgress(t *testing.T) {
	type named struct {
		name  string
		build func(t *testing.T) cluster.Scheduler
	}
	var scheds []named
	for _, name := range sched.Names() {
		scheds = append(scheds, named{name, func(t *testing.T) cluster.Scheduler { return buildSched(t, name) }})
	}
	for _, dc := range detectionCases() {
		scheds = append(scheds, named{"detection " + dc.name, dc.inc})
	}
	mixed := wakeWorkload{"mixed40x100", mixedTrace(t, 40), 100, 7}
	paper := paperWorkloads(t)
	var seen viewCounts
	for _, s := range scheds {
		for _, lm := range loopModes {
			ws := []wakeWorkload{mixed}
			if lm.mode == cluster.LoopAuto {
				ws = append(ws, paper...)
			}
			for _, w := range ws {
				o := &viewOracle{Scheduler: s.build(t)}
				runWith(t, o, lm.mode, w.machines, w.seed, w.tr)
				if o.err != nil {
					t.Errorf("%s, %s loop, %s: %v", s.name, lm.name, w.name, o.err)
				}
				seen.covered += o.seen.covered
				seen.multi += o.seen.multi
				seen.gated += o.seen.gated
			}
		}
	}
	if seen.covered == 0 || seen.multi == 0 || seen.gated == 0 {
		t.Errorf("checked %d covered, %d multi-copy and %d gated entries; want some of each",
			seen.covered, seen.multi, seen.gated)
	}
	t.Logf("checked %d covered, %d multi-copy and %d gated entries", seen.covered, seen.multi, seen.gated)
}
