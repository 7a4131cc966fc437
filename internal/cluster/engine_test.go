package cluster

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/rng"
)

// greedyScheduler is a trivial test scheduler: launch every unscheduled task
// of every alive job in arrival order, one copy each, maps before reduces,
// gating reduces whose map phase is open.
type greedyScheduler struct {
	gateReduces bool // if true, launch reduce tasks gated before maps finish
}

func (g greedyScheduler) Name() string { return "greedy-test" }

func (g greedyScheduler) Schedule(ctx *Context) {
	for _, j := range ctx.AliveJobs() {
		for _, t := range j.UnscheduledTasks(job.PhaseMap) {
			if ctx.FreeMachines() == 0 {
				return
			}
			if _, err := ctx.Launch(j, t, 1, false); err != nil {
				panic(err)
			}
		}
		for _, t := range j.UnscheduledTasks(job.PhaseReduce) {
			if ctx.FreeMachines() == 0 {
				return
			}
			gated := !j.MapPhaseDone()
			if gated && !g.gateReduces {
				continue
			}
			if _, err := ctx.Launch(j, t, 1, gated); err != nil {
				panic(err)
			}
		}
	}
}

// cloneScheduler launches `clones` copies of every task (for speedup tests).
type cloneScheduler struct {
	clones int
}

func (c cloneScheduler) Name() string { return "clone-test" }

func (c cloneScheduler) Schedule(ctx *Context) {
	for _, j := range ctx.AliveJobs() {
		for _, t := range j.UnscheduledTasks(job.PhaseMap) {
			n := c.clones
			if n > ctx.FreeMachines() {
				n = ctx.FreeMachines()
			}
			if n == 0 {
				return
			}
			if _, err := ctx.Launch(j, t, n, false); err != nil {
				panic(err)
			}
		}
		if !j.MapPhaseDone() {
			continue
		}
		for _, t := range j.UnscheduledTasks(job.PhaseReduce) {
			n := c.clones
			if n > ctx.FreeMachines() {
				n = ctx.FreeMachines()
			}
			if n == 0 {
				return
			}
			if _, err := ctx.Launch(j, t, n, false); err != nil {
				panic(err)
			}
		}
	}
}

func det(t *testing.T, v float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewDeterministic(v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func simpleSpec(t *testing.T, id int, arrival int64, maps, reduces int, mDur, rDur float64) job.Spec {
	t.Helper()
	s := job.Spec{
		ID:       id,
		Arrival:  arrival,
		Weight:   1,
		MapTasks: maps,
	}
	if maps > 0 {
		s.MapDist = det(t, mDur)
	}
	s.ReduceTask = reduces
	if reduces > 0 {
		s.ReduceDist = det(t, rDur)
	}
	return s
}

func mustRun(t *testing.T, cfg Config, sched Scheduler, specs []job.Spec) *Result {
	t.Helper()
	eng, err := New(cfg, sched, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleTaskJobFlowtime(t *testing.T) {
	// One map task of duration 10, one machine: flowtime must be exactly 10.
	res := mustRun(t, Config{Machines: 1, Seed: 1}, greedyScheduler{},
		[]job.Spec{simpleSpec(t, 0, 0, 1, 0, 10, 0)})
	if got := res.Jobs[0].Flowtime; got != 10 {
		t.Fatalf("flowtime = %d, want 10", got)
	}
	if res.FinishedJobs != 1 || res.ArrivedJobs != 1 {
		t.Fatalf("bad counts: %+v", res)
	}
}

func TestMapReducePrecedence(t *testing.T) {
	// 2 maps (10s) + 1 reduce (5s) on plenty of machines:
	// maps run [0,10), reduce runs [10,15) => flowtime 15.
	res := mustRun(t, Config{Machines: 10, Seed: 1}, greedyScheduler{},
		[]job.Spec{simpleSpec(t, 0, 0, 2, 1, 10, 5)})
	if got := res.Jobs[0].Flowtime; got != 15 {
		t.Fatalf("flowtime = %d, want 15 (maps then reduce)", got)
	}
}

func TestGatedReduceDoesNotProgressEarly(t *testing.T) {
	// With gated launching the reduce occupies a machine from slot 0 but its
	// countdown starts when maps finish: flowtime is still 15, and the busy
	// integral is higher than without gating.
	gated := mustRun(t, Config{Machines: 10, Seed: 1}, greedyScheduler{gateReduces: true},
		[]job.Spec{simpleSpec(t, 0, 0, 2, 1, 10, 5)})
	if got := gated.Jobs[0].Flowtime; got != 15 {
		t.Fatalf("gated flowtime = %d, want 15", got)
	}
	ungated := mustRun(t, Config{Machines: 10, Seed: 1}, greedyScheduler{},
		[]job.Spec{simpleSpec(t, 0, 0, 2, 1, 10, 5)})
	if gated.MachineSlots <= ungated.MachineSlots {
		t.Fatalf("gated busy=%d should exceed ungated busy=%d (idle occupied machine)",
			gated.MachineSlots, ungated.MachineSlots)
	}
}

func TestUngatedEarlyReduceLaunchFails(t *testing.T) {
	specs := []job.Spec{simpleSpec(t, 0, 0, 1, 1, 10, 5)}
	eng, err := New(Config{Machines: 4, Seed: 1}, schedulerFunc(func(ctx *Context) {
		j := ctx.AliveJobs()[0]
		rt := j.UnscheduledTasks(job.PhaseReduce)
		if len(rt) > 0 && !j.MapPhaseDone() {
			if _, err := ctx.Launch(j, rt[0], 1, false); !errors.Is(err, ErrGateViolated) {
				t.Errorf("want ErrGateViolated, got %v", err)
			}
		}
		for _, mt := range j.UnscheduledTasks(job.PhaseMap) {
			if _, err := ctx.Launch(j, mt, 1, false); err != nil {
				t.Error(err)
			}
		}
		if j.MapPhaseDone() {
			for _, rt := range j.UnscheduledTasks(job.PhaseReduce) {
				if _, err := ctx.Launch(j, rt, 1, false); err != nil {
					t.Error(err)
				}
			}
		}
	}), specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// schedulerFunc adapts a func to Scheduler for tests.
type schedulerFunc func(*Context)

func (schedulerFunc) Name() string            { return "func-test" }
func (f schedulerFunc) Schedule(ctx *Context) { f(ctx) }

func TestArrivalRespected(t *testing.T) {
	// Job arrives at slot 100; with idle machines it must not start earlier.
	res := mustRun(t, Config{Machines: 5, Seed: 1}, greedyScheduler{},
		[]job.Spec{simpleSpec(t, 0, 100, 1, 0, 10, 0)})
	if got := res.Jobs[0].Finish; got != 110 {
		t.Fatalf("finish = %d, want 110", got)
	}
	if got := res.Jobs[0].Flowtime; got != 10 {
		t.Fatalf("flowtime = %d, want 10", got)
	}
}

func TestMachineCapacityIsRespected(t *testing.T) {
	// 5 unit-duration tasks, 2 machines: makespan must be ceil(5/2)=3 slots.
	res := mustRun(t, Config{Machines: 2, Seed: 1}, greedyScheduler{},
		[]job.Spec{simpleSpec(t, 0, 0, 5, 0, 1, 0)})
	if got := res.Jobs[0].Flowtime; got != 3 {
		t.Fatalf("flowtime = %d, want 3", got)
	}
}

func TestLaunchOverCapacityErrors(t *testing.T) {
	specs := []job.Spec{simpleSpec(t, 0, 0, 1, 0, 5, 0)}
	eng, err := New(Config{Machines: 2, Seed: 1}, schedulerFunc(func(ctx *Context) {
		j := ctx.AliveJobs()[0]
		ts := j.UnscheduledTasks(job.PhaseMap)
		if len(ts) == 0 {
			return
		}
		if _, err := ctx.Launch(j, ts[0], 3, false); !errors.Is(err, ErrNoFreeSlots) {
			t.Errorf("want ErrNoFreeSlots, got %v", err)
		}
		if _, err := ctx.Launch(j, ts[0], 2, false); err != nil {
			t.Error(err)
		}
	}), specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCloningKillsSiblingsAndFreesMachines(t *testing.T) {
	// Heavy-tail task with 4 clones: when the earliest finishes, siblings die
	// and machines free. With deterministic durations all 4 finish together,
	// so use Pareto. We only verify accounting invariants here.
	p, err := dist.NewPareto(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := job.Spec{ID: 0, Weight: 1, MapTasks: 3, MapDist: p}
	res := mustRun(t, Config{Machines: 12, Seed: 7}, cloneScheduler{clones: 4}, []job.Spec{spec})
	if res.TotalCopies != 12 {
		t.Fatalf("total copies = %d, want 12", res.TotalCopies)
	}
	if res.CloneCopies != 9 {
		t.Fatalf("clone copies = %d, want 9", res.CloneCopies)
	}
	if res.WastedCopyWrk <= 0 {
		t.Fatal("expected nonzero wasted workload from killed clones")
	}
}

func TestCloningReducesExpectedFlowtime(t *testing.T) {
	// For Pareto tasks, running 4 clones must beat 1 copy on average
	// (alpha=2 gives s(4) = 7/4). Compare mean flowtime across many seeds.
	p, err := dist.NewPareto(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	meanFlow := func(clones int) float64 {
		var sum float64
		const runs = 60
		for seed := int64(0); seed < runs; seed++ {
			spec := job.Spec{ID: 0, Weight: 1, MapTasks: 1, MapDist: p}
			res := mustRun(t, Config{Machines: 4, Seed: seed}, cloneScheduler{clones: clones},
				[]job.Spec{spec})
			sum += float64(res.Jobs[0].Flowtime)
		}
		return sum / runs
	}
	f1, f4 := meanFlow(1), meanFlow(4)
	if f4 >= f1 {
		t.Fatalf("cloning did not help: 1 copy %.2f, 4 copies %.2f", f1, f4)
	}
	// The theoretical ratio is s(4) = 7/4 = 1.75; allow generous MC slack.
	if ratio := f1 / f4; ratio < 1.2 {
		t.Fatalf("speedup ratio %.2f, want > 1.2", ratio)
	}
}

func TestSpeedAugmentation(t *testing.T) {
	// At speed 2, a workload-10 task takes ceil(10/2)=5 slots.
	res := mustRun(t, Config{Machines: 1, Speed: 2, Seed: 1}, greedyScheduler{},
		[]job.Spec{simpleSpec(t, 0, 0, 1, 0, 10, 0)})
	if got := res.Jobs[0].Flowtime; got != 5 {
		t.Fatalf("flowtime at speed 2 = %d, want 5", got)
	}
}

func TestDeterminism(t *testing.T) {
	p, err := dist.NewPareto(5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	specs := []job.Spec{
		{ID: 0, Weight: 1, MapTasks: 4, MapDist: p, ReduceTask: 2, ReduceDist: p},
		{ID: 1, Arrival: 3, Weight: 2, MapTasks: 2, MapDist: p},
	}
	a := mustRun(t, Config{Machines: 3, Seed: 99}, cloneScheduler{clones: 2}, specs)
	b := mustRun(t, Config{Machines: 3, Seed: 99}, cloneScheduler{clones: 2}, specs)
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("job count mismatch")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	if a.Slots != b.Slots || a.TotalCopies != b.TotalCopies {
		t.Fatal("aggregate results differ across identical seeds")
	}
}

func TestConfigValidation(t *testing.T) {
	specs := []job.Spec{simpleSpec(t, 0, 0, 1, 0, 1, 0)}
	if _, err := New(Config{Machines: 0}, greedyScheduler{}, specs); !errors.Is(err, ErrNoMachines) {
		t.Errorf("machines=0: %v", err)
	}
	if _, err := New(Config{Machines: 1}, nil, specs); !errors.Is(err, ErrNoScheduler) {
		t.Errorf("nil scheduler: %v", err)
	}
	if _, err := New(Config{Machines: 1, Speed: -1}, greedyScheduler{}, specs); err == nil {
		t.Error("negative speed accepted")
	}
	bad := []job.Spec{{ID: 0, Weight: 0, MapTasks: 1}}
	if _, err := New(Config{Machines: 1}, greedyScheduler{}, bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestMaxSlotsGuard(t *testing.T) {
	// A scheduler that never launches anything trips the overflow guard.
	specs := []job.Spec{simpleSpec(t, 0, 0, 1, 0, 1, 0)}
	eng, err := New(Config{Machines: 1, MaxSlots: 100}, schedulerFunc(func(*Context) {}), specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); !errors.Is(err, ErrSlotOverflow) {
		t.Fatalf("want ErrSlotOverflow, got %v", err)
	}
}

func TestProgressReports(t *testing.T) {
	specs := []job.Spec{simpleSpec(t, 0, 0, 1, 0, 10, 0)}
	var sawProgress bool
	eng, err := New(Config{Machines: 2, Seed: 1}, schedulerFunc(func(ctx *Context) {
		j := ctx.AliveJobs()[0]
		for _, mt := range j.UnscheduledTasks(job.PhaseMap) {
			if _, err := ctx.Launch(j, mt, 1, false); err != nil {
				t.Error(err)
			}
		}
		for _, mt := range j.RunningTasks(job.PhaseMap) {
			ps := ctx.Progress(mt)
			if len(ps) != 1 {
				t.Errorf("progress count = %d, want 1", len(ps))
				continue
			}
			p := ps[0]
			wantElapsed := ctx.Now() // launched at slot 0
			if p.Elapsed != wantElapsed {
				t.Errorf("elapsed = %d, want %d", p.Elapsed, wantElapsed)
			}
			wantFrac := float64(wantElapsed) / 10
			if p.Fraction != wantFrac {
				t.Errorf("fraction = %v, want %v", p.Fraction, wantFrac)
			}
			sawProgress = true
		}
	}), specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawProgress {
		t.Fatal("never observed progress")
	}
}

func TestFlowtimeLowerBoundProperty(t *testing.T) {
	// Property: with deterministic durations, every job's flowtime is at
	// least mapDur + reduceDur (critical path) regardless of cluster size.
	f := func(rawM, rawR uint8, machines uint8) bool {
		maps := int(rawM%5) + 1
		reduces := int(rawR % 4)
		m := int(machines%20) + 1
		mDur, rDur := 7.0, 4.0
		spec := simpleSpec(t, 0, 0, maps, reduces, mDur, rDur)
		res := mustRun(t, Config{Machines: m, Seed: int64(machines)}, greedyScheduler{},
			[]job.Spec{spec})
		want := int64(mDur)
		if reduces > 0 {
			want += int64(rDur)
		}
		return res.Jobs[0].Flowtime >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestResultSlotsIsLastFinish pins the Result.Slots contract: the slot at
// which the LAST job finished — not the slot counter's final value, which
// the loops advance past the completion (and by different amounts, so the
// old `Slots = e.slot` reported loop-dependent, off-by-one-or-more values).
func TestResultSlotsIsLastFinish(t *testing.T) {
	specs := []job.Spec{
		simpleSpec(t, 0, 0, 1, 0, 5, 0),
		simpleSpec(t, 1, 100, 1, 0, 10, 0), // idle gap, then finishes at 110
	}
	for _, loop := range []LoopMode{LoopNaive, LoopAuto} {
		res := mustRun(t, Config{Machines: 1, Seed: 1, Loop: loop}, greedyScheduler{}, specs)
		var finMax int64
		for _, j := range res.Jobs {
			if j.Finish > finMax {
				finMax = j.Finish
			}
		}
		if finMax != 110 {
			t.Fatalf("loop %v: last finish = %d, want 110", loop, finMax)
		}
		if res.Slots != finMax {
			t.Errorf("loop %v: Slots = %d, want last finish slot %d", loop, res.Slots, finMax)
		}
	}
}

// nonFiniteDist passes Spec validation (finite moments) but samples NaN
// after a configurable number of good draws.
type nonFiniteDist struct {
	good int // finite samples to produce before the bad one
	bad  float64
}

func (d *nonFiniteDist) Sample(*rng.Source) float64 {
	if d.good > 0 {
		d.good--
		return 3
	}
	return d.bad
}
func (d *nonFiniteDist) Mean() float64   { return 3 }
func (d *nonFiniteDist) StdDev() float64 { return 0 }

func TestNonFiniteWorkloadFailsRun(t *testing.T) {
	// The scheduler deliberately swallows Launch errors: the engine must
	// still fail the run (the first fatal error is recorded and surfaced
	// from Run even when the scheduler ignores it).
	swallowing := schedulerFunc(func(ctx *Context) {
		for _, j := range ctx.AliveJobs() {
			for _, mt := range j.UnscheduledTasks(job.PhaseMap) {
				if ctx.FreeMachines() == 0 {
					return
				}
				_, _ = ctx.Launch(j, mt, 1, false)
			}
		}
	})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, loop := range []LoopMode{LoopNaive, LoopAuto} {
			spec := job.Spec{ID: 0, Weight: 1, MapTasks: 2,
				MapDist: &nonFiniteDist{good: 1, bad: bad}}
			eng, err := New(Config{Machines: 4, Seed: 1, Loop: loop}, swallowing,
				[]job.Spec{spec})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); !errors.Is(err, ErrNonFiniteWorkload) {
				t.Errorf("bad=%v loop=%v: want ErrNonFiniteWorkload, got %v", bad, loop, err)
			}
		}
	}
}

// gatedOnlyScheduler launches every reduce task gated and never launches a
// map task, starving the run: the gate can never open. It opts into both
// event-driven execution and gated launches so the event loop exercises its
// starvation detection rather than being bypassed.
type gatedOnlyScheduler struct{}

func (gatedOnlyScheduler) Name() string              { return "gated-only-test" }
func (gatedOnlyScheduler) EventDriven() bool         { return true }
func (gatedOnlyScheduler) LaunchesGatedCopies() bool { return true }
func (gatedOnlyScheduler) Schedule(ctx *Context) {
	for _, j := range ctx.AliveJobs() {
		for _, t := range j.UnscheduledTasks(job.PhaseReduce) {
			if ctx.FreeMachines() == 0 {
				return
			}
			if _, err := ctx.Launch(j, t, 1, !j.MapPhaseDone()); err != nil {
				panic(err)
			}
		}
	}
}

// TestGatedStarvationDetectedImmediately pins the starvation path: when only
// gated copies remain (no future arrival, nothing in the calendar), the
// production loop must report ErrSlotOverflow right away instead of stepping
// silently through the MaxSlots horizon. The default 50M-slot horizon
// doubles as the proof of immediacy — walking it slot by slot would time the
// test out.
func TestGatedStarvationDetectedImmediately(t *testing.T) {
	specs := []job.Spec{simpleSpec(t, 0, 0, 1, 1, 10, 5)}
	eng, err := New(Config{Machines: 2, Seed: 1}, gatedOnlyScheduler{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); !errors.Is(err, ErrSlotOverflow) {
		t.Errorf("want ErrSlotOverflow, got %v", err)
	}
}

// TestWakeAtSkipsQuietSlots pins how the production loop uses the wake hint:
// a time-driven scheduler that launches at slot 100 and says so is invoked
// only on the arrival slot and on slot 100; without the hint it is invoked
// on every slot, as by the naive loop. All runs produce the same result.
func TestWakeAtSkipsQuietSlots(t *testing.T) {
	specs := []job.Spec{simpleSpec(t, 0, 0, 1, 0, 10, 0)}
	for _, tc := range []struct {
		hint      bool
		loop      LoopMode
		wantCalls int
	}{
		{true, LoopAuto, 2},
		{false, LoopAuto, 101},
		{true, LoopNaive, 101},
	} {
		calls := 0
		res := mustRun(t, Config{Machines: 1, Seed: 1, Loop: tc.loop}, schedulerFunc(func(ctx *Context) {
			calls++
			if ctx.Now() < 100 {
				if tc.hint {
					ctx.WakeAt(100)
				}
				return
			}
			greedyScheduler{}.Schedule(ctx)
		}), specs)
		if calls != tc.wantCalls {
			t.Errorf("hint=%v loop=%v: %d Schedule calls, want %d", tc.hint, tc.loop, calls, tc.wantCalls)
		}
		if res.Jobs[0].Finish != 110 || res.MachineSlots != 10 {
			t.Errorf("hint=%v loop=%v: finish %d, busy %d; want 110, 10",
				tc.hint, tc.loop, res.Jobs[0].Finish, res.MachineSlots)
		}
	}
}

func TestMultiJobInterleaving(t *testing.T) {
	// Two jobs on one machine, arrival order A then B: greedy runs A first.
	specs := []job.Spec{
		simpleSpec(t, 0, 0, 1, 0, 5, 0),
		simpleSpec(t, 1, 0, 1, 0, 5, 0),
	}
	res := mustRun(t, Config{Machines: 1, Seed: 1}, greedyScheduler{}, specs)
	if res.Jobs[0].Flowtime != 5 {
		t.Errorf("job A flowtime = %d, want 5", res.Jobs[0].Flowtime)
	}
	if res.Jobs[1].Flowtime != 10 {
		t.Errorf("job B flowtime = %d, want 10", res.Jobs[1].Flowtime)
	}
}
