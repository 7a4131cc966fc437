package cluster_test

// Equivalence harness for the engine's two execution loops. For every
// registered scheduler — event-driven (SRPTMS+C, SCA, Fair, SRPT, Offline,
// Dolly) and time-driven with wake hints (Mantri, LATE) alike — the
// production loop (LoopAuto) and the naive slot-by-slot reference
// (LoopNaive) must produce Results identical field-for-field: per-job finish
// slots, busy integral, copy counts, wasted workload, final slot.
//
// On top of loop agreement, TestPinnedAggregates pins the absolute values
// these workloads produced before the discrete-event core landed (captured
// from the per-slot engine of the previous revision), so a change that
// breaks both loops identically — or perturbs the sampling stream — still
// fails.

import (
	"fmt"
	"reflect"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/rng"
	"mrclone/internal/sched"
	"mrclone/internal/sched/late"
	"mrclone/internal/sched/mantri"
	"mrclone/internal/trace"
)

// mixedTrace builds a small Google-calibrated workload containing both map
// and reduce tasks with staggered arrivals.
func mixedTrace(t *testing.T, jobs int) *trace.Trace {
	t.Helper()
	p := trace.GoogleParams()
	p.Jobs = jobs
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var reduces int
	for _, row := range tr.Rows {
		reduces += row.ReduceTasks
	}
	if reduces == 0 {
		t.Fatal("trace has no reduce tasks; equivalence test needs a mixed workload")
	}
	return tr
}

// paperTrace is the benchmark's workload shape: 300 Table II jobs from the
// given trace seed, meant for 600 machines.
func paperTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	p := trace.GoogleParams()
	p.Jobs, p.Seed = 300, seed
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func buildSched(t *testing.T, name string) cluster.Scheduler {
	t.Helper()
	s, err := sched.Build(name, sched.Params{
		Epsilon:         0.9,
		DeviationFactor: 3,
		GateReduces:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runSpecs(t *testing.T, s cluster.Scheduler, loop cluster.LoopMode, machines int, seed int64,
	specs []job.Spec) *cluster.Result {
	t.Helper()
	eng, err := cluster.New(cluster.Config{
		Machines: machines,
		Seed:     seed,
		Loop:     loop,
	}, s, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runWith(t *testing.T, s cluster.Scheduler, loop cluster.LoopMode, machines int, seed int64,
	tr *trace.Trace) *cluster.Result {
	t.Helper()
	specs, err := tr.Specs()
	if err != nil {
		t.Fatal(err)
	}
	return runSpecs(t, s, loop, machines, seed, specs)
}

func runLoop(t *testing.T, name string, loop cluster.LoopMode, machines int, seed int64,
	tr *trace.Trace) *cluster.Result {
	t.Helper()
	return runWith(t, buildSched(t, name), loop, machines, seed, tr)
}

// loopModes is every execution loop, reference first.
var loopModes = []struct {
	name string
	mode cluster.LoopMode
}{
	{"naive", cluster.LoopNaive},
	{"events", cluster.LoopAuto},
}

func TestLoopEquivalence(t *testing.T) {
	tr := mixedTrace(t, 40)
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ref := runLoop(t, name, cluster.LoopNaive, 100, 7, tr)
			for _, lm := range loopModes[1:] {
				got := runLoop(t, name, lm.mode, 100, 7, tr)
				if ref.Slots != got.Slots {
					t.Errorf("%s: final slot differs: naive %d, %s %d",
						lm.name, ref.Slots, lm.name, got.Slots)
				}
				if ref.MachineSlots != got.MachineSlots {
					t.Errorf("%s: busy integral differs: naive %d, %s %d",
						lm.name, ref.MachineSlots, lm.name, got.MachineSlots)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("%s: results differ:\nnaive: %+v\n%s: %+v",
						lm.name, ref, lm.name, got)
				}
			}
		})
	}
}

// TestLoopEquivalenceUnderload exercises the regime where event skipping
// matters most: a lightly loaded cluster with long stretches of empty slots
// between arrivals.
func TestLoopEquivalenceUnderload(t *testing.T) {
	tr := mixedTrace(t, 12)
	for _, name := range []string{"srptms+c", "mantri", "late"} {
		ref := runLoop(t, name, cluster.LoopNaive, 2000, 3, tr)
		for _, lm := range loopModes[1:] {
			got := runLoop(t, name, lm.mode, 2000, 3, tr)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s/%s: underloaded results differ", name, lm.name)
			}
		}
	}
}

// aggregate reduces a Result to the pinned scalar fingerprint.
type aggregate struct {
	finMax int64
	flow   int64
	total  int64
	clone  int64
	busy   int64
	wasted float64
}

func aggregateOf(res *cluster.Result) aggregate {
	a := aggregate{
		total:  res.TotalCopies,
		clone:  res.CloneCopies,
		busy:   res.MachineSlots,
		wasted: res.WastedCopyWrk,
	}
	for _, j := range res.Jobs {
		a.flow += j.Flowtime
		if j.Finish > a.finMax {
			a.finMax = j.Finish
		}
	}
	return a
}

// Pinned aggregates captured from the pre-event-core engine (per-slot loop)
// on mixedTrace(40 jobs), 100 machines, seed 7. Wasted workload is compared
// to 1e-6 absolute: the accumulation order of killed-copy remainders is part
// of the contract.
var pinnedAggregates = map[string]aggregate{
	"dolly":    {finMax: 45515, flow: 69501, total: 1662, clone: 99, busy: 1835154, wasted: 3950.003775},
	"fair":     {finMax: 45870, flow: 63065, total: 1563, clone: 0, busy: 1830414, wasted: 0.000000},
	"late":     {finMax: 42277, flow: 52716, total: 1675, clone: 112, busy: 1877352, wasted: 82461.147756},
	"mantri":   {finMax: 45720, flow: 68080, total: 1572, clone: 9, busy: 1820851, wasted: 17679.189042},
	"offline":  {finMax: 45902, flow: 65519, total: 1563, clone: 0, busy: 2809802, wasted: 0.000000},
	"sca":      {finMax: 45650, flow: 61157, total: 2855, clone: 1292, busy: 2113633, wasted: 175854.464956},
	"srpt":     {finMax: 45902, flow: 63232, total: 1563, clone: 0, busy: 1824515, wasted: 0.000000},
	"srptms+c": {finMax: 46594, flow: 57034, total: 2763, clone: 1200, busy: 2053334, wasted: 118409.364751},
}

// Same capture on the underloaded workload: mixedTrace(12 jobs), 2000
// machines, seed 3.
var pinnedUnderload = map[string]aggregate{
	"srptms+c": {finMax: 33975, flow: 11322, total: 872, clone: 763, busy: 694920, wasted: 350189.276569},
	"mantri":   {finMax: 36441, flow: 21259, total: 109, clone: 0, busy: 126522, wasted: 0.000000},
}

func assertAggregate(t *testing.T, name string, got, want aggregate) {
	t.Helper()
	gw, ww := got.wasted, want.wasted
	got.wasted, want.wasted = 0, 0
	if got != want {
		t.Errorf("%s: aggregate drifted from pinned capture:\ngot  %+v\nwant %+v", name, got, want)
	}
	if d := gw - ww; d > 1e-6 || d < -1e-6 {
		t.Errorf("%s: wasted workload drifted: got %.6f, want %.6f", name, gw, ww)
	}
}

// TestPinnedAggregates asserts that the production loop still reproduces the
// exact aggregates of the pre-event-core engine. A deliberate
// semantics-changing commit must re-pin these tables (the failure message
// prints the new values); anything else that trips this test has changed
// simulation results and is a bug.
func TestPinnedAggregates(t *testing.T) {
	tr := mixedTrace(t, 40)
	for _, name := range sched.Names() {
		want, ok := pinnedAggregates[name]
		if !ok {
			t.Errorf("%s: no pinned aggregate; capture one for new schedulers", name)
			continue
		}
		got := aggregateOf(runLoop(t, name, cluster.LoopAuto, 100, 7, tr))
		assertAggregate(t, name, got, want)
	}
	tr12 := mixedTrace(t, 12)
	for name, want := range pinnedUnderload {
		got := aggregateOf(runLoop(t, name, cluster.LoopAuto, 2000, 3, tr12))
		assertAggregate(t, "underload/"+name, got, want)
	}
}

// wakeWorkload is a trace on a cluster of the given size at an engine seed.
type wakeWorkload struct {
	name     string
	tr       *trace.Trace
	machines int
	seed     int64
}

// paperWorkloads are seven 300x600 trace seeds at engine seed 1, or none
// under -short. They include 16, 22 and 25, on which a LATE wake that
// ignores tied copies breaks its promise.
func paperWorkloads(t *testing.T) []wakeWorkload {
	t.Helper()
	if testing.Short() {
		return nil
	}
	var ws []wakeWorkload
	for _, ts := range []int64{7, 13, 14, 16, 18, 22, 25} {
		ws = append(ws, wakeWorkload{fmt.Sprintf("300x600/trace%d", ts), paperTrace(t, ts), 600, 1})
	}
	return ws
}

// TestWakePromisesHold runs the schedulers that use Context.WakeAt on the
// naive loop under a wake audit: no Schedule call may launch before a slot a
// quiet call promised, unless an arrival or a completion came first. Every
// detection case runs on the mixed 40-job workload, and the defaults also
// on the 300x600 trace seeds of paperWorkloads.
func TestWakePromisesHold(t *testing.T) {
	mixed := wakeWorkload{"mixed40x100", mixedTrace(t, 40), 100, 7}
	for _, dc := range detectionCases() {
		ws := []wakeWorkload{mixed}
		if dc.name == "mantri" || dc.name == "late" {
			ws = append(ws, paperWorkloads(t)...)
		}
		for _, w := range ws {
			audit := cluster.NewWakeAudit(dc.inc(t))
			ref := runWith(t, audit, cluster.LoopNaive, w.machines, w.seed, w.tr)
			if err := audit.Err(); err != nil {
				t.Errorf("%s on %s, seed %d: %v", dc.name, w.name, w.seed, err)
			}
			got := runWith(t, dc.inc(t), cluster.LoopAuto, w.machines, w.seed, w.tr)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s on %s, seed %d: naive and production results differ", dc.name, w.name, w.seed)
			}
		}
	}
}

// seqDist samples a fixed sequence of workloads, then repeats the last one;
// schedulers see the given mean and zero deviation.
type seqDist struct {
	w    []float64
	next int
	mean float64
}

func (d *seqDist) Sample(*rng.Source) float64 {
	v := d.w[min(d.next, len(d.w)-1)]
	d.next++
	return v
}
func (d *seqDist) Mean() float64   { return d.mean }
func (d *seqDist) StdDev() float64 { return 0 }

// tieProbe records whether BestProgress ever reported a tied running task
// after the wrapped scheduler's calls.
type tieProbe struct {
	cluster.Scheduler
	tied bool
}

func (p *tieProbe) Schedule(ctx *cluster.Context) {
	p.Scheduler.Schedule(ctx)
	for _, j := range ctx.AliveJobs() {
		for _, t := range j.AppendRunning(nil, job.PhaseMap) {
			if pr, ok := ctx.BestProgress(t); ok && pr.Tied {
				p.tied = true
			}
		}
	}
}

// TestTiedCopies builds a job whose slow task (workload 100) gets a backup
// that finishes on exactly the same slot as the original, then the same job
// with a backup that finishes first, and with no backup at all. BestProgress
// must flag only the first as tied, and the naive and production loops must
// agree on all three under both detection baselines.
func TestTiedCopies(t *testing.T) {
	for _, sc := range []struct {
		name     string
		build    func() (cluster.Scheduler, error)
		backupAt int64 // slot at which the slow task's backup launches
	}{
		{"mantri", func() (cluster.Scheduler, error) { return mantri.New(mantri.Config{}) }, 10},
		{"late", func() (cluster.Scheduler, error) { return late.New(late.Config{}) }, 8},
	} {
		tiedBackup := float64(100 - sc.backupAt)
		for _, tc := range []struct {
			name      string
			workloads []float64 // slow task, fast task, then backups
			tied      bool
			backups   bool
		}{
			{"tied", []float64{100, 10, tiedBackup}, true, true},
			{"distinct", []float64{100, 10, tiedBackup - 30}, false, true},
			{"single", []float64{15, 10}, false, false},
		} {
			var results [2]*cluster.Result
			var probe *tieProbe
			for i, loop := range []cluster.LoopMode{cluster.LoopNaive, cluster.LoopAuto} {
				s, err := sc.build()
				if err != nil {
					t.Fatal(err)
				}
				spec := job.Spec{ID: 0, Weight: 1, MapTasks: 2,
					MapDist: &seqDist{w: tc.workloads, mean: 10}}
				p := &tieProbe{Scheduler: s}
				if loop == cluster.LoopNaive {
					probe = p
				}
				results[i] = runSpecs(t, p, loop, 20, 1, []job.Spec{spec})
			}
			id := sc.name + "/" + tc.name
			if probe.tied != tc.tied {
				t.Errorf("%s: BestProgress reported Tied = %v, want %v", id, probe.tied, tc.tied)
			}
			if got := results[0].CloneCopies > 0; got != tc.backups {
				t.Errorf("%s: backups launched = %v, want %v", id, got, tc.backups)
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Errorf("%s: results differ:\nnaive:  %+v\nevents: %+v", id, results[0], results[1])
			}
		}
	}
}

// gatedClones launches each job's map tasks, then two gated copies of each
// of its reduce tasks while the map phase runs.
type gatedClones struct{}

func (gatedClones) Name() string { return "gated-clones" }
func (gatedClones) Schedule(ctx *cluster.Context) {
	for _, j := range ctx.AliveJobs() {
		for _, t := range j.AppendUnscheduled(nil, job.PhaseMap) {
			if _, err := ctx.Launch(j, t, 1, false); err != nil {
				panic(err)
			}
		}
		for _, t := range j.AppendUnscheduled(nil, job.PhaseReduce) {
			if _, err := ctx.Launch(j, t, 2, !j.MapPhaseDone()); err != nil {
				panic(err)
			}
		}
	}
}

// TestGatedClonesStartTogether gives a reduce task two gated copies of
// workloads 9 and 4 while its job's map task (workload 5) runs. Both must
// start when the map phase completes at slot 5, so the task finishes with
// the short copy at slot 9, and the long one is killed with 5 of its 9
// units of work undone.
func TestGatedClonesStartTogether(t *testing.T) {
	for _, lm := range loopModes {
		spec := job.Spec{ID: 0, Weight: 1, MapTasks: 1, ReduceTask: 1,
			MapDist:    &seqDist{w: []float64{5}, mean: 5},
			ReduceDist: &seqDist{w: []float64{9, 4}, mean: 6.5}}
		res := runSpecs(t, gatedClones{}, lm.mode, 3, 1, []job.Spec{spec})
		if res.Jobs[0].Finish != 9 || res.WastedCopyWrk != 5 || res.CloneCopies != 1 {
			t.Errorf("%s: finish %d, wasted work %v, clones %d; want 9, 5, 1",
				lm.name, res.Jobs[0].Finish, res.WastedCopyWrk, res.CloneCopies)
		}
	}
}

// speculativeProbe checks Context.SpeculativeCopies against the sum of
// Copies-1 over every running task, before and after each call of the
// wrapped scheduler.
type speculativeProbe struct {
	cluster.Scheduler
	tasks   []*job.Task
	maxSeen int  // largest sum seen
	gated   bool // saw a running task whose copies are all gated
	err     error
}

func (p *speculativeProbe) Schedule(ctx *cluster.Context) {
	p.check(ctx)
	p.Scheduler.Schedule(ctx)
	p.check(ctx)
}

func (p *speculativeProbe) check(ctx *cluster.Context) {
	var want int
	for _, j := range ctx.AliveJobs() {
		for _, ph := range [...]job.Phase{job.PhaseMap, job.PhaseReduce} {
			p.tasks = j.AppendRunning(p.tasks[:0], ph)
			for _, t := range p.tasks {
				want += t.Copies - 1
				if _, ok := ctx.BestProgress(t); !ok {
					p.gated = true
				}
			}
		}
	}
	p.maxSeen = max(p.maxSeen, want)
	if got := ctx.SpeculativeCopies(); got != want && p.err == nil {
		p.err = fmt.Errorf("slot %d: SpeculativeCopies = %d, running tasks hold %d copies beyond their first",
			ctx.Now(), got, want)
	}
}

// TestSpeculativeCopiesCounter runs every registered scheduler, and the
// offline algorithm with gated reduces, on the naive loop and checks the
// O(1) counter on every call. The cloning schedulers cover killed siblings,
// gated offline covers copies that occupy machines before their gate opens.
func TestSpeculativeCopiesCounter(t *testing.T) {
	tr := mixedTrace(t, 40)
	type run struct {
		name   string
		params sched.Params
	}
	var runs []run
	for _, name := range sched.Names() {
		runs = append(runs, run{name, sched.DefaultParams()})
	}
	gated := sched.DefaultParams()
	gated.GateReduces = true
	runs = append(runs, run{"offline", gated})
	var clones bool
	for _, r := range runs {
		s, err := sched.Build(r.name, r.params)
		if err != nil {
			t.Fatal(err)
		}
		p := &speculativeProbe{Scheduler: s}
		runWith(t, p, cluster.LoopNaive, 100, 7, tr)
		id := fmt.Sprintf("%s (gate reduces %v)", r.name, r.params.GateReduces)
		if p.err != nil {
			t.Errorf("%s: %v", id, p.err)
		}
		if r.params.GateReduces && !p.gated {
			t.Errorf("%s: no task ever had only gated copies", id)
		}
		clones = clones || p.maxSeen > 0
	}
	if !clones {
		t.Error("no scheduler ran a task with more than one live copy")
	}
}
