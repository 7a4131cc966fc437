package mrclone

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (Section VI) plus the theorem checks and ablations.
// Each benchmark regenerates its artifact at laptop scale per iteration;
// run the full-scale versions with:
//
//	go run ./cmd/mrexperiments -scale full
//
// The -benchtime=1x flag gives one full regeneration per benchmark:
//
//	go test -bench=. -benchtime=1x -benchmem

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/experiments"
	"mrclone/internal/runner"
	"mrclone/internal/sched"
	"mrclone/internal/trace"
)

// benchOptions is a reduced preset so `go test -bench=.` stays tractable:
// 300 jobs on a 600-machine cluster (the paper's load ratio), one run.
func benchOptions() experiments.Options {
	p := trace.GoogleParams()
	p.Jobs = 300
	return experiments.Options{TraceParams: p, Machines: 600, Runs: 1, Seed: 1}
}

// BenchmarkTable2TraceStats regenerates Table II (trace statistics).
func BenchmarkTable2TraceStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1EpsilonSweep regenerates Figure 1 (flowtime vs epsilon, r=0).
func BenchmarkFig1EpsilonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1Epsilons(benchOptions(), []float64{0.2, 0.6, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2RSweep regenerates Figure 2 (flowtime vs deviation factor r).
func BenchmarkFig2RSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2Factors(benchOptions(), []float64{1, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3MachineSweep regenerates Figure 3 (flowtime vs cluster size).
func BenchmarkFig3MachineSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3Machines(benchOptions(), []int{300, 450, 600})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SmallJobCDF regenerates Figure 4 (small-job flowtime CDF
// under SRPTMS+C / SCA / Mantri).
func BenchmarkFig4SmallJobCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5BigJobCDF regenerates Figure 5 (big-job flowtime CDF).
func BenchmarkFig5BigJobCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6AlgorithmComparison regenerates Figure 6 (weighted and
// unweighted average flowtime per algorithm) and reports the improvement
// over Mantri as a custom metric (the paper's headline ~25%).
func BenchmarkFig6AlgorithmComparison(b *testing.B) {
	var lastMean, lastWeighted float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		mean, weighted, err := res.ImprovementOverMantri()
		if err != nil {
			b.Fatal(err)
		}
		lastMean, lastWeighted = mean, weighted
	}
	b.ReportMetric(lastMean*100, "%mean-vs-mantri")
	b.ReportMetric(lastWeighted*100, "%weighted-vs-mantri")
}

// BenchmarkTheorem1OfflineBound regenerates the Theorem 1 check (offline
// flowtime bound hold rate and zero-variance 2-competitiveness).
func BenchmarkTheorem1OfflineBound(b *testing.B) {
	var holdRate, ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Theorem1(experiments.Options{Runs: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		holdRate, ratio = res.HoldRate(), res.ZeroVarianceRatio
	}
	b.ReportMetric(holdRate, "hold-rate")
	b.ReportMetric(ratio, "competitive-ratio")
}

// BenchmarkTheorem2SpeedAugmentation regenerates the Theorem 2 check
// (speed-augmented competitive ratio vs the o(1/eps^2) ceiling).
func BenchmarkTheorem2SpeedAugmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Theorem2Epsilons(benchOptions(), []float64{0.4, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			if p.Ratio > p.Ceiling {
				b.Fatalf("eps=%v: ratio %v exceeds ceiling %v", p.Epsilon, p.Ratio, p.Ceiling)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Engine and runner throughput
// ---------------------------------------------------------------------------

// benchEngineRun measures one full simulation of the bench workload under
// one of the engine's execution loops (the per-cell cost of a matrix run).
func benchEngineRun(b *testing.B, loop cluster.LoopMode) {
	b.Helper()
	o := benchOptions()
	tr, err := trace.Generate(o.TraceParams)
	if err != nil {
		b.Fatal(err)
	}
	specs, err := tr.Specs()
	if err != nil {
		b.Fatal(err)
	}
	var slots int64
	for i := 0; i < b.N; i++ {
		s, err := sched.Build("srptms+c", sched.Params{
			Epsilon: experiments.TunedEpsilon, DeviationFactor: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := cluster.New(cluster.Config{
			Machines: o.Machines,
			Seed:     1,
			Loop:     loop,
		}, s, specs)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		slots = res.Slots
	}
	b.ReportMetric(float64(slots), "final-slot")
}

// BenchmarkEngineEventCore is the production configuration: the
// discrete-event loop over the priority-heap calendar. This is the
// benchmark the CI gate holds against BENCH_BASELINE.json.
func BenchmarkEngineEventCore(b *testing.B) { benchEngineRun(b, cluster.LoopAuto) }

// BenchmarkEngineNaiveLoop is the naive slot-by-slot reference loop, kept
// as the baseline the event core is measured against in-run (the gate
// asserts the naive/event ratio, which cancels out machine speed).
func BenchmarkEngineNaiveLoop(b *testing.B) { benchEngineRun(b, cluster.LoopNaive) }

// BenchmarkCalibrationSpin is a fixed, allocation-free integer workload used
// to normalize ns/op across machines: the CI gate divides each benchmark's
// ns/op by this benchmark's before comparing against BENCH_BASELINE.json, so
// a uniformly slower runner does not read as an engine regression.
func BenchmarkCalibrationSpin(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		x := uint64(88172645463325252)
		for n := 0; n < 1<<23; n++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
	}
	if sink == 0 {
		b.Fatal("unreachable: xorshift never yields zero")
	}
}

// BenchmarkRunnerMatrix executes the Figure 6 comparison matrix (3
// algorithms × 2 seeds) through internal/runner at parallelism 1 versus all
// cores — the orchestration speedup on one number. The CI gate holds
// parallel1, one worker running six cells in one engine memory, against
// BENCH_BASELINE.json.
func BenchmarkRunnerMatrix(b *testing.B) {
	o := benchOptions()
	tr, err := trace.Generate(o.TraceParams)
	if err != nil {
		b.Fatal(err)
	}
	specs, err := tr.Specs()
	if err != nil {
		b.Fatal(err)
	}
	p := sched.Params{Epsilon: experiments.TunedEpsilon, DeviationFactor: 3}
	spec := runner.Spec{
		Specs: specs,
		Schedulers: []runner.SchedulerSpec{
			{Name: "srptms+c", Params: p}, {Name: "sca", Params: p}, {Name: "mantri", Params: p},
		},
		Points:   []runner.Point{{X: float64(o.Machines), Machines: o.Machines}},
		Runs:     2,
		BaseSeed: 1,
	}
	wide := runtime.NumCPU()
	if wide < 4 {
		wide = 4 // keep the comparison meaningful on small CI machines
	}
	for _, tc := range []struct {
		name string
		par  int
	}{
		{"parallel1", 1},
		{fmt.Sprintf("parallel%d", wide), wide},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(context.Background(), spec,
					runner.Options{Parallelism: tc.par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations: one cell of each scheduler on the bench workload
// ---------------------------------------------------------------------------

// benchScheduler measures one simulation of the bench workload under a
// scheduler configuration and reports the weighted average flowtime.
func benchScheduler(b *testing.B, name string, p sched.Params) {
	b.Helper()
	o := benchOptions()
	tr, err := trace.Generate(o.TraceParams)
	if err != nil {
		b.Fatal(err)
	}
	var weighted float64
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulation(tr,
			WithMachines(o.Machines),
			WithScheduler(name),
			WithSchedulerParams(p),
			WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		sum, err := Summarize(res)
		if err != nil {
			b.Fatal(err)
		}
		weighted = sum.WeightedFlowtime
	}
	b.ReportMetric(weighted, "weighted-flowtime-s")
}

// BenchmarkAblationCloneCap sweeps the per-task clone cap of SRPTMS+C.
func BenchmarkAblationCloneCap(b *testing.B) {
	for _, cloneCap := range []int{1, 2, 4, 8} {
		cloneCap := cloneCap
		b.Run(fmt.Sprintf("cap%d", cloneCap), func(b *testing.B) {
			benchScheduler(b, "srptms+c", sched.Params{
				Epsilon: experiments.TunedEpsilon, DeviationFactor: 3, MaxClonesPerTask: cloneCap,
			})
		})
	}
}

// BenchmarkAblationEpsilon compares the SRPT-like, tuned, and fair-like
// operating points of the sharing fraction.
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, tc := range []struct {
		name string
		eps  float64
	}{
		{"srpt-like-0.1", 0.1},
		{"tuned-0.9", 0.9},
		{"fair-like-1.0", 1.0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchScheduler(b, "srptms+c", sched.Params{Epsilon: tc.eps, DeviationFactor: 3})
		})
	}
}

// BenchmarkAblationSchedulers measures every registered scheduler on the
// same workload — the simulator-throughput comparison. The CI gate holds
// each sub-benchmark against BENCH_BASELINE.json.
func BenchmarkAblationSchedulers(b *testing.B) {
	for _, name := range SchedulerNames() {
		b.Run(name, func(b *testing.B) {
			benchScheduler(b, name, sched.Params{
				Epsilon: experiments.TunedEpsilon, DeviationFactor: 3, GateReduces: true,
			})
		})
	}
}
