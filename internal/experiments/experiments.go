// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VI) plus numerical checks of the two theorems. Each
// experiment is a pure function of an Options value and returns a typed
// result with text/CSV renderers, so command-line tools, tests, and
// benchmarks share one implementation.
//
// Experiment index:
//
//	table2    Table II  — trace statistics
//	fig1      Figure 1  — avg flowtime vs epsilon (r = 0)
//	fig2      Figure 2  — avg flowtime vs r (epsilon = 0.9); flat on the
//	                      synthetic trace, whose jobs share one CV (see Fig2)
//	fig3      Figure 3  — avg flowtime vs cluster size (eps = 0.9, r = 3)
//	fig4      Figure 4  — CDF of small-job flowtime, SRPTMS+C vs SCA vs Mantri
//	fig5      Figure 5  — CDF of big-job flowtime
//	fig6      Figure 6  — weighted/unweighted avg flowtime per algorithm
//	theorem1  Theorem 1 — offline per-job flowtime bound violation rate
//	theorem2  Theorem 2 — speed-augmented competitive ratio vs ceiling
package experiments

import (
	"context"
	"fmt"
	"math"

	"mrclone/internal/metrics"
	"mrclone/internal/runner"
	"mrclone/internal/sched"
	"mrclone/internal/trace"
)

// Tuned parameters for the comparison experiments (Figures 2–6). The paper
// follows the same procedure — sweep epsilon and r first (Figures 1–2), then
// run the comparisons at the tuned values ("Based on the evaluation results
// above, we choose..."). On the paper's Google trace the tuning selects
// epsilon = 0.6, r = 3. On this repository's synthetic trace the Figure 1
// minimum sits at epsilon = 0.9 at quick scale (699.9 s against 724.9 s at
// 1.0), while at full scale the curve keeps falling to epsilon = 1.0
// (686.7 s against 732.3 s at 0.9). The comparisons keep epsilon = 0.9,
// r = 3, the quick-scale pick; bench/mrbench reads both values. Rerun fig1
// to see the sweep; Figure 2 cannot tune r on this trace (see Fig2).
const (
	TunedEpsilon         = 0.9
	TunedDeviationFactor = 3
)

// Options configures an experiment run.
type Options struct {
	// Trace generation parameters; zero value means trace.GoogleParams().
	TraceParams trace.Params
	// Machines is the cluster size M (0 = 12000, the paper's cluster).
	Machines int
	// Runs averages each configuration over this many independent seeds
	// (the paper repeats each simulation ten times). 0 = 1.
	Runs int
	// Seed offsets the per-run seeds for reproducibility.
	Seed int64
	// Parallelism bounds concurrently simulated matrix cells (0 = all
	// cores). Results are byte-identical at any parallelism level; see
	// internal/runner.
	Parallelism int
	// Progress, when non-nil, receives (done, total) cell-completion
	// callbacks from the underlying runner.
	Progress func(done, total int)
	// Ctx, when non-nil, cancels in-flight matrix runs (e.g. on SIGINT);
	// nil means context.Background().
	Ctx context.Context
}

// FullOptions mirrors the paper's setup: the whole 6064-job trace on 12K
// machines, averaged over 10 runs.
func FullOptions() Options {
	return Options{Machines: 12000, Runs: 10, Seed: 1}
}

// QuickOptions is a laptop-scale preset preserving the paper's load ratio:
// 800 jobs arriving over the same 35032 s span (so the arrival rate drops
// 7.6x) on a proportionally smaller 1600-machine cluster.
func QuickOptions() Options {
	p := trace.GoogleParams()
	p.Jobs = 800
	return Options{TraceParams: p, Machines: 1600, Runs: 2, Seed: 1}
}

// normalize fills defaults.
func (o Options) normalize() Options {
	if o.TraceParams.Jobs == 0 {
		o.TraceParams = trace.GoogleParams()
	}
	if o.Machines == 0 {
		o.Machines = 12000
	}
	if o.Runs == 0 {
		o.Runs = 1
	}
	return o
}

// run executes one run matrix on the runner's worker pool: all (scheduler ×
// point × run) cells are simulated concurrently, and the assembled result
// is deterministic at any parallelism level.
func (o Options) run(spec runner.Spec, keepRaw bool) (*runner.Result, error) {
	return runner.Run(o.Ctx, spec, runner.Options{
		Parallelism: o.Parallelism,
		Progress:    o.Progress,
		KeepRaw:     keepRaw,
	})
}

// runMatrix runs the schedulers over the points on the generated trace,
// o.Runs seeds each.
func (o Options) runMatrix(schedulers []runner.SchedulerSpec, points []runner.Point,
	keepRaw bool) (*runner.Result, error) {
	tr, err := trace.Generate(o.TraceParams)
	if err != nil {
		return nil, err
	}
	specs, err := tr.Specs()
	if err != nil {
		return nil, err
	}
	return o.run(runner.Spec{
		Specs:      specs,
		Schedulers: schedulers,
		Points:     points,
		Runs:       o.Runs,
		BaseSeed:   o.Seed,
	}, keepRaw)
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

// Table2Result compares generated trace statistics with the paper's Table II.
type Table2Result struct {
	Stats trace.Stats
}

// Table2 runs experiment T2.
func Table2(o Options) (*Table2Result, error) {
	tr, err := trace.Generate(o.normalize().TraceParams)
	if err != nil {
		return nil, err
	}
	st, err := tr.ComputeStats()
	if err != nil {
		return nil, err
	}
	return &Table2Result{Stats: st}, nil
}

// Rows renders paper-vs-measured rows.
func (r *Table2Result) Rows() [][]string {
	f := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	return [][]string{
		{"Total number of jobs", fmt.Sprintf("%d", trace.GoogleJobs), fmt.Sprintf("%d", r.Stats.Jobs)},
		{"Trace duration (s)", fmt.Sprintf("%d", trace.GoogleSpanSeconds), fmt.Sprintf("%d", r.Stats.SpanSeconds)},
		{"Average number of tasks per job", f(trace.GoogleMeanTasks), f(r.Stats.MeanTasksPerJob)},
		{"Minimum task duration (s)", f(trace.GoogleMinTaskDur), f(r.Stats.MinTaskDur)},
		{"Maximum task duration (s)", f(trace.GoogleMaxTaskDur), f(r.Stats.MaxTaskDur)},
		{"Average task duration (s)", f(trace.GoogleMeanTaskDur), f(r.Stats.MeanTaskDur)},
	}
}

// ---------------------------------------------------------------------------
// Figures 1–3: SRPTMS+C parameter sweeps
// ---------------------------------------------------------------------------

// SweepPoint is one x-value of a parameter sweep with the two flowtime
// averages the paper plots.
type SweepPoint struct {
	X        float64
	Mean     float64 // unweighted average flowtime (s)
	Weighted float64 // weighted average flowtime (s)
}

// SweepResult holds one SRPTMS+C sweep of Figures 1–3; XLabel names the
// swept quantity.
type SweepResult struct {
	XLabel string
	Points []SweepPoint
}

// Best returns the x minimizing the unweighted average.
func (r *SweepResult) Best() float64 {
	best, bestV := 0.0, math.Inf(1)
	for _, p := range r.Points {
		if p.Mean < bestV {
			best, bestV = p.X, p.Mean
		}
	}
	return best
}

// sweep runs SRPTMS+C at every x of xs, each point's cluster size and
// tunables given by at under the normalized options. All points (times Runs
// seeds) are simulated concurrently on the runner's worker pool.
func sweep(o Options, xLabel string, xs []float64,
	at func(o Options, x float64) (machines int, p sched.Params)) (*SweepResult, error) {
	o = o.normalize()
	points := make([]runner.Point, len(xs))
	for i, x := range xs {
		m, p := at(o, x)
		points[i] = runner.Point{X: x, Machines: m, Params: &p}
	}
	res, err := o.runMatrix([]runner.SchedulerSpec{{Name: "srptms+c"}}, points, false)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{XLabel: xLabel, Points: make([]SweepPoint, len(points))}
	for pi := range points {
		agg := res.Aggregate(0, pi)
		out.Points[pi] = SweepPoint{X: agg.X, Mean: agg.MeanFlowtime, Weighted: agg.WeightedFlowtime}
	}
	return out, nil
}

// Fig1 sweeps epsilon in {0.1..1.0} at r = 0 (as in the paper's Figure 1).
func Fig1(o Options) (*SweepResult, error) {
	return Fig1Epsilons(o, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
}

// Fig1Epsilons sweeps an explicit epsilon grid at r = 0.
func Fig1Epsilons(o Options, epsilons []float64) (*SweepResult, error) {
	return sweep(o, "epsilon", epsilons, func(o Options, eps float64) (int, sched.Params) {
		return o.Machines, sched.Params{Epsilon: eps}
	})
}

// Fig2 sweeps r in {1..10} at epsilon = TunedEpsilon.
//
// On this repository's synthetic trace Figure 2 is flat. Every generated
// job phase draws from Scaled(BoundedPareto(1, 5, 2.5)), so sigma/mu is one
// constant c for every job; each job's remaining effective workload is then
// its remaining mean workload times the same factor 1 + r*c, and SRPTMS+C's
// priority order does not depend on r. At quick scale every r prints
// 699.9 s / 763.2 s, Figure 1's values at epsilon = 0.9 (r = 0); at full
// scale the averages vary by under 0.05% (731.9–732.3 s). Making r matter
// needs per-job variety in the coefficient of variation.
func Fig2(o Options) (*SweepResult, error) {
	rs := make([]float64, 10)
	for i := range rs {
		rs[i] = float64(i + 1)
	}
	return Fig2Factors(o, rs)
}

// Fig2Factors sweeps an explicit r grid at epsilon = TunedEpsilon.
func Fig2Factors(o Options, factors []float64) (*SweepResult, error) {
	return sweep(o, "r", factors, func(o Options, r float64) (int, sched.Params) {
		return o.Machines, sched.Params{Epsilon: TunedEpsilon, DeviationFactor: r}
	})
}

// Fig3 sweeps the cluster size from M/2 to M in six steps at epsilon =
// TunedEpsilon, r = TunedDeviationFactor (the paper sweeps 6000..12000 on
// its 12K baseline).
func Fig3(o Options) (*SweepResult, error) {
	o = o.normalize()
	var machines []int
	for i := 6; i <= 12; i++ {
		machines = append(machines, o.Machines*i/12)
	}
	return Fig3Machines(o, machines)
}

// Fig3Machines sweeps an explicit machine grid at the tuned operating point.
func Fig3Machines(o Options, machines []int) (*SweepResult, error) {
	xs := make([]float64, len(machines))
	for i, m := range machines {
		xs[i] = float64(m)
	}
	return sweep(o, "machines", xs, func(_ Options, m float64) (int, sched.Params) {
		return int(m), sched.Params{Epsilon: TunedEpsilon, DeviationFactor: TunedDeviationFactor}
	})
}

// ---------------------------------------------------------------------------
// Figures 4 & 5: CDF comparisons
// ---------------------------------------------------------------------------

// ComparedAlgorithms are the three schedulers of Figures 4–6, in plot order.
var ComparedAlgorithms = []string{"srptms+c", "sca", "mantri"}

// CDFResult holds per-algorithm CDF curves over one flowtime range.
type CDFResult struct {
	Lo, Hi float64
	Curves map[string][]metrics.CDFPoint
}

// Fig4 compares the small-job flowtime CDF (0–300 s) across algorithms.
func Fig4(o Options) (*CDFResult, error) { return cdfCompare(o, 0, 300, 13) }

// Fig5 compares the big-job flowtime CDF (300–4000 s) across algorithms.
func Fig5(o Options) (*CDFResult, error) { return cdfCompare(o, 300, 4000, 13) }

// compare runs the three compared algorithms at the tuned operating point
// on the whole cluster: the matrix of Figures 4–6, one row per algorithm in
// ComparedAlgorithms order.
func compare(o Options, keepRaw bool) (*runner.Result, error) {
	o = o.normalize()
	p := sched.Params{Epsilon: TunedEpsilon, DeviationFactor: TunedDeviationFactor}
	rows := make([]runner.SchedulerSpec, len(ComparedAlgorithms))
	for i, name := range ComparedAlgorithms {
		rows[i] = runner.SchedulerSpec{Name: name, Params: p}
	}
	return o.runMatrix(rows, []runner.Point{{X: 0, Machines: o.Machines}}, keepRaw)
}

func cdfCompare(o Options, lo, hi float64, points int) (*CDFResult, error) {
	res, err := compare(o, true)
	if err != nil {
		return nil, err
	}
	out := &CDFResult{Lo: lo, Hi: hi, Curves: make(map[string][]metrics.CDFPoint, len(ComparedAlgorithms))}
	for si, name := range ComparedAlgorithms {
		curve, err := res.CDF(si, 0, lo, hi, points)
		if err != nil {
			return nil, err
		}
		out.Curves[name] = curve
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 6: algorithm comparison
// ---------------------------------------------------------------------------

// AlgoSummary is one algorithm's averaged metrics.
type AlgoSummary struct {
	Name     string
	Mean     float64
	Weighted float64
	P50      float64
	P90      float64
}

// Fig6Result compares the algorithms' average flowtimes.
type Fig6Result struct {
	Summaries []AlgoSummary
}

// Fig6 compares SRPTMS+C, SCA, and Mantri at epsilon = TunedEpsilon, r =
// TunedDeviationFactor (Section VI-C). All algorithm × seed cells run
// concurrently on the runner's worker pool.
func Fig6(o Options) (*Fig6Result, error) {
	res, err := compare(o, false)
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{}
	for si, name := range ComparedAlgorithms {
		agg := res.Aggregate(si, 0)
		out.Summaries = append(out.Summaries, AlgoSummary{
			Name: name, Mean: agg.MeanFlowtime, Weighted: agg.WeightedFlowtime,
			P50: agg.P50, P90: agg.P90,
		})
	}
	return out, nil
}

// ImprovementOverMantri returns the relative reductions of SRPTMS+C versus
// Mantri on the two averages (the paper reports "nearly 25%").
func (r *Fig6Result) ImprovementOverMantri() (mean, weighted float64, err error) {
	var ours, mantri *AlgoSummary
	for i := range r.Summaries {
		switch r.Summaries[i].Name {
		case "srptms+c":
			ours = &r.Summaries[i]
		case "mantri":
			mantri = &r.Summaries[i]
		}
	}
	if ours == nil || mantri == nil {
		return 0, 0, fmt.Errorf("experiments: comparison lacks srptms+c or mantri")
	}
	return metrics.Improvement(mantri.Mean, ours.Mean),
		metrics.Improvement(mantri.Weighted, ours.Weighted), nil
}
