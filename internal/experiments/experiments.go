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
//	fig2      Figure 2  — avg flowtime vs r (epsilon = 0.6)
//	fig3      Figure 3  — avg flowtime vs cluster size (eps = 0.6, r = 3)
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
// epsilon = 0.6, r = 3; on this repository's synthetic trace the Figure 1
// sweep is flat beyond epsilon ~0.8 with its minimum near 0.9, so the
// comparisons run at epsilon = 0.9, r = 3 (rerun fig1 to see the sweep).
const (
	TunedEpsilon         = 0.9
	TunedDeviationFactor = 3
)

// Options configures an experiment run.
type Options struct {
	// Trace generation parameters; zero value means trace.GoogleParams().
	TraceParams trace.Params
	// Jobs truncates the trace to its first n jobs (0 = all).
	Jobs int
	// Machines is the cluster size M (0 = 12000, the paper's cluster).
	Machines int
	// Runs averages each configuration over this many independent seeds
	// (the paper repeats each simulation ten times). 0 = 1.
	Runs int
	// Seed offsets the per-run seeds for reproducibility.
	Seed int64
	// MaxClonesPerTask caps cloning in the cloning schedulers (0 = default).
	MaxClonesPerTask int
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

// ctx returns the cancellation context of the run.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
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

// buildTrace generates (and truncates) the workload.
func (o Options) buildTrace() (*trace.Trace, error) {
	tr, err := trace.Generate(o.TraceParams)
	if err != nil {
		return nil, err
	}
	if o.Jobs > 0 && o.Jobs < len(tr.Rows) {
		tr = tr.Subset(o.Jobs)
	}
	return tr, nil
}

// runMatrix executes a run matrix over the trace via internal/runner: all
// (scheduler × point × run) cells are simulated on a bounded worker pool,
// and the assembled result is deterministic at any parallelism level.
func (o Options) runMatrix(tr *trace.Trace, schedulers []runner.SchedulerSpec,
	points []runner.Point, keepRaw bool) (*runner.Result, error) {
	specs, err := tr.Specs()
	if err != nil {
		return nil, err
	}
	return runner.Run(o.ctx(), runner.Spec{
		Specs:      specs,
		Schedulers: schedulers,
		Points:     points,
		Runs:       o.Runs,
		BaseSeed:   o.Seed,
	}, runner.Options{
		Parallelism: o.Parallelism,
		Progress:    o.Progress,
		KeepRaw:     keepRaw,
	})
}

// sweepSRPTMSC runs the paper's core scheduler over a sweep and extracts
// the two flowtime averages per point.
func (o Options) sweepSRPTMSC(tr *trace.Trace, points []runner.Point) ([]SweepPoint, error) {
	res, err := o.runMatrix(tr, []runner.SchedulerSpec{{Name: "srptms+c"}}, points, false)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(points))
	for pi := range points {
		agg := res.Aggregate(0, pi)
		out[pi] = SweepPoint{X: agg.X, Mean: agg.MeanFlowtime, Weighted: agg.WeightedFlowtime}
	}
	return out, nil
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
	o = o.normalize()
	tr, err := o.buildTrace()
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
func (r *Table2Result) Rows() [][3]string {
	f := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	return [][3]string{
		{"Total number of jobs", fmt.Sprintf("%d", trace.GoogleJobs), fmt.Sprintf("%d", r.Stats.Jobs)},
		{"Trace duration (s)", fmt.Sprintf("%d", trace.GoogleSpanSeconds), fmt.Sprintf("%d", r.Stats.SpanSeconds)},
		{"Average number of tasks per job", f(trace.GoogleMeanTasks), f(r.Stats.MeanTasksPerJob)},
		{"Minimum task duration (s)", f(trace.GoogleMinTaskDur), f(r.Stats.MinTaskDur)},
		{"Maximum task duration (s)", f(trace.GoogleMaxTaskDur), f(r.Stats.MaxTaskDur)},
		{"Average task duration (s)", f(trace.GoogleMeanTaskDur), f(r.Stats.MeanTaskDur)},
	}
}

// ---------------------------------------------------------------------------
// Figure 1: epsilon sweep
// ---------------------------------------------------------------------------

// SweepPoint is one x-value of a parameter sweep with the two flowtime
// averages the paper plots.
type SweepPoint struct {
	X        float64
	Mean     float64 // unweighted average flowtime (s)
	Weighted float64 // weighted average flowtime (s)
}

// Fig1Result holds the epsilon sweep of Figure 1.
type Fig1Result struct {
	Points []SweepPoint
}

// Fig1 sweeps epsilon in {0.1..1.0} at r = 0 (as in the paper's Figure 1).
func Fig1(o Options) (*Fig1Result, error) {
	return Fig1Epsilons(o, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
}

// Fig1Epsilons sweeps an explicit epsilon grid. All epsilon points (times
// Runs seeds) are simulated concurrently on the runner's worker pool.
func Fig1Epsilons(o Options, epsilons []float64) (*Fig1Result, error) {
	o = o.normalize()
	tr, err := o.buildTrace()
	if err != nil {
		return nil, err
	}
	points := make([]runner.Point, len(epsilons))
	for i, eps := range epsilons {
		p := sched.Params{Epsilon: eps, DeviationFactor: 0, MaxClonesPerTask: o.MaxClonesPerTask}
		points[i] = runner.Point{X: eps, Machines: o.Machines, Params: &p}
	}
	pts, err := o.sweepSRPTMSC(tr, points)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Points: pts}, nil
}

// BestEpsilon returns the epsilon minimizing the unweighted average.
func (r *Fig1Result) BestEpsilon() float64 {
	best, bestV := 0.0, math.Inf(1)
	for _, p := range r.Points {
		if p.Mean < bestV {
			best, bestV = p.X, p.Mean
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Figure 2: r sweep
// ---------------------------------------------------------------------------

// Fig2Result holds the deviation-factor sweep of Figure 2.
type Fig2Result struct {
	Points []SweepPoint
}

// Fig2 sweeps r in {1..10} at epsilon = 0.6.
func Fig2(o Options) (*Fig2Result, error) {
	rs := make([]float64, 10)
	for i := range rs {
		rs[i] = float64(i + 1)
	}
	return Fig2Factors(o, rs)
}

// Fig2Factors sweeps an explicit r grid on the runner's worker pool.
func Fig2Factors(o Options, factors []float64) (*Fig2Result, error) {
	o = o.normalize()
	tr, err := o.buildTrace()
	if err != nil {
		return nil, err
	}
	points := make([]runner.Point, len(factors))
	for i, r := range factors {
		p := sched.Params{Epsilon: TunedEpsilon, DeviationFactor: r, MaxClonesPerTask: o.MaxClonesPerTask}
		points[i] = runner.Point{X: r, Machines: o.Machines, Params: &p}
	}
	pts, err := o.sweepSRPTMSC(tr, points)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Points: pts}, nil
}

// ---------------------------------------------------------------------------
// Figure 3: cluster-size sweep
// ---------------------------------------------------------------------------

// Fig3Result holds the machine sweep of Figure 3.
type Fig3Result struct {
	Points []SweepPoint
}

// Fig3 sweeps the cluster size from M/2 to M in six steps at eps=0.6, r=3
// (the paper sweeps 6000..12000 on its 12K baseline).
func Fig3(o Options) (*Fig3Result, error) {
	o = o.normalize()
	var machines []int
	for i := 6; i <= 12; i++ {
		machines = append(machines, o.Machines*i/12)
	}
	return Fig3Machines(o, machines)
}

// Fig3Machines sweeps an explicit machine grid on the runner's worker pool.
func Fig3Machines(o Options, machines []int) (*Fig3Result, error) {
	o = o.normalize()
	tr, err := o.buildTrace()
	if err != nil {
		return nil, err
	}
	p := sched.Params{Epsilon: TunedEpsilon, DeviationFactor: TunedDeviationFactor, MaxClonesPerTask: o.MaxClonesPerTask}
	points := make([]runner.Point, len(machines))
	for i, m := range machines {
		points[i] = runner.Point{X: float64(m), Machines: m, Params: &p}
	}
	pts, err := o.sweepSRPTMSC(tr, points)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Points: pts}, nil
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

func cdfCompare(o Options, lo, hi float64, points int) (*CDFResult, error) {
	o = o.normalize()
	tr, err := o.buildTrace()
	if err != nil {
		return nil, err
	}
	res, err := o.runMatrix(tr, comparedSchedulerSpecs(o), []runner.Point{
		{X: 0, Machines: o.Machines},
	}, true)
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

// comparedSchedulerSpecs builds the matrix rows of Figures 4-6: the three
// compared algorithms at the tuned operating point.
func comparedSchedulerSpecs(o Options) []runner.SchedulerSpec {
	p := sched.Params{Epsilon: TunedEpsilon, DeviationFactor: TunedDeviationFactor, MaxClonesPerTask: o.MaxClonesPerTask}
	specs := make([]runner.SchedulerSpec, len(ComparedAlgorithms))
	for i, name := range ComparedAlgorithms {
		specs[i] = runner.SchedulerSpec{Name: name, Params: p}
	}
	return specs
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

// Fig6 compares SRPTMS+C, SCA, and Mantri (eps=0.6, r=3, Section VI-C).
// All algorithm × seed cells run concurrently on the runner's worker pool.
func Fig6(o Options) (*Fig6Result, error) {
	o = o.normalize()
	tr, err := o.buildTrace()
	if err != nil {
		return nil, err
	}
	res, err := o.runMatrix(tr, comparedSchedulerSpecs(o), []runner.Point{
		{X: 0, Machines: o.Machines},
	}, false)
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
