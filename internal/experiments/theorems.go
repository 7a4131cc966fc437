package experiments

import (
	"fmt"

	"mrclone/internal/analysis"
	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/runner"
	"mrclone/internal/sched"
	"mrclone/internal/sched/srptms"
)

// ---------------------------------------------------------------------------
// Theorem 1: offline flowtime bound
// ---------------------------------------------------------------------------

// Theorem1Result reports how often the offline per-job flowtime bound
// E^r_i + r sigma^r_i + f^s_i/M held across randomized runs, against the
// theorem's success-probability floor.
type Theorem1Result struct {
	DeviationFactor float64
	Machines        int
	Runs            int
	JobsPerRun      int
	Violations      int
	Checks          int
	// TheoremFloor is 1 + 1/r^4 - 2/r^2, the minimum per-check probability
	// the theorem guarantees.
	TheoremFloor float64
	// ZeroVarianceRatio is the measured weighted-flowtime competitive ratio
	// against the SRPT lower bound on a zero-variance instance (Remark 2
	// promises <= 2).
	ZeroVarianceRatio float64
}

// HoldRate is the measured fraction of checks where the bound held.
func (r *Theorem1Result) HoldRate() float64 {
	if r.Checks == 0 {
		return 0
	}
	return 1 - float64(r.Violations)/float64(r.Checks)
}

// Theorem1 runs the offline bound experiment on a bulk-arrival workload with
// moderate variance plus the zero-variance 2-competitiveness check.
func Theorem1(o Options) (*Theorem1Result, error) {
	o = o.normalize()
	const (
		machines = 3
		rFactor  = 3.0
	)
	out := &Theorem1Result{
		DeviationFactor: rFactor,
		Machines:        machines,
		Runs:            o.Runs * 20, // cheap instances: use more seeds
		TheoremFloor:    analysis.Theorem1SuccessProbability(rFactor),
	}

	// Bulk-arrival instance with uniform task durations (finite variance).
	u, err := dist.NewUniform(5, 15)
	if err != nil {
		return nil, err
	}
	specs := []job.Spec{
		{ID: 0, Weight: 1, MapTasks: 4, MapDist: u, ReduceTask: 2, ReduceDist: u},
		{ID: 1, Weight: 1, MapTasks: 2, MapDist: u},
		{ID: 2, Weight: 2, MapTasks: 6, MapDist: u, ReduceTask: 1, ReduceDist: u},
		{ID: 3, Weight: 3, MapTasks: 1, MapDist: u},
		{ID: 4, Weight: 1, MapTasks: 8, MapDist: u, ReduceTask: 3, ReduceDist: u},
	}
	out.JobsPerRun = len(specs)

	// The replicate axis runs on the runner's worker pool: one cell per
	// seed, with unit seed stride matching the historical sequential loop.
	point := []runner.Point{{X: 0, Machines: machines}}
	matrix, err := o.run(runner.Spec{
		Specs: specs,
		Schedulers: []runner.SchedulerSpec{
			{Name: "offline", Params: sched.Params{DeviationFactor: rFactor, GateReduces: true}},
		},
		Points:     point,
		Runs:       out.Runs,
		BaseSeed:   o.Seed,
		SeedStride: 1,
	}, true)
	if err != nil {
		return nil, err
	}
	bounds := make([]float64, len(specs))
	for i := range specs {
		if bounds[i], err = analysis.Theorem1Bound(specs, i, machines, rFactor); err != nil {
			return nil, err
		}
	}
	for run := 0; run < out.Runs; run++ {
		res := matrix.Cell(0, 0, run).Raw
		flow := make(map[int]int64, len(res.Jobs))
		for _, jr := range res.Jobs {
			flow[jr.ID] = jr.Flowtime
		}
		for i := range specs {
			out.Checks++
			if float64(flow[specs[i].ID]) > bounds[i] {
				out.Violations++
			}
		}
	}

	// Zero-variance 2-competitiveness (Remark 2).
	detSpecs := make([]job.Spec, len(specs))
	copy(detSpecs, specs)
	for i := range detSpecs {
		m := detSpecs[i].PhaseStats(job.PhaseMap)
		if detSpecs[i].MapTasks > 0 {
			d, err := dist.NewDeterministic(m.Mean)
			if err != nil {
				return nil, err
			}
			detSpecs[i].MapDist = d
		}
		r := detSpecs[i].PhaseStats(job.PhaseReduce)
		if detSpecs[i].ReduceTask > 0 {
			d, err := dist.NewDeterministic(r.Mean)
			if err != nil {
				return nil, err
			}
			detSpecs[i].ReduceDist = d
		}
	}
	zero, err := o.run(runner.Spec{
		Specs:      detSpecs,
		Schedulers: []runner.SchedulerSpec{{Name: "offline", Params: sched.Params{GateReduces: true}}},
		Points:     point,
		BaseSeed:   o.Seed,
	}, false)
	if err != nil {
		return nil, err
	}
	lower, err := analysis.SRPTLowerBound(detSpecs, machines, 0)
	if err != nil {
		return nil, err
	}
	out.ZeroVarianceRatio, err = analysis.CompetitiveRatio(zero.Cell(0, 0, 0).Summary.TotalWeighted, lower)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Theorem 2: speed augmentation
// ---------------------------------------------------------------------------

// Theorem2Point is one epsilon of the speed-augmentation experiment.
type Theorem2Point struct {
	Epsilon float64
	// AugmentedWeighted is SRPTMS+C's weighted flowtime at speed 1+eps.
	AugmentedWeighted float64
	// BaselineWeighted is the unit-speed SRPT lower-bound proxy for OPT.
	BaselineWeighted float64
	// Ratio = AugmentedWeighted / BaselineWeighted.
	Ratio float64
	// Ceiling is the theorem's (C+1+eps)/eps^2 competitive ceiling.
	Ceiling float64
}

// Theorem2Result holds the speed-augmentation sweep.
type Theorem2Result struct {
	Points []Theorem2Point
}

// Theorem2 runs SRPTMS+C with machine speed 1+eps against a unit-speed SRPT
// baseline (a lower-bound proxy for the optimal clairvoyant scheduler) and
// checks the measured ratio stays below the theorem's o(1/eps^2) ceiling.
func Theorem2(o Options) (*Theorem2Result, error) {
	return Theorem2Epsilons(o, []float64{0.2, 0.4, 0.6, 0.8})
}

// Theorem2Epsilons sweeps an explicit epsilon grid. Each ratio compares one
// run of each side, and the ceiling's C is SRPTMS+C's default clone cap.
func Theorem2Epsilons(o Options, epsilons []float64) (*Theorem2Result, error) {
	o = o.normalize()
	o.Runs = 1
	points := make([]runner.Point, len(epsilons))
	for i, eps := range epsilons {
		p := sched.Params{Epsilon: eps, DeviationFactor: 3}
		points[i] = runner.Point{X: eps, Machines: o.Machines, Speed: 1 + eps, Params: &p}
	}
	aug, err := o.runMatrix([]runner.SchedulerSpec{{Name: "srptms+c"}}, points, false)
	if err != nil {
		return nil, fmt.Errorf("theorem2 augmented sweep: %w", err)
	}
	// The unit-speed baseline is the same at every epsilon, so it is a
	// single point.
	base, err := o.runMatrix([]runner.SchedulerSpec{{Name: "srpt"}},
		[]runner.Point{{X: 0, Machines: o.Machines, Speed: 1}}, false)
	if err != nil {
		return nil, fmt.Errorf("theorem2 baseline: %w", err)
	}
	baseW := base.Cell(0, 0, 0).Summary.TotalWeighted
	out := &Theorem2Result{}
	for i, eps := range epsilons {
		augW := aug.Cell(0, i, 0).Summary.TotalWeighted
		ratio, err := analysis.CompetitiveRatio(augW, baseW)
		if err != nil {
			return nil, err
		}
		ceiling, err := analysis.Theorem2CompetitiveCeiling(eps, srptms.DefaultMaxClones)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, Theorem2Point{
			Epsilon:           eps,
			AugmentedWeighted: augW,
			BaselineWeighted:  baseW,
			Ratio:             ratio,
			Ceiling:           ceiling,
		})
	}
	return out, nil
}
