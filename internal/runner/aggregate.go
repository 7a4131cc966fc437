package runner

import (
	"fmt"

	"mrclone/internal/metrics"
)

// Aggregate is the replicate-averaged outcome of one (scheduler, point)
// pair: the flowtime metrics the paper plots plus cloning-overhead and
// machine-occupancy accounting. All means fold the runs in replicate order,
// so the floating-point result is independent of execution interleaving.
//
// Averaging semantics follow the paper's evaluation (and the historical
// sequential harness): percentiles are per-run percentiles averaged across
// runs, not percentiles of the pooled sample; Min/MaxFlowtime are extrema
// across runs; Jobs is the per-run job count (identical in every run).
type Aggregate struct {
	Scheduler string  `json:"scheduler"`
	X         float64 `json:"x"`
	Runs      int     `json:"runs"`
	Jobs      int     `json:"jobs"`

	MeanFlowtime     float64 `json:"mean_flowtime"`
	WeightedFlowtime float64 `json:"weighted_flowtime"`
	TotalWeighted    float64 `json:"total_weighted"`
	P50              float64 `json:"p50"`
	P90              float64 `json:"p90"`
	P99              float64 `json:"p99"`
	MinFlowtime      int64   `json:"min_flowtime"`
	MaxFlowtime      int64   `json:"max_flowtime"`

	// MeanSlots is the mean final slot (makespan proxy).
	MeanSlots float64 `json:"mean_slots"`
	// MeanTotalCopies / MeanCloneCopies are mean copies launched per run.
	MeanTotalCopies float64 `json:"mean_total_copies"`
	MeanCloneCopies float64 `json:"mean_clone_copies"`
	// MeanWastedWork is the mean workload of killed clone copies (the
	// cloning overhead the paper discusses in Section VI).
	MeanWastedWork float64 `json:"mean_wasted_work"`
	// MeanOccupancy is the mean busy fraction: machine-slots consumed over
	// machine-slots available until the last job finished.
	MeanOccupancy float64 `json:"mean_occupancy"`
}

// Aggregate reduces the Runs replicates of one (scheduler, point) pair.
func (r *Result) Aggregate(si, pi int) Aggregate {
	agg := Aggregate{
		Scheduler: r.Schedulers[si],
		X:         r.Points[pi],
		Runs:      r.Runs,
	}
	for run := 0; run < r.Runs; run++ {
		c := r.Cell(si, pi, run)
		s := c.Summary
		agg.Jobs = s.Jobs
		agg.MeanFlowtime += s.MeanFlowtime
		agg.WeightedFlowtime += s.WeightedFlowtime
		agg.TotalWeighted += s.TotalWeighted
		agg.P50 += s.P50
		agg.P90 += s.P90
		agg.P99 += s.P99
		if run == 0 || s.MinFlowtime < agg.MinFlowtime {
			agg.MinFlowtime = s.MinFlowtime
		}
		if s.MaxFlowtime > agg.MaxFlowtime {
			agg.MaxFlowtime = s.MaxFlowtime
		}
		agg.MeanSlots += float64(c.Slots)
		agg.MeanTotalCopies += float64(c.TotalCopies)
		agg.MeanCloneCopies += float64(c.CloneCopies)
		agg.MeanWastedWork += c.WastedCopyWrk
		if c.Machines > 0 && c.Slots > 0 {
			agg.MeanOccupancy += float64(c.MachineSlots) / (float64(c.Machines) * float64(c.Slots))
		}
	}
	n := float64(r.Runs)
	agg.MeanFlowtime /= n
	agg.WeightedFlowtime /= n
	agg.TotalWeighted /= n
	agg.P50 /= n
	agg.P90 /= n
	agg.P99 /= n
	agg.MeanSlots /= n
	agg.MeanTotalCopies /= n
	agg.MeanCloneCopies /= n
	agg.MeanWastedWork /= n
	agg.MeanOccupancy /= n
	return agg
}

// Aggregates reduces every (scheduler, point) pair, scheduler-major.
func (r *Result) Aggregates() []Aggregate {
	out := make([]Aggregate, 0, len(r.Schedulers)*len(r.Points))
	for si := range r.Schedulers {
		for pi := range r.Points {
			out = append(out, r.Aggregate(si, pi))
		}
	}
	return out
}

// CDF averages the empirical flowtime CDF of one (scheduler, point) pair
// over its replicates at evenly spaced points in [lo, hi], replicate order.
// Requires the matrix to have been run with Options.KeepRaw.
func (r *Result) CDF(si, pi int, lo, hi float64, points int) ([]metrics.CDFPoint, error) {
	if points < 2 || hi <= lo {
		return nil, fmt.Errorf("runner: bad CDF range [%v, %v] x %d", lo, hi, points)
	}
	acc := make([]metrics.CDFPoint, points)
	for run := 0; run < r.Runs; run++ {
		c := r.Cell(si, pi, run)
		if c.Raw == nil {
			return nil, fmt.Errorf("%w: cell %s x=%v run=%d", ErrNoRaw, c.SchedulerName, c.X, run)
		}
		pts, err := metrics.FlowtimeCDF(c.Raw, lo, hi, points)
		if err != nil {
			return nil, err
		}
		for i, pt := range pts {
			acc[i].X = pt.X
			acc[i].Fraction += pt.Fraction
		}
	}
	for i := range acc {
		acc[i].Fraction /= float64(r.Runs)
	}
	return acc, nil
}
