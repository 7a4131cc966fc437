// Package metrics computes the evaluation statistics reported in Section VI
// of the paper: weighted and unweighted averages of job flowtime, and
// cumulative distribution functions of flowtime over configurable ranges
// (Figures 1–6).
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mrclone/internal/cluster"
)

// ErrNoJobs is returned when a summary is requested over zero jobs.
var ErrNoJobs = errors.New("metrics: no finished jobs")

// FlowtimeSummary aggregates flowtime statistics over a run.
type FlowtimeSummary struct {
	Jobs             int
	MeanFlowtime     float64 // unweighted average of job flowtime
	WeightedFlowtime float64 // sum(w_i f_i) / sum(w_i)
	TotalWeighted    float64 // sum(w_i f_i) — the paper's raw objective
	MinFlowtime      int64
	MaxFlowtime      int64
	P50              float64
	P90              float64
	P99              float64
}

// Summarize computes a FlowtimeSummary over the finished jobs of a result.
func Summarize(res *cluster.Result) (FlowtimeSummary, error) {
	if res == nil || len(res.Jobs) == 0 {
		return FlowtimeSummary{}, ErrNoJobs
	}
	flows := make([]float64, 0, len(res.Jobs))
	var sum, wsum, wflow float64
	minF, maxF := int64(math.MaxInt64), int64(math.MinInt64)
	for _, j := range res.Jobs {
		if j.Flowtime < 0 {
			return FlowtimeSummary{}, fmt.Errorf("metrics: job %d did not finish", j.ID)
		}
		f := float64(j.Flowtime)
		flows = append(flows, f)
		sum += f
		wsum += j.Weight
		wflow += j.Weight * f
		if j.Flowtime < minF {
			minF = j.Flowtime
		}
		if j.Flowtime > maxF {
			maxF = j.Flowtime
		}
	}
	sort.Float64s(flows)
	n := float64(len(flows))
	s := FlowtimeSummary{
		Jobs:          len(flows),
		MeanFlowtime:  sum / n,
		TotalWeighted: wflow,
		MinFlowtime:   minF,
		MaxFlowtime:   maxF,
		P50:           percentile(flows, 0.50),
		P90:           percentile(flows, 0.90),
		P99:           percentile(flows, 0.99),
	}
	if wsum > 0 {
		s.WeightedFlowtime = wflow / wsum
	}
	return s, nil
}

// percentile returns the p-quantile of sorted data using the nearest-rank
// method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// CDFPoint is one point of an empirical CDF: the cumulative fraction of all
// jobs with flowtime <= X.
type CDFPoint struct {
	X        float64
	Fraction float64
}

// FlowtimeCDF evaluates the empirical flowtime CDF of a result at evenly
// spaced points in [lo, hi] (the paper plots 0–300 s for small jobs, Fig. 4,
// and 300–4000 s for big jobs, Fig. 5). The fraction is relative to all
// finished jobs, matching the figures' "cumulative fraction of jobs" axis.
func FlowtimeCDF(res *cluster.Result, lo, hi float64, points int) ([]CDFPoint, error) {
	if res == nil || len(res.Jobs) == 0 {
		return nil, ErrNoJobs
	}
	if points < 2 || hi <= lo {
		return nil, fmt.Errorf("metrics: bad CDF range [%v, %v] x %d", lo, hi, points)
	}
	flows := make([]float64, 0, len(res.Jobs))
	for _, j := range res.Jobs {
		flows = append(flows, float64(j.Flowtime))
	}
	sort.Float64s(flows)
	n := float64(len(flows))
	out := make([]CDFPoint, points)
	for i := 0; i < points; i++ {
		x := lo + (hi-lo)*float64(i)/float64(points-1)
		cnt := sort.SearchFloat64s(flows, x+1e-9) // jobs with flowtime <= x
		out[i] = CDFPoint{X: x, Fraction: float64(cnt) / n}
	}
	return out, nil
}

// Improvement returns the relative reduction of `got` versus `baseline`
// (positive means got is better/lower), e.g. 0.25 for the paper's "beats
// Mantri by nearly 25%".
func Improvement(baseline, got float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - got) / baseline
}
