package metrics

import (
	"errors"
	"math"
	"testing"

	"mrclone/internal/cluster"
)

func result(jobs ...cluster.JobRecord) *cluster.Result {
	return &cluster.Result{Jobs: jobs}
}

func jr(id int, weight float64, flow int64) cluster.JobRecord {
	return cluster.JobRecord{ID: id, Weight: weight, Flowtime: flow, Finish: flow}
}

func TestSummarize(t *testing.T) {
	res := result(
		jr(0, 1, 10),
		jr(1, 3, 20),
		jr(2, 1, 60),
	)
	s, err := Summarize(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs != 3 {
		t.Errorf("jobs = %d", s.Jobs)
	}
	if s.MeanFlowtime != 30 {
		t.Errorf("mean = %v, want 30", s.MeanFlowtime)
	}
	// weighted: (10 + 60 + 60)/5 = 26
	if s.WeightedFlowtime != 26 {
		t.Errorf("weighted = %v, want 26", s.WeightedFlowtime)
	}
	if s.TotalWeighted != 130 {
		t.Errorf("total weighted = %v, want 130", s.TotalWeighted)
	}
	if s.MinFlowtime != 10 || s.MaxFlowtime != 60 {
		t.Errorf("min/max = %d/%d", s.MinFlowtime, s.MaxFlowtime)
	}
	if s.P50 != 20 {
		t.Errorf("p50 = %v, want 20", s.P50)
	}
	if s.P99 != 60 {
		t.Errorf("p99 = %v, want 60", s.P99)
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrNoJobs) {
		t.Error("nil result accepted")
	}
	if _, err := Summarize(result()); !errors.Is(err, ErrNoJobs) {
		t.Error("empty result accepted")
	}
	if _, err := Summarize(result(cluster.JobRecord{ID: 0, Flowtime: -1})); err == nil {
		t.Error("unfinished job accepted")
	}
}

func TestFlowtimeCDF(t *testing.T) {
	res := result(jr(0, 1, 10), jr(1, 1, 20), jr(2, 1, 30), jr(3, 1, 300))
	pts, err := FlowtimeCDF(res, 0, 30, 4) // x = 0, 10, 20, 30
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.25, 0.5, 0.75}
	for i, p := range pts {
		if math.Abs(p.Fraction-want[i]) > 1e-9 {
			t.Errorf("point %d (x=%v): %v, want %v", i, p.X, p.Fraction, want[i])
		}
	}
	// Monotone non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].Fraction < pts[i-1].Fraction {
			t.Fatal("CDF not monotone")
		}
	}
	if _, err := FlowtimeCDF(res, 10, 5, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := FlowtimeCDF(res, 0, 10, 1); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FlowtimeCDF(nil, 0, 10, 3); !errors.Is(err, ErrNoJobs) {
		t.Error("nil result accepted")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 75); got != 0.25 {
		t.Errorf("improvement = %v, want 0.25", got)
	}
	if got := Improvement(0, 10); got != 0 {
		t.Errorf("zero baseline = %v", got)
	}
	if got := Improvement(100, 120); got != -0.2 {
		t.Errorf("regression = %v, want -0.2", got)
	}
}

func TestPercentileEdges(t *testing.T) {
	res := result(jr(0, 1, 5))
	s, err := Summarize(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != 5 || s.P90 != 5 || s.P99 != 5 {
		t.Errorf("single-job percentiles: %+v", s)
	}
}
