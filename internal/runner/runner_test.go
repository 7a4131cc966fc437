package runner

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/metrics"
	"mrclone/internal/sched"
	"mrclone/internal/trace"
)

// testSpecs builds a small mixed map/reduce workload.
func testSpecs(t *testing.T, jobs int) []job.Spec {
	t.Helper()
	p := trace.GoogleParams()
	p.Jobs = jobs
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := tr.Specs()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// testMatrix is a 2-scheduler × 3-point × 2-run matrix.
func testMatrix(t *testing.T, jobs int) Spec {
	t.Helper()
	params := sched.Params{Epsilon: 0.9, DeviationFactor: 3}
	eps06 := sched.Params{Epsilon: 0.6, DeviationFactor: 3}
	return Spec{
		Specs: testSpecs(t, jobs),
		Schedulers: []SchedulerSpec{
			{Name: "srptms+c", Params: params},
			{Name: "fair"},
		},
		Points: []Point{
			{X: 60, Machines: 60},
			{X: 80, Machines: 80},
			{X: 0.6, Machines: 80, Params: &eps06},
		},
		Runs:     2,
		BaseSeed: 1,
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	spec := testMatrix(t, 30)
	var artifacts [][]byte
	for _, par := range []int{1, 4, 16} {
		res, err := Run(context.Background(), spec, Options{Parallelism: par, KeepRaw: true})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		var jsonBuf, csvBuf bytes.Buffer
		if err := res.WriteJSON(&jsonBuf); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteAggregateCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, append(jsonBuf.Bytes(), csvBuf.Bytes()...))
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) || !bytes.Equal(artifacts[0], artifacts[2]) {
		t.Fatal("artifacts differ across parallelism 1/4/16")
	}
}

// TestMatchesSequentialBaseline proves the runner's aggregation reproduces
// the hand-rolled sequential loop (engine per cell, summaries averaged in
// run order) bit for bit.
func TestMatchesSequentialBaseline(t *testing.T) {
	spec := testMatrix(t, 25)
	res, err := Run(context.Background(), spec, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for si, ss := range spec.Schedulers {
		for pi, pt := range spec.Points {
			var want metrics.FlowtimeSummary
			for run := 0; run < spec.Runs; run++ {
				params := ss.Params
				if pt.Params != nil {
					params = *pt.Params
				}
				s, err := sched.Build(ss.Name, params)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := cluster.New(cluster.Config{
					Machines: pt.Machines,
					Seed:     CellSeed(spec.BaseSeed, 0, run),
				}, s, spec.Specs)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				sum, err := metrics.Summarize(raw)
				if err != nil {
					t.Fatal(err)
				}
				want.Jobs = sum.Jobs
				want.MeanFlowtime += sum.MeanFlowtime
				want.WeightedFlowtime += sum.WeightedFlowtime
				want.P50 += sum.P50
			}
			n := float64(spec.Runs)
			agg := res.Aggregate(si, pi)
			if agg.Jobs != want.Jobs ||
				agg.MeanFlowtime != want.MeanFlowtime/n ||
				agg.WeightedFlowtime != want.WeightedFlowtime/n ||
				agg.P50 != want.P50/n {
				t.Errorf("scheduler %s point %v: aggregate %+v diverges from sequential baseline",
					ss.Name, pt.X, agg)
			}
		}
	}
}

func TestCDFAveraging(t *testing.T) {
	spec := testMatrix(t, 25)
	res, err := Run(context.Background(), spec, Options{KeepRaw: true})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := res.CDF(0, 0, 0, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("points = %d", len(pts))
	}
	prev := -1.0
	for _, p := range pts {
		if p.Fraction < prev-1e-12 || p.Fraction < 0 || p.Fraction > 1 {
			t.Fatalf("bad CDF point %+v", p)
		}
		prev = p.Fraction
	}

	// Without KeepRaw the CDF must fail loudly.
	lean, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lean.CDF(0, 0, 0, 300, 7); !errors.Is(err, ErrNoRaw) {
		t.Fatalf("want ErrNoRaw, got %v", err)
	}
}

// TestDeviationFactorReachesPriority checks that a point's r reaches
// SRPTMS+C's priority. On one machine two single-map-task jobs arriving
// together run one after the other, the one with the smaller mean + r*sigma
// first, so the order flips with r only when their coefficients of
// variation differ.
func TestDeviationFactorReachesPriority(t *testing.T) {
	mustDist := func(d dist.Distribution, err error) dist.Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// firstDone returns, per r, the ID of the job that finishes first.
	firstDone := func(d0, d1 dist.Distribution, rs ...float64) []int {
		t.Helper()
		points := make([]Point, len(rs))
		for i, r := range rs {
			points[i] = Point{X: r, Machines: 1, Params: &sched.Params{Epsilon: 0.5, DeviationFactor: r}}
		}
		res, err := Run(context.Background(), Spec{
			Specs: []job.Spec{
				{ID: 0, Weight: 1, MapTasks: 1, MapDist: d0},
				{ID: 1, Weight: 1, MapTasks: 1, MapDist: d1},
			},
			Schedulers: []SchedulerSpec{{Name: "srptms+c"}},
			Points:     points,
			BaseSeed:   1,
		}, Options{KeepRaw: true})
		if err != nil {
			t.Fatal(err)
		}
		first := make([]int, len(rs))
		for i := range rs {
			jobs := res.Cell(0, i, 0).Raw.Jobs
			if jobs[0].Finish == jobs[1].Finish {
				t.Fatalf("r=%v: both jobs finish at slot %d", rs[i], jobs[0].Finish)
			}
			if jobs[1].Finish < jobs[0].Finish {
				first[i] = jobs[1].ID
			} else {
				first[i] = jobs[0].ID
			}
		}
		return first
	}
	u20 := mustDist(dist.NewUniform(0, 20)) // mean 10, sigma 5.77
	u24 := mustDist(dist.NewUniform(0, 24)) // mean 12, sigma 6.93: the same CV
	det12 := mustDist(dist.NewDeterministic(12))

	// 10 < 12 at r = 0, but 10 + 5.77 > 12 at r = 1.
	if got := firstDone(u20, det12, 0, 1); got[0] != 0 || got[1] != 1 {
		t.Errorf("U(0,20) vs Deterministic(12): first done at r = 0, 1 is %v, want [0 1]", got)
	}
	if got := firstDone(u20, u24, 0, 1, 8); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("U(0,20) vs U(0,24): first done at r = 0, 1, 8 is %v, want [0 0 0]", got)
	}
}

func TestProgressMonotone(t *testing.T) {
	spec := testMatrix(t, 20)
	var seen []int
	total := len(spec.Schedulers) * len(spec.Points) * spec.Runs
	_, err := Run(context.Background(), spec, Options{
		Parallelism: 4,
		Progress: func(done, _, tot int) {
			if tot != total {
				t.Errorf("total = %d, want %d", tot, total)
			}
			seen = append(seen, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Fatalf("progress calls = %d, want %d", len(seen), total)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress not monotone: %v", seen)
		}
	}
}

func TestCancellation(t *testing.T) {
	spec := testMatrix(t, 30)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := Run(ctx, spec, Options{
		Parallelism: 1,
		Progress: func(done, _, total int) {
			calls++
			if done == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls >= len(spec.Schedulers)*len(spec.Points)*spec.Runs {
		t.Fatalf("cancellation did not stop the feed: %d cells ran", calls)
	}
}

func TestCellErrorsAbort(t *testing.T) {
	spec := testMatrix(t, 20)
	spec.Schedulers[1].Name = "bogus"
	if _, err := Run(context.Background(), spec, Options{}); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bogus scheduler: %v", err)
	}
	spec = testMatrix(t, 20)
	spec.MaxSlots = 3 // every cell overflows
	if _, err := Run(context.Background(), spec, Options{}); !errors.Is(err, cluster.ErrSlotOverflow) {
		t.Fatalf("want ErrSlotOverflow, got %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	specs := testSpecs(t, 5)
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"empty workload", Spec{Schedulers: []SchedulerSpec{{Name: "fair"}},
			Points: []Point{{Machines: 10}}}, ErrNoWorkload},
		{"no schedulers", Spec{Specs: specs, Points: []Point{{Machines: 10}}}, ErrNoSchedulers},
		{"no points", Spec{Specs: specs, Schedulers: []SchedulerSpec{{Name: "fair"}}}, ErrNoPoints},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.spec, Options{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	bad := Spec{Specs: specs, Schedulers: []SchedulerSpec{{Name: "fair"}},
		Points: []Point{{Machines: 0}}}
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("zero-machine point accepted")
	}
}

func TestCellSeedScheme(t *testing.T) {
	if CellSeed(1, 0, 0) != 1 {
		t.Error("run 0 must use the base seed unchanged")
	}
	if CellSeed(1, 0, 3) != 1+3*DefaultSeedStride {
		t.Error("default stride not applied")
	}
	if CellSeed(5, 2, 3) != 11 {
		t.Error("explicit stride not applied")
	}
}

func TestCellIndexRoundTrip(t *testing.T) {
	spec := testMatrix(t, 5)
	res, err := Run(context.Background(), spec, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	for si := range spec.Schedulers {
		for pi := range spec.Points {
			for run := 0; run < spec.Runs; run++ {
				c := res.Cell(si, pi, run)
				if c.Scheduler != si || c.Point != pi || c.Run != run {
					t.Fatalf("cell (%d,%d,%d) holds coordinates (%d,%d,%d)",
						si, pi, run, c.Scheduler, c.Point, c.Run)
				}
			}
		}
	}
}

// TestWorkersReuseEngineMemory holds a worker to one engine memory for all
// its cells: on one worker, a matrix of 8 cells must allocate less than
// twice the bytes of its first cell alone. A worker that built every cell's
// jobs, task records and copy records afresh allocates about eight times as
// much. Byte counts do not depend on the machine's speed.
func TestWorkersReuseEngineMemory(t *testing.T) {
	p := sched.Params{Epsilon: 0.9, DeviationFactor: 3}
	matrix := Spec{
		Specs: testSpecs(t, 300),
		Schedulers: []SchedulerSpec{
			{Name: "srptms+c", Params: p}, {Name: "sca", Params: p},
			{Name: "mantri", Params: p}, {Name: "fair", Params: p},
		},
		Points:   []Point{{X: 600, Machines: 600}},
		Runs:     2,
		BaseSeed: 1,
	}
	first := matrix
	first.Schedulers, first.Runs = matrix.Schedulers[:1], 1
	allocated := func(s Spec) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(context.Background(), s, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	all, one := allocated(matrix), allocated(first)
	t.Logf("8 cells: %d bytes; first cell alone: %d bytes (%.2fx)", all, one, float64(all)/float64(one))
	if all >= 2*one {
		t.Errorf("8 cells allocated %d bytes, %.2fx the %d of their first cell; want under 2x",
			all, float64(all)/float64(one), one)
	}
}
