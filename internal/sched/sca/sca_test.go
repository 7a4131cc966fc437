package sca

import (
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/dist"
	"mrclone/internal/job"
)

func run(t *testing.T, machines int, cfg Config, seed int64, specs []job.Spec) *cluster.Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.New(cluster.Config{Machines: machines, Seed: seed}, s, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{DeviationFactor: -1}); err == nil {
		t.Error("negative r accepted")
	}
	if _, err := New(Config{MaxClonesPerTask: -1}); err == nil {
		t.Error("negative clone cap accepted")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Speedup == nil {
		t.Error("default speedup not installed")
	}
	if s.cfg.MaxClonesPerTask != DefaultMaxClones {
		t.Error("default clone cap not installed")
	}
	if s.Name() != "SCA" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestMarginalGainDecreasing(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := &allocation{mean: 100, weight: 2, copies: 1}
	prev := s.gain(a)
	if prev <= 0 {
		t.Fatalf("first marginal gain %v, want > 0", prev)
	}
	for k := 2; k < DefaultMaxClones; k++ {
		a.copies = k
		g := s.gain(a)
		if g >= prev {
			t.Fatalf("gain not decreasing at k=%d: %v >= %v", k, g, prev)
		}
		if g < 0 {
			t.Fatalf("negative gain at k=%d", k)
		}
		prev = g
	}
	a.copies = DefaultMaxClones
	if s.gain(a) != 0 {
		t.Error("gain beyond cap should be zero")
	}
}

func TestWaterFillingPrefersHeavyJobs(t *testing.T) {
	// Two identical 1-task jobs, weights 10 vs 1, on a 4-machine cluster:
	// after the two mandatory first copies, the two surplus machines should
	// both go to the heavy job (strictly decreasing marginal gains in k and
	// a 10x weight gap; gain_heavy(k=2) > gain_light(k=1)).
	// We verify via copy counts.
	p, err := dist.NewPareto(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := []job.Spec{
		{ID: 0, Weight: 10, MapTasks: 1, MapDist: p},
		{ID: 1, Weight: 1, MapTasks: 1, MapDist: p},
	}
	res := run(t, 4, Config{}, 7, specs)
	var heavy, light int
	for _, jr := range res.Jobs {
		if jr.ID == 0 {
			heavy = jr.TotalCopies
		} else {
			light = jr.TotalCopies
		}
	}
	if heavy <= light {
		t.Fatalf("heavy job got %d copies, light job %d; water-filling should favour weight",
			heavy, light)
	}
}

func TestCloneCap(t *testing.T) {
	p, err := dist.NewPareto(20, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	specs := []job.Spec{{ID: 0, Weight: 1, MapTasks: 1, MapDist: p}}
	res := run(t, 100, Config{MaxClonesPerTask: 3}, 1, specs)
	if res.TotalCopies > 3 {
		t.Fatalf("copies = %d, cap 3", res.TotalCopies)
	}
}

func TestPrecedenceAndCompletion(t *testing.T) {
	d, err := dist.NewDeterministic(5)
	if err != nil {
		t.Fatal(err)
	}
	specs := []job.Spec{
		{ID: 0, Weight: 2, MapTasks: 3, MapDist: d, ReduceTask: 2, ReduceDist: d},
		{ID: 1, Arrival: 1, Weight: 1, MapTasks: 2, MapDist: d},
	}
	res := run(t, 3, Config{}, 2, specs)
	if res.FinishedJobs != 2 {
		t.Fatalf("finished %d/2", res.FinishedJobs)
	}
	for _, jr := range res.Jobs {
		if jr.ID == 0 && jr.Flowtime < 10 {
			t.Fatalf("job 0 flowtime %d below critical path 10", jr.Flowtime)
		}
	}
}

func TestFIFOAcrossJobs(t *testing.T) {
	// SCA does not reorder jobs by remaining work (the paper's stated
	// limitation of the cloning baselines): under contention, the earlier
	// arrival finishes first even when a tiny job waits behind it.
	d, err := dist.NewDeterministic(10)
	if err != nil {
		t.Fatal(err)
	}
	specs := []job.Spec{
		{ID: 0, Arrival: 0, Weight: 1, MapTasks: 30, MapDist: d},
		{ID: 1, Arrival: 1, Weight: 1, MapTasks: 1, MapDist: d},
	}
	res := run(t, 2, Config{}, 1, specs)
	finish := map[int]int64{}
	for _, jr := range res.Jobs {
		finish[jr.ID] = jr.Finish
	}
	if finish[0] >= finish[1] {
		t.Fatalf("FIFO violated: %v", finish)
	}
}

// TestNewSharesDefaultTable: with the default speedup, the only one a
// service spec can select, New allocates the scheduler and no marginal
// table, whatever the clone cap, so checking a spec's tunables builds SCA
// in constant time.
func TestNewSharesDefaultTable(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := New(Config{MaxClonesPerTask: 1 << 40}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("New allocated %v times, want at most 1 (the scheduler)", allocs)
	}
}
