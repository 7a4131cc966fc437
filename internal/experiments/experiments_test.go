package experiments

import (
	"bytes"
	"strings"
	"testing"

	"mrclone/internal/trace"
)

// tinyOptions keeps experiment tests fast: a 120-job trace on a 240-machine
// cluster, one run each.
func tinyOptions() Options {
	p := trace.GoogleParams()
	p.Jobs = 120
	return Options{TraceParams: p, Machines: 240, Runs: 1, Seed: 1}
}

func TestTable2(t *testing.T) {
	res, err := Table2(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Jobs != trace.GoogleJobs {
		t.Errorf("jobs = %d", res.Stats.Jobs)
	}
	rows := res.Rows()
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Total number of jobs") {
		t.Error("table text missing statistic name")
	}
}

func TestFig1SweepShape(t *testing.T) {
	res, err := Fig1Epsilons(tinyOptions(), []float64{0.2, 0.6, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Mean <= 0 || p.Weighted <= 0 {
			t.Fatalf("non-positive flowtime at eps=%v: %+v", p.X, p)
		}
	}
	best := res.Best()
	if best != 0.2 && best != 0.6 && best != 1.0 {
		t.Fatalf("best epsilon %v not on grid", best)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "epsilon,mean_flowtime") {
		t.Error("CSV header missing")
	}
}

func TestFig2Sweep(t *testing.T) {
	res, err := Fig2Factors(tinyOptions(), []float64{0, 3, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig3MachineSweep(t *testing.T) {
	o := tinyOptions()
	res, err := Fig3Machines(o, []int{120, 240})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Fewer machines must not make flowtimes better.
	if res.Points[0].Mean < res.Points[1].Mean*0.95 {
		t.Errorf("halving machines improved mean flowtime: %v vs %v",
			res.Points[0].Mean, res.Points[1].Mean)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig4And5CDFs(t *testing.T) {
	res, err := Fig4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != len(ComparedAlgorithms) {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	for name, pts := range res.Curves {
		prev := -1.0
		for _, p := range pts {
			if p.Fraction < prev-1e-9 {
				t.Fatalf("%s: CDF not monotone", name)
			}
			if p.Fraction < 0 || p.Fraction > 1 {
				t.Fatalf("%s: fraction %v", name, p.Fraction)
			}
			prev = p.Fraction
		}
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ASCIIPlot(&buf, "fig4", res.Curves); err != nil {
		t.Fatal(err)
	}

	res5, err := Fig5(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res5.Lo != 300 || res5.Hi != 4000 {
		t.Fatalf("fig5 range [%v, %v]", res5.Lo, res5.Hi)
	}
}

func TestFig6ComparisonShape(t *testing.T) {
	res, err := Fig6(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 3 {
		t.Fatalf("summaries = %d", len(res.Summaries))
	}
	byName := map[string]AlgoSummary{}
	for _, s := range res.Summaries {
		byName[s.Name] = s
	}
	// The paper's headline ordering: SRPTMS+C beats Mantri on the weighted
	// average. (SCA sits between; exact gaps vary with the tiny trace.)
	if byName["srptms+c"].Weighted >= byName["mantri"].Weighted {
		t.Errorf("SRPTMS+C weighted %v should beat Mantri %v",
			byName["srptms+c"].Weighted, byName["mantri"].Weighted)
	}
	mean, weighted, err := res.ImprovementOverMantri()
	if err != nil {
		t.Fatal(err)
	}
	if weighted <= 0 {
		t.Errorf("weighted improvement %v should be positive", weighted)
	}
	_ = mean
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem1Experiment(t *testing.T) {
	res, err := Theorem1(Options{Runs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checks == 0 {
		t.Fatal("no checks performed")
	}
	// The empirical hold rate must not be wildly below the theorem floor
	// (Chebyshev is conservative, so it is normally far above).
	if res.HoldRate() < res.TheoremFloor-0.15 {
		t.Errorf("hold rate %.3f below theorem floor %.3f", res.HoldRate(), res.TheoremFloor)
	}
	if res.ZeroVarianceRatio > 2 {
		t.Errorf("zero-variance competitive ratio %.3f exceeds 2 (Remark 2)", res.ZeroVarianceRatio)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem2Experiment(t *testing.T) {
	res, err := Theorem2Epsilons(tinyOptions(), []float64{0.4, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Ratio <= 0 {
			t.Errorf("eps=%v: ratio %v", p.Epsilon, p.Ratio)
		}
		if p.Ratio > p.Ceiling {
			t.Errorf("eps=%v: measured ratio %.3f exceeds theorem ceiling %.1f",
				p.Epsilon, p.Ratio, p.Ceiling)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestParallelismInvariance pins the tentpole guarantee at the experiments
// layer: the same experiment run at parallelism 1, 4, and 16 must render
// byte-identical artifacts.
func TestParallelismInvariance(t *testing.T) {
	base := tinyOptions()
	base.Runs = 2
	var artifacts []string
	for _, par := range []int{1, 4, 16} {
		o := base
		o.Parallelism = par
		var buf bytes.Buffer
		fig1, err := Fig1Epsilons(o, []float64{0.2, 0.8})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if err := fig1.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		fig6, err := Fig6(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := fig6.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		fig4, err := Fig4(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := fig4.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, buf.String())
	}
	if artifacts[0] != artifacts[1] || artifacts[0] != artifacts[2] {
		t.Fatal("artifacts differ across parallelism 1/4/16")
	}
}

// TestProgressCallback checks the runner progress plumbing through Options.
func TestProgressCallback(t *testing.T) {
	o := tinyOptions()
	var last, calls int
	o.Progress = func(done, total int) {
		last, calls = done, calls+1
		if total != 3 { // 3 algorithms x 1 point x 1 run
			t.Errorf("total = %d, want 3", total)
		}
	}
	if _, err := Fig6(o); err != nil {
		t.Fatal(err)
	}
	if calls != 3 || last != 3 {
		t.Errorf("progress calls=%d last=%d, want 3/3", calls, last)
	}
}

func TestRenderTable(t *testing.T) {
	var buf bytes.Buffer
	err := RenderTable(&buf, []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a    bb") && !strings.Contains(out, "a   bb") {
		t.Errorf("unaligned header: %q", out)
	}
}

func TestASCIIPlotEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := ASCIIPlot(&buf, "x", nil); err == nil {
		t.Fatal("empty plot accepted")
	}
}

func TestOptionsPresets(t *testing.T) {
	full := FullOptions()
	if full.Machines != 12000 || full.Runs != 10 {
		t.Errorf("full preset %+v", full)
	}
	quick := QuickOptions()
	if quick.TraceParams.Jobs != 800 || quick.Machines != 1600 {
		t.Errorf("quick preset %+v", quick)
	}
	// Load ratio preserved: jobs/machines ~ 6064/12000.
	fullRatio := float64(trace.GoogleJobs) / 12000
	quickRatio := float64(quick.TraceParams.Jobs) / float64(quick.Machines)
	if quickRatio/fullRatio > 1.05 || quickRatio/fullRatio < 0.95 {
		t.Errorf("quick preset load ratio %v vs full %v", quickRatio, fullRatio)
	}
}
