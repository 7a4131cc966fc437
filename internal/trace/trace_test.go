package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mrclone/internal/job"
)

func TestGoogleParamsValidate(t *testing.T) {
	if err := GoogleParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.Jobs = 0 },
		func(p *Params) { p.Span = 0 },
		func(p *Params) { p.MeanTasksPerJob = 0.5 },
		func(p *Params) { p.MaxTasksPerJob = 1 },
		func(p *Params) { p.MeanTaskDuration = 0 },
		func(p *Params) { p.MinTaskDuration = 0 },
		func(p *Params) { p.MaxTaskDuration = p.MinTaskDuration },
		func(p *Params) { p.WithinJobAlpha = 1 },
		func(p *Params) { p.WithinJobRatio = 1 },
		func(p *Params) { p.DurationCV = 0 },
		func(p *Params) { p.ReduceFraction = 1 },
		func(p *Params) { p.ReduceFraction = -0.1 },
		func(p *Params) { p.PriorityBias = 0 },
		func(p *Params) { p.PriorityBias = 1 },
	}
	for i, mut := range mutations {
		p := GoogleParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := Generate(p); err == nil {
			t.Errorf("mutation %d generated", i)
		}
	}
}

// TestParamsValidateCountTarget: a task-count mean outside what the
// calibration bracket reaches is a validation error, and Generate refuses
// it with the same message.
func TestParamsValidateCountTarget(t *testing.T) {
	for _, tc := range []struct {
		mean float64
		max  int
		want string
	}{
		{1.9, 2, "trace: mean tasks 1.9 unreachable with max 2"},
		{1.05, 500, "trace: mean tasks 1.05 below the bounded-Pareto floor"},
	} {
		p := GoogleParams()
		p.MeanTasksPerJob, p.MaxTasksPerJob = tc.mean, tc.max
		if err := p.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("Validate(mean %v, max %d) = %v, want %q", tc.mean, tc.max, err, tc.want)
		}
		if _, err := Generate(p); err == nil || err.Error() != tc.want {
			t.Errorf("Generate(mean %v, max %d) = %v, want %q", tc.mean, tc.max, err, tc.want)
		}
	}
}

// TestTableIICalibration: the generated trace must reproduce the Table II
// statistics within tolerance. This is experiment T2.
func TestTableIICalibration(t *testing.T) {
	tr, err := Generate(GoogleParams())
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != GoogleJobs {
		t.Errorf("jobs = %d, want %d", st.Jobs, GoogleJobs)
	}
	if rel(float64(st.SpanSeconds), GoogleSpanSeconds) > 0.02 {
		t.Errorf("span = %d, want ~%d", st.SpanSeconds, GoogleSpanSeconds)
	}
	if rel(st.MeanTasksPerJob, GoogleMeanTasks) > 0.10 {
		t.Errorf("mean tasks/job = %.2f, want ~%.2f", st.MeanTasksPerJob, GoogleMeanTasks)
	}
	if rel(st.MeanTaskDur, GoogleMeanTaskDur) > 0.10 {
		t.Errorf("mean task duration = %.1f, want ~%.1f", st.MeanTaskDur, GoogleMeanTaskDur)
	}
	if st.MinTaskDur < GoogleMinTaskDur-1e-9 {
		t.Errorf("min task duration = %.1f, below Table II floor %.1f", st.MinTaskDur, GoogleMinTaskDur)
	}
	if st.MaxTaskDur > GoogleMaxTaskDur+1e-9 {
		t.Errorf("max task duration = %.1f, above Table II ceiling %.1f", st.MaxTaskDur, GoogleMaxTaskDur)
	}
}

func rel(got, want float64) float64 { return math.Abs(got-want) / want }

func TestGenerateDeterministic(t *testing.T) {
	p := GoogleParams()
	p.Jobs = 200
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row count differs")
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	p := GoogleParams()
	p.Jobs = 100
	a, _ := Generate(p)
	p.Seed = 2
	b, _ := Generate(p)
	same := 0
	for i := range a.Rows {
		if a.Rows[i].MapScale == b.Rows[i].MapScale {
			same++
		}
	}
	if same == len(a.Rows) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRowsSortedByArrivalAndValid(t *testing.T) {
	p := GoogleParams()
	p.Jobs = 300
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	for _, r := range tr.Rows {
		if r.Arrival < prev {
			t.Fatal("rows not sorted by arrival")
		}
		prev = r.Arrival
		if r.MapTasks+r.ReduceTasks < 1 {
			t.Fatalf("row %d has no tasks", r.ID)
		}
		if r.MapTasks < 0 || r.ReduceTasks < 0 {
			t.Fatalf("row %d negative tasks", r.ID)
		}
		if r.Priority < 0 || r.Priority > GoogleMaxPriority {
			t.Fatalf("row %d priority %d", r.ID, r.Priority)
		}
		if r.Weight() <= 0 {
			t.Fatalf("row %d weight %v", r.ID, r.Weight())
		}
		if r.Arrival < 0 || r.Arrival >= p.Span {
			t.Fatalf("row %d arrival %d outside [0, %d)", r.ID, r.Arrival, p.Span)
		}
	}
}

func TestSpecsConvertAndValidate(t *testing.T) {
	p := GoogleParams()
	p.Jobs = 150
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := tr.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 150 {
		t.Fatalf("specs = %d", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		// Scheduler-visible stats must be positive for non-empty phases.
		if s.MapTasks > 0 {
			st := s.PhaseStats(job.PhaseMap)
			if st.Mean <= 0 || st.StdDev <= 0 {
				t.Fatalf("job %d map stats %+v", s.ID, st)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	p := GoogleParams()
	p.Jobs = 120
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(tr.Rows) {
		t.Fatalf("rows = %d, want %d", len(back.Rows), len(tr.Rows))
	}
	for i := range tr.Rows {
		if tr.Rows[i] != back.Rows[i] {
			t.Fatalf("row %d: %+v vs %+v", i, tr.Rows[i], back.Rows[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",             // no header
		"bogus,header", // wrong header
		csvJoin() + "\n" + "x,0,0,1,0,1,1,20,1.5",  // bad id
		csvJoin() + "\n" + "0,0,99,1,0,1,1,20,1.5", // priority out of range
		// Rows every simulation rejects are rejected on read.
		csvJoin() + "\n" + "0,0,1,2,0,5,0,1,1.5",   // ratio 1
		csvJoin() + "\n" + "0,0,1,2,0,5,0,20,0",    // alpha 0
		csvJoin() + "\n" + "0,-1,1,2,0,5,0,20,1.5", // negative arrival
		csvJoin() + "\n" + "0,0,1,0,0,5,5,20,1.5",  // no tasks
		csvJoin() + "\n" + "0,0,1,2,0,0,5,20,1.5",  // map_scale 0 with map tasks
		// Two valid rows that share id 0.
		csvJoin() + "\n" + "0,0,1,2,0,5,0,20,1.5\n0,10,1,2,0,5,0,20,1.5",
	}
	for i, s := range cases {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func csvJoin() string { return strings.Join(csvHeader, ",") }

// TestJobRowSpecAppliesRowRule: JobRow.Spec rejects what Validate rejects,
// including a priority above 11, which the job and distribution
// constructors alone would accept as weight 13.
func TestJobRowSpecAppliesRowRule(t *testing.T) {
	row := JobRow{ID: 4, Priority: 12, MapTasks: 2, MapScale: 5, Ratio: 20, Alpha: 1.5}
	_, err := row.Spec()
	if err == nil {
		t.Fatal("row with priority 12 converted")
	}
	if want := "trace: job 4: " + row.Validate().Error(); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	row.Priority = 11
	if _, err := row.Spec(); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
}

func TestSubset(t *testing.T) {
	p := GoogleParams()
	p.Jobs = 50
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	sub := tr.Subset(10)
	if len(sub.Rows) != 10 {
		t.Fatalf("subset rows = %d", len(sub.Rows))
	}
	if over := tr.Subset(1000); len(over.Rows) != 50 {
		t.Fatalf("over-subset rows = %d", len(over.Rows))
	}
}

func TestPrioritySkewedLow(t *testing.T) {
	p := GoogleParams()
	p.Jobs = 2000
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, GoogleMaxPriority+1)
	for _, r := range tr.Rows {
		counts[r.Priority]++
	}
	if counts[0] <= counts[GoogleMaxPriority] {
		t.Fatalf("priority 0 (%d jobs) should dominate priority 11 (%d jobs)",
			counts[0], counts[GoogleMaxPriority])
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	tr := &Trace{}
	if _, err := tr.ComputeStats(); err == nil {
		t.Fatal("empty trace stats accepted")
	}
}

func TestHeavyTailTaskCounts(t *testing.T) {
	// Most jobs must be small while a few are large — the straggler-prone
	// mix the paper's algorithms target.
	p := GoogleParams()
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	small, big := 0, 0
	for _, r := range tr.Rows {
		n := r.MapTasks + r.ReduceTasks
		if n <= 5 {
			small++
		}
		if n >= 100 {
			big++
		}
	}
	if small < len(tr.Rows)/2 {
		t.Errorf("only %d/%d jobs are small (<=5 tasks)", small, len(tr.Rows))
	}
	if big == 0 {
		t.Error("no big jobs (>=100 tasks) generated")
	}
}
