package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mrclone/internal/runner"
	"mrclone/internal/sched"
	"mrclone/internal/trace"
)

// tinyParams is a fast generator workload shared by the tests.
func tinyParams() trace.Params {
	p := trace.GoogleParams()
	p.Jobs = 12
	p.Span = 600
	return p
}

func tinySpec() Spec {
	p := tinyParams()
	return Spec{
		Workload:   Workload{Trace: &p},
		Schedulers: []Scheduler{{Name: "srptms+c", Params: sched.DefaultParams()}},
		Points:     []Point{{X: 1, Machines: 40}},
		Runs:       2,
		BaseSeed:   7,
	}
}

func TestParseRoundTrip(t *testing.T) {
	canon, err := tinySpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(canon)
	if err != nil {
		t.Fatalf("Parse(canonical): %v", err)
	}
	canon2, err := parsed.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Fatalf("canonical form not a fixed point:\n%s\nvs\n%s", canon, canon2)
	}
}

// TestHashGoldenPin pins the canonical bytes and hash of a fixed spec.
// The hash is the on-disk artifact key of internal/store (see the package
// comment's stability contract): if this test breaks, a persisted data
// directory written by the previous build just became unreadable — bump
// Version instead of changing version-1 canonicalization.
func TestHashGoldenPin(t *testing.T) {
	sp := Spec{
		Workload: Workload{Rows: []trace.JobRow{{
			ID: 1, Arrival: 0, Priority: 2,
			MapTasks: 3, MapScale: 100, ReduceTasks: 1, ReduceScale: 50,
			Ratio: 5, Alpha: 2.5,
		}}},
		Schedulers: []Scheduler{{Name: "fair"}},
		Points:     []Point{{X: 10, Machines: 25}},
		Runs:       2,
		BaseSeed:   7,
	}
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	const wantCanon = `{"version":1,"workload":{"rows":[{"id":1,"arrival":0,"priority":2,"map_tasks":3,"reduce_tasks":1,"map_scale":100,"reduce_scale":50,"ratio":5,"alpha":2.5}]},"schedulers":[{"name":"fair"}],"points":[{"x":10,"machines":25}],"runs":2,"base_seed":7}`
	if string(canon) != wantCanon {
		t.Errorf("canonical bytes drifted:\n got %s\nwant %s", canon, wantCanon)
	}
	h, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	const wantHash = "381dd03e7021b52392b173c4dbaf79b917c2d5e32c0905d6f5f64d678b8063b2"
	if h != wantHash {
		t.Errorf("golden hash drifted:\n got %s\nwant %s", h, wantHash)
	}
}

// TestHashGoldenPinPointOverride pins the encoding TestHashGoldenPin leaves
// out: a scheduler row with params and a point with a non-unit speed and a
// params override. Cell keys strip point params, so this is the golden that
// guards the point's "params" tag.
func TestHashGoldenPinPointOverride(t *testing.T) {
	sp := Spec{
		Workload: Workload{Rows: []trace.JobRow{{
			ID: 1, Arrival: 0, Priority: 2,
			MapTasks: 3, MapScale: 100, ReduceTasks: 1, ReduceScale: 50,
			Ratio: 5, Alpha: 2.5,
		}}},
		Schedulers: []Scheduler{{Name: "srptms+c", Params: sched.Params{Epsilon: 0.9, DeviationFactor: 3}}},
		Points: []Point{{X: 0.5, Machines: 25, Speed: 1.5,
			Params: &sched.Params{Epsilon: 0.6, DeviationFactor: 2, MaxClonesPerTask: 4}}},
		BaseSeed: 7,
	}
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	const wantCanon = `{"version":1,"workload":{"rows":[{"id":1,"arrival":0,"priority":2,"map_tasks":3,"reduce_tasks":1,"map_scale":100,"reduce_scale":50,"ratio":5,"alpha":2.5}]},"schedulers":[{"name":"srptms+c","params":{"epsilon":0.9,"deviation_factor":3}}],"points":[{"x":0.5,"machines":25,"speed":1.5,"params":{"epsilon":0.6,"deviation_factor":2,"max_clones_per_task":4}}],"runs":1,"base_seed":7}`
	if string(canon) != wantCanon {
		t.Errorf("canonical bytes drifted:\n got %s\nwant %s", canon, wantCanon)
	}
	h, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	const wantHash = "ce12b5f09bcdf7ecd7c0f83ef52fd9fe23b628fcb7adc6426b9f017c4ce09f0c"
	if h != wantHash {
		t.Errorf("golden hash drifted:\n got %s\nwant %s", h, wantHash)
	}
}

func TestHashStableAndSensitive(t *testing.T) {
	h1, err := tinySpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := tinySpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash unstable: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex sha256", h1)
	}

	changed := tinySpec()
	changed.BaseSeed++
	h3, err := changed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("hash ignores base seed")
	}
}

func TestNormalizeEquivalenceClasses(t *testing.T) {
	// Runs 0 and 1 describe the same matrix; explicit default stride and 0
	// describe the same seeding.
	a, b := tinySpec(), tinySpec()
	a.Runs = 1
	b.Runs = 0
	b.SeedStride = runner.DefaultSeedStride
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatal("normalization does not collapse equivalent specs")
	}
	// Version 0 pins to the current version.
	if v := (Spec{}).Normalize().Version; v != Version {
		t.Fatalf("normalized version %d, want %d", v, Version)
	}

	// Speed 1 and omitted speed mean the same engine (unit speed) and must
	// share a hash — that is what makes dedup and caching hit across the
	// two spellings. The caller's Points slice must stay untouched.
	c, d := tinySpec(), tinySpec()
	c.Points = []Point{{X: 1, Machines: 40, Speed: 1}}
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hd, err := d.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc != hd {
		t.Fatal("speed 1 and omitted speed hash differently")
	}
	if c.Points[0].Speed != 1 {
		t.Fatal("Normalize mutated the caller's Points slice")
	}
}

func TestParseRejects(t *testing.T) {
	base := tinySpec()
	cases := []struct {
		name   string
		mutate func(*Spec)
		raw    string // overrides mutate when non-empty
		want   string
	}{
		{name: "unknown field", raw: `{"version":1,"bogus":3}`, want: "bogus"},
		{name: "trailing data", raw: `{"version":1} {}`, want: "trailing"},
		{name: "trailing garbage", raw: `{"version":1} !!not json`, want: "trailing"},
		{name: "bad version", mutate: func(s *Spec) { s.Version = 99 }, want: "version"},
		{name: "no workload", mutate: func(s *Spec) { s.Workload = Workload{} }, want: "workload"},
		{name: "both workloads", mutate: func(s *Spec) {
			s.Workload.Rows = []trace.JobRow{{Priority: 1, MapTasks: 1, MapScale: 5, Ratio: 2, Alpha: 2}}
		}, want: "workload"},
		{name: "jobs without trace", mutate: func(s *Spec) {
			s.Workload = Workload{Jobs: 3, Rows: []trace.JobRow{{Priority: 1, MapTasks: 1, MapScale: 5, Ratio: 2, Alpha: 2}}}
		}, want: "truncation"},
		{name: "no schedulers", mutate: func(s *Spec) { s.Schedulers = nil }, want: "scheduler"},
		{name: "unknown scheduler", mutate: func(s *Spec) { s.Schedulers[0].Name = "nope" }, want: "unknown name"},
		{name: "no points", mutate: func(s *Spec) { s.Points = nil }, want: "point"},
		{name: "bad machines", mutate: func(s *Spec) { s.Points[0].Machines = 0 }, want: "machines"},
		{name: "negative speed", mutate: func(s *Spec) { s.Points[0].Speed = -1 }, want: "speed"},
		{name: "negative runs", mutate: func(s *Spec) { s.Runs = -1 }, want: "runs"},
		{name: "negative stride", mutate: func(s *Spec) { s.SeedStride = -2 }, want: "stride"},
		{name: "bad trace params", mutate: func(s *Spec) { s.Workload.Trace.Jobs = -1 }, want: "jobs"},
		{name: "bad row", mutate: func(s *Spec) {
			s.Workload.Trace = nil
			s.Workload.Rows = []trace.JobRow{{Priority: 1}} // no tasks
		}, want: "rows"},
		{name: "repeated row id", mutate: func(s *Spec) {
			row := trace.JobRow{ID: 4, Priority: 1, MapTasks: 1, MapScale: 5, Ratio: 2, Alpha: 2}
			s.Workload.Trace = nil
			s.Workload.Rows = []trace.JobRow{row, {ID: 5, Priority: 1, MapTasks: 1, MapScale: 5, Ratio: 2, Alpha: 2}, row}
		}, want: "rows 0 and 2 share id 4"},
		{name: "srptms+c epsilon out of range", mutate: func(s *Spec) {
			s.Schedulers[0].Params.Epsilon = 2
		}, want: "scheduler 0 (srptms+c) at point 0 (x=1): srptms: epsilon 2 outside (0, 1]"},
		{name: "mantri point delta out of range", mutate: func(s *Spec) {
			s.Schedulers[0] = Scheduler{Name: "mantri"}
			s.Points = append(s.Points, Point{X: 2, Machines: 40, Params: &sched.Params{Delta: 1.5}})
		}, want: "scheduler 0 (mantri) at point 1 (x=2): mantri: delta 1.5 outside (0, 1)"},
		{name: "sca negative clone cap", mutate: func(s *Spec) {
			s.Schedulers = append(s.Schedulers, Scheduler{Name: "sca", Params: sched.Params{MaxClonesPerTask: -1}})
		}, want: "scheduler 1 (sca) at point 0 (x=1): sca: max clones -1 negative"},
		{name: "point epsilon out of range under a repeated name", mutate: func(s *Spec) {
			s.Schedulers = []Scheduler{{Name: "fair"}, {Name: "srptms+c"}, {Name: "srptms+c", Params: sched.Params{DeviationFactor: 1}}}
			s.Points = append(s.Points, Point{X: 2, Machines: 40, Params: &sched.Params{Epsilon: 2}})
		}, want: "scheduler 1 (srptms+c) at point 1 (x=2): srptms: epsilon 2 outside (0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.raw)
			if tc.raw == "" {
				s := base
				// Deep-enough copy for the fields the mutations touch.
				p := *base.Workload.Trace
				s.Workload.Trace = &p
				s.Schedulers = append([]Scheduler(nil), base.Schedulers...)
				s.Points = append([]Point(nil), base.Points...)
				tc.mutate(&s)
				var err error
				if data, err = json.Marshal(s.Normalize()); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Parse(data); err == nil {
				t.Fatalf("Parse accepted %s", data)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseBuildsOnlyUsedTunables: a row's own tunables are checked only
// when some point runs with them, so a spec whose every point overrides an
// out-of-range row stays accepted.
func TestParseBuildsOnlyUsedTunables(t *testing.T) {
	s := tinySpec()
	s.Schedulers[0].Params.Epsilon = 2
	def := sched.DefaultParams()
	s.Points = []Point{{X: 1, Machines: 40, Params: &def}}
	data, err := json.Marshal(s.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err != nil {
		t.Fatalf("Parse rejected a row every point overrides: %v", err)
	}
	s.Points = append(s.Points, Point{X: 2, Machines: 40})
	if data, err = json.Marshal(s.Normalize()); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err == nil || !strings.Contains(err.Error(), "at point 1 (x=2)") {
		t.Fatalf("Parse of a point keeping the row's epsilon 2: %v", err)
	}
}

// TestParseManyOverrides: the tunable check is linear in the spec, as
// Parse runs it on unauthenticated submissions. 100k points, each with its
// own override and a clone cap past SCA's marginal table, and 10k rows with
// their own tunables, kept at one point, must parse well inside the bound
// (about 0.5 s on a 2-vCPU host); a repeat check scanning the tunables
// already built, or a pass over every row at each point, takes minutes.
func TestParseManyOverrides(t *testing.T) {
	const points, rows, bound = 100_000, 10_000, 20 * time.Second
	s := tinySpec()
	names := sched.Names()
	s.Schedulers = make([]Scheduler, rows)
	for i := range s.Schedulers {
		s.Schedulers[i] = Scheduler{Name: names[i%len(names)], Params: sched.Params{DeviationFactor: float64(i)}}
	}
	s.Points = make([]Point, points)
	for i := range s.Points {
		s.Points[i] = Point{X: float64(i), Machines: 40, Params: &sched.Params{
			Epsilon: float64(i+1) / (points + 1), MaxClonesPerTask: 1<<20 + i,
		}}
	}
	s.Points[points/2].Params = nil
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// Parse runs apart so a slow check fails at the bound, not at the test
	// binary's timeout; a parse still running then ends with the binary.
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Parse(data)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("parsed %d points x %d rows (%d bytes) in %v", points, rows, len(data), time.Since(start))
	case <-time.After(bound):
		t.Fatalf("Parse of %d points x %d rows still running after %v", points, rows, bound)
	}
}

// TestRunnerExpansionMatchesDirect proves the wire spec expands to the same
// matrix a direct in-process runner call would execute: equal artifacts.
func TestRunnerExpansionMatchesDirect(t *testing.T) {
	sp := tinySpec()
	rs, err := sp.Runner()
	if err != nil {
		t.Fatal(err)
	}

	tr, err := trace.Generate(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := tr.Specs()
	if err != nil {
		t.Fatal(err)
	}
	direct := runner.Spec{
		Specs:      specs,
		Schedulers: []runner.SchedulerSpec{{Name: "srptms+c", Params: sched.DefaultParams()}},
		Points:     []runner.Point{{X: 1, Machines: 40}},
		Runs:       2,
		BaseSeed:   7,
	}

	got, err := runner.Run(context.Background(), rs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run(context.Background(), direct, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var gotBuf, wantBuf bytes.Buffer
	if err := got.WriteJSON(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatal("spec expansion and direct runner call produced different artifacts")
	}
}

// TestRowWorkloadRoundTrip covers the explicit-rows workload.
func TestRowWorkloadRoundTrip(t *testing.T) {
	tr, err := trace.Generate(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{
		Workload:   Workload{Rows: tr.Rows},
		Schedulers: []Scheduler{{Name: "fair"}},
		Points:     []Point{{X: 0, Machines: 25, Params: &sched.Params{DeviationFactor: 2}}},
		Runs:       1,
		BaseSeed:   3,
	}
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(canon)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parsed.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Specs) != len(tr.Rows) {
		t.Fatalf("round-trip lost jobs: %d vs %d", len(back.Specs), len(tr.Rows))
	}
	if back.Points[0].Params == nil || back.Points[0].Params.DeviationFactor != 2 {
		t.Fatal("round-trip lost point params")
	}
	h1, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := parsed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("hash changed across round-trip")
	}
}

// TestHashSubmission proves the routing tier's hash extraction agrees with
// the hash an owning shard computes, without expanding the workload.
func TestHashSubmission(t *testing.T) {
	sp := tinySpec()
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	got, err := HashSubmission(canon)
	if err != nil {
		t.Fatalf("HashSubmission: %v", err)
	}
	if got != want {
		t.Fatalf("HashSubmission = %s, Spec.Hash = %s", got, want)
	}
	// Non-canonical but equivalent bodies (reordered fields, defaults
	// spelled out) hash identically: routing normalizes like the shard does.
	loose := `{"runs":2,"base_seed":7,"points":[{"x":1,"machines":40,"speed":1}],` +
		`"schedulers":[{"name":"srptms+c","params":` + mustJSON(t, sched.DefaultParams()) + `}],` +
		`"workload":{"trace":` + mustJSON(t, *sp.Workload.Trace) + `},"version":1}`
	got2, err := HashSubmission([]byte(loose))
	if err != nil {
		t.Fatalf("HashSubmission(loose): %v", err)
	}
	if got2 != want {
		t.Fatalf("equivalent body hashed differently: %s vs %s", got2, want)
	}
	if _, err := HashSubmission([]byte(`{"version":1}`)); err == nil {
		t.Error("HashSubmission accepted a spec with no workload")
	}
	if _, err := HashSubmission([]byte(`not json`)); err == nil {
		t.Error("HashSubmission accepted garbage")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestAxesMatchesRunnerSansWorkload(t *testing.T) {
	s := tinySpec()
	axes, err := s.Axes()
	if err != nil {
		t.Fatal(err)
	}
	if axes.Specs != nil {
		t.Fatal("Axes expanded the workload")
	}
	full, err := s.Runner()
	if err != nil {
		t.Fatal(err)
	}
	full.Specs = nil
	if got, want := mustJSON(t, axes), mustJSON(t, full); got != want {
		t.Fatalf("Axes = %s\nwant Runner sans workload = %s", got, want)
	}
	if axes.Total() != full.Total() {
		t.Fatalf("Total mismatch: %d vs %d", axes.Total(), full.Total())
	}
	bad := s
	bad.Schedulers = nil
	if _, err := bad.Axes(); err == nil {
		t.Fatal("Axes accepted a spec with no schedulers")
	}
}

func TestWorkloadJobs(t *testing.T) {
	s := tinySpec() // trace workload, 12 jobs
	if got := s.WorkloadJobs(); got != 12 {
		t.Fatalf("trace WorkloadJobs = %d, want 12", got)
	}
	s.Workload.Jobs = 5 // truncation wins when smaller
	if got := s.WorkloadJobs(); got != 5 {
		t.Fatalf("truncated WorkloadJobs = %d, want 5", got)
	}
	s.Workload.Jobs = 50 // larger than the trace: no effect
	if got := s.WorkloadJobs(); got != 12 {
		t.Fatalf("over-truncated WorkloadJobs = %d, want 12", got)
	}
	rows := Spec{Workload: Workload{Rows: make([]trace.JobRow, 7)}}
	if got := rows.WorkloadJobs(); got != 7 {
		t.Fatalf("rows WorkloadJobs = %d, want 7", got)
	}
}
