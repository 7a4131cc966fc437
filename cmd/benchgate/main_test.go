package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// run is a realistic test2json fragment: two counts of the same benchmark
// (the min must win), a sub-benchmark with a -cpus suffix, the calibration
// spin, and interleaved non-benchmark noise.
const runJSON = `{"Action":"start","Package":"mrclone"}
{"Action":"output","Package":"mrclone","Output":"goos: linux\n"}
{"Action":"output","Package":"mrclone","Output":"BenchmarkEngineEventCore \t       3\t   7000000 ns/op\t     45448 final-slot\t 1591104 B/op\t    2547 allocs/op\n"}
{"Action":"output","Package":"mrclone","Output":"BenchmarkEngineEventCore \t       3\t   6500000 ns/op\t     45448 final-slot\t 1591104 B/op\t    2500 allocs/op\n"}
{"Action":"output","Package":"mrclone","Output":"BenchmarkEngineNaiveLoop-16 \t       3\t  13000000 ns/op\t     45448 final-slot\t 1591008 B/op\t    2547 allocs/op\n"}
{"Action":"output","Package":"mrclone","Output":"BenchmarkRunnerMatrix/parallel1-16 \t 1\t 250000000 ns/op\n"}
{"Action":"output","Package":"mrclone","Output":"BenchmarkCalibrationSpin \t"}
{"Action":"output","Package":"mrclone","Output":"      28\t  40000000 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Package":"mrclone","Output":"PASS\n"}
`

func parsed(t *testing.T) map[string]sample {
	t.Helper()
	samples, err := parseRun(strings.NewReader(runJSON))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestParseRun(t *testing.T) {
	samples := parsed(t)
	ev, ok := samples["BenchmarkEngineEventCore"]
	if !ok {
		t.Fatalf("event core missing: %v", samples)
	}
	if ev.nsPerOp != 6.5e6 {
		t.Errorf("min ns/op across counts = %v, want 6.5e6", ev.nsPerOp)
	}
	if ev.allocsPerOp != 2500 {
		t.Errorf("allocs/op = %v, want 2500 (from the min-ns sample)", ev.allocsPerOp)
	}
	if _, ok := samples["BenchmarkEngineNaiveLoop"]; !ok {
		t.Error("cpu suffix -16 not stripped")
	}
	if _, ok := samples["BenchmarkRunnerMatrix/parallel1"]; !ok {
		t.Error("sub-benchmark name not preserved")
	}
	if mat := samples["BenchmarkRunnerMatrix/parallel1"]; mat.allocsPerOp != -1 {
		t.Errorf("missing -benchmem must read as allocs -1, got %v", mat.allocsPerOp)
	}
}

func TestParsePlainTextOutput(t *testing.T) {
	// Raw `go test -bench` output without -json must parse identically.
	plain := "BenchmarkEngineEventCore-8 \t 3\t 6000000 ns/op\t 100 allocs/op\n"
	samples, err := parseRun(strings.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if s := samples["BenchmarkEngineEventCore"]; s.nsPerOp != 6e6 || s.allocsPerOp != 100 {
		t.Fatalf("plain text parse: %+v", s)
	}
}

func testBaseline() baseline {
	return baseline{
		Calibration:    "BenchmarkCalibrationSpin",
		Tolerance:      0.20,
		AllocTolerance: 0.25,
		Benchmarks: map[string]entry{
			// Normalized: 6.5e6 / 40e6 = 0.1625.
			"BenchmarkEngineEventCore": {NsPerOp: 0.1625, AllocsPerOp: 2500},
		},
		MinRatios: []ratio{
			{Slow: "BenchmarkEngineNaiveLoop", Fast: "BenchmarkEngineEventCore", Min: 1.5},
		},
	}
}

func TestGatePasses(t *testing.T) {
	var out strings.Builder
	if err := gate(&out, testBaseline(), parsed(t)); err != nil {
		t.Fatalf("gate failed on its own baseline: %v\n%s", err, out.String())
	}
}

func TestGateCatchesNsRegression(t *testing.T) {
	base := testBaseline()
	e := base.Benchmarks["BenchmarkEngineEventCore"]
	e.NsPerOp /= 1.5 // run is now 50% over baseline, past the 20% tolerance
	base.Benchmarks["BenchmarkEngineEventCore"] = e
	var out strings.Builder
	err := gate(&out, base, parsed(t))
	if err == nil || !strings.Contains(err.Error(), "exceeds baseline") {
		t.Fatalf("want ns/op regression failure, got %v", err)
	}
}

func TestGateCatchesAllocRegression(t *testing.T) {
	base := testBaseline()
	e := base.Benchmarks["BenchmarkEngineEventCore"]
	e.AllocsPerOp = 1000 // run's 2500 is 2.5x the baseline
	base.Benchmarks["BenchmarkEngineEventCore"] = e
	var out strings.Builder
	err := gate(&out, base, parsed(t))
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("want allocs/op regression failure, got %v", err)
	}
}

func TestGateCatchesRatioFloor(t *testing.T) {
	base := testBaseline()
	base.MinRatios[0].Min = 5 // run's 13/6.5 = 2.0 is below 5
	var out strings.Builder
	err := gate(&out, base, parsed(t))
	if err == nil || !strings.Contains(err.Error(), "below floor") {
		t.Fatalf("want ratio floor failure, got %v", err)
	}
}

func TestGateCalibrationNormalizes(t *testing.T) {
	// Same machine-relative performance at half the machine speed: every
	// ns/op doubles, including the calibration spin. The gate must pass.
	samples := parsed(t)
	for name, s := range samples {
		s.nsPerOp *= 2
		samples[name] = s
	}
	var out strings.Builder
	if err := gate(&out, testBaseline(), samples); err != nil {
		t.Fatalf("uniformly slower machine flagged as regression: %v", err)
	}
}

func TestGateMissingBenchmark(t *testing.T) {
	base := testBaseline()
	base.Benchmarks["BenchmarkDoesNotExist"] = entry{NsPerOp: 1, AllocsPerOp: 0}
	var out strings.Builder
	err := gate(&out, base, parsed(t))
	if err == nil || !strings.Contains(err.Error(), "missing from run") {
		t.Fatalf("want missing-benchmark failure, got %v", err)
	}
}

func TestCaptureSeedsRatioFloors(t *testing.T) {
	samples := map[string]sample{
		"BenchmarkCalibrationSpin":             {nsPerOp: 20},
		"BenchmarkEngineNaiveLoop":             {nsPerOp: 20},
		"BenchmarkEngineEventCore":             {nsPerOp: 10},
		"BenchmarkAblationSchedulers/srptms+c": {nsPerOp: 8},
		"BenchmarkAblationSchedulers/late":     {nsPerOp: 32},
		"BenchmarkAblationSchedulers/mantri":   {nsPerOp: 16},
		"BenchmarkAblationSchedulers/sca":      {nsPerOp: 10},
	}
	var out strings.Builder
	if err := emitBaseline(&out, samples); err != nil {
		t.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal([]byte(out.String()), &base); err != nil {
		t.Fatal(err)
	}
	want := []ratio{
		{Slow: "BenchmarkEngineNaiveLoop", Fast: "BenchmarkEngineEventCore", Min: 1.2},
		{Slow: "BenchmarkAblationSchedulers/srptms+c", Fast: "BenchmarkAblationSchedulers/late", Min: 0.15},
		{Slow: "BenchmarkAblationSchedulers/srptms+c", Fast: "BenchmarkAblationSchedulers/mantri", Min: 0.3},
		{Slow: "BenchmarkAblationSchedulers/srptms+c", Fast: "BenchmarkAblationSchedulers/sca", Min: 0.48},
	}
	if !reflect.DeepEqual(base.MinRatios, want) {
		t.Fatalf("seeded ratios = %+v, want %+v", base.MinRatios, want)
	}
	// A run without the scheduler cells seeds only the loop floor.
	delete(samples, "BenchmarkAblationSchedulers/late")
	delete(samples, "BenchmarkAblationSchedulers/mantri")
	delete(samples, "BenchmarkAblationSchedulers/sca")
	out.Reset()
	if err := emitBaseline(&out, samples); err != nil {
		t.Fatal(err)
	}
	base = baseline{}
	if err := json.Unmarshal([]byte(out.String()), &base); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.MinRatios, want[:1]) {
		t.Fatalf("seeded ratios = %+v, want %+v", base.MinRatios, want[:1])
	}
}
