// Command benchgate enforces the repository's benchmark gate: it parses a
// `go test -json -bench` run, normalizes every ns/op by the calibration
// benchmark (so a uniformly slower CI runner is not mistaken for a code
// regression), and fails when any gated benchmark regresses more than the
// committed tolerance against BENCH_BASELINE.json — or when an in-run
// speedup ratio (for example naive-loop over event-core, which cancels
// machine speed entirely) falls below its floor.
//
// Usage:
//
//	benchgate -baseline BENCH_BASELINE.json bench.json    gate a run
//	benchgate -capture bench.json                         emit a fresh baseline
//
// bench.json is the test2json stream of a benchmark run, e.g.:
//
//	go test -run '^$' -bench 'BenchmarkEngine|BenchmarkCalibrationSpin' \
//	  -benchtime=3x -count=3 -benchmem -json . > bench.json
//
// With -count > 1 the minimum ns/op per benchmark is used — the least noisy
// estimate of the true cost. Capture with the same -benchtime the gate runs
// at: allocs/op amortizes one-time warm-up allocations over the iteration
// count, so baselines taken at a different benchtime do not compare.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// sample is one benchmark measurement extracted from the test2json stream.
type sample struct {
	nsPerOp     float64
	allocsPerOp float64 // -1 when -benchmem was off
}

// entry is one gated benchmark's pinned cost in the baseline file.
type entry struct {
	NsPerOp     float64 `json:"nsPerOp"`     // calibration-normalized when Calibration is set
	AllocsPerOp float64 `json:"allocsPerOp"` // raw allocations per op
	// Tolerance overrides the file-level ns/op tolerance for this entry
	// when > 0. Used to hold the production path to a tight bound while
	// giving the slower reference loops — whose long runs wander more with
	// machine load — a wider one.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// ratio is an in-run speedup floor: slow's ns/op divided by fast's must be
// at least Min. Both run on the same machine in the same process, so the
// comparison needs no calibration at all.
type ratio struct {
	Slow string  `json:"slow"`
	Fast string  `json:"fast"`
	Min  float64 `json:"min"`
}

// baseline is the committed BENCH_BASELINE.json schema.
type baseline struct {
	// Calibration names the fixed-work benchmark whose ns/op divides every
	// gated ns/op before comparison. Empty disables normalization.
	Calibration string `json:"calibration"`
	// Tolerance is the allowed fractional ns/op regression (0.20 = +20%).
	Tolerance float64 `json:"tolerance"`
	// AllocTolerance is the allowed fractional allocs/op regression.
	AllocTolerance float64          `json:"allocTolerance"`
	Benchmarks     map[string]entry `json:"benchmarks"`
	MinRatios      []ratio          `json:"minRatios"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "", "baseline JSON to gate against")
	capture := fs.Bool("capture", false, "emit a fresh baseline from the run instead of gating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one bench.json argument (test2json stream), got %d", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := parseRun(f)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("%s: no benchmark results found", fs.Arg(0))
	}
	if *capture {
		return emitBaseline(out, samples)
	}
	if *baselinePath == "" {
		return fmt.Errorf("need -baseline (or -capture)")
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %v", *baselinePath, err)
	}
	return gate(out, base, samples)
}

// benchLine matches a benchmark result in test output:
//
//	BenchmarkName-8 \t 30 \t 6811023 ns/op \t 45448 final-slot \t 1558106 B/op \t 2235 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+)\s+\d+\s+(.*)$`)

// cpuSuffix is the -GOMAXPROCS tail the bench runner appends to names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseRun extracts the best (minimum ns/op) sample per benchmark from a
// test2json stream; plain `go test -bench` text output is accepted too.
//
// test2json splits one benchmark result across output events — the name
// fragment ends in a tab with the metrics in a later event — so the text
// stream is reassembled per package and split on real newlines before
// matching.
func parseRun(r io.Reader) (map[string]sample, error) {
	samples := make(map[string]sample)
	pending := make(map[string]*strings.Builder) // partial line per package
	record := func(line string) {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			return
		}
		name := cpuSuffix.ReplaceAllString(m[1], "")
		s, ok := parseMetrics(m[2])
		if !ok {
			return
		}
		if prev, seen := samples[name]; !seen || s.nsPerOp < prev.nsPerOp {
			samples[name] = s
		}
	}
	feed := func(pkg, text string) {
		buf, ok := pending[pkg]
		if !ok {
			buf = &strings.Builder{}
			pending[pkg] = buf
		}
		buf.WriteString(text)
		for {
			s := buf.String()
			nl := strings.IndexByte(s, '\n')
			if nl < 0 {
				return
			}
			record(s[:nl])
			buf.Reset()
			buf.WriteString(s[nl+1:])
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev struct {
				Action  string `json:"Action"`
				Package string `json:"Package"`
				Output  string `json:"Output"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action == "output" {
					feed(ev.Package, ev.Output)
				}
				continue
			}
		}
		record(line)
	}
	return samples, sc.Err()
}

// parseMetrics reads the "value unit" pairs after the iteration count.
func parseMetrics(rest string) (sample, bool) {
	s := sample{nsPerOp: -1, allocsPerOp: -1}
	fields := strings.Fields(rest)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			s.nsPerOp = v
		case "allocs/op":
			s.allocsPerOp = v
		}
	}
	return s, s.nsPerOp >= 0
}

// defaultCalibration must match the benchmark in bench_test.go.
const defaultCalibration = "BenchmarkCalibrationSpin"

// seededRatios are the in-run floors a capture emits when the run has both
// benchmarks: the naive loop over the event core, and the SRPTMS+C cell over
// the LATE and the Mantri cell, which caps what a detection baseline's cell
// may cost relative to an SRPTMS+C cell.
var seededRatios = []ratio{
	{Slow: "BenchmarkEngineNaiveLoop", Fast: "BenchmarkEngineEventCore"},
	{Slow: "BenchmarkAblationSchedulers/srptms+c", Fast: "BenchmarkAblationSchedulers/late"},
	{Slow: "BenchmarkAblationSchedulers/srptms+c", Fast: "BenchmarkAblationSchedulers/mantri"},
}

// emitBaseline writes a fresh baseline JSON from the run's samples. Ratio
// floors are seeded at 60% of the measured ratio — review before committing.
func emitBaseline(out io.Writer, samples map[string]sample) error {
	base := baseline{
		Calibration:    defaultCalibration,
		Tolerance:      0.20,
		AllocTolerance: 0.25,
		Benchmarks:     make(map[string]entry),
	}
	cal, hasCal := samples[defaultCalibration]
	if !hasCal {
		return fmt.Errorf("capture run lacks %s; include it in -bench", defaultCalibration)
	}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == defaultCalibration {
			continue
		}
		s := samples[name]
		base.Benchmarks[name] = entry{
			NsPerOp:     round3(s.nsPerOp / cal.nsPerOp),
			AllocsPerOp: s.allocsPerOp,
		}
	}
	for _, r := range seededRatios {
		slow, okS := samples[r.Slow]
		fast, okF := samples[r.Fast]
		if okS && okF {
			r.Min = round3(0.6 * slow.nsPerOp / fast.nsPerOp)
			base.MinRatios = append(base.MinRatios, r)
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(base)
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// gate compares the run against the baseline and returns an error listing
// every violation.
func gate(out io.Writer, base baseline, samples map[string]sample) error {
	calFactor := 1.0
	if base.Calibration != "" {
		cal, ok := samples[base.Calibration]
		if !ok {
			return fmt.Errorf("run lacks calibration benchmark %s", base.Calibration)
		}
		calFactor = cal.nsPerOp
	}
	var violations []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := samples[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from run", name))
			continue
		}
		tol := base.Tolerance
		if want.Tolerance > 0 {
			tol = want.Tolerance
		}
		norm := got.nsPerOp / calFactor
		limit := want.NsPerOp * (1 + tol)
		status := "ok"
		if norm > limit {
			status = "REGRESSED"
			violations = append(violations, fmt.Sprintf(
				"%s: normalized ns/op %.3f exceeds baseline %.3f by more than %.0f%%",
				name, norm, want.NsPerOp, tol*100))
		}
		fmt.Fprintf(out, "%-32s ns/op %12.0f  normalized %7.3f  baseline %7.3f  %s\n",
			name, got.nsPerOp, norm, want.NsPerOp, status)
		if want.AllocsPerOp >= 0 && got.allocsPerOp >= 0 {
			if got.allocsPerOp > want.AllocsPerOp*(1+base.AllocTolerance) {
				violations = append(violations, fmt.Sprintf(
					"%s: allocs/op %.0f exceeds baseline %.0f by more than %.0f%%",
					name, got.allocsPerOp, want.AllocsPerOp, base.AllocTolerance*100))
			}
		}
	}
	for _, r := range base.MinRatios {
		slow, okS := samples[r.Slow]
		fast, okF := samples[r.Fast]
		if !okS || !okF {
			violations = append(violations, fmt.Sprintf(
				"ratio %s/%s: benchmark missing from run", r.Slow, r.Fast))
			continue
		}
		got := slow.nsPerOp / fast.nsPerOp
		status := "ok"
		if got < r.Min {
			status = "REGRESSED"
			violations = append(violations, fmt.Sprintf(
				"ratio %s/%s = %.2f below floor %.2f", r.Slow, r.Fast, got, r.Min))
		}
		fmt.Fprintf(out, "%-32s ratio %.2f  floor %.2f  %s\n",
			r.Slow+"/"+r.Fast, got, r.Min, status)
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchmark gate failed:\n  %s", strings.Join(violations, "\n  "))
	}
	fmt.Fprintln(out, "benchmark gate passed")
	return nil
}
