// Command mrexperiments regenerates the paper's tables and figures.
//
// Usage:
//
//	mrexperiments [-scale quick|full] [-runs N] [-seed S] [-parallel W]
//	              [-csv dir] [names...]
//
// With no names it runs every experiment: table2 fig1 fig2 fig3 fig4 fig5
// fig6 theorem1 theorem2. With -csv the figure data are also written as CSV
// files into the given directory. Each experiment's run matrix (schedulers
// × sweep points × seeds) is simulated on -parallel workers; results are
// byte-identical at any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"

	"mrclone/internal/experiments"
)

func main() {
	// SIGINT/SIGTERM cancel the in-flight run matrix so long experiments
	// exit cleanly (no partially written artifacts) instead of mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mrexperiments:", err)
		os.Exit(1)
	}
}

// result is what every experiment returns; the figures' results also have
// a WriteCSV method.
type result interface{ WriteText(io.Writer) error }

// experiment is one entry of the table below: a name on the command line,
// its run, and, for a CDF comparison, the title of its ASCII plot.
type experiment struct {
	name string
	run  func(experiments.Options) (result, error)
	plot string
}

// runAs adapts an experiment function to the table's run signature.
func runAs[R result](f func(experiments.Options) (R, error)) func(experiments.Options) (result, error) {
	return func(o experiments.Options) (result, error) { return f(o) }
}

var table = []experiment{
	{"table2", runAs(experiments.Table2), ""},
	{"fig1", runAs(experiments.Fig1), ""},
	{"fig2", runAs(experiments.Fig2), ""},
	{"fig3", runAs(experiments.Fig3), ""},
	{"fig4", runAs(experiments.Fig4), "CDF of small-job flowtime (0-300 s)"},
	{"fig5", runAs(experiments.Fig5), "CDF of big-job flowtime (300-4000 s)"},
	{"fig6", runAs(experiments.Fig6), ""},
	{"theorem1", runAs(experiments.Theorem1), ""},
	{"theorem2", runAs(experiments.Theorem2), ""},
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mrexperiments", flag.ContinueOnError)
	scale := fs.String("scale", "quick", "experiment scale: quick or full")
	runs := fs.Int("runs", 0, "override runs per configuration (0 = preset)")
	seed := fs.Int64("seed", 0, "override base seed (0 = preset)")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"simulation cells run concurrently; >= 1 (results do not depend on it)")
	csvDir := fs.String("csv", "", "directory to also write CSV data into")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel %d: need at least one worker", *parallel)
	}

	var opts experiments.Options
	switch *scale {
	case "quick":
		opts = experiments.QuickOptions()
	case "full":
		opts = experiments.FullOptions()
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scale)
	}
	if *runs > 0 {
		opts.Runs = *runs
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	opts.Parallelism = *parallel
	opts.Ctx = ctx
	todo, err := resolve(fs.Args())
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range todo {
		fmt.Fprintf(out, "\n===== %s (scale=%s) =====\n", e.name, *scale)
		if err := runOne(e, opts, out, *csvDir); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

// resolve looks every name up in the table before anything runs, so a
// misspelt last name fails at once; no names means the whole table.
func resolve(names []string) ([]experiment, error) {
	if len(names) == 0 {
		return table, nil
	}
	todo := make([]experiment, len(names))
	for i, name := range names {
		j := slices.IndexFunc(table, func(e experiment) bool { return e.name == name })
		if j < 0 {
			have := make([]string, len(table))
			for k, e := range table {
				have[k] = e.name
			}
			return nil, fmt.Errorf("%s: unknown experiment (have %v)", name, have)
		}
		todo[i] = table[j]
	}
	return todo, nil
}

// runOne runs one experiment, writes its text, fig1's best epsilon or a
// CDF plot, and then its CSV into csvDir when both exist.
func runOne(e experiment, opts experiments.Options, out io.Writer, csvDir string) error {
	res, err := e.run(opts)
	if err != nil {
		return err
	}
	if err := res.WriteText(out); err != nil {
		return err
	}
	switch r := res.(type) {
	case *experiments.SweepResult:
		if e.name == "fig1" {
			fmt.Fprintf(out, "best epsilon (min unweighted avg): %g\n", r.Best())
		}
	case *experiments.CDFResult:
		if err := experiments.ASCIIPlot(out, e.plot, r.Curves); err != nil {
			return err
		}
	}
	c, ok := res.(interface{ WriteCSV(io.Writer) error })
	if !ok || csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvDir, e.name+".csv"))
	if err != nil {
		return err
	}
	if err := c.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
