package cluster_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/rng"
	"mrclone/internal/sched"
	"mrclone/internal/trace"
)

// nanAfter samples a finite workload a given number of times, then NaN.
type nanAfter struct{ good int }

func (d *nanAfter) Sample(*rng.Source) float64 {
	if d.good > 0 {
		d.good--
		return 3
	}
	return math.NaN()
}
func (d *nanAfter) Mean() float64   { return 3 }
func (d *nanAfter) StdDev() float64 { return 0 }

// TestStorageReuseIsInvisible runs every registered scheduler, on each loop,
// in one Storage over workloads that grow, shrink and grow again, then a run
// that overflows MaxSlots and one that samples a non-finite workload midway,
// each followed by more runs. Every run that succeeds must equal a fresh
// cluster.New run of the same cell, compared after the Storage has moved on,
// so neither a failed nor a larger earlier run leaves anything behind and no
// Result shares the Storage's memory.
func TestStorageReuseIsInvisible(t *testing.T) {
	type cell struct {
		name     string
		specs    []job.Spec
		machines int
		seed     int64
	}
	workload := func(jobs int) cell {
		p := trace.GoogleParams()
		p.Jobs, p.Seed = jobs, int64(jobs)
		tr, err := trace.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := tr.Specs()
		if err != nil {
			t.Fatal(err)
		}
		return cell{specs: specs, machines: 2*jobs + 10, seed: int64(jobs) + 1}
	}
	first, smaller, larger := workload(14), workload(6), workload(24)
	// larger plus a job that arrives midway and draws NaN for its second
	// copy; the distribution is set afresh before each run.
	poisoned := larger
	poisoned.specs = append(append([]job.Spec(nil), larger.specs...), job.Spec{
		ID: 1 << 20, Arrival: larger.specs[len(larger.specs)/2].Arrival, Weight: 1, MapTasks: 3,
	})

	for _, lm := range loopModes {
		t.Run(lm.name, func(t *testing.T) {
			var st cluster.Storage
			run := func(c cell, s cluster.Scheduler, maxSlots int64) (*cluster.Result, error) {
				w, err := cluster.NewWorkload(c.specs)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := cluster.NewEngine(cluster.Config{
					Machines: c.machines, Seed: c.seed, Loop: lm.mode, MaxSlots: maxSlots,
				}, s, w, &st)
				if err != nil {
					t.Fatal(err)
				}
				return eng.Run()
			}
			type reused struct {
				c    cell
				res  *cluster.Result
				what string
			}
			var done []reused
			every := func(what string, c cell) {
				for _, name := range sched.Names() {
					res, err := run(c, buildSched(t, name), 0)
					if err != nil {
						t.Fatalf("%s, %s: %v", what, name, err)
					}
					c.name = name
					done = append(done, reused{c, res, what})
				}
			}
			every("first", first)
			every("smaller", smaller)
			every("larger", larger)

			full := runSpecs(t, buildSched(t, "srptms+c"), lm.mode, larger.machines, larger.seed, larger.specs)
			if _, err := run(larger, buildSched(t, "srptms+c"), full.Slots/2); !errors.Is(err, cluster.ErrSlotOverflow) {
				t.Fatalf("half the slots: want ErrSlotOverflow, got %v", err)
			}
			every("after overflow", first)

			poisoned.specs[len(poisoned.specs)-1].MapDist = &nanAfter{good: 1}
			if _, err := run(poisoned, buildSched(t, "srptms+c"), 0); !errors.Is(err, cluster.ErrNonFiniteWorkload) {
				t.Fatalf("poisoned job: want ErrNonFiniteWorkload, got %v", err)
			}
			every("after non-finite", larger)

			for _, r := range done {
				fresh := runSpecs(t, buildSched(t, r.c.name), lm.mode, r.c.machines, r.c.seed, r.c.specs)
				if !reflect.DeepEqual(r.res, fresh) {
					t.Errorf("%s, %s on %d jobs: reused Storage gave %+v, fresh engine %+v",
						r.what, r.c.name, len(r.c.specs), r.res, fresh)
				}
			}
		})
	}
}
