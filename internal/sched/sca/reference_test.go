package sca

// Per-copy reference for SCA's water-filling. perCopy is SCA as it was
// before Phase B stepped whole job levels: the same Phase A and launch loop,
// with a container/heap of allocations that grants one copy per heap step
// and re-sifts the granted task. TestWaterFillReference pins that the
// level-stepping scheduler makes the same launches as this reference on
// every engine case, and FuzzWaterFill drives both Phase B loops directly.

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/sched/schedutil"
	"mrclone/internal/trace"
)

// perCopy is the per-copy greedy SCA. Its cfg carries New's defaults.
type perCopy struct {
	cfg    Config
	allocs []refAllocation
	items  []*refAllocation
	tasks  []*job.Task
}

func newPerCopy(t testing.TB, cfg Config) *perCopy {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &perCopy{cfg: s.cfg}
}

func (s *perCopy) Name() string      { return "SCA" }
func (s *perCopy) EventDriven() bool { return true }

// refAllocation is an allocation plus its heap index.
type refAllocation struct {
	j      *job.Job
	t      *job.Task
	mean   float64
	weight float64
	copies int
	index  int
}

func (s *perCopy) gain(a *refAllocation) float64 {
	k := float64(a.copies)
	if a.copies >= s.cfg.MaxClonesPerTask {
		return 0
	}
	return a.weight * a.mean * (1/s.cfg.Speedup.At(k) - 1/s.cfg.Speedup.At(k+1))
}

// refHeap is a max-heap of allocations by marginal gain.
type refHeap struct {
	items []*refAllocation
	s     *perCopy
}

func (h refHeap) Len() int { return len(h.items) }
func (h refHeap) Less(i, j int) bool {
	gi, gj := h.s.gain(h.items[i]), h.s.gain(h.items[j])
	if gi != gj {
		return gi > gj
	}
	// Deterministic tie-break: job then task index.
	a, b := h.items[i], h.items[j]
	if a.j.Spec.ID != b.j.Spec.ID {
		return a.j.Spec.ID < b.j.Spec.ID
	}
	return a.t.ID.Index < b.t.ID.Index
}
func (h refHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}
func (h *refHeap) Push(x interface{}) {
	a := x.(*refAllocation)
	a.index = len(h.items)
	h.items = append(h.items, a)
}
func (h *refHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return item
}

func (s *perCopy) Schedule(ctx *cluster.Context) {
	psi := schedutil.WithUnscheduledTasks(ctx.AliveJobs())
	if len(psi) == 0 {
		return
	}
	allocs := s.allocs[:0]
	budget := ctx.FreeMachines()
	for _, j := range psi {
		if budget == 0 {
			break
		}
		for _, p := range []job.Phase{job.PhaseMap, job.PhaseReduce} {
			if p == job.PhaseReduce && !j.MapPhaseDone() {
				break
			}
			stats := j.PhaseStats(p)
			s.tasks = j.AppendUnscheduled(s.tasks[:0], p)
			for _, t := range s.tasks {
				if budget == 0 {
					break
				}
				allocs = append(allocs, refAllocation{
					j: j, t: t, mean: stats.Mean, weight: j.Spec.Weight, copies: 1,
				})
				budget--
			}
		}
	}
	s.allocs = allocs
	if budget > 0 && len(allocs) > 0 {
		s.fill(allocs, budget)
	}
	for i := range allocs {
		a := &allocs[i]
		n := a.copies
		if n > ctx.FreeMachines() {
			n = ctx.FreeMachines()
		}
		if n == 0 {
			return
		}
		if _, err := ctx.Launch(a.j, a.t, n, false); err != nil {
			return
		}
	}
}

// fill is the per-copy greedy: one copy to the top allocation per step.
func (s *perCopy) fill(allocs []refAllocation, budget int) {
	items := s.items[:0]
	for i := range allocs {
		allocs[i].index = i
		items = append(items, &allocs[i])
	}
	s.items = items
	h := &refHeap{items: items, s: s}
	heap.Init(h)
	for budget > 0 && h.Len() > 0 {
		top := h.items[0]
		if s.gain(top) <= 0 {
			break
		}
		top.copies++
		budget--
		heap.Fix(h, 0)
	}
}

// marginalSpeedup is the Speedup whose inverse drops by m[k-1] from k to
// k+1 copies: 1/s(1) = 1 and 1/s(k+1) = 1/s(k) - m[k-1], flat past the
// table. Equal entries make gain ties, a rising run non-concave gains.
type marginalSpeedup []float64

func (m marginalSpeedup) At(k float64) float64 {
	inv := 1.0
	for i := 0; i < len(m) && float64(i+1) < k; i++ {
		inv -= m[i]
	}
	return 1 / inv
}

// waterFillSpeedups are the default Pareto(2) model, a heavier Pareto(1.2)
// tail, and three tables: flat, stepped, and rising then falling.
var waterFillSpeedups = []struct {
	name string
	s    dist.Speedup
}{
	{"pareto2", nil},
	{"pareto1.2", dist.ParetoSpeedup{Alpha: 1.2}},
	{"flat", marginalSpeedup{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}},
	{"stepped", marginalSpeedup{0.2, 0.2, 0.1, 0.1, 0.05, 0.05, 0.025, 0.025}},
	{"risefall", marginalSpeedup{0.05, 0.1, 0.15, 0.1, 0.05, 0.15, 0.02, 0.01}},
}

func runLoop(t *testing.T, s cluster.Scheduler, loop cluster.LoopMode, machines int, seed int64,
	specs []job.Spec) *cluster.Result {
	t.Helper()
	eng, err := cluster.New(cluster.Config{Machines: machines, Seed: seed, Loop: loop}, s, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHugeCloneCap checks that a clone cap from a spec cannot size the
// marginal table, and that gains past the table match the reference's.
func TestHugeCloneCap(t *testing.T) {
	cfg := Config{MaxClonesPerTask: 1 << 40}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.marginal) != tabledLevels {
		t.Fatalf("marginal table has %d levels, want %d", len(s.marginal), tabledLevels)
	}
	ref := newPerCopy(t, cfg)
	for _, k := range []int{1, tabledLevels - 1, tabledLevels, 5000} {
		a := allocation{mean: 700, weight: 3, copies: k}
		if got, want := s.gain(&a), ref.gain(&refAllocation{mean: 700, weight: 3, copies: k}); got != want {
			t.Errorf("gain at %d copies = %v, reference %v", k, got, want)
		}
	}
}

// waterFillWorkloads returns a mixed Google-calibrated trace of the given
// size and seed, and its tied variant: every job with one weight and one
// distribution per phase, so groups tie on gain, and numbered against
// arrival order, so only the job-ID tie-break orders them.
func waterFillWorkloads(t *testing.T, jobs int, seed int64) (google, tied []job.Spec) {
	t.Helper()
	p := trace.GoogleParams()
	p.Jobs, p.Seed = jobs, seed
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	google, err = tr.Specs()
	if err != nil {
		t.Fatal(err)
	}
	var mapDist, reduceDist dist.Distribution
	for _, sp := range google {
		mapDist, reduceDist = cmp.Or(mapDist, sp.MapDist), cmp.Or(reduceDist, sp.ReduceDist)
	}
	tied = make([]job.Spec, len(google))
	for i, sp := range google {
		tied[i] = job.Spec{ID: len(google) - 1 - i, Arrival: sp.Arrival, Weight: 1,
			MapTasks: sp.MapTasks, ReduceTask: sp.ReduceTask}
		if sp.MapTasks > 0 {
			tied[i].MapDist = mapDist
		}
		if sp.ReduceTask > 0 {
			tied[i].ReduceDist = reduceDist
		}
	}
	return google, tied
}

// TestWaterFillReference runs SCA against the per-copy reference over
// traces of 5, 20 and 60 jobs and six trace seeds, each as generated and
// tied, on clusters from 3 to 1000 machines, under every clone cap and
// speedup model above. The level-stepping scheduler must produce the
// reference's Result on both loops.
func TestWaterFillReference(t *testing.T) {
	for _, jobs := range []int{5, 20, 60} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%djobs/seed%d", jobs, seed), func(t *testing.T) {
				t.Parallel()
				google, tied := waterFillWorkloads(t, jobs, seed)
				for _, w := range []struct {
					name  string
					specs []job.Spec
				}{{"google", google}, {"tied", tied}} {
					for _, machines := range []int{3, 17, 50, 200, 1000} {
						for _, cloneCap := range []int{0, 1, 2, 3, 6} {
							for _, sp := range waterFillSpeedups {
								cfg := Config{Speedup: sp.s, MaxClonesPerTask: cloneCap}
								want := runLoop(t, newPerCopy(t, cfg), cluster.LoopAuto, machines, seed, w.specs)
								for _, loop := range []cluster.LoopMode{cluster.LoopAuto, cluster.LoopNaive} {
									s, err := New(cfg)
									if err != nil {
										t.Fatal(err)
									}
									if got := runLoop(t, s, loop, machines, seed, w.specs); !reflect.DeepEqual(want, got) {
										t.Errorf("%s, M=%d, cap %d, %s, loop %v: result differs from the per-copy greedy",
											w.name, machines, cloneCap, sp.name, loop)
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// FuzzWaterFill drives Phase B directly: jobs of a few tasks each, task
// order shuffled as the engine's pending lists leave it, weights and means
// from small sets (a zero byte makes the mean +Inf) so gains tie across
// jobs, a clone cap, a budget, and a marginal table built from the fuzzed
// levels so gains also tie and rise within a job. Every allocation must end
// with the copies the per-copy greedy grants it.
func FuzzWaterFill(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{1, 2, 3}, []byte{5, 5, 7}, uint16(20), uint8(0), []byte{8, 4, 4, 2})
	f.Add(uint8(6), uint8(3), []byte{2, 2}, []byte{0, 9}, uint16(7), uint8(4), []byte{1, 6, 1, 1})
	f.Add(uint8(2), uint8(9), []byte{1}, []byte{3}, uint16(40), uint8(2), []byte{0, 2, 5, 3, 3})
	f.Fuzz(func(t *testing.T, jobs, tasks uint8, weights, means []byte, budget uint16, cloneCap uint8,
		levels []byte) {
		nj, nt := 1+int(jobs%8), 1+int(tasks%12)
		m := make(marginalSpeedup, min(len(levels), 8))
		for i := range m {
			m[i] = float64(levels[i]%8) / 64
		}
		cfg := Config{Speedup: m, MaxClonesPerTask: int(cloneCap % 10)}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newPerCopy(t, cfg)
		d, err := dist.NewDeterministic(1)
		if err != nil {
			t.Fatal(err)
		}
		var allocs []allocation
		for i := 0; i < nj; i++ {
			w, mean := 1.0, 100.0
			if len(weights) > 0 {
				w = float64(1 + weights[i%len(weights)]%4)
			}
			if len(means) > 0 {
				if b := means[i%len(means)]; b == 0 {
					mean = math.Inf(1)
				} else {
					mean = float64(b % 16)
				}
			}
			for k := 1; k < s.cfg.MaxClonesPerTask; k++ {
				if math.IsNaN(s.gain(&allocation{mean: mean, weight: w, copies: k})) {
					t.Skip("NaN gain: the per-copy comparator is not an order")
				}
			}
			// IDs descend while allocation order ascends, so the heap's
			// tie-break cannot lean on input order.
			j, err := job.New(job.Spec{ID: nj - i, Weight: w, MapTasks: nt, MapDist: d})
			if err != nil {
				t.Fatal(err)
			}
			for k := range nt {
				// Task indices descend, rotated per job: allocation order is
				// not index order, as in the engine's pending lists.
				task := j.Tasks[(i+nt-1-k)%nt]
				allocs = append(allocs, allocation{j: j, t: task, mean: mean, weight: w, copies: 1})
			}
		}
		refAllocs := make([]refAllocation, len(allocs))
		for i, a := range allocs {
			refAllocs[i] = refAllocation{j: a.j, t: a.t, mean: a.mean, weight: a.weight, copies: 1}
		}
		b := 1 + int(budget%512)
		s.fill(allocs, b)
		ref.fill(refAllocs, b)
		for i := range allocs {
			if allocs[i].copies != refAllocs[i].copies {
				t.Fatalf("allocation %d (%v): %d copies, per-copy greedy %d",
					i, allocs[i].t.ID, allocs[i].copies, refAllocs[i].copies)
			}
		}
	})
}
