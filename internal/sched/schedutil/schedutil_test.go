package schedutil

import (
	"math"
	"testing"
	"testing/quick"

	"mrclone/internal/cluster"
	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/rng"
)

func mkJob(t *testing.T, id int, weight float64, maps int, mean float64) *job.Job {
	t.Helper()
	d, err := dist.NewDeterministic(mean)
	if err != nil {
		t.Fatal(err)
	}
	j, err := job.New(job.Spec{ID: id, Weight: weight, MapTasks: maps, MapDist: d})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestByPriorityDesc(t *testing.T) {
	// priorities w/U: A: 1/(2*10)=0.05, B: 4/(2*10)=0.2, C: 1/(1*10)=0.1
	a := mkJob(t, 0, 1, 2, 10)
	b := mkJob(t, 1, 4, 2, 10)
	c := mkJob(t, 2, 1, 1, 10)
	jobs := []*job.Job{a, b, c}
	var s Sorter
	s.ByPriorityDesc(jobs, 0)
	wantOrder := []int{1, 2, 0}
	for i, j := range jobs {
		if j.Spec.ID != wantOrder[i] {
			t.Fatalf("position %d: job %d, want %d", i, j.Spec.ID, wantOrder[i])
		}
	}
}

func TestByPriorityDescTieBreak(t *testing.T) {
	a := mkJob(t, 7, 1, 1, 10)
	b := mkJob(t, 3, 1, 1, 10)
	jobs := []*job.Job{a, b}
	var s Sorter
	s.ByPriorityDesc(jobs, 0)
	if jobs[0].Spec.ID != 3 {
		t.Fatalf("ties must break by ascending ID, got %d first", jobs[0].Spec.ID)
	}
}

func TestByOfflinePriorityDesc(t *testing.T) {
	// phi: A = 3*10 = 30 (w 1 => p=1/30), B = 1*10 (w 1 => 1/10).
	a := mkJob(t, 0, 1, 3, 10)
	b := mkJob(t, 1, 1, 1, 10)
	jobs := []*job.Job{a, b}
	var s Sorter
	s.ByOfflinePriorityDesc(jobs, 0)
	if jobs[0].Spec.ID != 1 {
		t.Fatalf("smaller job must rank first, got %d", jobs[0].Spec.ID)
	}
}

func TestPickRandom(t *testing.T) {
	j := mkJob(t, 0, 1, 10, 5)
	tasks := j.UnscheduledTasks(job.PhaseMap)
	src := rng.New(1)

	got := PickRandomInPlace(tasks, 4, src)
	if len(got) != 4 {
		t.Fatalf("picked %d, want 4", len(got))
	}
	seen := map[*job.Task]bool{}
	for _, task := range got {
		if seen[task] {
			t.Fatal("duplicate pick")
		}
		seen[task] = true
	}
	if got := PickRandomInPlace(tasks, 100, src); len(got) != 10 {
		t.Fatalf("over-pick returned %d, want all 10", len(got))
	}
	if got := PickRandomInPlace(tasks, 0, src); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := PickRandomInPlace(tasks, -3, src); got != nil {
		t.Fatalf("k<0 returned %v", got)
	}
}

func TestLargestRemainderExact(t *testing.T) {
	cases := []struct {
		shares []float64
		total  int
		want   []int
	}{
		{[]float64{2.5, 2.5, 5}, 10, []int{3, 2, 5}}, // tie on .5 -> lower index first
		{[]float64{1.2, 1.2, 1.6}, 4, []int{1, 1, 2}},
		{[]float64{0, 0, 4}, 4, []int{0, 0, 4}},
		{[]float64{3, 3, 3}, 9, []int{3, 3, 3}},
		{nil, 5, []int{}},
		{[]float64{1.5}, 0, []int{0}},
		{[]float64{-2, 3.5, 0.5}, 4, []int{0, 4, 0}}, // negatives clamp to 0
	}
	var ap Apportioner // shared, so each case also runs on reused scratch
	for i, tc := range cases {
		got := ap.LargestRemainder(tc.shares, tc.total)
		if len(got) != len(tc.want) {
			t.Errorf("case %d: len %d, want %d", i, len(got), len(tc.want))
			continue
		}
		for k := range got {
			if got[k] != tc.want[k] {
				t.Errorf("case %d: got %v, want %v", i, got, tc.want)
				break
			}
		}
	}
}

// Property: when the share mass equals the total (the scheduler's contract —
// fractional g_i always sum to M), the rounded shares sum to exactly total,
// are non-negative, deviate from their fractional share by less than 1, and
// zero shares get zero machines.
func TestLargestRemainderProperty(t *testing.T) {
	var ap Apportioner
	f := func(raw []uint16, totalRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		total := int(totalRaw%200) + 1
		var mass float64
		shares := make([]float64, len(raw))
		for i, r := range raw {
			shares[i] = float64(r)
			mass += shares[i]
		}
		if mass == 0 {
			return true
		}
		for i := range shares {
			shares[i] = shares[i] / mass * float64(total)
		}
		got := ap.LargestRemainder(shares, total)
		sum := 0
		for i, g := range got {
			if g < 0 {
				return false
			}
			if shares[i] == 0 && g != 0 {
				return false
			}
			if math.Abs(float64(g)-shares[i]) >= 1+1e-9 {
				return false
			}
			sum += g
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWithUnscheduledTasksAndTotalWeight(t *testing.T) {
	a := mkJob(t, 0, 2, 1, 5)
	b := mkJob(t, 1, 3, 1, 5)
	// Exhaust a's unscheduled pool.
	mt := a.Tasks[0]
	if err := a.MarkLaunched(mt, 0); err != nil {
		t.Fatal(err)
	}
	got := WithUnscheduledTasks([]*job.Job{a, b})
	if len(got) != 1 || got[0] != b {
		t.Fatalf("filter = %v", got)
	}
	if w := TotalWeight([]*job.Job{a, b}); w != 5 {
		t.Fatalf("total weight = %v, want 5", w)
	}
}

// fillStep is one LaunchSingles call of TestLaunchSingles and what it must
// launch: the first maps and reduces of the job's AppendUnscheduled order
// just before the call.
type fillStep struct {
	limit         int
	gate          bool
	maps, reduces int
	free          bool
}

// stepScheduler runs its steps on the first Schedule call and then
// launches first copies until the run drains.
type stepScheduler struct {
	t     *testing.T
	steps []fillStep
	job   *job.Job
	tasks []*job.Task
}

func (s *stepScheduler) Name() string { return "steps" }

func (s *stepScheduler) Schedule(ctx *cluster.Context) {
	if s.job == nil {
		s.job = ctx.AliveJobs()[0]
		for i, st := range s.steps {
			s.step(ctx, i, st)
		}
	}
	s.tasks, _ = LaunchFirstCopies(ctx, ctx.AliveJobs(), s.tasks)
}

func (s *stepScheduler) step(ctx *cluster.Context, i int, st fillStep) {
	t, j := s.t, s.job
	maps := j.AppendUnscheduled(nil, job.PhaseMap)
	reduces := j.AppendUnscheduled(nil, job.PhaseReduce)
	busy := ctx.Machines() - ctx.FreeMachines()
	var free bool
	if s.tasks, free = LaunchSingles(ctx, j, st.limit, st.gate, s.tasks); free != st.free {
		t.Errorf("step %d: returned %v, want %v", i, free, st.free)
	}
	for k, task := range maps {
		if got, want := task.State == job.TaskRunning, k < st.maps; got != want {
			t.Errorf("step %d: map %d of %d (%v) launched %v, want %v", i, k, len(maps), task.ID, got, want)
		}
	}
	for k, task := range reduces {
		if got, want := task.State == job.TaskRunning, k < st.reduces; got != want {
			t.Errorf("step %d: reduce %d of %d (%v) launched %v, want %v", i, k, len(reduces), task.ID, got, want)
		}
	}
	if got := ctx.Machines() - ctx.FreeMachines() - busy; got != st.maps+st.reduces {
		t.Errorf("step %d: took %d machines, want %d", i, got, st.maps+st.reduces)
	}
}

// TestLaunchSingles drives LaunchSingles on a job of 4 maps and 2 reduces,
// each 4 slots long, on its arrival slot, so the map phase is open
// throughout.
func TestLaunchSingles(t *testing.T) {
	d, err := dist.NewDeterministic(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := job.Spec{Weight: 1, MapTasks: 4, ReduceTask: 2, MapDist: d, ReduceDist: d}
	all := math.MaxInt
	cases := []struct {
		name     string
		machines int
		steps    []fillStep
	}{
		{"limit caps the launches", 10, []fillStep{{3, false, 3, 0, true}}},
		// Launching map 0 moves map 3 to the head of the unscheduled list,
		// so the second call must take maps 3 and 1, not 1 and 2.
		{"order follows AppendUnscheduled", 10, []fillStep{{1, false, 1, 0, true}, {2, false, 2, 0, true}}},
		{"reduces wait while the map phase is open", 10, []fillStep{{all, false, 4, 0, true}}},
		{"gate launches reduces as gated copies", 10, []fillStep{{all, true, 4, 2, true}}},
		{"limit counts both phases", 10, []fillStep{{5, true, 4, 1, true}}},
		{"false once no machine is free", 3, []fillStep{{all, true, 3, 0, false}}},
		{"false when the last machine goes", 6, []fillStep{{all, true, 4, 2, false}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &stepScheduler{t: t, steps: tc.steps}
			eng, err := cluster.New(cluster.Config{Machines: tc.machines, Seed: 1, Loop: cluster.LoopNaive}, s, []job.Spec{spec})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			// A reduce launched with the map phase open holds its machine
			// from launch but runs only after the last map finishes.
			for _, r := range s.job.Tasks[spec.MapTasks:] {
				if r.LaunchSlot == 0 && r.FinishSlot != 8 {
					t.Errorf("gated reduce %v finished at slot %d, want 8", r.ID, r.FinishSlot)
				}
			}
		})
	}
}
