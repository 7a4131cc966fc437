// Package job models two-phase MapReduce jobs: sets of map and reduce tasks
// with Map→Reduce precedence, per-phase workload statistics, and the
// effective-workload quantities the paper's schedulers are built on
// (Equations 2–4 of Xu & Lau, ICDCS 2015).
package job

import (
	"errors"
	"fmt"

	"mrclone/internal/dist"
)

// Phase identifies the Map or Reduce phase of a job.
type Phase int

// Phases of a MapReduce job.
const (
	PhaseMap Phase = iota + 1
	PhaseReduce
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseMap:
		return "map"
	case PhaseReduce:
		return "reduce"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// ErrBadSpec is returned when a job specification is invalid.
var ErrBadSpec = errors.New("job: invalid specification")

// Spec is the static description of a job as it appears in a trace. The
// duration distributions are the ground truth used by the simulation engine;
// schedulers may only consult the first two moments (the paper's information
// model), which Spec exposes via PhaseStats.
type Spec struct {
	ID         int
	Arrival    int64   // arrival slot a_i
	Weight     float64 // w_i > 0; trace priority is used as the weight
	MapTasks   int     // m_i >= 0
	ReduceTask int     // r_i >= 0 (at least one phase must be non-empty)
	MapDist    dist.Distribution
	ReduceDist dist.Distribution
}

// Validate checks structural invariants of the spec.
func (s Spec) Validate() error {
	switch {
	case s.Weight <= 0:
		return fmt.Errorf("%w: job %d weight %v", ErrBadSpec, s.ID, s.Weight)
	case s.MapTasks < 0 || s.ReduceTask < 0:
		return fmt.Errorf("%w: job %d negative task counts (%d map, %d reduce)",
			ErrBadSpec, s.ID, s.MapTasks, s.ReduceTask)
	case s.MapTasks == 0 && s.ReduceTask == 0:
		return fmt.Errorf("%w: job %d has no tasks", ErrBadSpec, s.ID)
	case s.MapTasks > 0 && s.MapDist == nil:
		return fmt.Errorf("%w: job %d has map tasks but no map distribution", ErrBadSpec, s.ID)
	case s.ReduceTask > 0 && s.ReduceDist == nil:
		return fmt.Errorf("%w: job %d has reduce tasks but no reduce distribution", ErrBadSpec, s.ID)
	case s.Arrival < 0:
		return fmt.Errorf("%w: job %d arrival %d", ErrBadSpec, s.ID, s.Arrival)
	}
	return nil
}

// Stats are the first two moments of task workload in one phase — the only
// workload information the paper's schedulers receive.
type Stats struct {
	Mean   float64 // E^c_i
	StdDev float64 // sigma^c_i
}

// PhaseStats returns the scheduler-visible workload statistics for a phase.
// For an empty phase it returns zeros.
func (s Spec) PhaseStats(p Phase) Stats {
	var d dist.Distribution
	switch p {
	case PhaseMap:
		if s.MapTasks == 0 {
			return Stats{}
		}
		d = s.MapDist
	case PhaseReduce:
		if s.ReduceTask == 0 {
			return Stats{}
		}
		d = s.ReduceDist
	default:
		return Stats{}
	}
	if d == nil {
		return Stats{}
	}
	return Stats{Mean: d.Mean(), StdDev: d.StdDev()}
}

// EffectiveWorkload computes phi_i (Equation 2):
//
//	phi_i = m_i (E^m_i + r sigma^m_i) + r_i (E^r_i + r sigma^r_i)
//
// where r is the deviation factor weighting the standard deviation.
func (s Spec) EffectiveWorkload(deviationFactor float64) float64 {
	m := s.PhaseStats(PhaseMap)
	r := s.PhaseStats(PhaseReduce)
	return float64(s.MapTasks)*(m.Mean+deviationFactor*m.StdDev) +
		float64(s.ReduceTask)*(r.Mean+deviationFactor*r.StdDev)
}

// TotalTasks returns m_i + r_i.
func (s Spec) TotalTasks() int { return s.MapTasks + s.ReduceTask }

// TaskID identifies one task within one job.
type TaskID struct {
	Job   int
	Phase Phase
	Index int // 0-based within the phase
}

// String implements fmt.Stringer.
func (id TaskID) String() string {
	return fmt.Sprintf("J%d/%v/%d", id.Job, id.Phase, id.Index)
}

// TaskState is the lifecycle of a task.
type TaskState int

// Task lifecycle states. A task is Unscheduled until its first copy launches
// (the paper's "unscheduled" pool), Running while at least one copy is live,
// and Done when its earliest copy completes.
const (
	TaskUnscheduled TaskState = iota + 1
	TaskRunning
	TaskDone
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case TaskUnscheduled:
		return "unscheduled"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// Task is the runtime state of a single task.
type Task struct {
	ID          TaskID
	State       TaskState
	Copies      int   // live copies currently occupying machines
	LaunchSlot  int64 // slot of first copy launch (-1 if unscheduled)
	FinishSlot  int64 // slot of completion (-1 if not done)
	TotalCopies int   // copies ever launched (for accounting)

	// pendingPos / runningPos index this task inside its job's pending and
	// running lists (-1 when absent), giving O(1) launch/done transitions.
	pendingPos int
	runningPos int

	// Runtime is an opaque slot reserved for the simulation engine's
	// per-task bookkeeping (it holds the task's calendar entry while copies
	// are live). Schedulers and other packages must not read or write it.
	Runtime any
}

// Span is a running task's entry in its phase's progress view: the slots at
// which the task's only copy started its countdown and will finish. The view
// covers a task with exactly one copy, once that copy is active; a task with
// several copies, or with only a gated one, has an entry with Start < 0,
// and its progress is read through cluster.Context.BestProgress instead.
//
// A scheduler reads from an entry what a progress report of the copy gives:
// its start, Elapsed and Fraction, never its finish slot by itself.
type Span struct {
	Start, Finish int64
}

// Covered reports whether the entry describes the task's only, active copy.
func (s Span) Covered() bool { return s.Start >= 0 }

// Elapsed returns the slots the copy has run by slot now.
func (s Span) Elapsed(now int64) int64 { return now - s.Start }

// Fraction returns the completed fraction of the copy after elapsed slots,
// as cluster.Context.BestProgress reports it: elapsed over the copy's
// duration, at most 1.
func (s Span) Fraction(elapsed int64) float64 {
	frac := float64(elapsed) / float64(s.Finish-s.Start)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Job is the runtime state of a job inside the cluster engine.
type Job struct {
	Spec Spec

	Tasks []*Task // map tasks first, then reduce tasks

	pending    [2][]*Task // per-phase unscheduled tasks (order not stable)
	running    [2][]*Task // per-phase tasks with at least one live copy
	spans      [2][]Span  // per-phase progress view, parallel to running
	unfinished [2]int     // per-phase count of not-Done tasks
	stats      [2]Stats   // cached per-phase workload moments (hot path)
	changes    uint64     // bumped by every copy launch, copy stop and task completion

	RunningCopies int   // sigma_i(l): machines currently running this job's copies
	FinishSlot    int64 // -1 until the job completes
}

// New validates spec and materializes its runtime state on memory of its
// own: Init over freshly allocated task records and lists, with the phase
// moments computed from the spec.
func New(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.TotalTasks()
	j := new(Job)
	j.Init(spec, spec.PhaseStats(PhaseMap), spec.PhaseStats(PhaseReduce),
		make([]Task, n), make([]*Task, 3*n), make([]Span, n))
	return j, nil
}

// Init makes j the runtime state of a newly arrived job of spec, in place and
// without allocating. With n = spec.TotalTasks(), the task records are
// tasks[:n], the Tasks, pending and running lists are carved from
// lists[:3n] and the progress views from spans[:n]. Every field of j and of
// those records is overwritten, or written before it is read, so a
// simulation engine can run job after job on the same memory. mapStats and
// reduceStats must be spec.PhaseStats of the two phases; a caller that runs
// one spec many times computes them once. Init does not validate spec.
func (j *Job) Init(spec Spec, mapStats, reduceStats Stats, tasks []Task, lists []*Task, spans []Span) {
	total := spec.TotalTasks()
	m := spec.MapTasks
	tasks = tasks[:total]
	*j = Job{
		Spec:       spec,
		Tasks:      lists[:total:total],
		FinishSlot: -1,
	}
	pend := lists[total : 2*total : 2*total]
	runb := lists[2*total : 3*total : 3*total]
	j.pending[0], j.pending[1] = pend[:m:m], pend[m:]
	j.running[0], j.running[1] = runb[:0:m], runb[m:m:total]
	spans = spans[:total:total]
	j.spans[0], j.spans[1] = spans[:0:m], spans[m:m:total]
	for i := range tasks {
		t := &tasks[i]
		phase, index := PhaseMap, i
		if i >= m {
			phase, index = PhaseReduce, i-m
		}
		*t = Task{
			ID:         TaskID{Job: spec.ID, Phase: phase, Index: index},
			State:      TaskUnscheduled,
			LaunchSlot: -1,
			FinishSlot: -1,
			pendingPos: index,
			runningPos: -1,
		}
		j.Tasks[i] = t
		pend[i] = t
	}
	j.unfinished[phaseIdx(PhaseMap)] = spec.MapTasks
	j.unfinished[phaseIdx(PhaseReduce)] = spec.ReduceTask
	// Schedulers evaluate priorities every slot, and distribution moments
	// can be expensive (numerical integrals), so the job keeps them.
	j.stats[phaseIdx(PhaseMap)] = mapStats
	j.stats[phaseIdx(PhaseReduce)] = reduceStats
}

// PhaseStats returns the cached scheduler-visible workload statistics.
func (j *Job) PhaseStats(p Phase) Stats { return j.stats[phaseIdx(p)] }

// EffectiveWorkload is phi_i (Equation 2) over the cached moments.
func (j *Job) EffectiveWorkload(deviationFactor float64) float64 {
	m := j.stats[phaseIdx(PhaseMap)]
	r := j.stats[phaseIdx(PhaseReduce)]
	return float64(j.Spec.MapTasks)*(m.Mean+deviationFactor*m.StdDev) +
		float64(j.Spec.ReduceTask)*(r.Mean+deviationFactor*r.StdDev)
}

// removePending drops t from its phase's pending list in O(1) by swapping
// the last element into its slot.
func (j *Job) removePending(t *Task) {
	idx := phaseIdx(t.ID.Phase)
	pos := t.pendingPos
	if pos < 0 {
		return
	}
	list := j.pending[idx]
	last := len(list) - 1
	list[pos] = list[last]
	list[pos].pendingPos = pos
	list[last] = nil
	j.pending[idx] = list[:last]
	t.pendingPos = -1
}

// removeRunning drops t from its phase's running list in O(1), moving the
// progress view's entries the same way.
func (j *Job) removeRunning(t *Task) {
	idx := phaseIdx(t.ID.Phase)
	pos := t.runningPos
	if pos < 0 {
		return
	}
	list, view := j.running[idx], j.spans[idx]
	last := len(list) - 1
	list[pos], view[pos] = list[last], view[last]
	list[pos].runningPos = pos
	list[last] = nil
	j.running[idx], j.spans[idx] = list[:last], view[:last]
	t.runningPos = -1
}

func phaseIdx(p Phase) int {
	if p == PhaseMap {
		return 0
	}
	return 1
}

// Task returns the runtime task for an ID, or nil if out of range.
func (j *Job) Task(id TaskID) *Task {
	if id.Job != j.Spec.ID {
		return nil
	}
	var idx int
	switch id.Phase {
	case PhaseMap:
		if id.Index < 0 || id.Index >= j.Spec.MapTasks {
			return nil
		}
		idx = id.Index
	case PhaseReduce:
		if id.Index < 0 || id.Index >= j.Spec.ReduceTask {
			return nil
		}
		idx = j.Spec.MapTasks + id.Index
	default:
		return nil
	}
	return j.Tasks[idx]
}

// Unscheduled returns the number of tasks of phase p that have never been
// launched: m_i(l) or r_i(l) in the paper's notation.
func (j *Job) Unscheduled(p Phase) int { return len(j.pending[phaseIdx(p)]) }

// Unfinished returns the number of tasks of phase p not yet done.
func (j *Job) Unfinished(p Phase) int { return j.unfinished[phaseIdx(p)] }

// MapPhaseDone reports whether every map task has completed, which gates the
// Reduce phase (constraint 1g).
func (j *Job) MapPhaseDone() bool { return j.unfinished[phaseIdx(PhaseMap)] == 0 }

// Done reports whether the job has completed all tasks.
func (j *Job) Done() bool {
	return j.unfinished[phaseIdx(PhaseMap)] == 0 && j.unfinished[phaseIdx(PhaseReduce)] == 0
}

// RemainingEffectiveWorkload computes U_i(l) (Equation 4) over the
// *unscheduled* task counts:
//
//	U_i(l) = m_i(l)(E^m_i + r sigma^m_i) + r_i(l)(E^r_i + r sigma^r_i).
func (j *Job) RemainingEffectiveWorkload(deviationFactor float64) float64 {
	m := j.stats[phaseIdx(PhaseMap)]
	r := j.stats[phaseIdx(PhaseReduce)]
	return float64(j.Unscheduled(PhaseMap))*(m.Mean+deviationFactor*m.StdDev) +
		float64(j.Unscheduled(PhaseReduce))*(r.Mean+deviationFactor*r.StdDev)
}

// Priority returns w_i / U_i(l), the paper's online priority. Jobs whose
// remaining effective workload is zero (all tasks scheduled but not finished)
// get +Inf priority so they are never starved of their running copies.
func (j *Job) Priority(deviationFactor float64) float64 {
	u := j.RemainingEffectiveWorkload(deviationFactor)
	if u <= 0 {
		return inf
	}
	return j.Spec.Weight / u
}

const inf = 1e308 // large finite sentinel; avoids NaN arithmetic downstream

// MarkLaunched transitions a task out of the unscheduled pool on its first
// copy launch and counts the new copy. It returns an error if the task is
// already done.
func (j *Job) MarkLaunched(t *Task, slot int64) error {
	if t.State == TaskDone {
		return fmt.Errorf("job %d: launching copy of finished task %v", j.Spec.ID, t.ID)
	}
	if t.State == TaskUnscheduled {
		t.State = TaskRunning
		t.LaunchSlot = slot
		j.removePending(t)
		idx := phaseIdx(t.ID.Phase)
		t.runningPos = len(j.running[idx])
		j.running[idx] = append(j.running[idx], t)
		j.spans[idx] = append(j.spans[idx], Span{Start: -1})
	}
	t.Copies++
	t.TotalCopies++
	j.RunningCopies++
	j.changes++
	return nil
}

// MarkCopyStopped decrements the live-copy count for a task whose copy was
// killed or finished.
func (j *Job) MarkCopyStopped(t *Task) {
	if t.Copies > 0 {
		t.Copies--
	}
	if j.RunningCopies > 0 {
		j.RunningCopies--
	}
	j.changes++
}

// MarkDone completes a task at the given slot. It is a no-op if already done.
func (j *Job) MarkDone(t *Task, slot int64) {
	if t.State == TaskDone {
		return
	}
	if t.State == TaskUnscheduled {
		// Defensive: a task can only finish after being launched.
		j.removePending(t)
	}
	j.removeRunning(t)
	t.State = TaskDone
	t.FinishSlot = slot
	j.unfinished[phaseIdx(t.ID.Phase)]--
	if j.Done() {
		j.FinishSlot = slot
	}
	j.changes++
}

// Changes returns a count that grows on every MarkLaunched, MarkCopyStopped
// and MarkDone of the job. Two equal reads mean that in between no copy of
// the job launched or stopped and none of its tasks completed, so its
// running tasks and their live copies are the same.
func (j *Job) Changes() uint64 { return j.changes }

// UnscheduledTasks returns the tasks of phase p still in the unscheduled
// pool. The slice is freshly allocated (nil when empty); element order is an
// implementation detail — callers needing randomness shuffle explicitly.
// Schedulers on the simulation hot path should prefer AppendUnscheduled
// with a reused scratch buffer.
func (j *Job) UnscheduledTasks(p Phase) []*Task {
	list := j.pending[phaseIdx(p)]
	if len(list) == 0 {
		return nil
	}
	out := make([]*Task, len(list))
	copy(out, list)
	return out
}

// AppendUnscheduled appends the tasks of phase p still in the unscheduled
// pool to dst and returns the extended slice: the allocation-free variant of
// UnscheduledTasks for scheduler scratch buffers. The appended snapshot
// remains valid while tasks launch, in the same order UnscheduledTasks
// would have returned.
func (j *Job) AppendUnscheduled(dst []*Task, p Phase) []*Task {
	return append(dst, j.pending[phaseIdx(p)]...)
}

// RunningTasks returns the tasks of phase p with at least one live copy.
// The slice is freshly allocated (nil when empty). Hot paths should prefer
// AppendRunning with a reused scratch buffer.
func (j *Job) RunningTasks(p Phase) []*Task {
	list := j.running[phaseIdx(p)]
	if len(list) == 0 {
		return nil
	}
	out := make([]*Task, len(list))
	copy(out, list)
	return out
}

// AppendRunning appends the tasks of phase p with at least one live copy to
// dst and returns the extended slice: the allocation-free variant of
// RunningTasks for scheduler scratch buffers.
func (j *Job) AppendRunning(dst []*Task, p Phase) []*Task {
	return append(dst, j.running[phaseIdx(p)]...)
}

// RunningSpans returns the progress view of phase p: entry i describes the
// i-th task AppendRunning appends. The slice is the job's own and read-only;
// it is valid until the job's next copy launch or task completion.
func (j *Job) RunningSpans(p Phase) []Span { return j.spans[phaseIdx(p)] }

// SetSpan sets running task t's progress-view entry; an entry with
// Start < 0 uncovers the task. Only the simulation engine calls it, when a
// task's only copy starts its countdown and when a task gains a second copy;
// a task joins the running list uncovered.
func (j *Job) SetSpan(t *Task, s Span) {
	j.spans[phaseIdx(t.ID.Phase)][t.runningPos] = s
}

// Flowtime returns f_i - a_i, or -1 if the job has not finished.
func (j *Job) Flowtime() int64 {
	if j.FinishSlot < 0 {
		return -1
	}
	return j.FinishSlot - j.Spec.Arrival
}

// AccumulatedHigherPriorityWorkload computes f^s_i (Equation 3) for a set of
// specs under the offline priority w/phi: the sum of effective workloads of
// all jobs whose priority is at least that of spec i (including itself).
func AccumulatedHigherPriorityWorkload(specs []Spec, i int, deviationFactor float64) float64 {
	pi := specs[i].Weight / specs[i].EffectiveWorkload(deviationFactor)
	var sum float64
	for _, s := range specs {
		phi := s.EffectiveWorkload(deviationFactor)
		if phi <= 0 {
			continue
		}
		if s.Weight/phi >= pi {
			sum += phi
		}
	}
	return sum
}
