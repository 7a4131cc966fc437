// Package cluster implements the time-slotted MapReduce cluster simulator of
// Section III of Xu & Lau (ICDCS 2015): M identical unit-speed machines, one
// task copy per machine per slot, Map→Reduce precedence within each job, and
// task cloning where a task completes as soon as its earliest copy does.
//
// Cloning speedup is emergent: every copy draws an independent workload from
// the task's duration distribution and the task takes the minimum, exactly as
// in the paper's trace-driven evaluation ("the workload for this clone is
// just drawn independently from the estimated distribution").
//
// # Workloads and storage
//
// An engine runs over a prepared Workload: the job specs validated, checked
// for unique IDs, sorted by arrival and given their phase moments, once for
// any number of runs, and shared read-only by engines on any goroutine. It
// runs in a Storage its caller owns, from which it takes its jobs, task
// records and lists, task-run freelist, calendar, alive set and scratch
// buffers, so a caller that runs many engines one after another, as a
// matrix runner's worker does, allocates them once. A Storage belongs to
// one goroutine and serves one engine at a time. A Result never references
// the Storage it was computed in and does not depend on what ran in it
// before; TestStorageReuseIsInvisible pins that. New does both steps, on a
// Storage of its own.
//
// # Execution loops
//
// The engine has one production loop, driven by a priority-heap calendar of
// copy completions plus an arrival cursor. Between an arrival and the next
// completion the observable state cannot change, so the loop visits only the
// slots at which the scheduler might act and accounts the occupancy of the
// slots in between in bulk; quiet stretches cost O(1) regardless of length.
// After each visit it moves to:
//
//   - the next slot, when the scheduler launched a copy or drew randomness;
//   - otherwise the next arrival or completion, or the earlier slot the
//     scheduler asked for with Context.WakeAt. Mantri and LATE work out that
//     slot from the progress reports they scan, and keep each job phase's
//     slot between visits, so a visit rescans only the phases whose job
//     changed or whose slot came due. A scheduler that is neither
//     EventDriven nor calls WakeAt is visited on the next slot, so
//     time-based rules observe every tick.
//
// An EventDriven scheduler is not invoked at all while no launchable work
// remains. The naive slot-by-slot reference loop (Config.Loop = LoopNaive)
// invokes the scheduler on every slot and ignores both EventDriven and
// WakeAt; the equivalence harness in equivalence_test.go pins that the two
// loops produce identical results for every registered scheduler.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/rng"
)

// Scheduler is invoked once per time slot to assign free machines to task
// copies. Implementations live in internal/sched/...
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Schedule may call ctx.Launch until ctx.FreeMachines() reaches zero.
	Schedule(ctx *Context)
}

// EventDriven marks schedulers whose Schedule is a pure function of the
// observable cluster state — alive jobs' task states, free-machine count,
// cluster size — so their decisions can only change when a completion or an
// arrival changes that state. The engine runs such schedulers on the event
// calendar: slots between events are never materialized, and the scheduler
// is not invoked at all while no alive job has an unscheduled task it could
// launch (see GatedLauncher for the one exception).
//
// Implementations therefore promise, in addition to state-purity:
//
//   - Schedule launches copies of *unscheduled* tasks only;
//   - Schedule draws from ctx.Rand() only on invocations that launch at
//     least one copy (randomness is used to pick among launch candidates).
//
// Schedulers with time-based triggers — polling cadences keyed on Now(),
// progress-age thresholds as in Mantri or LATE, or any internal mutable
// state — must NOT implement this interface (or must return false): they can
// legitimately launch a copy on a slot where nothing else happened. They
// may instead report their next trigger with Context.WakeAt, as Mantri and
// LATE do for their speculative backups.
type EventDriven interface {
	// EventDriven reports whether event-calendar execution is safe.
	EventDriven() bool
}

// GatedLauncher marks schedulers that may launch gated reduce copies —
// copies of reduce tasks whose job's map phase has not completed (the
// paper's constraint 1g, used by the offline Algorithm 1). The event loop
// counts unscheduled reduce tasks behind a closed map gate as launchable
// work only for schedulers implementing this interface; all others are
// skipped while only gated work remains.
type GatedLauncher interface {
	// LaunchesGatedCopies reports whether Schedule may gate-launch reduces.
	LaunchesGatedCopies() bool
}

// LoopMode selects the engine's execution loop.
type LoopMode int

const (
	// LoopAuto (the default) is the production loop: the event calendar
	// plus the scheduler's wake hints.
	LoopAuto LoopMode = iota
	// LoopNaive forces the naive slot-by-slot reference loop with no
	// acceleration at all.
	LoopNaive
)

// String implements fmt.Stringer.
func (m LoopMode) String() string {
	switch m {
	case LoopAuto:
		return "auto"
	case LoopNaive:
		return "naive"
	default:
		return fmt.Sprintf("LoopMode(%d)", int(m))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Machines is M, the number of machines in the cluster. Required > 0.
	Machines int
	// Speed is the machine speed for resource-augmentation experiments
	// (Definition 1). A copy with workload p takes ceil(p/Speed) slots.
	// Zero means 1.0 (unit speed).
	Speed float64
	// MaxSlots aborts a run that exceeds this many slots (safety net against
	// scheduler starvation bugs). Zero means a generous default.
	MaxSlots int64
	// Seed drives all stochastic choices (copy workloads, scheduler
	// tie-breaking). Runs with equal seeds and schedulers are identical.
	Seed int64
	// Loop selects the execution loop; LoopAuto is correct for production
	// runs. LoopNaive exists so tests and validation runs can compare the
	// production loop against the reference.
	Loop LoopMode
}

const defaultMaxSlots = 50_000_000

// maxMaxSlots bounds Config.MaxSlots so slot arithmetic (finish = slot +
// duration, with duration clamped to MaxSlots+1) cannot overflow int64.
const maxMaxSlots = int64(1) << 61

// Errors reported by the engine.
var (
	ErrNoMachines   = errors.New("cluster: config needs at least one machine")
	ErrNoScheduler  = errors.New("cluster: nil scheduler")
	ErrSlotOverflow = errors.New("cluster: exceeded MaxSlots without finishing all jobs")
	ErrNoFreeSlots  = errors.New("cluster: launch exceeds free machines")
	ErrGateViolated = errors.New("cluster: reduce copy launched before map phase done without gating")
	// ErrNonFiniteWorkload reports a duration distribution that produced a
	// NaN or infinite sample. Converting such a value to slots would be
	// platform-defined (out-of-range float→int conversion), so the engine
	// fails the run instead of guessing.
	ErrNonFiniteWorkload = errors.New("cluster: duration distribution produced a non-finite workload")
)

// copyRecord is one running (or gated) copy of a task occupying a machine.
// It is a pointer-free value stored inside its taskRun's copies slice (the
// owning task and job live on the taskRun), so the copy arena is invisible
// to the garbage collector's scan and write-barrier machinery.
type copyRecord struct {
	seq      int64 // launch sequence, for deterministic ordering
	workload float64
	finish   int64 // completion slot; -1 while gated
	started  int64 // slot at which the countdown began; -1 while gated
}

// JobRecord is the per-job outcome of a run.
type JobRecord struct {
	ID          int
	Weight      float64
	Arrival     int64
	Finish      int64
	Flowtime    int64
	Tasks       int
	TotalCopies int // copies ever launched, including clones
}

// Result summarizes a completed simulation.
type Result struct {
	Scheduler     string
	Machines      int
	Speed         float64
	Slots         int64 // slot at which the last job finished (0 if no jobs)
	Jobs          []JobRecord
	TotalCopies   int64 // all copies launched
	CloneCopies   int64 // copies beyond the first per task
	MachineSlots  int64 // busy machine-slots consumed (occupancy integral)
	ArrivedJobs   int
	FinishedJobs  int
	WastedCopyWrk float64 // workload of killed copies (cloning overhead)
}

// Engine runs one simulation.
type Engine struct {
	cfg           Config
	sched         Scheduler
	eventDriven   bool // sched implements EventDriven and opted in
	gatedLaunches bool // sched implements GatedLauncher and opted in

	slot int64
	free int
	seq  int64

	// w is the job set, shared read-only; its first arrived jobs have been
	// admitted. The runtime state of w's jobs lives in memory taken from
	// the engine's Storage: job k of w is jobs[k], its task records start
	// at tasks[w.jobs[k].firstTask] and its three task lists at
	// lists[3*w.jobs[k].firstTask].
	w       *Workload
	arrived int
	jobs    []job.Job
	tasks   []job.Task
	lists   []*job.Task

	// alive holds arrived-and-unfinished jobs in arrival order. A retired
	// job stays in place, as a hole that iteration skips (job.Done), until
	// holes outnumber live entries and the slice is compacted, so retiring
	// is amortized O(1) while iteration order stays arrival order.
	alive      []*job.Job
	aliveCount int

	cal calendar

	// Launchable-work counters: unscheduled tasks across alive jobs, split
	// by what the gate allows. The event loop skips scheduler invocations
	// while every counter relevant to the scheduler is zero — by the
	// EventDriven contract such an invocation could neither launch nor draw
	// randomness.
	unschedMap   int // unscheduled map tasks
	unschedOpen  int // unscheduled reduce tasks with the map gate open
	unschedGated int // unscheduled reduce tasks behind a closed map gate

	running int // tasks with at least one live copy (see SpeculativeCopies)

	durations *rng.Source // stream for copy workload sampling
	schedRand *rng.Source // stream handed to the scheduler
	randUsed  bool        // scheduler touched schedRand this slot

	// Wake hint of the current Schedule call (see Context.WakeAt).
	wake   int64
	hinted bool

	ctx Context // reused scheduler view (avoids a per-slot allocation)
	err error   // first fatal error raised inside a scheduler callback

	// Scratch and pooling for the hot paths: the AliveJobs backing array,
	// the batched workload-sample buffer, and a freelist of task-run records
	// (each carrying its grown copies backing) to keep the per-launch path
	// allocation-free in steady state. Like the job state, they come from
	// the engine's Storage and outlive the run.
	aliveScratch []*job.Job
	sampleBuf    []float64
	runFree      []*taskRun

	busy         int64
	totalCopies  int64
	cloneCopies  int64
	wastedWrk    float64
	finishedJobs int
	lastFinish   int64 // slot of the latest job completion
}

// New prepares an engine over the given job specs: NewWorkload, then
// NewEngine on a Storage of its own. Specs are copied and sorted by arrival
// time; they must each validate.
func New(cfg Config, sched Scheduler, specs []job.Spec) (*Engine, error) {
	w, err := NewWorkload(specs)
	if err != nil {
		return nil, err
	}
	return NewEngine(cfg, sched, w, new(Storage))
}

// NewEngine prepares an engine that runs w in st's memory. The engine
// replaces the one st held before, which must not be used again (see
// Storage); w is only read.
func NewEngine(cfg Config, sched Scheduler, w *Workload, st *Storage) (*Engine, error) {
	if cfg.Machines <= 0 {
		return nil, ErrNoMachines
	}
	if sched == nil {
		return nil, ErrNoScheduler
	}
	if cfg.Speed == 0 {
		cfg.Speed = 1
	}
	if cfg.Speed < 0 || math.IsNaN(cfg.Speed) {
		return nil, fmt.Errorf("cluster: invalid speed %v", cfg.Speed)
	}
	if cfg.MaxSlots == 0 {
		cfg.MaxSlots = defaultMaxSlots
	}
	if cfg.MaxSlots < 0 || cfg.MaxSlots > maxMaxSlots {
		return nil, fmt.Errorf("cluster: MaxSlots %d outside (0, 2^61]", cfg.MaxSlots)
	}
	ed, _ := sched.(EventDriven)
	gl, _ := sched.(GatedLauncher)
	e := &st.e
	// Every field not named here starts at its zero value. Jobs and task
	// records are overwritten as jobs arrive (job.Init), and released task
	// runs were reset by releaseRun.
	*e = Engine{
		cfg:           cfg,
		sched:         sched,
		eventDriven:   ed != nil && ed.EventDriven(),
		gatedLaunches: gl != nil && gl.LaunchesGatedCopies(),
		free:          cfg.Machines,
		w:             w,
		jobs:          fit(e.jobs, len(w.jobs)),
		tasks:         fit(e.tasks, w.tasks),
		lists:         fit(e.lists, 3*w.tasks),
		alive:         e.alive[:0],
		cal:           calendar{a: e.cal.a[:0]},
		durations:     rng.Derive(cfg.Seed, "durations"),
		schedRand:     rng.Derive(cfg.Seed, "scheduler"),
		aliveScratch:  e.aliveScratch[:0],
		sampleBuf:     e.sampleBuf,
		runFree:       e.runFree,
	}
	e.ctx = Context{engine: e}
	return e, nil
}

// Run executes the simulation to completion and returns the result. The
// execution loop is selected by Config.Loop (see the package comment); both
// loops produce the identical Result for a given scheduler, seed, and spec
// set.
func (e *Engine) Run() (*Result, error) {
	if e.cfg.Loop == LoopNaive {
		return e.runNaive()
	}
	return e.runEvents()
}

// runEvents is the production loop: the calendar of copy completions and the
// arrival cursor give the next slot at which the observable state changes,
// the scheduler's wake hint the next slot at which it might act on its own.
// The loop visits only those slots, plus the slot after any invocation that
// launched or drew randomness, and accounts all intervening slots in bulk.
func (e *Engine) runEvents() (*Result, error) {
	total := len(e.w.jobs)
	for e.finishedJobs < total {
		if e.slot > e.cfg.MaxSlots {
			return nil, e.overflow()
		}
		e.admitArrivals()
		e.processCompletions()
		wake := int64(math.MaxInt64) // nothing to do before the next event
		if e.free > 0 && e.aliveCount > 0 && (!e.eventDriven || e.launchableWork()) {
			launchedBefore := e.totalCopies
			e.randUsed, e.hinted = false, false
			e.sched.Schedule(&e.ctx)
			if e.err != nil {
				return nil, e.err
			}
			switch {
			case e.totalCopies != launchedBefore || e.randUsed:
				wake = e.slot + 1
			case e.hinted:
				wake = max(e.wake, e.slot+1)
			case !e.eventDriven:
				wake = e.slot + 1 // time-based rules without a hint see every slot
			}
		}
		e.busy += int64(e.cfg.Machines - e.free)
		next := e.slot + 1
		if e.finishedJobs < total && wake > next {
			if t, ok := e.nextEventSlot(); ok && t < wake {
				wake = t
			}
			switch {
			case wake > e.cfg.MaxSlots:
				// Nothing can happen within the horizon — for example only
				// gated copies are left — so let the overflow guard report
				// the run now instead of stepping to it.
				next = e.cfg.MaxSlots + 1
			case wake > next:
				// Slots next..wake-1 are quiet and the busy level cannot
				// change between events: account their occupancy in bulk.
				e.busy += int64(e.cfg.Machines-e.free) * (wake - next)
				next = wake
			}
		}
		e.slot = next
	}
	return e.result(), nil
}

// runNaive is the reference loop: it steps every slot and invokes the
// scheduler on each one with a free machine and an alive job, ignoring
// EventDriven and wake hints. Tests compare the production loop against it.
func (e *Engine) runNaive() (*Result, error) {
	total := len(e.w.jobs)
	for e.finishedJobs < total {
		if e.slot > e.cfg.MaxSlots {
			return nil, e.overflow()
		}
		e.admitArrivals()
		e.processCompletions()
		if e.free > 0 && e.aliveCount > 0 {
			e.sched.Schedule(&e.ctx)
			if e.err != nil {
				return nil, e.err
			}
		}
		e.busy += int64(e.cfg.Machines - e.free)
		e.slot++
	}
	return e.result(), nil
}

// overflow reports a run that passed MaxSlots with jobs unfinished.
func (e *Engine) overflow() error {
	return fmt.Errorf("%w: slot %d, %d/%d jobs finished",
		ErrSlotOverflow, e.slot, e.finishedJobs, len(e.w.jobs))
}

// launchableWork reports whether any alive job has an unscheduled task the
// scheduler is permitted to launch right now.
func (e *Engine) launchableWork() bool {
	return e.unschedMap > 0 || e.unschedOpen > 0 ||
		(e.gatedLaunches && e.unschedGated > 0)
}

// nextEventSlot returns the earliest future slot at which the cluster state
// can change: the next pending arrival or the next live copy completion.
// ok is false when neither exists.
func (e *Engine) nextEventSlot() (int64, bool) {
	t, ok := int64(0), false
	if e.arrived < len(e.w.jobs) {
		t, ok = e.w.jobs[e.arrived].spec.Arrival, true
	}
	if tr := e.cal.peek(); tr != nil {
		if f := tr.bestFinish; !ok || f < t {
			t, ok = f, true
		}
	}
	return t, ok
}

// admitArrivals materializes jobs whose arrival slot has come, each on its
// own part of the engine's job, task and list memory.
func (e *Engine) admitArrivals() {
	for e.arrived < len(e.w.jobs) && e.w.jobs[e.arrived].spec.Arrival <= e.slot {
		wj := &e.w.jobs[e.arrived]
		j := &e.jobs[e.arrived]
		e.arrived++
		first, n := wj.firstTask, wj.spec.TotalTasks()
		j.Init(wj.spec, wj.mapStats, wj.reduceStats,
			e.tasks[first:first+n], e.lists[3*first:3*(first+n)])
		e.alive = append(e.alive, j)
		e.aliveCount++
		e.unschedMap += wj.spec.MapTasks
		if j.MapPhaseDone() { // no map tasks: the reduce gate starts open
			e.unschedOpen += wj.spec.ReduceTask
		} else {
			e.unschedGated += wj.spec.ReduceTask
		}
	}
}

// processCompletions completes every task whose earliest copy finishes at
// the current slot, in deterministic (finish, seq) order of those copies.
func (e *Engine) processCompletions() {
	for {
		tr := e.cal.peek()
		if tr == nil || tr.bestFinish > e.slot {
			return
		}
		e.cal.pop()
		e.completeTask(tr)
	}
}

// completeTask finishes tr's task at the current slot: the best copy wins,
// sibling copies are killed (their remaining workload is wasted cloning
// overhead), machines are freed, reduce gates open, finished jobs retire.
func (e *Engine) completeTask(tr *taskRun) {
	winner := int(tr.best)
	t := tr.task
	owner := tr.owner
	for i := range tr.copies {
		owner.MarkCopyStopped(t)
		e.free++
		if i == winner {
			continue
		}
		c := &tr.copies[i]
		if c.started >= 0 {
			done := float64(e.slot-c.started) * e.cfg.Speed
			if rem := c.workload - done; rem > 0 {
				e.wastedWrk += rem
			}
		} else {
			e.wastedWrk += c.workload
		}
	}
	t.Runtime = nil
	e.releaseRun(tr)
	owner.MarkDone(t, e.slot)
	e.running--

	if t.ID.Phase == job.PhaseMap && owner.MapPhaseDone() {
		// The map gate just opened: pending unscheduled reduces become
		// launchable and already-launched gated copies start their countdown.
		n := owner.Unscheduled(job.PhaseReduce)
		e.unschedGated -= n
		e.unschedOpen += n
		e.openGate(owner)
	}
	if owner.Done() {
		e.retireJob()
	}
}

// openGate starts the countdown of j's gated reduce copies. It runs once,
// when j's map phase completes, and until then every reduce copy of j was
// launched gated, so the copies to start are exactly those of j's running
// reduce tasks. Their order does not matter: the calendar orders tasks by
// their unique (finish, seq) keys.
func (e *Engine) openGate(j *job.Job) {
	for _, t := range j.Tasks[j.Spec.MapTasks:] {
		if t.State != job.TaskRunning {
			continue
		}
		tr := t.Runtime.(*taskRun)
		for idx := range tr.copies {
			c := &tr.copies[idx]
			c.started = e.slot
			c.finish = e.slot + e.durationSlots(c.workload)
			e.activate(tr, idx)
		}
	}
}

// activate enters the active copy tr.copies[idx] into the calendar: it
// becomes its task's best copy if it finishes before the current one (ties
// by launch sequence), pushing the task when this is its first active copy.
func (e *Engine) activate(tr *taskRun, idx int) {
	c := &tr.copies[idx]
	switch {
	case tr.best < 0:
		tr.best, tr.bestFinish, tr.bestSeq = int32(idx), c.finish, c.seq
		e.cal.push(tr)
	case c.finish < tr.bestFinish || (c.finish == tr.bestFinish && c.seq < tr.bestSeq):
		tr.best, tr.bestFinish, tr.bestSeq = int32(idx), c.finish, c.seq
		e.cal.decreased(tr)
	}
}

// retireJob counts a job that just finished. It stays in alive as a hole
// until holes outnumber live jobs; compacting then preserves arrival order.
func (e *Engine) retireJob() {
	e.aliveCount--
	if len(e.alive) >= 32 && e.aliveCount*2 < len(e.alive) {
		e.compactAlive()
	}
	e.finishedJobs++
	e.lastFinish = e.slot
}

// compactAlive rewrites alive without its finished jobs.
func (e *Engine) compactAlive() {
	live := e.alive[:0]
	for _, a := range e.alive {
		if !a.Done() {
			live = append(live, a)
		}
	}
	e.alive = live
}

// durationSlots converts a finite workload into occupied slots at the
// configured machine speed. Every copy takes at least one slot; durations
// beyond the MaxSlots horizon are clamped to MaxSlots+1, which cannot
// complete within any legal run and therefore trips the overflow guard
// instead of overflowing int64 slot arithmetic.
func (e *Engine) durationSlots(workload float64) int64 {
	f := math.Ceil(workload / e.cfg.Speed)
	if f < 1 {
		return 1
	}
	if f > float64(e.cfg.MaxSlots) {
		return e.cfg.MaxSlots + 1
	}
	return int64(f)
}

// launch starts n copies of task t owned by j. Reduce copies launched before
// the owner's map phase completes must set gated; they occupy machines
// immediately but progress only after the gate opens (constraint 1g).
//
// The n workloads are drawn in one batched call per launch — bit-identical
// to n successive Sample calls on the same stream — and validated before
// any engine state changes; a non-finite sample fails the run with
// ErrNonFiniteWorkload.
func (e *Engine) launch(j *job.Job, t *job.Task, n int, gated bool) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if n > e.free {
		return 0, fmt.Errorf("%w: want %d, free %d", ErrNoFreeSlots, n, e.free)
	}
	if t.ID.Phase == job.PhaseReduce && !j.MapPhaseDone() && !gated {
		return 0, ErrGateViolated
	}
	if t.ID.Phase == job.PhaseMap {
		gated = false // map tasks are never gated
	}
	if gated && j.MapPhaseDone() {
		gated = false // gate already open
	}
	if cap(e.sampleBuf) < n {
		e.sampleBuf = make([]float64, n+16)
	}
	buf := e.sampleBuf[:n]
	dist.SampleN(e.taskDist(j, t), buf, e.durations)
	for _, w := range buf {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, e.fail(fmt.Errorf("%w: task %v sampled %v", ErrNonFiniteWorkload, t.ID, w))
		}
	}
	wasUnscheduled := t.State == job.TaskUnscheduled
	launched := 0
	for i := 0; i < n; i++ {
		if err := j.MarkLaunched(t, e.slot); err != nil {
			return launched, err
		}
		tr, _ := t.Runtime.(*taskRun)
		if tr == nil {
			tr = e.newRun()
			tr.task, tr.owner = t, j
			t.Runtime = tr
		}
		idx := len(tr.copies)
		tr.copies = append(tr.copies, copyRecord{
			seq:      e.seq,
			workload: buf[i],
			started:  -1,
			finish:   -1,
		})
		e.seq++
		e.free--
		e.totalCopies++
		if t.TotalCopies > 1 {
			e.cloneCopies++
		}
		if !gated { // a gated copy starts in openGate
			c := &tr.copies[idx]
			c.started = e.slot
			c.finish = e.slot + e.durationSlots(c.workload)
			e.activate(tr, idx)
		}
		launched++
	}
	if wasUnscheduled && launched > 0 {
		e.running++
		switch {
		case t.ID.Phase == job.PhaseMap:
			e.unschedMap--
		case j.MapPhaseDone():
			e.unschedOpen--
		default:
			e.unschedGated--
		}
	}
	return launched, nil
}

// fail records the first fatal engine error so Run can surface it even when
// the scheduler swallows the Launch error, and returns err for the caller.
func (e *Engine) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return err
}

// newRun returns a recycled or fresh task-run record. Fresh records start
// with room for a handful of copies so the common clone counts never grow
// the slice (recycled records keep their grown backing).
func (e *Engine) newRun() *taskRun {
	if k := len(e.runFree) - 1; k >= 0 {
		tr := e.runFree[k]
		e.runFree[k] = nil
		e.runFree = e.runFree[:k]
		return tr
	}
	return &taskRun{pos: -1, best: -1, copies: make([]copyRecord, 0, 8)}
}

// releaseRun recycles a completed task's run record, keeping its grown
// copies backing (the elements are pointer-free, so truncating retains
// nothing the collector cares about).
func (e *Engine) releaseRun(tr *taskRun) {
	tr.copies = tr.copies[:0]
	tr.task, tr.owner = nil, nil
	tr.best = -1
	tr.pos = -1
	e.runFree = append(e.runFree, tr)
}

// taskDist returns the ground-truth duration distribution for t.
func (e *Engine) taskDist(j *job.Job, t *job.Task) dist.Distribution {
	if t.ID.Phase == job.PhaseMap {
		return j.Spec.MapDist
	}
	return j.Spec.ReduceDist
}

// result builds the final Result.
func (e *Engine) result() *Result {
	res := &Result{
		Scheduler:     e.sched.Name(),
		Machines:      e.cfg.Machines,
		Speed:         e.cfg.Speed,
		Slots:         e.lastFinish,
		Jobs:          make([]JobRecord, 0, e.arrived),
		TotalCopies:   e.totalCopies,
		CloneCopies:   e.cloneCopies,
		MachineSlots:  e.busy,
		ArrivedJobs:   e.arrived,
		FinishedJobs:  e.finishedJobs,
		WastedCopyWrk: e.wastedWrk,
	}
	for i := range e.jobs[:e.arrived] {
		j := &e.jobs[i]
		var copies int
		for _, t := range j.Tasks {
			copies += t.TotalCopies
		}
		res.Jobs = append(res.Jobs, JobRecord{
			ID:          j.Spec.ID,
			Weight:      j.Spec.Weight,
			Arrival:     j.Spec.Arrival,
			Finish:      j.FinishSlot,
			Flowtime:    j.Flowtime(),
			Tasks:       j.Spec.TotalTasks(),
			TotalCopies: copies,
		})
	}
	return res
}
