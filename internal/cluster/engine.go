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
	"sort"

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
	started  int64 // slot at which the countdown began (-1 while gated)
	launched int64 // slot at which the copy occupied its machine
	gated    bool  // waiting for the owner's map phase to finish
}

// gatedRef locates one gated copy awaiting its job's map gate: the copy at
// tr.copies[idx]. Indices stay valid across copies-slice growth, unlike
// element pointers.
type gatedRef struct {
	tr  *taskRun
	idx int32
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

	slot    int64
	free    int
	seq     int64
	arrived int

	pending     []job.Spec // sorted by arrival; consumed via nextPending
	nextPending int        // cursor into pending: first spec not yet admitted
	jobs        []*job.Job // all materialized jobs, arrival order

	// alive holds arrived-and-unfinished jobs in arrival order. Retired jobs
	// leave nil holes (O(1) removal via alivePos); the slice is compacted
	// once holes outnumber live entries, so per-retire cost is amortized
	// O(1) while iteration order stays arrival order.
	alive      []*job.Job
	alivePos   map[*job.Job]int // index of each live job within alive
	aliveCount int

	cal       calendar
	gatedJobs map[*job.Job][]gatedRef // gated reduce copies per job

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
	// allocation-free in steady state.
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

// New prepares an engine over the given job specs. Specs are copied and
// sorted by arrival time; they must each validate.
func New(cfg Config, sched Scheduler, specs []job.Spec) (*Engine, error) {
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
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	pending := make([]job.Spec, len(specs))
	copy(pending, specs)
	sort.SliceStable(pending, func(i, j int) bool {
		return pending[i].Arrival < pending[j].Arrival
	})
	root := rng.New(cfg.Seed)
	ed, _ := sched.(EventDriven)
	gl, _ := sched.(GatedLauncher)
	e := &Engine{
		cfg:           cfg,
		sched:         sched,
		eventDriven:   ed != nil && ed.EventDriven(),
		gatedLaunches: gl != nil && gl.LaunchesGatedCopies(),
		free:          cfg.Machines,
		pending:       pending,
		alivePos:      make(map[*job.Job]int),
		gatedJobs:     make(map[*job.Job][]gatedRef),
		durations:     root.Split("durations"),
		schedRand:     root.Split("scheduler"),
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
	total := len(e.pending)
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
	total := len(e.pending)
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
		ErrSlotOverflow, e.slot, e.finishedJobs, len(e.pending))
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
	if e.nextPending < len(e.pending) {
		t, ok = e.pending[e.nextPending].Arrival, true
	}
	if tr := e.cal.peek(); tr != nil {
		if f := tr.bestFinish; !ok || f < t {
			t, ok = f, true
		}
	}
	return t, ok
}

// admitArrivals materializes jobs whose arrival slot has come. The cursor
// walk keeps per-arrival work O(1) without re-slicing pending (which would
// pin the backing array's head while shifting the window one spec at a
// time).
func (e *Engine) admitArrivals() {
	for e.nextPending < len(e.pending) && e.pending[e.nextPending].Arrival <= e.slot {
		spec := e.pending[e.nextPending]
		e.nextPending++
		j, err := job.New(spec)
		if err != nil {
			// Specs were validated in New; this is unreachable in practice.
			panic(fmt.Sprintf("cluster: invalid spec slipped through: %v", err))
		}
		e.jobs = append(e.jobs, j)
		e.alivePos[j] = len(e.alive)
		e.alive = append(e.alive, j)
		e.aliveCount++
		e.arrived++
		e.unschedMap += spec.MapTasks
		if j.MapPhaseDone() { // no map tasks: the reduce gate starts open
			e.unschedOpen += spec.ReduceTask
		} else {
			e.unschedGated += spec.ReduceTask
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
		e.retireJob(owner)
	}
}

// openGate starts the countdown of any gated reduce copies of j, in launch
// order.
func (e *Engine) openGate(j *job.Job) {
	gated, ok := e.gatedJobs[j]
	if !ok {
		return
	}
	for _, g := range gated {
		c := &g.tr.copies[g.idx]
		c.gated = false
		c.started = e.slot
		c.finish = e.slot + e.durationSlots(c.workload)
		e.activate(g.tr, int(g.idx))
	}
	delete(e.gatedJobs, j)
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

// retireJob removes a finished job from the alive set in amortized O(1):
// the job's slot (found via alivePos) becomes a nil hole, and the slice is
// compacted — preserving arrival order — once holes outnumber live jobs.
func (e *Engine) retireJob(j *job.Job) {
	if i, ok := e.alivePos[j]; ok {
		e.alive[i] = nil
		delete(e.alivePos, j)
		e.aliveCount--
		if len(e.alive) >= 32 && e.aliveCount*2 < len(e.alive) {
			e.compactAlive()
		}
	}
	e.finishedJobs++
	e.lastFinish = e.slot
}

// compactAlive rewrites alive without holes and refreshes alivePos.
func (e *Engine) compactAlive() {
	live := e.alive[:0]
	for _, a := range e.alive {
		if a != nil {
			e.alivePos[a] = len(live)
			live = append(live, a)
		}
	}
	for i := len(live); i < len(e.alive); i++ {
		e.alive[i] = nil // release references past the new length
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
	sampleInto(e.taskDist(j, t), buf, e.durations)
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
			launched: e.slot,
			started:  -1,
			finish:   -1,
			gated:    gated,
		})
		e.seq++
		e.free--
		e.totalCopies++
		if t.TotalCopies > 1 {
			e.cloneCopies++
		}
		if gated {
			e.gatedJobs[j] = append(e.gatedJobs[j], gatedRef{tr: tr, idx: int32(idx)})
		} else {
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
func (e *Engine) taskDist(j *job.Job, t *job.Task) distSampler {
	if t.ID.Phase == job.PhaseMap {
		return j.Spec.MapDist
	}
	return j.Spec.ReduceDist
}

// distSampler is the subset of dist.Distribution the engine needs.
type distSampler interface {
	Sample(*rng.Source) float64
}

// batchSampler matches dist.BatchSampler without importing the package.
type batchSampler interface {
	SampleN(dst []float64, src *rng.Source)
}

// sampleInto fills dst with successive draws from d, using the batched path
// when the distribution provides one.
func sampleInto(d distSampler, dst []float64, src *rng.Source) {
	if b, ok := d.(batchSampler); ok {
		b.SampleN(dst, src)
		return
	}
	for i := range dst {
		dst[i] = d.Sample(src)
	}
}

// result builds the final Result.
func (e *Engine) result() *Result {
	res := &Result{
		Scheduler:     e.sched.Name(),
		Machines:      e.cfg.Machines,
		Speed:         e.cfg.Speed,
		Slots:         e.lastFinish,
		Jobs:          make([]JobRecord, 0, len(e.jobs)),
		TotalCopies:   e.totalCopies,
		CloneCopies:   e.cloneCopies,
		MachineSlots:  e.busy,
		ArrivedJobs:   e.arrived,
		FinishedJobs:  e.finishedJobs,
		WastedCopyWrk: e.wastedWrk,
	}
	for _, j := range e.jobs {
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
