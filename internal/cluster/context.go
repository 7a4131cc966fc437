package cluster

import (
	"mrclone/internal/job"
	"mrclone/internal/rng"
)

// Context is the per-slot view a Scheduler receives. It exposes exactly the
// information the paper's model allows: alive jobs with their (E, sigma)
// workload statistics and task states, the free-machine count, and — for
// detection-based baselines such as Mantri — per-copy progress fractions as
// a progress-reporting MapReduce system would surface them. Ground-truth
// sampled durations are never exposed.
//
// The Context (and every slice it returns) is only valid for the duration of
// the Schedule call it was passed to; schedulers must not retain either
// across invocations.
type Context struct {
	engine *Engine
}

// Now returns the current time slot l.
func (c *Context) Now() int64 { return c.engine.slot }

// Machines returns M, the cluster size.
func (c *Context) Machines() int { return c.engine.cfg.Machines }

// FreeMachines returns the number of machines available this slot.
func (c *Context) FreeMachines() int { return c.engine.free }

// AliveJobs returns the jobs that have arrived and not finished, in arrival
// order. The returned slice is scratch reused by the next AliveJobs call —
// callers may reorder or filter it in place but must not retain it past the
// Schedule invocation; the *job.Job values are shared with the engine and
// must not be mutated except through Launch.
func (c *Context) AliveJobs() []*job.Job {
	e := c.engine
	out := e.aliveScratch[:0]
	if cap(out) < e.aliveCount {
		out = make([]*job.Job, 0, 2*e.aliveCount+8)
	}
	for _, j := range e.alive {
		if !j.Done() {
			out = append(out, j)
		}
	}
	e.aliveScratch = out
	return out
}

// SpeculativeCopies returns the live copies beyond the first of each
// running task, the sum of Copies-1 over every running task, gated copies
// included. It costs O(1): every live copy occupies a machine and every
// running task has at least one.
func (c *Context) SpeculativeCopies() int {
	e := c.engine
	return e.cfg.Machines - e.free - e.running
}

// Launch starts n copies of task t of job j this slot. Launching a reduce
// task before the job's map phase has completed requires gated=true: the
// copies occupy machines immediately but begin progress only when the map
// phase finishes (the paper's constraint 1g). It returns the number of
// copies actually launched.
func (c *Context) Launch(j *job.Job, t *job.Task, n int, gated bool) (int, error) {
	return c.engine.launch(j, t, n, gated)
}

// Rand returns a deterministic random stream for scheduler tie-breaking
// (for example, "choose one unscheduled task at random"). Accessing the
// stream marks the slot as randomized, so the engine invokes the scheduler
// again on the next slot: skipping invocations that consume randomness would
// shift every later draw. Schedulers must obtain the stream through this
// method each slot rather than caching it.
func (c *Context) Rand() *rng.Source {
	c.engine.randUsed = true
	return c.engine.schedRand
}

// WakeAt lets a scheduler skip the slots on which it would do nothing. A
// Schedule call that launches nothing and draws no randomness may call it to
// promise that, unless an arrival or a completion comes first, Schedule would
// launch nothing and draw no randomness on any slot before slot, and that
// skipping those calls changes none of its later decisions; math.MaxInt64
// means never. The production loop then invokes the scheduler next at the
// earlier of the next event and slot.
//
// The earliest of several calls counts, and the hint is ignored on a call
// that launched or drew randomness. A scheduler that is not EventDriven and
// never calls WakeAt is invoked again on the next slot.
func (c *Context) WakeAt(slot int64) {
	e := c.engine
	if !e.hinted || slot < e.wake {
		e.wake, e.hinted = slot, true
	}
}

// CopyProgress describes one live copy of a task as a progress-reporting
// execution layer would: how long it has been running and what fraction of
// its work is complete.
type CopyProgress struct {
	Elapsed  int64   // slots since the countdown started
	Fraction float64 // completed fraction in [0, 1)
	// Tied is set when another live copy of the task will finish on the
	// same slot as the reported one.
	Tied bool
}

// BestProgress returns, without allocating, the progress report of the live
// copy of t with the smallest progress-based remaining-time estimate
// elapsed*(1-f)/f — the copy expected to finish first. Copies with zero
// reported progress are returned only when no copy has made progress. ok is
// false when t has no observable live copy.
//
// Reported progress is linear in time, so the estimate equals the copy's
// true remaining slots. Copies that will finish on the same slot therefore
// have equal estimates in exact arithmetic, and floating-point rounding picks
// among them: the reported Elapsed and Fraction can switch between such
// copies from one slot to the next with no event in between. The report sets
// Tied whenever another live copy has exactly the same remaining slots.
func (c *Context) BestProgress(t *job.Task) (best CopyProgress, ok bool) {
	tr, _ := t.Runtime.(*taskRun)
	if tr == nil {
		return CopyProgress{}, false
	}
	bestRem := 0.0
	var bestFinish int64
	for _, cp := range tr.copies {
		if cp.started < 0 { // gated
			continue
		}
		elapsed := c.engine.slot - cp.started
		total := float64(cp.finish - cp.started)
		frac := 0.0
		if total > 0 {
			frac = float64(elapsed) / total
		}
		if frac > 1 {
			frac = 1
		}
		p := CopyProgress{Elapsed: elapsed, Fraction: frac}
		switch {
		case !ok:
			best, ok, bestFinish = p, true, cp.finish
			if frac > 0 {
				bestRem = float64(elapsed) * (1 - frac) / frac
			}
		case frac > 0:
			rem := float64(elapsed) * (1 - frac) / frac
			if best.Fraction == 0 || rem < bestRem {
				best, bestRem, bestFinish = p, rem, cp.finish
			}
		}
	}
	if ok && len(tr.copies) > 1 {
		n := 0
		for _, cp := range tr.copies {
			if cp.started >= 0 && cp.finish == bestFinish {
				n++
			}
		}
		best.Tied = n > 1
	}
	return best, ok
}
