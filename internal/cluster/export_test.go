package cluster

import "fmt"

// WakeAudit wraps a time-driven scheduler for a run on the naive loop and
// checks every Context.WakeAt promise. It tracks the slots the production
// loop would visit: any slot after an arrival or a completion, the slot after
// a call that acted, and the promised slot after a quiet call that gave a
// hint. A call on any other slot that launches or draws randomness breaks
// the promise; Err reports the first such call.
type WakeAudit struct {
	inner Scheduler

	due     int64 // next slot the production loop would visit unprompted
	since   int64 // slot of the call that made the promise
	arrived int   // engine arrivals as of the previous call
	free    int   // free machines after the previous call
	err     error
}

// NewWakeAudit wraps s.
func NewWakeAudit(s Scheduler) *WakeAudit { return &WakeAudit{inner: s} }

// Name implements Scheduler.
func (a *WakeAudit) Name() string { return a.inner.Name() }

// Err returns the first broken promise, or nil.
func (a *WakeAudit) Err() error { return a.err }

// Schedule implements Scheduler. Launches happen only inside Schedule, so
// between two calls the free-machine count can only grow, and it grows
// exactly when a task completes.
func (a *WakeAudit) Schedule(ctx *Context) {
	e := ctx.engine
	visited := e.slot >= a.due || e.arrived != a.arrived || e.free > a.free
	before := e.totalCopies
	e.randUsed, e.hinted = false, false
	a.inner.Schedule(ctx)
	acted := e.totalCopies != before || e.randUsed
	switch {
	case !visited && acted:
		if a.err == nil {
			a.err = fmt.Errorf("%s acted at slot %d, but its call at slot %d promised nothing before slot %d",
				a.inner.Name(), e.slot, a.since, a.due)
		}
		a.due = e.slot + 1
	case !visited:
	case acted || !e.hinted:
		a.due = e.slot + 1
	default:
		a.due, a.since = max(e.wake, e.slot+1), e.slot
	}
	a.arrived, a.free = e.arrived, e.free
}
