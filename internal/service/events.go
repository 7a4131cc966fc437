package service

import (
	"context"
	"slices"
	"sync"
)

// EventType discriminates job lifecycle events.
type EventType string

// Event types emitted over a job's event stream. State transitions are
// replayed to late subscribers; progress events are live-only.
const (
	EventQueued    EventType = "queued"
	EventRunning   EventType = "running"
	EventProgress  EventType = "progress"
	EventCells     EventType = "cells"
	EventDone      EventType = "done"
	EventFailed    EventType = "failed"
	EventCancelled EventType = "cancelled"
)

// Event is one entry of a job's event stream.
type Event struct {
	Type EventType `json:"type"`
	// Job is the subscriber's job ID.
	Job string `json:"job"`
	// Done/Total report matrix-cell progress; set on progress and cells
	// events and on the running event (0/Total).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Cached marks a done event served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// CachedCells is the count of landed cells that were resolved from the
	// cell cache rather than simulated; set on cells events.
	CachedCells int `json:"cached_cells,omitempty"`
	// Error carries the failure message on failed events.
	Error string `json:"error,omitempty"`
	// Tenant names the tenant that owns the job; empty for anonymous
	// submissions, keeping single-tenant streams byte-identical.
	Tenant string `json:"tenant,omitempty"`
	// Lifecycle timestamps (RFC 3339, millisecond precision, UTC), stamped
	// on terminal frames so an SSE consumer learns the job's full timing —
	// queue wait and run duration fall out of the three — without a second
	// status fetch. Empty on non-terminal frames and for phases never
	// reached (e.g. StartedAt on a cache hit).
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// Terminal reports whether the event ends the stream.
func (e Event) Terminal() bool {
	switch e.Type {
	case EventDone, EventFailed, EventCancelled:
		return true
	}
	return false
}

// Subscription is an unbounded, ordered event stream for one job. Producers
// never block (events accumulate in a slice), so a slow SSE client cannot
// stall the scheduler; the stream closes itself after a terminal event.
type Subscription struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []Event
	closed bool
}

func newSubscription() *Subscription {
	s := &Subscription{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// publish appends an event; terminal events close the stream.
func (s *Subscription) publish(e Event) {
	s.mu.Lock()
	if !s.closed {
		// A new progress or cells frame drops the undelivered frame of its
		// own type behind the last state transition, so a slow consumer of
		// a large matrix holds at most one of each there: O(1) backlog per
		// stream, not O(cells). Every such frame carries the full running
		// counts, so dropping the stale one loses nothing.
		if coalescable(e.Type) {
			for i := len(s.events) - 1; i >= 0 && coalescable(s.events[i].Type); i-- {
				if s.events[i].Type == e.Type {
					s.events = slices.Delete(s.events, i, i+1)
					break
				}
			}
		}
		s.events = append(s.events, e)
		if e.Terminal() {
			s.closed = true
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// coalescable reports whether events of this type carry full running
// counts, making newest-wins coalescing lossless.
func coalescable(t EventType) bool {
	return t == EventProgress || t == EventCells
}

// Next blocks until an event is available, the stream has drained past its
// terminal event, or ctx is done. The second return is false when no more
// events will arrive.
func (s *Subscription) Next(ctx context.Context) (Event, bool) {
	// Wake the cond wait when the caller gives up.
	stop := context.AfterFunc(ctx, s.cond.Broadcast)
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.events) > 0 {
			e := s.events[0]
			s.events = s.events[1:]
			return e, true
		}
		if s.closed || ctx.Err() != nil {
			return Event{}, false
		}
		s.cond.Wait()
	}
}
