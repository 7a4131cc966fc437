package tenant

import (
	"fmt"

	"mrclone/internal/rng"
)

// Policy selects how the service dequeues the next queued matrix.
type Policy string

const (
	// PolicyFIFO is strict arrival order — the pre-tenant behavior.
	PolicyFIFO Policy = "fifo"
	// PolicyFair is a weighted lottery across tenants with queued work
	// (FIFO within a tenant): with sustained backlogs each tenant's share
	// of dequeues converges to its weight fraction, and an idle tenant's
	// unused share redistributes to the active ones.
	PolicyFair Policy = "fair"
	// PolicySRPT dequeues the job with the smallest estimated remaining
	// work (uncached cells × workload size), arrival order breaking ties —
	// the flowtime-optimal discipline of the paper's SRPTMS scheduler.
	PolicySRPT Policy = "srpt"
)

// ParsePolicy validates a policy name; the empty string means PolicyFIFO.
func ParsePolicy(s string) (Policy, error) {
	switch p := Policy(s); p {
	case "", PolicyFIFO:
		return PolicyFIFO, nil
	case PolicyFair, PolicySRPT:
		return p, nil
	default:
		return "", fmt.Errorf("tenant: unknown queue policy %q (want fifo, fair, or srpt)", s)
	}
}

// queued is one waiting item with its scheduling attributes.
type queued[T comparable] struct {
	tenant string
	size   float64 // estimated remaining work, for PolicySRPT
	seq    uint64  // arrival order, for FIFO and tie-breaks
	v      T
}

// Queue is a multi-tenant job queue with a pluggable dequeue policy. It
// holds every waiting item in one slice — small (the service bounds it at
// QueueDepth) — so the O(n) policy scans cost nothing measurable next to a
// matrix simulation. Not safe for concurrent use.
type Queue[T comparable] struct {
	policy Policy
	weight func(tenant string) float64 // nil = all weights 1
	rng    *rng.Source                 // lottery source for PolicyFair
	seq    uint64
	items  []queued[T]
}

// NewQueue builds a queue for a policy. weight maps a tenant name to its
// fair-share weight (used only by PolicyFair; nil means equal weights) and
// seed fixes the fair lottery for reproducible tests.
func NewQueue[T comparable](policy Policy, weight func(string) float64, seed int64) *Queue[T] {
	if policy == "" {
		policy = PolicyFIFO
	}
	return &Queue[T]{policy: policy, weight: weight, rng: rng.New(seed)}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push appends an item for a tenant. size is the job's estimated work
// (only PolicySRPT reads it).
func (q *Queue[T]) Push(tenant string, size float64, v T) {
	q.seq++
	q.items = append(q.items, queued[T]{tenant: tenant, size: size, seq: q.seq, v: v})
}

// Pop removes and returns the next item under the queue's policy; ok is
// false when the queue is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	var idx int
	switch q.policy {
	case PolicySRPT:
		idx = q.pickSRPT()
	case PolicyFair:
		idx = q.pickFair()
	default:
		idx = q.pickFIFO()
	}
	v = q.items[idx].v
	q.removeAt(idx)
	return v, true
}

// Remove deletes the first queued occurrence of v (any tenant), reporting
// whether it was present. Used when a queued flight is cancelled.
func (q *Queue[T]) Remove(v T) bool {
	for i := range q.items {
		if q.items[i].v == v {
			q.removeAt(i)
			return true
		}
	}
	return false
}

func (q *Queue[T]) removeAt(i int) {
	q.items = append(q.items[:i], q.items[i+1:]...)
	// Shrink the backing array occasionally so a drained queue doesn't pin
	// a large slab.
	if len(q.items) == 0 && cap(q.items) > 64 {
		q.items = nil
	}
}

// pickFIFO returns the oldest item's index — index 0, since items stays in
// arrival order.
func (q *Queue[T]) pickFIFO() int { return 0 }

// pickSRPT returns the smallest item, arrival order breaking ties.
func (q *Queue[T]) pickSRPT() int {
	best := 0
	for i := 1; i < len(q.items); i++ {
		if q.items[i].size < q.items[best].size {
			best = i
		}
	}
	return best
}

// pickFair draws a weighted lottery over the tenants that currently have
// queued work, then takes the winner's oldest item.
func (q *Queue[T]) pickFair() int {
	// Total the weights of distinct tenants present, first-seen order.
	type share struct {
		tenant string
		w      float64
	}
	var shares []share
	total := 0.0
	for i := range q.items {
		t := q.items[i].tenant
		seen := false
		for _, s := range shares {
			if s.tenant == t {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		w := 1.0
		if q.weight != nil {
			if ww := q.weight(t); ww > 0 {
				w = ww
			}
		}
		shares = append(shares, share{tenant: t, w: w})
		total += w
	}
	winner := shares[0].tenant
	if len(shares) > 1 {
		ticket := q.rng.Float64() * total
		for _, s := range shares {
			ticket -= s.w
			if ticket < 0 {
				winner = s.tenant
				break
			}
		}
	}
	for i := range q.items {
		if q.items[i].tenant == winner {
			return i
		}
	}
	return 0 // unreachable: the winner has at least one queued item
}
