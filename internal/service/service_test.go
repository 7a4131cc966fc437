package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mrclone/internal/runner"
	"mrclone/internal/service/spec"
	"mrclone/internal/trace"
)

// testSpec returns a tiny distinct spec per seed (distinct hash per seed).
func testSpec(seed int64) spec.Spec {
	p := trace.GoogleParams()
	p.Jobs = 6
	p.Span = 120
	return spec.Spec{
		Workload:   spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{{Name: "fair"}},
		Points:     []spec.Point{{X: 0, Machines: 20}},
		BaseSeed:   seed,
	}
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, s *Service, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func closeService(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("close: %v", err)
	}
}

// blockingService returns a service whose matrix runs block until released,
// giving tests deterministic control over queue and flight states.
func blockingService(cfg Config) (*Service, chan struct{}, *int32) {
	release := make(chan struct{})
	s := New(cfg)
	var runs int32
	var mu sync.Mutex
	s.runMatrix = func(ctx context.Context, rs runner.Spec, opts runner.Options) (*runner.Result, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return runner.Run(ctx, rs, opts)
	}
	return s, release, &runs
}

func TestSubmitRunsToDone(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer closeService(t, s)
	st, err := s.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh submission is %s", st.State)
	}
	if st.Total != 1 {
		t.Fatalf("total %d, want 1", st.Total)
	}
	done := waitState(t, s, st.ID, StateDone)
	if done.Cached {
		t.Fatal("first run reported cached")
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JSON) == 0 || len(res.CSV) == 0 || len(res.AggregateCSV) == 0 {
		t.Fatal("artifact bytes missing")
	}
	if res.Hash != st.Hash {
		t.Fatalf("result hash %s != job hash %s", res.Hash, st.Hash)
	}
}

func TestCacheHitServesSameBytes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeService(t, s)
	first, err := s.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateDone)
	firstRes, err := s.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}

	second, err := s.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second submission: state %s cached %v", second.State, second.Cached)
	}
	secondRes, err := s.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if secondRes != firstRes {
		t.Fatal("cache hit did not share the artifact")
	}
	m := s.Metrics()
	if m.CacheHits != 1 || m.Flights != 1 || m.Submissions != 2 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestSingleFlightDedup(t *testing.T) {
	s, release, runs := blockingService(Config{Workers: 1, QueueDepth: 4})
	defer closeService(t, s)

	a, err := s.Submit(testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatal("same spec produced different hashes")
	}
	if a.ID == b.ID {
		t.Fatal("jobs should be distinct submissions")
	}
	close(release)
	waitState(t, s, a.ID, StateDone)
	waitState(t, s, b.ID, StateDone)
	ra, _ := s.Result(a.ID)
	rb, _ := s.Result(b.ID)
	if ra != rb {
		t.Fatal("deduped jobs do not share one artifact")
	}
	if *runs != 1 {
		t.Fatalf("matrix ran %d times, want 1", *runs)
	}
	if m := s.Metrics(); m.DedupHits != 1 {
		t.Fatalf("dedup hits %d, want 1", m.DedupHits)
	}
}

func TestQueueFull(t *testing.T) {
	s, release, _ := blockingService(Config{Workers: 1, QueueDepth: 1})
	defer closeService(t, s)
	defer close(release)

	// Worker grabs the first flight; the second occupies the single queue
	// slot; the third distinct spec must be rejected.
	if _, err := s.Submit(testSpec(10)); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pop the first flight off the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first flight")
		}
		time.Sleep(time.Millisecond)
	}
	orig, err := s.Submit(testSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec(12)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: %v, want ErrQueueFull", err)
	}
	// A duplicate of a queued spec still dedups rather than failing.
	queued, err := s.Submit(testSpec(11))
	if err != nil {
		t.Fatalf("dedup of queued spec: %v", err)
	}

	// Cancelling every job of the queued flight frees its queue slot
	// immediately — a full queue of cancelled work must not 429 new jobs.
	for _, id := range []string{orig.ID, queued.ID} {
		if ok, err := s.Cancel(id); err != nil || !ok {
			t.Fatalf("cancel %s: %v %v", id, ok, err)
		}
	}
	if depth := s.Metrics().QueueDepth; depth != 0 {
		t.Fatalf("queue depth %d after cancelling all queued work", depth)
	}
	if _, err := s.Submit(testSpec(13)); err != nil {
		t.Fatalf("submit after freeing the queue: %v", err)
	}
}

func TestCancelQueuedAndShared(t *testing.T) {
	s, release, runs := blockingService(Config{Workers: 1, QueueDepth: 4})
	defer closeService(t, s)

	// Block the worker with a filler flight.
	filler, err := s.Submit(testSpec(20))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit(testSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(testSpec(21)) // shares a's flight
	if err != nil {
		t.Fatal(err)
	}

	// Cancelling one of two attached jobs keeps the flight alive.
	if ok, err := s.Cancel(a.ID); err != nil || !ok {
		t.Fatalf("cancel a: %v %v", ok, err)
	}
	if st, _ := s.Get(a.ID); st.State != StateCancelled {
		t.Fatalf("a is %s", st.State)
	}
	if st, _ := s.Get(b.ID); st.State.Terminal() {
		t.Fatalf("b terminated early: %s", st.State)
	}
	// Cancelling the last job cancels the queued flight entirely.
	if ok, err := s.Cancel(b.ID); err != nil || !ok {
		t.Fatalf("cancel b: %v %v", ok, err)
	}
	// Cancel is idempotent and reports false on finished jobs.
	if ok, err := s.Cancel(b.ID); err != nil || ok {
		t.Fatalf("re-cancel b: %v %v", ok, err)
	}

	close(release)
	waitState(t, s, filler.ID, StateDone)
	if *runs != 1 {
		t.Fatalf("cancelled flight still ran (%d runs)", *runs)
	}
	if m := s.Metrics(); m.JobsCancelled != 2 {
		t.Fatalf("cancelled %d, want 2", m.JobsCancelled)
	}
}

func TestEventsReplayAndLiveStream(t *testing.T) {
	s, release, _ := blockingService(Config{Workers: 1, QueueDepth: 4})
	defer closeService(t, s)

	st, err := s.Submit(testSpec(30))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	var types []EventType
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		e, ok := sub.Next(ctx)
		if !ok {
			break
		}
		if e.Job != st.ID {
			t.Fatalf("event for %s on %s's stream", e.Job, st.ID)
		}
		types = append(types, e.Type)
	}
	joined := ""
	for _, ty := range types {
		joined += string(ty) + " "
	}
	if types[0] != EventQueued {
		t.Fatalf("stream %s does not start with queued", joined)
	}
	if types[len(types)-1] != EventDone {
		t.Fatalf("stream %s does not end with done", joined)
	}
	if !strings.Contains(joined, string(EventRunning)) {
		t.Fatalf("stream %s has no running event", joined)
	}

	// A late subscriber still sees the full state history.
	late, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var lateTypes []EventType
	for {
		e, ok := late.Next(ctx)
		if !ok {
			break
		}
		lateTypes = append(lateTypes, e.Type)
	}
	if len(lateTypes) < 3 || lateTypes[0] != EventQueued || lateTypes[len(lateTypes)-1] != EventDone {
		t.Fatalf("late replay %v", lateTypes)
	}
}

func TestSubmitErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Submit(spec.Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := s.Get("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("get: %v", err)
	}
	if _, err := s.Result("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("result: %v", err)
	}
	if _, err := s.Subscribe("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("subscribe: %v", err)
	}
	if _, err := s.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel: %v", err)
	}
	st, err := s.Submit(testSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(st.ID); !errors.Is(err, ErrNotReady) && err != nil {
		// The tiny matrix may already be done; only a wrong error kind fails.
		t.Fatalf("result while pending: %v", err)
	}
	closeService(t, s)
	if _, err := s.Submit(testSpec(41)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

// TestSubmitExpansionFailure: a trace whose workload cannot be generated
// (a task-count mean the calibration cannot reach) fails validation, so its
// submission is refused before it is counted, and no job or flight exists
// for the worker to fail.
func TestSubmitExpansionFailure(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeService(t, s)
	sp := testSpec(70)
	// The bounded-Pareto task-count mean 1.9 is unreachable with a cap of 2.
	sp.Workload.Trace.MeanTasksPerJob = 1.9
	sp.Workload.Trace.MaxTasksPerJob = 2
	for _, attempt := range []string{"submit", "retry"} {
		if _, err := s.Submit(sp); err == nil || !strings.Contains(err.Error(), "unreachable") {
			t.Fatalf("%s: %v", attempt, err)
		}
	}
	if m := s.Metrics(); m.Submissions != 0 || m.Flights != 0 || m.JobsFailed != 0 || m.JobsTracked != 0 {
		t.Fatalf("metrics after a refused spec: %+v", m)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != 0 || len(s.inflight) != 0 {
		t.Fatalf("%d jobs and %d flights after a refused spec, want none", len(s.jobs), len(s.inflight))
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	var ids []string
	for seed := int64(50); seed < 54; seed++ {
		st, err := s.Submit(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, id := range ids {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s drained into %s", id, st.State)
		}
	}
}

func TestCloseDeadlineCancelsWork(t *testing.T) {
	s, release, _ := blockingService(Config{Workers: 1, QueueDepth: 4})
	defer close(release)
	st, err := s.Submit(testSpec(60))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close: %v", err)
	}
	got, err := s.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed {
		t.Fatalf("job after forced close: %s", got.State)
	}
}

func TestLRUCacheByteEviction(t *testing.T) {
	// Budget fits two entries (size = len(JSON) + overhead = 100 + 256)
	// with headroom for the +50-byte refresh below, but not three.
	c := newLRUCache(2*(100+cacheEntryOverhead)+88, 0)
	entry := func(h string) *CachedResult {
		return &CachedResult{Hash: h, JSON: make([]byte, 100), CreatedAt: time.Now()}
	}
	c.add(entry("a"))
	c.add(entry("b"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.add(entry("c")) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
	if want := 2 * int64(100+cacheEntryOverhead); c.sizeBytes() != want {
		t.Fatalf("bytes %d, want %d", c.sizeBytes(), want)
	}
	// Refresh keeps a single entry per hash and re-accounts its size.
	big := entry("c")
	big.CSV = make([]byte, 50)
	c.add(big)
	if c.len() != 2 {
		t.Fatalf("len after refresh %d", c.len())
	}
	if want := int64(100+cacheEntryOverhead) + int64(150+cacheEntryOverhead); c.sizeBytes() != want {
		t.Fatalf("bytes after refresh %d, want %d", c.sizeBytes(), want)
	}
	// An entry bigger than the whole budget is still retained — alone.
	huge := entry("huge")
	huge.JSON = make([]byte, 10_000)
	c.add(huge)
	if c.len() != 1 {
		t.Fatalf("len after oversized add %d, want 1", c.len())
	}
	if _, ok := c.get("huge"); !ok {
		t.Fatal("oversized entry evicted itself")
	}
	// Disabled cache stores nothing.
	d := newLRUCache(-1, 0)
	d.add(entry("x"))
	if d.len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestLRUCacheTTLExpiry(t *testing.T) {
	c := newLRUCache(1<<20, time.Hour)
	base := time.Unix(1_700_000_000, 0)
	now := base
	c.now = func() time.Time { return now }
	c.add(&CachedResult{Hash: "old", JSON: []byte("x"), CreatedAt: base})
	now = base.Add(30 * time.Minute)
	c.add(&CachedResult{Hash: "new", JSON: []byte("y"), CreatedAt: now})
	if _, ok := c.get("old"); !ok {
		t.Fatal("entry expired early")
	}

	now = base.Add(90 * time.Minute) // old is 90m past creation, new is 60m
	if _, ok := c.get("old"); ok {
		t.Fatal("expired entry served")
	}
	if _, ok := c.get("new"); !ok {
		t.Fatal("live entry dropped")
	}
	// The sweep drops expired entries without a get touching them.
	now = base.Add(3 * time.Hour)
	if removed := c.expire(); removed != 1 {
		t.Fatalf("expire removed %d, want 1", removed)
	}
	if c.len() != 0 || c.sizeBytes() != 0 {
		t.Fatalf("cache not empty after sweep: %d entries, %d bytes", c.len(), c.sizeBytes())
	}
	// Expired entries are refused at insertion.
	c.add(&CachedResult{Hash: "stale", JSON: []byte("z"), CreatedAt: base})
	if c.len() != 0 {
		t.Fatal("expired entry inserted")
	}
}
