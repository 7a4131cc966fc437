package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrclone/internal/runner"
	"mrclone/internal/service/spec"
	"mrclone/internal/tenant"
)

// replayTypes drains a finished job's event stream and returns its frame
// types in order.
func replayTypes(t *testing.T, s *Service, id string) []EventType {
	t.Helper()
	sub, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var types []EventType
	for {
		e, ok := sub.Next(ctx)
		if !ok {
			return types
		}
		types = append(types, e.Type)
	}
}

// TestAssembledPassesFullQueueAndQuota: a matrix whose every cell is
// persisted completes at submission like a disk hit, so neither a full
// queue nor a tenant at its max_queued quota refuses it, and its stream is
// queued then done.
func TestAssembledPassesFullQueueAndQuota(t *testing.T) {
	const tok = "tok-acme"
	reg := testRegistry(t, tenant.Tenant{Name: "acme", Token: tok, MaxQueued: 1})
	s, gate, _ := orderRecordingService(Config{Workers: 1, QueueDepth: 2, GCInterval: -1,
		Store: openTestStore(t, t.TempDir()), Tenants: reg})
	defer closeService(t, s)
	defer close(gate)

	gate <- struct{}{}
	warm, err := s.Submit(overlapSpec([]spec.Point{pointA, pointB}))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, warm.ID, StateDone)
	blocker, err := s.Submit(testSpec(910))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)
	if _, err := s.SubmitToken(tok, testSpec(911)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitToken(tok, testSpec(912)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("acme's second queued job: %v, want ErrTenantQuota", err)
	}

	assembled := func(label string, sp spec.Spec) {
		t.Helper()
		st, err := s.SubmitToken(tok, sp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if st.State != StateDone || !st.Cached || st.CachedCells != st.Total || st.Total != 2 {
			t.Fatalf("%s: %+v, want done, cached and every cell cached", label, st)
		}
		if types := replayTypes(t, s, st.ID); len(types) != 2 || types[0] != EventQueued || types[1] != EventDone {
			t.Fatalf("%s replays %v, want queued then done", label, types)
		}
	}
	assembled("tenant at max_queued", overlapSpec([]spec.Point{pointA}))
	if _, err := s.Submit(testSpec(913)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec(914)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third queued flight: %v, want ErrQueueFull", err)
	}
	assembled("full queue", overlapSpec([]spec.Point{pointB}))

	m := s.Metrics()
	if m.Assembled != 2 || m.Flights != 4 || m.QueueDepth != 2 {
		t.Fatalf("assembled %d, flights %d, queue depth %d; want 2, 4, 2", m.Assembled, m.Flights, m.QueueDepth)
	}
	if ta := m.Tenants["acme"]; ta.Queued != 1 || ta.Rejected != 1 {
		t.Fatalf("acme: %+v, want 1 queued and only the quota refusal rejected", ta)
	}
}

// TestCloseIdleIgnoresContext: a service with no flight when Close begins
// has nothing a deadline could cut, so Close returns nil even with a
// context that is already done — whether or not it ever ran a matrix.
func TestCloseIdleIgnoresContext(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		cfg := Config{Workers: 2}
		if i%2 == 1 {
			cfg.Store = openTestStore(t, t.TempDir())
		}
		s := New(cfg)
		if i%5 == 0 {
			st, err := s.Submit(testSpec(int64(920 + i)))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, st.ID, StateDone)
		}
		if err := s.Close(done); err != nil {
			t.Fatalf("service %d: idle Close with a cancelled context: %v", i, err)
		}
	}
}

// stressSpec is submitter g's i-th spec: by turns one that every
// submitter shares, one of its own, one whose every cell the warm-up
// persisted, and one with half its cells persisted.
func stressSpec(g, i int) spec.Spec {
	switch i % 4 {
	case 0:
		return testSpec(int64(930 + i%3))
	case 1:
		return testSpec(int64(1000 + 100*g + i))
	case 2:
		return overlapSpec([]spec.Point{[]spec.Point{pointA, pointB}[g%2]})
	default:
		return overlapSpec([]spec.Point{pointA, {X: float64(10 + i%2), Machines: 35}})
	}
}

// TestFlightLifecycleStress races submitters of identical, distinct and
// all-cached specs, cancels half of what they submit, and closes the
// service under a short deadline while they run. Afterwards every accepted
// job is terminal, every refusal is ErrClosed, and nothing is left behind:
// no flight, no queued work, no tenant gauge.
func TestFlightLifecycleStress(t *testing.T) {
	reg := testRegistry(t,
		tenant.Tenant{Name: "acme", Token: "tok-acme"},
		tenant.Tenant{Name: "bravo", Token: "tok-bravo"})
	s := New(Config{Workers: 2, QueueDepth: 512, GCInterval: -1, CellParallelism: 2,
		Store: openTestStore(t, t.TempDir()), Tenants: reg})
	// Each run takes a millisecond at least, so the deadline finds work to
	// cut.
	s.runMatrix = func(ctx context.Context, rs runner.Spec, opts runner.Options) (*runner.Result, error) {
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return runner.Run(ctx, rs, opts)
	}
	warm, err := s.Submit(overlapSpec([]spec.Point{pointA, pointB}))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, warm.ID, StateDone)

	const submitters, perSubmitter, closeAfter = 6, 16, 40
	var (
		mu        sync.Mutex
		accepted  []string
		submitted atomic.Int32
		closeErr  error
		wg        sync.WaitGroup
	)
	closing := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-closing
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		closeErr = s.Close(ctx)
	}()
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			token := []string{"tok-acme", "tok-bravo"}[g%2]
			for i := 0; i < perSubmitter; i++ {
				st, err := s.SubmitToken(token, stressSpec(g, i))
				if n := submitted.Add(1); n == closeAfter {
					close(closing)
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("submitter %d, submission %d: %v, want success or ErrClosed", g, i, err)
					}
					continue
				}
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
				if i%2 == 1 {
					if _, err := s.Cancel(st.ID); err != nil {
						t.Errorf("cancel %s: %v", st.ID, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if closeErr != nil && !errors.Is(closeErr, context.DeadlineExceeded) {
		t.Fatalf("close: %v", closeErr)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.SubmitToken("tok-acme", stressSpec(0, i)); !errors.Is(err, ErrClosed) {
			t.Errorf("submission %d after close: %v, want ErrClosed", i, err)
		}
	}

	for _, id := range accepted {
		if st, err := s.Get(id); err != nil || !st.State.Terminal() {
			t.Errorf("job %s after close: %+v, %v; want a terminal state", id, st, err)
		}
	}
	m := s.Metrics()
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after close, want 0", m.QueueDepth)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.inflight) != 0 {
		t.Errorf("%d flights left after close, want none", len(s.inflight))
	}
	for _, name := range []string{"acme", "bravo"} {
		if ta := s.acct(name); ta.Queued != 0 || ta.Running != 0 || ta.cells != 0 {
			t.Errorf("tenant %s after close: queued %d running %d cells %d, want 0", name, ta.Queued, ta.Running, ta.cells)
		}
	}
	if t.Failed() {
		t.Logf("%d accepted of %d submissions, close: %v", len(accepted), submitted.Load(), closeErr)
	}
}
