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
	"mrclone/internal/store"
	"mrclone/internal/tenant"
)

// TestSettledFlightReleasesContext: a flight's context is cancelled when the
// flight settles, whether it ran to done or failed, so a finished flight
// does not stay registered under the service's base context until Close.
func TestSettledFlightReleasesContext(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeService(t, s)
	const failSeed = 402
	var mu sync.Mutex
	ctxs := map[int64]context.Context{}
	s.runMatrix = func(ctx context.Context, rs runner.Spec, opts runner.Options) (*runner.Result, error) {
		mu.Lock()
		ctxs[rs.BaseSeed] = ctx
		mu.Unlock()
		if rs.BaseSeed == failSeed {
			return nil, errors.New("injected run failure")
		}
		return runner.Run(ctx, rs, opts)
	}

	done, err := s.Submit(testSpec(401))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, done.ID, StateDone)
	failed, err := s.Submit(testSpec(failSeed))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, failed.ID, StateFailed)

	mu.Lock()
	defer mu.Unlock()
	for seed, want := range map[int64]State{401: StateDone, failSeed: StateFailed} {
		ctx, ok := ctxs[seed]
		if !ok {
			t.Fatalf("flight of seed %d never ran", seed)
		}
		if ctx.Err() == nil {
			t.Errorf("flight that ended %s still holds a live context", want)
		}
	}
}

// TestLifecycleInvariants drives every way a job can move through one
// tenant-enabled durable service — restart requeue and restart failure,
// run done, run failed, dedup attach to a queued and to a running flight,
// cancel of a queued and of a shared running job, a fully cancelled
// flight, cell assembly, disk and memory hits, and a spec refused by
// validation — and checks the books balance once every job has settled: the
// tenant's gauges are back to zero, every job replays queued first and
// exactly one terminal frame last, and the terminal counters add up to the
// jobs that ended in this process.
func TestLifecycleInvariants(t *testing.T) {
	dir := t.TempDir()
	const tok = "tok-acme"
	reg := testRegistry(t, tenant.Tenant{Name: "acme", Token: tok})

	// The previous process: one job it finished, one it was running whose
	// spec record survived (requeued), and one queued whose record did not
	// (failed by the restart); plus artifacts on disk for a disk hit.
	requeue := testSpec(501)
	requeueHash, err := requeue.Hash()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := requeue.Normalize().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	onDisk := testSpec(502)
	seed := openTestStore(t, dir)
	if err := seed.PutSpec(requeueHash, canon); err != nil {
		t.Fatal(err)
	}
	if err := seed.PutArtifacts(*coldArtifacts(t, onDisk)); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixMilli()
	for _, rec := range []store.JobRecord{
		{ID: "m000100", Hash: strings.Repeat("cd", 32), State: "cancelled", Total: 1, Tenant: "acme", UpdatedAtMs: now},
		{ID: "m000101", Hash: requeueHash, State: "running", Done: 1, Total: 1, Tenant: "acme", UpdatedAtMs: now},
		{ID: "m000102", Hash: strings.Repeat("ab", 32), State: "queued", Total: 4, Tenant: "acme", UpdatedAtMs: now},
	} {
		if err := seed.AppendJob(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	const replayedTerminal = 1 // m000100 ended in the previous process

	s := New(Config{Workers: 1, QueueDepth: 16, GCInterval: -1,
		Store: openTestStore(t, dir), Tenants: reg})
	defer closeService(t, s)
	if st := waitState(t, s, "m000102", StateFailed); st.Error != restartErrMsg {
		t.Fatalf("restart failure: %+v", st)
	}
	waitState(t, s, "m000101", StateDone)

	// From here on runs wait for the gate, and one matrix fails. The
	// recovered flight has settled, so the worker is idle.
	const failSeed = 503
	gate := make(chan struct{})
	s.runMatrix = func(ctx context.Context, rs runner.Spec, opts runner.Options) (*runner.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if rs.BaseSeed == failSeed {
			return nil, errors.New("injected run failure")
		}
		return runner.Run(ctx, rs, opts)
	}
	submit := func(sp spec.Spec) JobStatus {
		t.Helper()
		st, err := s.SubmitToken(tok, sp)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cancel := func(id string) {
		t.Helper()
		if ok, err := s.Cancel(id); !ok || err != nil {
			t.Fatalf("cancel %s: %v, %v", id, ok, err)
		}
	}

	shared := overlapSpec([]spec.Point{pointA, pointB})
	runDone := submit(shared)
	waitState(t, s, runDone.ID, StateRunning)
	attachRunning := submit(shared)
	cancelRunning := submit(shared)
	cancel(cancelRunning.ID)

	queued := submit(testSpec(504))
	attachQueued := submit(testSpec(504))
	cancel(attachQueued.ID)
	lone := submit(testSpec(505))
	cancel(lone.ID) // the flight's only job: the flight settles empty
	runFailed := submit(testSpec(failSeed))
	close(gate)

	waitState(t, s, runDone.ID, StateDone)
	waitState(t, s, attachRunning.ID, StateDone)
	waitState(t, s, queued.ID, StateDone)
	if st := waitState(t, s, runFailed.ID, StateFailed); !strings.Contains(st.Error, "injected") {
		t.Fatalf("run failure: %+v", st)
	}

	if st := submit(overlapSpec([]spec.Point{pointA})); st.State != StateDone || !st.Cached {
		t.Fatalf("assembled: %+v", st)
	}
	if st := submit(onDisk); st.State != StateDone || !st.Cached {
		t.Fatalf("disk hit: %+v", st)
	}
	if st := submit(onDisk); st.State != StateDone || !st.Cached {
		t.Fatalf("memory hit: %+v", st)
	}
	bad := testSpec(506)
	bad.Workload.Trace.MeanTasksPerJob = 1.9
	bad.Workload.Trace.MaxTasksPerJob = 2
	if _, err := s.SubmitToken(tok, bad); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("validation failure: %v", err)
	}

	m := s.Metrics()
	if m.CacheHits != 1 || m.DiskHits != 1 || m.DedupHits != 3 || m.Assembled != 1 {
		t.Fatalf("paths not all taken: cache %d disk %d dedup %d assembled %d",
			m.CacheHits, m.DiskHits, m.DedupHits, m.Assembled)
	}
	ta := m.Tenants["acme"]
	s.mu.Lock()
	cells := s.acct("acme").cells
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	if ta.Queued != 0 || ta.Running != 0 || cells != 0 {
		t.Errorf("tenant gauges after settling: queued %d running %d cells %d, want 0",
			ta.Queued, ta.Running, cells)
	}
	if got, want := m.JobsDone+m.JobsFailed+m.JobsCancelled, int64(len(ids)-replayedTerminal); got != want {
		t.Errorf("terminal counters: %d done + %d failed + %d cancelled = %d, want %d jobs ended here",
			m.JobsDone, m.JobsFailed, m.JobsCancelled, got, want)
	}

	for _, id := range ids {
		sub, err := s.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
		var frames []Event
		for {
			e, ok := sub.Next(ctx)
			if !ok {
				break
			}
			frames = append(frames, e)
		}
		stop()
		types := make([]EventType, 0, len(frames))
		terminals := 0
		for _, e := range frames {
			types = append(types, e.Type)
			if e.Terminal() {
				terminals++
			}
			if e.Tenant != "acme" {
				t.Errorf("job %s: %s frame carries tenant %q, want acme", id, e.Type, e.Tenant)
			}
		}
		if len(frames) < 2 || frames[0].Type != EventQueued || terminals != 1 || !frames[len(frames)-1].Terminal() {
			t.Errorf("job %s replays %v, want queued first and one terminal frame last", id, types)
		}
	}
}
