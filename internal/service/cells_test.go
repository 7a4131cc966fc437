package service

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"mrclone/internal/runner"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
	"mrclone/internal/trace"
)

// overlapSpec builds a 1-scheduler × len(points) × 2-run matrix over a
// shared tiny workload, so two specs with intersecting point sets share the
// cells of the intersection.
func overlapSpec(points []spec.Point) spec.Spec {
	p := trace.GoogleParams()
	p.Jobs = 6
	p.Span = 120
	return spec.Spec{
		Workload:   spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{{Name: "fair"}},
		Points:     points,
		Runs:       2,
		BaseSeed:   11,
	}
}

var (
	pointA = spec.Point{X: 0, Machines: 20}
	pointB = spec.Point{X: 1, Machines: 25}
	pointC = spec.Point{X: 2, Machines: 30}
)

// coldArtifacts runs a spec directly through the runner — no service, no
// cache — and renders its artifact bytes: the ground truth any cached or
// resumed execution must reproduce exactly.
func coldArtifacts(t *testing.T, sp spec.Spec) *CachedResult {
	t.Helper()
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sp.Normalize().Runner()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), rs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := encodeResult(hash, res)
	if err != nil {
		t.Fatal(err)
	}
	return cached
}

func sameArtifacts(t *testing.T, got, want *CachedResult, label string) {
	t.Helper()
	if !bytes.Equal(got.JSON, want.JSON) {
		t.Errorf("%s: JSON artifact differs from cold run", label)
	}
	if !bytes.Equal(got.CSV, want.CSV) {
		t.Errorf("%s: CSV artifact differs from cold run", label)
	}
	if !bytes.Equal(got.AggregateCSV, want.AggregateCSV) {
		t.Errorf("%s: aggregate CSV differs from cold run", label)
	}
}

// TestOverlapReuseExecutesOnlyDisjointCells is the cross-matrix acceptance
// scenario: submitting matrix B after an overlapping matrix A executes only
// the cells unique to B — cell hits equal the overlap — and B's artifacts
// are byte-identical to a cold runner.Run of B.
func TestOverlapReuseExecutesOnlyDisjointCells(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, s)

	matrixA := overlapSpec([]spec.Point{pointA, pointB}) // 4 cells
	matrixB := overlapSpec([]spec.Point{pointB, pointC}) // 4 cells, 2 shared

	stA, err := s.Submit(matrixA)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, stA.ID, StateDone)
	m := s.Metrics()
	if m.CellHits != 0 || m.CellMisses != 4 {
		t.Fatalf("cold matrix A: %d hits / %d misses, want 0/4", m.CellHits, m.CellMisses)
	}
	if m.CellBytes == 0 {
		t.Fatal("matrix A published no cell bytes")
	}

	stB, err := s.Submit(matrixB)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, stB.ID, StateDone)
	m = s.Metrics()
	if hits := m.CellHits; hits != 2 {
		t.Errorf("matrix B: %d cell hits, want exactly the overlap (2)", hits)
	}
	if m.CellMisses != 6 { // 4 cold + 2 unique to B
		t.Errorf("cell misses %d, want 6", m.CellMisses)
	}
	if final.CachedCells != 2 {
		t.Errorf("job status reports %d cached cells, want 2", final.CachedCells)
	}

	resB, err := s.Result(stB.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, resB, coldArtifacts(t, matrixB), "matrix B")

	// A third, fully covered matrix resolves every cell from the cache.
	matrixAgain := overlapSpec([]spec.Point{pointA, pointC})
	stC, err := s.Submit(matrixAgain)
	if err != nil {
		t.Fatal(err)
	}
	final = waitState(t, s, stC.ID, StateDone)
	if final.CachedCells != 4 {
		t.Errorf("fully covered matrix: %d cached cells, want 4", final.CachedCells)
	}
	resC, err := s.Result(stC.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, resC, coldArtifacts(t, matrixAgain), "fully cached matrix")
}

// TestCrashResumeRecomputesOnlyMissing is the crash acceptance scenario: a
// durable service dies mid-matrix (simulated by seeding the job log with a
// non-terminal record plus the persisted spec, over cells a previous
// process really computed); the next process requeues the job instead of
// failing it and completes it resolving every already-persisted cell from
// the cell cache.
func TestCrashResumeRecomputesOnlyMissing(t *testing.T) {
	dir := t.TempDir()
	matrixB := overlapSpec([]spec.Point{pointA, pointB, pointC}) // 6 cells
	hashB, err := matrixB.Hash()
	if err != nil {
		t.Fatal(err)
	}
	canonB, err := matrixB.Normalize().Canonical()
	if err != nil {
		t.Fatal(err)
	}

	// Process 1 computes a subset matrix, persisting 4 of B's 6 cells.
	svc1 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	st1, err := svc1.Submit(overlapSpec([]spec.Point{pointA, pointB}))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc1, st1.ID, StateDone)
	closeService(t, svc1)

	// The crash: matrix B was running (its spec record written, its job
	// non-terminal in the log) when the process died.
	seed := openTestStore(t, dir)
	if err := seed.PutSpec(hashB, canonB); err != nil {
		t.Fatal(err)
	}
	if err := seed.AppendJob(store.JobRecord{
		ID: "m000042", Hash: hashB, State: "running", Done: 3, Total: 6,
		UpdatedAtMs: time.Now().UnixMilli(),
	}, true); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	// Process 2 requeues the interrupted job and completes it, recomputing
	// only the 2 cells no process persisted.
	svc2 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, svc2)
	st, err := svc2.Get("m000042")
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() && st.State != StateDone {
		t.Fatalf("interrupted job recovered as %s (%s), want requeued", st.State, st.Error)
	}
	final := waitState(t, svc2, "m000042", StateDone)
	if final.CachedCells != 4 {
		t.Errorf("resumed job: %d cached cells, want 4", final.CachedCells)
	}
	m := svc2.Metrics()
	if m.CellHits != 4 || m.CellMisses != 2 {
		t.Errorf("resume: %d hits / %d misses, want 4/2", m.CellHits, m.CellMisses)
	}
	res, err := svc2.Result("m000042")
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, res, coldArtifacts(t, matrixB), "resumed matrix")

	// New submissions do not collide with the recovered ID, and a third
	// process sees the job as done, not interrupted.
	stNew, err := svc2.Submit(overlapSpec([]spec.Point{pointA}))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := parseJobSeq(stNew.ID); n <= 42 {
		t.Fatalf("ID sequence did not resume past the recovered job: %s", stNew.ID)
	}
	waitState(t, svc2, stNew.ID, StateDone)
	closeService(t, svc2)
	svc3 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, svc3)
	if st, err := svc3.Get("m000042"); err != nil || st.State != StateDone {
		t.Fatalf("third process sees %+v, %v; want done", st, err)
	}
}

// TestCellsEventsStreamAndReplay covers the cells SSE frames: a live
// subscriber sees running partial aggregates ending at done==total, and a
// late subscriber's replay buffer includes a cells frame consistent with
// the final counts (bounded — coalesced to the newest frame).
func TestCellsEventsStreamAndReplay(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, s)

	sp := overlapSpec([]spec.Point{pointA, pointB}) // 4 cells
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var cellFrames []Event
	var last Event
	for {
		e, ok := sub.Next(ctx)
		if !ok {
			break
		}
		if e.Type == EventCells {
			cellFrames = append(cellFrames, e)
		}
		last = e
	}
	if last.Type != EventDone {
		t.Fatalf("stream ended with %s, want done", last.Type)
	}
	if len(cellFrames) == 0 {
		t.Fatal("live stream carried no cells frames")
	}
	tail := cellFrames[len(cellFrames)-1]
	if tail.Done != 4 || tail.Total != 4 || tail.CachedCells != 0 {
		t.Fatalf("final cells frame %+v, want 4/4 with 0 cached", tail)
	}
	prev := 0
	for _, e := range cellFrames {
		if e.Done < prev {
			t.Fatal("cells frames regressed")
		}
		prev = e.Done
	}

	// Late subscriber: replay includes exactly one coalesced cells frame
	// between the transitions, matching the final counts.
	late, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var types []EventType
	var replayCells []Event
	for {
		e, ok := late.Next(ctx)
		if !ok {
			break
		}
		types = append(types, e.Type)
		if e.Type == EventCells {
			replayCells = append(replayCells, e)
		}
	}
	if len(types) < 3 || types[0] != EventQueued || types[len(types)-1] != EventDone {
		t.Fatalf("replay order: %v", types)
	}
	if len(replayCells) != 1 {
		t.Fatalf("replay carries %d cells frames, want 1 (coalesced)", len(replayCells))
	}
	if replayCells[0].Done != 4 || replayCells[0].Total != 4 {
		t.Fatalf("replayed cells frame %+v, want 4/4", replayCells[0])
	}

	// A cached resubmission's history also stays within the frame bound.
	st2, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st2.ID, StateDone)
	s.mu.Lock()
	n := len(s.jobs[st2.ID].history)
	s.mu.Unlock()
	if n > historyFrameCap {
		t.Fatalf("history grew to %d frames, cap is %d", n, historyFrameCap)
	}
}

// TestCellGCSweeps covers the cells-tier GC: TTL-expired cells leave the
// store, the byte budget evicts oldest cells first, and orphaned spec
// records (no live flight, past retention) are dropped.
func TestCellGCSweeps(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	now := time.Now()
	// Three cells: one long expired, two fresh (the older fresh one is the
	// eviction victim when the budget bites).
	cells := []store.Cell{
		{Hash: testCellHash(1), Payload: testCellPayload("a"), CreatedAt: now.Add(-48 * time.Hour)},
		{Hash: testCellHash(2), Payload: testCellPayload("b"), CreatedAt: now.Add(-2 * time.Minute)},
		{Hash: testCellHash(3), Payload: testCellPayload("c"), CreatedAt: now.Add(-1 * time.Minute)},
	}
	for _, c := range cells {
		if err := st.PutCell(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutSpec(testCellHash(4), []byte("orphan")); err != nil {
		t.Fatal(err)
	}

	s := New(Config{
		Workers:        1,
		Store:          st,
		CacheTTL:       time.Hour,
		CellCacheBytes: 1, // below any single record: everything unexpired evicts to the newest... and beyond
		JobRetention:   time.Millisecond,
		GCInterval:     -1,
	})
	defer closeService(t, s)
	time.Sleep(5 * time.Millisecond) // age the orphan spec past retention
	s.GC()

	infos, err := st.ListCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("%d cells survived TTL+budget sweep, want 0", len(infos))
	}
	specs, err := st.ListSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 0 {
		t.Fatalf("orphan spec record survived: %+v", specs)
	}
	if got := s.Metrics().CellsGCed; got != 3 {
		t.Errorf("cells_gced %d, want 3", got)
	}
}

// TestCellGCBudgetEvictsOldestFirst pins the eviction order.
func TestCellGCBudgetEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	now := time.Now()
	old := store.Cell{Hash: testCellHash(1), Payload: testCellPayload("a"), CreatedAt: now.Add(-time.Hour)}
	fresh := store.Cell{Hash: testCellHash(2), Payload: testCellPayload("b"), CreatedAt: now}
	if err := st.PutCell(old); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCell(fresh); err != nil {
		t.Fatal(err)
	}
	infos, err := st.ListCells()
	if err != nil {
		t.Fatal(err)
	}
	var freshBytes int64
	for _, info := range infos {
		if info.Hash == fresh.Hash {
			freshBytes = info.Bytes
		}
	}
	s := New(Config{Workers: 1, Store: st, CellCacheBytes: freshBytes, GCInterval: -1})
	defer closeService(t, s)
	s.GC()
	infos, err = st.ListCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Hash != fresh.Hash {
		t.Fatalf("budget eviction kept %+v, want only the fresh cell", infos)
	}
}

// testCellPayload is a syntactically valid cell payload (the store requires
// JSON) distinguished by a marker string.
func testCellPayload(marker string) []byte {
	return []byte(`{"pad":"` + strings.Repeat(marker, 64) + `"}`)
}

// testCellHash returns a distinct valid cell hash per suffix byte.
func testCellHash(b byte) string {
	const hexdigits = "0123456789abcdef"
	h := make([]byte, 64)
	for i := range h {
		h[i] = 'c'
	}
	h[63] = hexdigits[b%16]
	return string(h)
}
