package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mrclone/internal/runner"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
)

// openTestStore opens a store on dir, failing the test on error.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestartWarmCache is the acceptance scenario at the HTTP layer: a
// matrix computed by one service process is served byte-identically by the
// next process on the same data directory, as a disk hit with no recompute,
// and the first process's job history stays visible.
func TestRestartWarmCache(t *testing.T) {
	dir := t.TempDir()
	body, sp := e2eSpecJSON(t)

	// Ground truth: a direct in-process run of the same matrix.
	rs, err := sp.Runner()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runner.Run(context.Background(), rs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	if err := direct.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}

	// Process 1: compute and persist.
	svc1 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	ts1 := httptest.NewServer(svc1.Handler())
	sr1, code := postSpec(t, ts1.Client(), ts1.URL, body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitDone(t, ts1.Client(), ts1.URL, sr1.ID)
	got1 := getBody(t, ts1.Client(), ts1.URL+"/v1/matrices/"+sr1.ID+"/result", http.StatusOK)
	if !bytes.Equal(got1, wantJSON.Bytes()) {
		t.Fatal("process 1 artifact differs from direct run")
	}
	ts1.Close()
	closeService(t, svc1) // closes the store it owns

	// Process 2: same data directory, fresh everything else.
	svc2 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, svc2)
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()

	// The first process's terminal job is visible history.
	var recovered JobStatus
	if err := json.Unmarshal(getBody(t, ts2.Client(), ts2.URL+"/v1/matrices/"+sr1.ID, http.StatusOK), &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.State != StateDone || recovered.Hash != sr1.Hash {
		t.Fatalf("recovered job %+v", recovered)
	}
	// Its artifact is lazily reloaded from disk.
	if got := getBody(t, ts2.Client(), ts2.URL+"/v1/matrices/"+sr1.ID+"/result", http.StatusOK); !bytes.Equal(got, wantJSON.Bytes()) {
		t.Fatal("recovered job artifact differs")
	}

	// Resubmitting the spec is an immediate disk-warm cache hit: done in
	// the submit response, no flight run, byte-identical artifact.
	sr2, code := postSpec(t, ts2.Client(), ts2.URL, body)
	if code != http.StatusOK || !sr2.Cached {
		t.Fatalf("resubmit after restart: HTTP %d cached=%v", code, sr2.Cached)
	}
	if sr2.ID == sr1.ID {
		t.Fatal("restart reused a job ID")
	}
	got2 := getBody(t, ts2.Client(), ts2.URL+"/v1/matrices/"+sr2.ID+"/result", http.StatusOK)
	if !bytes.Equal(got2, wantJSON.Bytes()) {
		t.Fatal("disk cache hit not byte-identical")
	}
	m := svc2.Metrics()
	if m.Flights != 0 {
		t.Fatalf("restart recomputed: %d flights", m.Flights)
	}
	if m.DiskHits == 0 {
		t.Fatalf("no disk hits counted: %+v", m)
	}
	if !m.Persistent {
		t.Fatal("persistent gauge off")
	}
}

// TestCorruptEntryTriggersRecompute damages the stored artifact between two
// processes: the next submission quarantines the entry and recomputes
// instead of erroring, and the recompute repopulates the store.
func TestCorruptEntryTriggersRecompute(t *testing.T) {
	dir := t.TempDir()
	body, _ := e2eSpecJSON(t)

	svc1 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	ts1 := httptest.NewServer(svc1.Handler())
	sr1, _ := postSpec(t, ts1.Client(), ts1.URL, body)
	waitDone(t, ts1.Client(), ts1.URL, sr1.ID)
	want := getBody(t, ts1.Client(), ts1.URL+"/v1/matrices/"+sr1.ID+"/result", http.StatusOK)
	ts1.Close()
	closeService(t, svc1)

	// Truncate the stored record into its parts.
	record := filepath.Join(dir, "results", sr1.Hash[:2], sr1.Hash)
	fi, err := os.Stat(record)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(record, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	// Drop the cell tier: with the cells intact the service would assemble
	// the matrix from them instead (covered by the assembly-path tests);
	// this test pins the recompute fallback.
	if err := os.RemoveAll(filepath.Join(dir, "cells")); err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, svc2)
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	sr2, code := postSpec(t, ts2.Client(), ts2.URL, body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit over corrupt entry: HTTP %d", code)
	}
	if sr2.Cached {
		t.Fatal("corrupt entry served as a cache hit")
	}
	waitDone(t, ts2.Client(), ts2.URL, sr2.ID)
	got := getBody(t, ts2.Client(), ts2.URL+"/v1/matrices/"+sr2.ID+"/result", http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Fatal("recompute after corruption not byte-identical")
	}
	m := svc2.Metrics()
	if m.Quarantined == 0 || m.Flights != 1 {
		t.Fatalf("metrics after corruption: %+v", m)
	}
	// The quarantined bytes are kept aside and the store holds a fresh entry.
	quarantined, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(quarantined) == 0 {
		t.Fatalf("quarantine empty (%v)", err)
	}
	if _, err := os.Stat(record); err != nil {
		t.Fatalf("store not repopulated: %v", err)
	}
}

// TestRecoveryFailsInterruptedJobs seeds a job log with a job that never
// reached a terminal state — as a crash would leave it — and expects the
// next process to fail it, replay its terminal event to subscribers, and
// resume the ID sequence past it.
func TestRecoveryFailsInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	seed := openTestStore(t, dir)
	for _, rec := range []store.JobRecord{
		{ID: "m000007", Hash: strings.Repeat("ab", 32), State: "queued", Total: 4, UpdatedAtMs: 1},
		{ID: "m000008", Hash: strings.Repeat("cd", 32), State: "running", Done: 1, Total: 4, UpdatedAtMs: 2},
		{ID: "m000009", Hash: strings.Repeat("ef", 32), State: "cancelled", Total: 2, UpdatedAtMs: 3},
	} {
		if err := seed.AppendJob(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, s)
	for _, id := range []string{"m000007", "m000008"} {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed || !strings.Contains(st.Error, "restart") {
			t.Fatalf("interrupted job %s recovered as %+v", id, st)
		}
		// Late subscribers replay queued then the synthesized failure.
		sub, err := s.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var types []EventType
		for {
			e, ok := sub.Next(ctx)
			if !ok {
				break
			}
			types = append(types, e.Type)
		}
		cancel()
		if len(types) != 2 || types[0] != EventQueued || types[1] != EventFailed {
			t.Fatalf("replay for %s: %v", id, types)
		}
	}
	if st, err := s.Get("m000009"); err != nil || st.State != StateCancelled {
		t.Fatalf("terminal job: %+v, %v", st, err)
	}
	// Results of jobs whose artifacts never existed are gone, not 500s.
	if _, err := s.Result("m000009"); err == nil {
		t.Fatal("cancelled recovered job served a result")
	}
	// New submissions must not collide with recovered IDs.
	st, err := s.Submit(testSpec(90))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := parseJobSeq(st.ID); n <= 9 {
		t.Fatalf("ID sequence did not resume: %s", st.ID)
	}
	// The failed-by-restart verdict was persisted: a third process sees the
	// jobs as terminal failures, not as interrupted again.
	waitState(t, s, st.ID, StateDone)
	closeService(t, s)
	s3 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, s3)
	if st, err := s3.Get("m000008"); err != nil || st.State != StateFailed {
		t.Fatalf("second restart: %+v, %v", st, err)
	}
}

// TestJobAndArtifactGC covers the retention sweep: terminal jobs (and their
// event buffers) age out of the table, the job log compacts, and
// TTL-expired artifacts leave the disk store so the next submission
// recomputes.
func TestJobAndArtifactGC(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{
		Workers:      1,
		Store:        openTestStore(t, dir),
		GCInterval:   -1, // sweeps run manually below
		JobRetention: time.Millisecond,
		CacheTTL:     50 * time.Millisecond,
	})
	defer closeService(t, s)

	st, err := s.Submit(testSpec(80))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	if infos, err := s.cfg.Store.ListArtifacts(); err != nil || len(infos) != 1 {
		t.Fatalf("store holds %d artifacts (%v), want 1", len(infos), err)
	}

	// Terminal subscriptions are dropped eagerly (the event-buffer fix).
	s.mu.Lock()
	if subs := s.jobs[st.ID].subs; subs != nil {
		s.mu.Unlock()
		t.Fatalf("terminal job retains %d subscriber refs", len(subs))
	}
	s.mu.Unlock()

	time.Sleep(60 * time.Millisecond) // past JobRetention and CacheTTL
	jobsRemoved, artifactsRemoved := s.GC()
	if jobsRemoved != 1 || artifactsRemoved != 1 {
		t.Fatalf("GC removed %d jobs, %d artifacts; want 1, 1", jobsRemoved, artifactsRemoved)
	}
	if _, err := s.Get(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("job survived GC: %v", err)
	}
	m := s.Metrics()
	if m.JobsGCed != 1 || m.ArtifactsGCed != 1 || m.JobsTracked != 0 || m.CacheEntries != 0 {
		t.Fatalf("metrics after GC: %+v", m)
	}
	// The job log compacted to nothing: replay is empty.
	if recs, err := s.cfg.Store.ReplayJobs(); err != nil || len(recs) != 0 {
		t.Fatalf("job log after GC: %d records (%v)", len(recs), err)
	}
	if infos, err := s.cfg.Store.ListArtifacts(); err != nil || len(infos) != 0 {
		t.Fatalf("store holds %d artifacts after GC (%v)", len(infos), err)
	}
	// A resubmission recomputes rather than erroring.
	st2, err := s.Submit(testSpec(80))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st2.ID, StateDone)
	if m := s.Metrics(); m.Flights != 2 {
		t.Fatalf("flights after expiry resubmit: %d, want 2", m.Flights)
	}
}

// TestBackgroundGCRuns proves the background sweeper fires on its own.
func TestBackgroundGCRuns(t *testing.T) {
	s := New(Config{
		Workers:      1,
		GCInterval:   5 * time.Millisecond,
		JobRetention: time.Millisecond,
	})
	defer closeService(t, s)
	st, err := s.Submit(testSpec(81))
	if err != nil {
		t.Fatal(err)
	}
	// The sweeper may drop the job before a poll sees it done, so wait for it
	// to vanish and then read how it ended from the counters, which only grow.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := s.Get(st.ID); errors.Is(err, ErrUnknownJob) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background GC never removed the terminal job")
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if m := s.Metrics(); m.JobsDone != 1 || m.JobsFailed != 0 || m.JobsCancelled != 0 || m.JobsGCed < 1 {
		t.Fatalf("done %d failed %d cancelled %d gced %d, want 1/0/0/>=1",
			m.JobsDone, m.JobsFailed, m.JobsCancelled, m.JobsGCed)
	}
}

// TestInMemoryModeUnchanged pins the default mode: no store, restarts
// forget, and nothing touches the filesystem.
func TestInMemoryModeUnchanged(t *testing.T) {
	s := New(Config{Workers: 1, GCInterval: -1})
	st, err := s.Submit(testSpec(82))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	if m := s.Metrics(); m.Persistent || m.DiskHits != 0 {
		t.Fatalf("in-memory metrics: %+v", m)
	}
	closeService(t, s)
	s2 := New(Config{Workers: 1, GCInterval: -1})
	defer closeService(t, s2)
	if _, err := s2.Get(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("in-memory job survived restart: %v", err)
	}
}

// TestResultOutcomes pins every outcome of Result on a durable service, in
// process and as the GET /result status: unknown 404, queued and running
// 409, failed and cancelled 410, a done job whose result GC cleared
// reloaded from disk (the memory cache is off), and 410 once that artifact
// is gone too.
func TestResultOutcomes(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	s := New(Config{Workers: 1, CacheBytes: -1, GCInterval: -1, Store: st})
	defer closeService(t, s)
	hold := make(chan struct{})
	defer close(hold)
	s.runMatrix = func(ctx context.Context, rs runner.Spec, opts runner.Options) (*runner.Result, error) {
		switch rs.BaseSeed {
		case 2:
			return nil, errors.New("runner exploded")
		case 3, 4, 5:
			select {
			case <-hold:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return runner.Run(ctx, rs, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submit := func(seed int64) string {
		t.Helper()
		js, err := s.Submit(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		return js.ID
	}
	done := submit(1)
	waitState(t, s, done, StateDone)
	failed := submit(2)
	waitState(t, s, failed, StateFailed)
	running := submit(3)
	waitState(t, s, running, StateRunning)
	queued := submit(4)
	cancelled := submit(5)
	if ok, err := s.Cancel(cancelled); !ok || err != nil {
		t.Fatalf("cancel: %v %v", ok, err)
	}
	first, err := s.Result(done)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first.JSON)

	for _, c := range []struct {
		name string
		id   string
		prep func()
		is   error // sentinel the in-process error wraps; nil when none
		code int
		msg  string // in the error text; unused for 200
		hits int64  // disk hits one read adds
	}{
		{"unknown", "m999999", nil, ErrUnknownJob, http.StatusNotFound, "m999999", 0},
		{"queued", queued, nil, ErrNotReady, http.StatusConflict, "is queued", 0},
		{"running", running, nil, ErrNotReady, http.StatusConflict, "is running", 0},
		{"failed", failed, nil, nil, http.StatusGone, "runner exploded", 0},
		{"cancelled", cancelled, nil, nil, http.StatusGone, "was cancelled", 0},
		{"done, reloaded from disk", done, func() { s.GC() }, nil, http.StatusOK, "", 1},
		{"done, artifact deleted", done, func() {
			if err := st.DeleteArtifacts(first.Hash); err != nil {
				t.Fatal(err)
			}
			s.GC()
		}, nil, http.StatusGone, "resubmit the spec", 0},
	} {
		for _, viaHTTP := range []bool{false, true} {
			if c.prep != nil {
				c.prep()
			}
			before := s.Metrics()
			var body []byte
			if viaHTTP {
				body = getBody(t, ts.Client(), ts.URL+"/v1/matrices/"+c.id+"/result", c.code)
			} else {
				res, err := s.Result(c.id)
				switch {
				case c.code == http.StatusOK && err != nil:
					t.Fatalf("%s: Result: %v", c.name, err)
				case c.code == http.StatusOK:
					body = res.JSON
				case err == nil:
					t.Fatalf("%s: Result succeeded, want an error", c.name)
				case c.is != nil && !errors.Is(err, c.is),
					c.is == nil && (errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrNotReady)):
					t.Fatalf("%s: Result error %v, want sentinel %v", c.name, err, c.is)
				default:
					body = []byte(err.Error())
				}
			}
			if c.code == http.StatusOK && !bytes.Equal(body, want) {
				t.Fatalf("%s (http %v): reloaded bytes differ from the first read", c.name, viaHTTP)
			}
			if c.code != http.StatusOK && !strings.Contains(string(body), c.msg) {
				t.Fatalf("%s (http %v): error %s, want it to mention %q", c.name, viaHTTP, body, c.msg)
			}
			after := s.Metrics()
			if after.DiskHits != before.DiskHits+c.hits || after.StoreErrors != before.StoreErrors {
				t.Fatalf("%s (http %v): disk hits %d -> %d (want +%d), store errors %d -> %d",
					c.name, viaHTTP, before.DiskHits, after.DiskHits, c.hits, before.StoreErrors, after.StoreErrors)
			}
		}
	}
}

// TestUpgradedDataDirAssemblesFromCells: a data directory written by a build
// that stored each matrix as an artifacts/<hh>/<hash>/ directory (meta.json
// plus the three files) still holds that matrix's cells. The directory is
// not read; a resubmission is assembled from the cells without a worker,
// byte-identical to a cold run, nothing is quarantined, and the old tree is
// left as it was. The job that finished before the upgrade reports its
// result gone until the spec is resubmitted.
func TestUpgradedDataDirAssemblesFromCells(t *testing.T) {
	dir := t.TempDir()
	sp := overlapSpec([]spec.Point{pointA})
	want := coldArtifacts(t, sp)

	svc1 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	st1, err := svc1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc1, st1.ID, StateDone)
	closeService(t, svc1)

	// Rewrite the matrix in the earlier layout: the record's manifest line
	// is the meta.json those builds wrote.
	rec, err := store.EncodeArtifacts(*want)
	if err != nil {
		t.Fatal(err)
	}
	manifest, _, _ := bytes.Cut(rec, []byte{'\n'})
	old := filepath.Join(dir, "artifacts", want.Hash[:2], want.Hash)
	oldFiles := map[string][]byte{"meta.json": manifest, "matrix.json": want.JSON,
		"cells.csv": want.CSV, "aggregate.csv": want.AggregateCSV}
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range oldFiles {
		if err := os.WriteFile(filepath.Join(old, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(filepath.Join(dir, "results")); err != nil {
		t.Fatal(err)
	}

	svc2 := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, svc2)
	if _, err := svc2.Result(st1.ID); err == nil {
		t.Fatal("a job finished before the upgrade served a result before resubmission")
	}
	st2, err := svc2.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("resubmission = %+v, want done and cached on arrival", st2)
	}
	m := svc2.Metrics()
	if m.Assembled != 1 || m.Flights != 0 || m.DiskHits != 0 {
		t.Fatalf("assembled %d, flights %d, disk hits %d; want 1, 0, 0", m.Assembled, m.Flights, m.DiskHits)
	}
	res, err := svc2.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, res, want, "matrix assembled after the upgrade")
	if res, err := svc2.Result(st1.ID); err != nil {
		t.Fatalf("pre-upgrade job after resubmission: %v", err)
	} else {
		sameArtifacts(t, res, want, "pre-upgrade job after resubmission")
	}
	assertQuarantineEmpty(t, dir)
	for name, data := range oldFiles {
		if got, err := os.ReadFile(filepath.Join(old, name)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("old %s changed (%v)", name, err)
		}
	}
}
