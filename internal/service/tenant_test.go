package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"mrclone/internal/runner"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
	"mrclone/internal/tenant"
)

func decodeJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// testRegistry builds a registry, failing the test on invalid input.
func testRegistry(t *testing.T, tenants ...tenant.Tenant) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// authedRequest issues an HTTP request with an optional bearer token and
// returns the response (caller closes the body).
func authedRequest(t *testing.T, client *http.Client, method, url, token string, body []byte) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTenantAuthHTTP(t *testing.T) {
	reg := testRegistry(t,
		tenant.Tenant{Name: "alpha", Token: "tok-alpha"},
		tenant.Tenant{Name: "charlie", Token: "tok-charlie"},
		tenant.Tenant{Name: "bravo", Token: "tok-bravo", Disabled: true},
	)
	s := New(Config{Workers: 1, QueueDepth: 8, Tenants: reg})
	defer closeService(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := testSpec(1).Canonical()

	// Missing and unknown tokens: 401 with a challenge.
	for _, token := range []string{"", "tok-nobody"} {
		resp := authedRequest(t, ts.Client(), http.MethodPost, ts.URL+"/v1/matrices", token, body)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: HTTP %d, want 401", token, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("token %q: 401 without WWW-Authenticate challenge", token)
		}
		resp.Body.Close()
	}

	// A disabled tenant authenticates but is forbidden.
	resp := authedRequest(t, ts.Client(), http.MethodPost, ts.URL+"/v1/matrices", "tok-bravo", body)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled tenant: HTTP %d, want 403", resp.StatusCode)
	}
	resp.Body.Close()

	// A valid token submits, and the status carries the tenant.
	resp = authedRequest(t, ts.Client(), http.MethodPost, ts.URL+"/v1/matrices", "tok-alpha", body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid token: HTTP %d", resp.StatusCode)
	}
	var st JobStatus
	if err := decodeJSON(resp.Body, &st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Tenant != "alpha" {
		t.Fatalf("status tenant %q, want alpha", st.Tenant)
	}

	// Job reads require a token too; liveness and metrics stay open.
	resp = authedRequest(t, ts.Client(), http.MethodGet, ts.URL+"/v1/matrices/"+st.ID, "", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated status read: HTTP %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()
	resp = authedRequest(t, ts.Client(), http.MethodGet, ts.URL+"/v1/matrices/"+st.ID, "tok-charlie", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated status read: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	for _, path := range []string{"/healthz", "/metrics"} {
		resp = authedRequest(t, ts.Client(), http.MethodGet, ts.URL+path, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s closed to anonymous probes: HTTP %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Cancellation is owner-only.
	resp = authedRequest(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/matrices/"+st.ID, "tok-charlie", nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant cancel: HTTP %d, want 403", resp.StatusCode)
	}
	resp.Body.Close()
	resp = authedRequest(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/matrices/"+st.ID, "tok-alpha", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner cancel: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()

	if m := s.Metrics(); m.Unauthorized < 3 {
		t.Fatalf("unauthorized counter %d, want >= 3", m.Unauthorized)
	}
}

func TestTenantRateLimitRetryAfter(t *testing.T) {
	reg := testRegistry(t, tenant.Tenant{Name: "alpha", Token: "tok-alpha", Rate: 0.5, Burst: 1})
	s := New(Config{Workers: 1, QueueDepth: 8, Tenants: reg})
	defer closeService(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body1, _ := testSpec(1).Canonical()
	body2, _ := testSpec(2).Canonical()

	resp := authedRequest(t, ts.Client(), http.MethodPost, ts.URL+"/v1/matrices", "tok-alpha", body1)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = authedRequest(t, ts.Client(), http.MethodPost, ts.URL+"/v1/matrices", "tok-alpha", body2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submission: HTTP %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	m := s.Metrics()
	if m.Tenants["alpha"].Rejected != 1 || m.Tenants["alpha"].Submitted != 1 {
		t.Fatalf("tenant counters: %+v", m.Tenants["alpha"])
	}
}

// TestTenantQuotaIsolation is the noisy-neighbor acceptance: tenant alpha
// flooding past its own queued-jobs quota is rejected without evicting,
// blocking, or failing bravo's jobs — and the quota frees as jobs finish.
func TestTenantQuotaIsolation(t *testing.T) {
	reg := testRegistry(t,
		tenant.Tenant{Name: "alpha", Token: "tok-a", MaxQueued: 2},
		tenant.Tenant{Name: "bravo", Token: "tok-b"},
		tenant.Tenant{Name: "cells", Token: "tok-c", MaxCells: 1},
	)
	s, release, _ := blockingService(Config{Workers: 1, QueueDepth: 32, Tenants: reg})
	defer closeService(t, s)

	// Occupy the single worker so every later submission stays queued.
	blocker, err := s.Submit(testSpec(900))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)

	var alphaJobs []JobStatus
	for i := int64(0); i < 2; i++ {
		st, err := s.SubmitToken("tok-a", testSpec(100+i))
		if err != nil {
			t.Fatalf("alpha submission %d: %v", i, err)
		}
		alphaJobs = append(alphaJobs, st)
	}
	if _, err := s.SubmitToken("tok-a", testSpec(102)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("alpha over quota: err %v, want ErrTenantQuota", err)
	}

	// bravo is untouched by alpha's flood, before and after it.
	var bravoJobs []JobStatus
	for i := int64(0); i < 3; i++ {
		st, err := s.SubmitToken("tok-b", testSpec(200+i))
		if err != nil {
			t.Fatalf("bravo submission %d: %v", i, err)
		}
		bravoJobs = append(bravoJobs, st)
	}

	// The cell quota rejects on projected in-flight cells, not job count.
	if _, err := s.SubmitToken("tok-c", testSpec(300)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitToken("tok-c", testSpec(301)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("cells over quota: err %v, want ErrTenantQuota", err)
	}

	// Alpha's earlier jobs were not evicted by its own flood.
	for _, st := range alphaJobs {
		got, err := s.Get(st.ID)
		if err != nil || got.State.Terminal() {
			t.Fatalf("alpha job %s: state %s err %v", st.ID, got.State, err)
		}
	}

	close(release)
	for _, st := range append(alphaJobs, bravoJobs...) {
		waitState(t, s, st.ID, StateDone)
	}

	// Terminal jobs release their quota.
	if _, err := s.SubmitToken("tok-a", testSpec(103)); err != nil {
		t.Fatalf("alpha after drain: %v", err)
	}

	m := s.Metrics()
	if m.Tenants["alpha"].Rejected != 1 || m.Tenants["bravo"].Rejected != 0 {
		t.Fatalf("rejection counters: alpha %+v bravo %+v", m.Tenants["alpha"], m.Tenants["bravo"])
	}
	if m.Tenants["bravo"].Submitted != 3 {
		t.Fatalf("bravo submitted %d, want 3", m.Tenants["bravo"].Submitted)
	}
}

// orderRecordingService stubs runMatrix to record each flight's spec (by
// base seed and matrix shape) in execution order, blocking runs on a gate
// channel: send one token per run, or close it to release everything.
func orderRecordingService(cfg Config) (*Service, chan struct{}, func() []runner.Spec) {
	gate := make(chan struct{}, 64)
	s := New(cfg)
	var mu sync.Mutex
	var order []runner.Spec
	s.runMatrix = func(ctx context.Context, rs runner.Spec, opts runner.Options) (*runner.Result, error) {
		mu.Lock()
		order = append(order, rs)
		mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return runner.Run(ctx, rs, opts)
	}
	snapshot := func() []runner.Spec {
		mu.Lock()
		defer mu.Unlock()
		return append([]runner.Spec(nil), order...)
	}
	return s, gate, snapshot
}

// TestQueuePolicyFairWeightedShares pins the weighted lottery at the
// service level: with a 3:1 weight split and both tenants holding a
// backlog, alpha wins the clear majority of dequeues.
func TestQueuePolicyFairWeightedShares(t *testing.T) {
	reg := testRegistry(t,
		tenant.Tenant{Name: "alpha", Token: "tok-a", Weight: 3},
		tenant.Tenant{Name: "bravo", Token: "tok-b", Weight: 1},
	)
	s, gate, snapshot := orderRecordingService(Config{
		Workers: 1, QueueDepth: 64, Tenants: reg,
		QueuePolicy: tenant.PolicyFair,
	})
	defer closeService(t, s)

	blocker, err := s.Submit(testSpec(900))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)

	// Interleaved sustained backlogs: alpha seeds 100+i, bravo 200+i.
	var all []JobStatus
	for i := int64(0); i < 8; i++ {
		a, err := s.SubmitToken("tok-a", testSpec(100+i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.SubmitToken("tok-b", testSpec(200+i))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, a, b)
	}
	close(gate)
	for _, st := range all {
		waitState(t, s, st.ID, StateDone)
	}

	// While both backlogs lasted — the first 8 dequeues after the blocker
	// (bravo's 8 jobs can never drain before then) — alpha's 3:1 weight
	// should earn it roughly 6 of 8.
	order := snapshot()
	if len(order) != 17 {
		t.Fatalf("recorded %d runs, want 17", len(order))
	}
	alphaWins := 0
	for _, rs := range order[1:9] {
		if rs.BaseSeed >= 100 && rs.BaseSeed < 200 {
			alphaWins++
		}
	}
	if alphaWins < 5 {
		t.Fatalf("alpha won %d of the first 8 contested dequeues, want >= 5 (order %v)",
			alphaWins, seeds(order))
	}
}

func seeds(order []runner.Spec) []int64 {
	out := make([]int64, len(order))
	for i, rs := range order {
		out[i] = rs.BaseSeed
	}
	return out
}

// TestQueuePolicySRPTPrefersCachedWork is the dogfooding acceptance: under
// -queue-policy srpt a small matrix whose cells are mostly in the cell
// cache is estimated cheap — via the same content addresses the runner
// will resolve — and jumps a large cold matrix that arrived first.
func TestQueuePolicySRPTPrefersCachedWork(t *testing.T) {
	dir := t.TempDir()
	s, gate, snapshot := orderRecordingService(Config{
		Workers: 1, QueueDepth: 16, GCInterval: -1,
		Store:       openTestStore(t, dir),
		QueuePolicy: tenant.PolicySRPT,
	})
	defer closeService(t, s)

	// Warm the cell cache with pointA and pointB.
	gate <- struct{}{}
	warm, err := s.Submit(overlapSpec([]spec.Point{pointA, pointB}))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, warm.ID, StateDone)

	// Occupy the worker, then queue a large cold matrix before a small
	// mostly-cached one.
	blocker, err := s.Submit(testSpec(900))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)
	pointD := spec.Point{X: 9, Machines: 40}
	pointE := spec.Point{X: 10, Machines: 45}
	pointF := spec.Point{X: 11, Machines: 50}
	cold, err := s.Submit(overlapSpec([]spec.Point{pointD, pointE, pointF})) // 6 cells, none cached
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Submit(overlapSpec([]spec.Point{pointA, pointD})) // 4 cells, 2 cached
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitState(t, s, cold.ID, StateDone)
	waitState(t, s, small.ID, StateDone)

	order := snapshot()
	if len(order) != 4 {
		t.Fatalf("recorded %d runs, want 4", len(order))
	}
	// order[0] warm, order[1] blocker; the contested pop is order[2].
	if got := len(order[2].Points); got != 2 {
		t.Fatalf("SRPT ran the %d-point matrix before the 2-point mostly-cached one", got)
	}
}

// TestAssembledFastPath: a matrix fully covered by cached cells completes
// at submission — worker-free, byte-identical, and counted as assembled
// rather than as a flight.
func TestAssembledFastPath(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, QueueDepth: 8, GCInterval: -1, Store: openTestStore(t, dir)})
	defer closeService(t, s)

	warm, err := s.Submit(overlapSpec([]spec.Point{pointA, pointB}))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, warm.ID, StateDone)

	sub := overlapSpec([]spec.Point{pointA})
	st, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("fully covered matrix submitted as %s, want immediate %s", st.State, StateDone)
	}
	if !st.Cached || st.CachedCells != st.Total || st.Total != 2 {
		t.Fatalf("assembled status: %+v", st)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, res, coldArtifacts(t, sub), "assembled matrix")

	m := s.Metrics()
	if m.Assembled != 1 {
		t.Fatalf("assembled %d, want 1", m.Assembled)
	}
	if m.Flights != 1 {
		t.Fatalf("flights %d, want 1 (assembly must not occupy a queue slot)", m.Flights)
	}

	// The assembled artifact was persisted: a restart serves it as a disk
	// hit without touching cells.
	closeService(t, s)
	s2 := New(Config{Workers: 1, QueueDepth: 8, GCInterval: -1, Store: openTestStore(t, dir)})
	defer closeService(t, s2)
	st2, err := s2.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone {
		t.Fatalf("restart: %s, want disk hit", st2.State)
	}
	if m := s2.Metrics(); m.DiskHits != 1 || m.Assembled != 0 {
		t.Fatalf("restart metrics: disk hits %d assembled %d, want 1/0", m.DiskHits, m.Assembled)
	}
}

// TestRestartKeepsTenantAttribution: a job interrupted mid-run is requeued
// on restart still owned by its tenant — visible in its status and charged
// to the tenant's accounting.
func TestRestartKeepsTenantAttribution(t *testing.T) {
	dir := t.TempDir()
	reg := testRegistry(t, tenant.Tenant{Name: "acme", Token: "tok-acme"})
	sp := overlapSpec([]spec.Point{pointA})
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := sp.Normalize().Canonical()
	if err != nil {
		t.Fatal(err)
	}

	// The crash: acme's job was running when the process died.
	seed := openTestStore(t, dir)
	if err := seed.PutSpec(hash, canon); err != nil {
		t.Fatal(err)
	}
	if err := seed.AppendJob(store.JobRecord{
		ID: "m000007", Hash: hash, State: "running", Total: 2, Tenant: "acme",
		UpdatedAtMs: time.Now().UnixMilli(),
	}, true); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, QueueDepth: 8, GCInterval: -1,
		Store: openTestStore(t, dir), Tenants: reg})
	defer closeService(t, s)
	st, err := s.Get("m000007")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "acme" {
		t.Fatalf("recovered job tenant %q, want acme", st.Tenant)
	}
	waitState(t, s, "m000007", StateDone)
	m := s.Metrics()
	ta, ok := m.Tenants["acme"]
	if !ok {
		t.Fatal("recovered job not charged to its tenant")
	}
	if ta.Queued != 0 || ta.Running != 0 {
		t.Fatalf("gauges not settled after completion: %+v", ta)
	}
	if ta.CellSeconds <= 0 {
		t.Fatalf("cell seconds %v, want > 0", ta.CellSeconds)
	}
}

// TestAnonymousModeUnchanged: without a registry, tokens are ignored, no
// tenant rows appear anywhere, and the JSON surfaces carry no tenant field.
func TestAnonymousModeUnchanged(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer closeService(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := testSpec(1).Canonical()
	resp := authedRequest(t, ts.Client(), http.MethodPost, ts.URL+"/v1/matrices", "ignored-token", body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("anonymous submit: HTTP %d", resp.StatusCode)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if bytes.Contains(raw.Bytes(), []byte(`"tenant"`)) {
		t.Fatalf("anonymous status leaks a tenant field: %s", raw)
	}
	var st JobStatus
	if err := decodeJSON(bytes.NewReader(raw.Bytes()), &st); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.Client(), ts.URL, st.ID)

	metrics := getBody(t, ts.Client(), ts.URL+"/metrics", http.StatusOK)
	if bytes.Contains(metrics, []byte("mrclone_tenant_")) {
		t.Fatal("anonymous metrics emit tenant series")
	}
	if m := s.Metrics(); len(m.Tenants) != 0 {
		t.Fatalf("anonymous service grew tenant accounts: %v", m.Tenants)
	}
}

// TestTenantHotReload: ReloadTenants swaps the registry atomically, so a
// token added after startup is admitted without a restart, a token dropped
// stops authenticating, and a swap that would toggle tenancy off is
// rejected.
func TestTenantHotReload(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8,
		Tenants: testRegistry(t, tenant.Tenant{Name: "alpha", Token: "tok-alpha"})})
	defer closeService(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := testSpec(1).Canonical()

	// Before the reload the newcomer's token does not exist.
	resp := authedRequest(t, ts.Client(), http.MethodPost, ts.URL+"/v1/matrices", "tok-newcomer", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("pre-reload unknown token: HTTP %d, want 401", resp.StatusCode)
	}

	// Swap in a registry that adds newcomer and drops alpha.
	if err := s.ReloadTenants(testRegistry(t,
		tenant.Tenant{Name: "newcomer", Token: "tok-newcomer"})); err != nil {
		t.Fatal(err)
	}

	resp = authedRequest(t, ts.Client(), http.MethodPost, ts.URL+"/v1/matrices", "tok-newcomer", body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-reload new token: HTTP %d, want admission", resp.StatusCode)
	}
	var st JobStatus
	if err := decodeJSON(resp.Body, &st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Tenant != "newcomer" {
		t.Fatalf("post-reload job tenant %q, want newcomer", st.Tenant)
	}

	// The dropped token no longer authenticates, even though its jobs (none
	// here) would keep running.
	resp = authedRequest(t, ts.Client(), http.MethodPost, ts.URL+"/v1/matrices", "tok-alpha", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("dropped token: HTTP %d, want 401", resp.StatusCode)
	}

	// Tenancy is a startup property: it cannot be reloaded away.
	if err := s.ReloadTenants(nil); err == nil {
		t.Fatal("nil registry reload accepted")
	}
}

// TestAnonymousServiceRejectsTenantReload: the inverse toggle — turning
// authentication on under live anonymous traffic — is rejected too.
func TestAnonymousServiceRejectsTenantReload(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer closeService(t, s)
	err := s.ReloadTenants(testRegistry(t, tenant.Tenant{Name: "alpha", Token: "tok-alpha"}))
	if err == nil {
		t.Fatal("reload into an anonymous service accepted")
	}
}
