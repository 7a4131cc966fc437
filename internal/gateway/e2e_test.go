package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mrclone/internal/runner"
	"mrclone/internal/service"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
	"mrclone/internal/trace"
)

// testSpec is a small, fast matrix whose content hash varies with seed.
func testSpec(seed int64) spec.Spec {
	p := trace.GoogleParams()
	p.Jobs = 8
	p.Span = 200
	return spec.Spec{
		Workload:   spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{{Name: "srptms+c"}},
		Points:     []spec.Point{{X: 0, Machines: 25}},
		Runs:       1,
		BaseSeed:   seed,
	}
}

func canonHash(t *testing.T, sp spec.Spec) ([]byte, string) {
	t.Helper()
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return canon, hash
}

// directArtifacts computes the ground truth the cluster must match: the
// deterministic artifact bytes of a direct in-process runner.Run.
func directArtifacts(t *testing.T, sp spec.Spec) (jsonBytes, csvBytes, aggBytes []byte) {
	t.Helper()
	rspec, err := sp.Runner()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), rspec, runner.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var jb, cb, ab bytes.Buffer
	if err := res.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteAggregateCSV(&ab); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes(), ab.Bytes()
}

// testCluster is the in-process multi-node harness: nShards mrserved
// services behind nGateways gateways, everything over real HTTP.
type testCluster struct {
	shards    []*service.Service
	shardSrvs []*httptest.Server
	pool      []Shard
	gateways  []*Gateway
	gwSrvs    []*httptest.Server
}

func (c *testCluster) gwURL(i int) string { return c.gwSrvs[i%len(c.gwSrvs)].URL }

func newTestCluster(t *testing.T, nShards, nGateways int, cfg service.Config) *testCluster {
	t.Helper()
	c := &testCluster{}
	for i := 0; i < nShards; i++ {
		svc := service.New(cfg)
		ts := httptest.NewServer(svc.Handler())
		u, err := url.Parse(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		c.shards = append(c.shards, svc)
		c.shardSrvs = append(c.shardSrvs, ts)
		c.pool = append(c.pool, Shard{Name: fmt.Sprintf("s%d", i), URL: u})
	}
	for j := 0; j < nGateways; j++ {
		gw, err := New(Config{Shards: c.pool})
		if err != nil {
			t.Fatal(err)
		}
		c.gateways = append(c.gateways, gw)
		c.gwSrvs = append(c.gwSrvs, httptest.NewServer(gw.Handler()))
	}
	t.Cleanup(func() {
		for _, ts := range c.gwSrvs {
			ts.Close()
		}
		for _, gw := range c.gateways {
			gw.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		for _, svc := range c.shards {
			_ = svc.Close(ctx)
		}
		for _, ts := range c.shardSrvs {
			ts.Close()
		}
	})
	return c
}

// shardFor returns the service behind a shard name ("s<i>").
func (c *testCluster) shardFor(t *testing.T, name string) *service.Service {
	t.Helper()
	for i, sh := range c.pool {
		if sh.Name == name {
			return c.shards[i]
		}
	}
	t.Fatalf("unknown shard %q", name)
	return nil
}

// postSpec submits canonical spec bytes through a gateway and decodes the
// namespaced job status.
func postSpec(t *testing.T, base string, body []byte) (*http.Response, service.JobStatus) {
	t.Helper()
	resp, err := http.Post(base+"/v1/matrices", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("submit: undecodable status %q: %v", raw, err)
	}
	return resp, st
}

// getStatus fetches one namespaced job's status through a gateway.
func getStatus(t *testing.T, base, id string) (int, service.JobStatus) {
	t.Helper()
	resp, err := http.Get(base + "/v1/matrices/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("status: undecodable %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st
}

// waitDone polls a namespaced job through a gateway until it is done.
func waitDone(t *testing.T, base, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("job %s: HTTP %d", id, code)
		}
		switch st.State {
		case service.StateDone:
			return st
		case service.StateFailed, service.StateCancelled:
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.JobStatus{}
}

// getResult fetches artifact bytes for a namespaced job through a gateway.
func getResult(t *testing.T, base, id, format string) []byte {
	t.Helper()
	u := base + "/v1/matrices/" + id + "/result"
	if format != "" {
		u += "?format=" + format
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s (%s): HTTP %d: %s", id, format, resp.StatusCode, raw)
	}
	return raw
}

// TestMultiNodeSingleFlight is the headline e2e: three shards, two
// gateways, eight concurrent submissions of one spec split across both
// gateways. The cluster must collapse them into exactly one flight
// cluster-wide, and every result — through either gateway — must be
// byte-identical to a direct runner.Run.
func TestMultiNodeSingleFlight(t *testing.T) {
	c := newTestCluster(t, 3, 2, service.Config{Workers: 1, CellParallelism: 2})
	sp := testSpec(41)
	canon, hash := canonHash(t, sp)
	wantJSON, wantCSV, wantAgg := directArtifacts(t, sp)
	owner := c.gateways[0].Ring().Lookup(hash)

	const clients = 8
	type submission struct {
		gw string
		st service.JobStatus
	}
	subs := make([]submission, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := c.gwURL(i) // alternate between the two gateways
			resp, st := postSpec(t, base, canon)
			if got := resp.Header.Get(HeaderShard); got != owner {
				t.Errorf("client %d: served by shard %q, ring owner is %q", i, got, owner)
			}
			if got := resp.Header.Get(HeaderRoutedBy); got != hash {
				t.Errorf("client %d: routed-by %q, want %q", i, got, hash)
			}
			if !strings.HasPrefix(st.ID, owner+idSep) {
				t.Errorf("client %d: job id %q not namespaced by owner %q", i, st.ID, owner)
			}
			if st.Hash != hash {
				t.Errorf("client %d: hash %q, want %q", i, st.Hash, hash)
			}
			subs[i] = submission{gw: base, st: st}
		}(i)
	}
	wg.Wait()

	for i := range subs {
		subs[i].st = waitDone(t, subs[i].gw, subs[i].st.ID)
	}

	// Exactly one flight cluster-wide; every submission was accepted.
	var flights, submissions, dedupOrCached int64
	for _, svc := range c.shards {
		m := svc.Metrics()
		flights += m.Flights
		submissions += m.Submissions
		dedupOrCached += m.DedupHits + m.CacheHits
	}
	if flights != 1 {
		t.Errorf("cluster ran %d flights for %d identical submissions, want exactly 1", flights, clients)
	}
	if ownerFlights := c.shardFor(t, owner).Metrics().Flights; ownerFlights != 1 {
		t.Errorf("ring owner %s ran %d flights, want the cluster's single flight", owner, ownerFlights)
	}
	if submissions != clients {
		t.Errorf("shards accepted %d submissions, want %d", submissions, clients)
	}
	if dedupOrCached != clients-1 {
		t.Errorf("dedup+cache hits = %d, want %d", dedupOrCached, clients-1)
	}

	// Byte-identical artifacts through both gateways, in every format.
	for i, sub := range subs {
		got := getResult(t, sub.gw, sub.st.ID, "json")
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("client %d: JSON artifact differs from direct runner.Run (%d vs %d bytes)",
				i, len(got), len(wantJSON))
		}
		otherGW := c.gwURL(i + 1)
		if got := getResult(t, otherGW, sub.st.ID, "json"); !bytes.Equal(got, wantJSON) {
			t.Fatalf("client %d: JSON artifact differs when fetched via the other gateway", i)
		}
	}
	if got := getResult(t, c.gwURL(0), subs[0].st.ID, "csv"); !bytes.Equal(got, wantCSV) {
		t.Error("CSV artifact differs from direct runner.Run")
	}
	if got := getResult(t, c.gwURL(1), subs[0].st.ID, "aggregate"); !bytes.Equal(got, wantAgg) {
		t.Error("aggregate artifact differs from direct runner.Run")
	}
}

// TestRingSpread proves distinct specs actually shard: each submission is
// served by the shard the ring places its hash on, and the sample of specs
// lands on more than one shard.
func TestRingSpread(t *testing.T) {
	c := newTestCluster(t, 3, 2, service.Config{Workers: 2, CellParallelism: 2})
	r := c.gateways[0].Ring()
	seen := make(map[string]int)
	type placed struct {
		gw, id string
	}
	var jobs []placed
	for seed := int64(1); seed <= 9; seed++ {
		sp := testSpec(seed)
		canon, hash := canonHash(t, sp)
		base := c.gwURL(int(seed))
		resp, st := postSpec(t, base, canon)
		want := r.Lookup(hash)
		if got := resp.Header.Get(HeaderShard); got != want {
			t.Errorf("seed %d: served by %q, ring places %s on %q", seed, got, hash, want)
		}
		seen[want]++
		jobs = append(jobs, placed{gw: base, id: st.ID})
	}
	if len(seen) < 2 {
		t.Errorf("9 distinct specs all landed on one shard: %v", seen)
	}
	for _, j := range jobs {
		waitDone(t, j.gw, j.id)
	}
	var flights int64
	for _, svc := range c.shards {
		flights += svc.Metrics().Flights
	}
	if flights != 9 {
		t.Errorf("cluster ran %d flights for 9 distinct specs, want 9", flights)
	}
}

// TestGatewaySSE streams a job's lifecycle through the gateway and checks
// the events carry the namespaced gateway job ID.
func TestGatewaySSE(t *testing.T) {
	c := newTestCluster(t, 2, 1, service.Config{Workers: 1, CellParallelism: 2})
	canon, _ := canonHash(t, testSpec(7))
	_, st := postSpec(t, c.gwURL(0), canon)

	resp, err := http.Get(c.gwURL(0) + "/v1/matrices/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var types []service.EventType
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e service.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			t.Fatalf("undecodable event %q: %v", data, err)
		}
		if e.Job != st.ID {
			t.Fatalf("event job %q, want namespaced %q", e.Job, st.ID)
		}
		types = append(types, e.Type)
		if e.Terminal() {
			break
		}
	}
	if len(types) == 0 || types[0] != service.EventQueued {
		t.Fatalf("event stream %v, want to open with queued", types)
	}
	if last := types[len(types)-1]; last != service.EventDone {
		t.Fatalf("event stream %v, want to end with done", types)
	}
}

// TestGatewayCancelAndErrors covers the remaining proxied routes: cancel
// with ID rewriting, and the gateway's own error responses.
func TestGatewayCancelAndErrors(t *testing.T) {
	// One worker and a pre-loaded slow-ish spec keep the second job queued
	// long enough to cancel deterministically? No — cancel an already-done
	// job instead, which has a stable response, and exercise error paths.
	c := newTestCluster(t, 2, 1, service.Config{Workers: 1, CellParallelism: 2})
	base := c.gwURL(0)
	canon, _ := canonHash(t, testSpec(3))
	_, st := postSpec(t, base, canon)
	waitDone(t, base, st.ID)

	// Cancelling a finished job reports cancelled=false with the status.
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/matrices/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelBody struct {
		Cancelled bool `json:"cancelled"`
		service.JobStatus
	}
	if err := json.NewDecoder(resp.Body).Decode(&cancelBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cancelBody.Cancelled || cancelBody.ID != st.ID {
		t.Fatalf("cancel done job: HTTP %d %+v", resp.StatusCode, cancelBody)
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/matrices/no-separator", http.StatusNotFound},
		{"/v1/matrices/ghost.m000001", http.StatusNotFound},     // unknown shard
		{"/v1/matrices/s0.m999999", http.StatusNotFound},        // unknown job, passthrough
		{"/v1/matrices/s0.m999999/result", http.StatusNotFound}, // unknown job result
		{"/v1/matrices/" + st.ID + "/result?format=bogus", http.StatusBadRequest},
	} {
		resp, err := http.Get(base + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: HTTP %d (%s), want %d", tc.path, resp.StatusCode, body, tc.want)
		}
	}

	// A body that is not a valid spec never reaches any shard.
	resp, err = http.Post(base+"/v1/matrices", "application/json", strings.NewReader(`{"version":99}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: HTTP %d, want 400", resp.StatusCode)
	}
	var submissions int64
	for _, svc := range c.shards {
		submissions += svc.Metrics().Submissions
	}
	if submissions != 1 {
		t.Errorf("shards saw %d submissions, want only the valid one", submissions)
	}
}

// TestGatewayRejectsOversizedMatrix: a 422-byte spec asking for 2e9 runs of
// a 2e9-job trace parses, so the gateway routes it, and the owning shard
// answers 400 naming the cell limit before any flight; the gateway relays
// that answer.
func TestGatewayRejectsOversizedMatrix(t *testing.T) {
	c := newTestCluster(t, 2, 1, service.Config{Workers: 1, CellParallelism: 2})
	p := trace.GoogleParams()
	p.Jobs = 2000000000
	body, err := json.Marshal(spec.Spec{
		Version:    spec.Version,
		Workload:   spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{{Name: "fair"}},
		Points:     []spec.Point{{X: 1, Machines: 1}},
		Runs:       2000000000,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.gwURL(0)+"/v1/matrices", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "65536-cell limit") {
		t.Errorf("%d-byte oversized spec: HTTP %d %s, want 400 naming the cell limit", len(body), resp.StatusCode, msg)
	}
	for _, svc := range c.shards {
		if m := svc.Metrics(); m.Submissions != 0 || m.Flights != 0 {
			t.Errorf("a shard counted %d submissions and %d flights, want none", m.Submissions, m.Flights)
		}
	}
}

// TestGatewayRejectsUnreachableTrace: a trace whose task-count mean the
// generator cannot reach fails spec validation, so the gateway answers 400
// at its edge and no shard counts a submission, a job or a flight.
func TestGatewayRejectsUnreachableTrace(t *testing.T) {
	p := trace.GoogleParams()
	p.MeanTasksPerJob = 1.9
	p.MaxTasksPerJob = 2
	rejectsTraceAtEdge(t, p, "unreachable")
}

// TestGatewayRejectsOverflowingTrace: a duration CV and mean whose product
// overflows fail spec validation the same way, instead of failing the job
// on a shard when its workload is expanded.
func TestGatewayRejectsOverflowingTrace(t *testing.T) {
	p := trace.GoogleParams()
	p.MeanTaskDuration = 1e308
	p.DurationCV = 10
	rejectsTraceAtEdge(t, p, "overflows")
}

// rejectsTraceAtEdge submits a 6-job spec over trace params p through a
// gateway and wants a 400 whose body contains want, with no shard counting
// a submission, a failed job or a flight.
func rejectsTraceAtEdge(t *testing.T, p trace.Params, want string) {
	t.Helper()
	c := newTestCluster(t, 2, 1, service.Config{Workers: 1, CellParallelism: 2})
	p.Jobs = 6
	body, err := json.Marshal(spec.Spec{
		Version:    spec.Version,
		Workload:   spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{{Name: "fair"}},
		Points:     []spec.Point{{X: 1, Machines: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.gwURL(0)+"/v1/matrices", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
		t.Errorf("HTTP %d %s, want 400 containing %q", resp.StatusCode, msg, want)
	}
	for _, svc := range c.shards {
		if m := svc.Metrics(); m.Submissions != 0 || m.JobsFailed != 0 || m.Flights != 0 {
			t.Errorf("a shard counted %d submissions, %d failed jobs and %d flights, want none",
				m.Submissions, m.JobsFailed, m.Flights)
		}
	}
}

// TestPoolHealthAndMetrics checks the aggregation routes against a healthy
// pool and again after one shard dies.
func TestPoolHealthAndMetrics(t *testing.T) {
	c := newTestCluster(t, 3, 1, service.Config{Workers: 1, CellParallelism: 2})
	base := c.gwURL(0)
	canon, _ := canonHash(t, testSpec(11))
	_, st := postSpec(t, base, canon)
	waitDone(t, base, st.ID)

	var health PoolHealth
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || len(health.Shards) != 3 {
		t.Fatalf("pool health = HTTP %d %+v, want ok with 3 shards", resp.StatusCode, health)
	}
	for _, sh := range health.Shards {
		if !sh.Up || sh.Health == nil || sh.Health.QueueCapacity == 0 {
			t.Fatalf("shard %s health %+v, want up with a shard probe payload", sh.Name, sh)
		}
	}

	metricsText := func() string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	m := metricsText()
	for _, want := range []string{
		"mrclone_flights_total 1", // summed across the pool
		"mrclone_gateway_shards 3",
		"mrclone_gateway_shards_up 3",
		"mrclone_gateway_submissions_total 1",
		`mrclone_gateway_shard_up{shard="s1"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("aggregated metrics missing %q:\n%s", want, m)
		}
	}

	// Drain one shard (reachable but rejecting work): the pool verdict must
	// degrade even though every shard still answers its probe.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer drainCancel()
	if err := c.shards[2].Close(drainCtx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health = PoolHealth{}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Fatalf("with a draining shard: HTTP %d status %q, want 200 degraded", resp.StatusCode, health.Status)
	}
	if !health.Shards[2].Up || health.Shards[2].Health == nil || health.Shards[2].Health.Status != "draining" {
		t.Fatalf("draining shard reported %+v, want up with status draining", health.Shards[2])
	}

	// Kill one shard: health degrades, its up-gauge drops, aggregation of
	// the survivors keeps working.
	c.shardSrvs[1].Close()
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health = PoolHealth{}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Fatalf("after shard death: HTTP %d status %q, want 200 degraded", resp.StatusCode, health.Status)
	}
	if health.Shards[1].Up || health.Shards[1].Error == "" {
		t.Fatalf("dead shard reported %+v, want down with an error", health.Shards[1])
	}
	m = metricsText()
	for _, want := range []string{
		"mrclone_gateway_shards_up 2",
		`mrclone_gateway_shard_up{shard="s1"} 0`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("degraded metrics missing %q", want)
		}
	}
}

// TestSubmitNoFailoverAfterDelivery pins the double-compute guard: a
// transport error after the connection was established (the request may
// have reached the owner) must NOT be replayed onto a replica — the client
// gets a 502 to retry — while a dial failure still fails over (chaos test).
func TestSubmitNoFailoverAfterDelivery(t *testing.T) {
	// A shard stub that accepts the connection, then kills it mid-response.
	killer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("hijacking unsupported")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer killer.Close()
	healthy := service.New(service.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = healthy.Close(ctx)
	}()
	healthySrv := httptest.NewServer(healthy.Handler())
	defer healthySrv.Close()

	ku, err := url.Parse(killer.URL)
	if err != nil {
		t.Fatal(err)
	}
	hu, err := url.Parse(healthySrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{Shards: []Shard{{Name: "bad", URL: ku}, {Name: "good", URL: hu}}})
	if err != nil {
		t.Fatal(err)
	}
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	// Pick a spec the ring places on the connection-killing shard.
	var canon []byte
	for seed := int64(1); ; seed++ {
		if seed > 200 {
			t.Fatal("no seed owned by the bad shard")
		}
		c, hash := canonHash(t, testSpec(seed))
		if gw.Ring().Lookup(hash) == "bad" {
			canon = c
			break
		}
	}
	resp, err := http.Post(gwSrv.URL+"/v1/matrices", "application/json", bytes.NewReader(canon))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("mid-response failure: HTTP %d (%s), want 502 with no failover", resp.StatusCode, body)
	}
	if got := healthy.Metrics().Submissions; got != 0 {
		t.Fatalf("replica accepted %d submissions after an ambiguous owner failure, want 0", got)
	}
}

// TestSubmitPoolDrainingIs503 pins the backpressure signal at the gateway
// boundary: when every replica answers 503 (a rolling restart draining the
// whole pool), the gateway relays retryable 503, not a hard 502.
func TestSubmitPoolDrainingIs503(t *testing.T) {
	c := newTestCluster(t, 2, 1, service.Config{Workers: 1, CellParallelism: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, svc := range c.shards {
		if err := svc.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	canon, _ := canonHash(t, testSpec(5))
	resp, err := http.Post(c.gwURL(0)+"/v1/matrices", "application/json", bytes.NewReader(canon))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pool-wide drain: HTTP %d (%s), want 503", resp.StatusCode, body)
	}
}

// TestGatewayAggregatesCellMetrics: the cell-cache counters are plain
// additive totals, so the gateway's summed /metrics surfaces cross-matrix
// cell reuse happening inside a durable shard.
func TestGatewayAggregatesCellMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One durable shard (the service owns and closes the store): placement
	// is deterministic, so the overlap below is guaranteed to hit its cache.
	c := newTestCluster(t, 1, 1, service.Config{
		Workers: 1, CellParallelism: 2, Store: st, GCInterval: -1,
	})
	base := c.gwURL(0)

	overlapping := func(points []spec.Point) spec.Spec {
		p := trace.GoogleParams()
		p.Jobs = 6
		p.Span = 120
		return spec.Spec{
			Workload:   spec.Workload{Trace: &p},
			Schedulers: []spec.Scheduler{{Name: "fair"}},
			Points:     points,
			Runs:       1,
			BaseSeed:   3,
		}
	}
	pA := spec.Point{X: 0, Machines: 20}
	pB := spec.Point{X: 1, Machines: 25}
	pC := spec.Point{X: 2, Machines: 30}

	canonA, _ := canonHash(t, overlapping([]spec.Point{pA, pB}))
	_, stA := postSpec(t, base, canonA)
	waitDone(t, base, stA.ID)
	canonB, _ := canonHash(t, overlapping([]spec.Point{pB, pC}))
	_, stB := postSpec(t, base, canonB)
	final := waitDone(t, base, stB.ID)
	if final.CachedCells != 1 {
		t.Errorf("overlapping matrix reports %d cached cells through the gateway, want 1", final.CachedCells)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := string(b)
	for _, want := range []string{
		"mrclone_cell_hits_total 1",   // the shared pB cell
		"mrclone_cell_misses_total 3", // pA, pB cold + pC
		"mrclone_gc_cells_total 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("aggregated metrics missing %q:\n%s", want, m)
		}
	}
	// Bytes were written for every simulated (missed) cell.
	for _, line := range strings.Split(m, "\n") {
		if v, ok := strings.CutPrefix(line, "mrclone_cell_bytes_total "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil || n <= 0 {
				t.Errorf("mrclone_cell_bytes_total = %q, want a positive sum", v)
			}
		}
	}
}
