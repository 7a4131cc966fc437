package gateway

import (
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

	"mrclone/internal/service"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
	"mrclone/internal/tenant"
	"mrclone/internal/trace"
)

// tenantList is the registry both tiers share in these tests. Each shard
// (and the gateway, when it acts as an admission edge) gets its own
// Registry instance built from it: rate-limiter buckets are per-process
// state, exactly as separate mrserved/mrgated processes would hold them.
func tenantList() []tenant.Tenant {
	return []tenant.Tenant{
		{Name: "alpha", Token: "tok-alpha", Weight: 3},
		{Name: "bravo", Token: "tok-bravo", Weight: 1},
		{Name: "ops", Token: "tok-ops"},
	}
}

func mustRegistry(t *testing.T, tenants []tenant.Tenant) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// newTenantCluster builds a cluster like newTestCluster but with per-shard
// service configs (each shard needs its own registry and, for srpt, its own
// store) and a hook to extend the gateway config.
func newTenantCluster(t *testing.T, nShards, nGateways int,
	shardCfg func(i int) service.Config, gwCfg func(Config) Config) *testCluster {
	t.Helper()
	c := &testCluster{}
	for i := 0; i < nShards; i++ {
		svc := service.New(shardCfg(i))
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
		cfg := Config{Shards: c.pool}
		if gwCfg != nil {
			cfg = gwCfg(cfg)
		}
		gw, err := New(cfg)
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

// tokRequest issues one gateway request with a bearer token.
func tokRequest(t *testing.T, method, url, token string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postSpecTok submits spec bytes with a token and decodes the namespaced
// status, failing unless the submission was accepted.
func postSpecTok(t *testing.T, base string, body []byte, token string) service.JobStatus {
	t.Helper()
	resp := tokRequest(t, http.MethodPost, base+"/v1/matrices", token, body)
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
	return st
}

// getStatusTok fetches a namespaced job's status with a token.
func getStatusTok(t *testing.T, base, id, token string) (int, service.JobStatus) {
	t.Helper()
	resp := tokRequest(t, http.MethodGet, base+"/v1/matrices/"+id, token, nil)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st service.JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("status: undecodable %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st
}

// waitDoneTok polls a namespaced job with a token until done.
func waitDoneTok(t *testing.T, base, id, token string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatusTok(t, base, id, token)
		if code != http.StatusOK {
			t.Fatalf("job %s: HTTP %d", id, code)
		}
		if st.State == service.StateDone {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.JobStatus{}
}

// seedOnShard searches seeds from `start` until build(seed) content-hashes
// onto the wanted shard, so a test can pin work to one shard's queue.
func seedOnShard(t *testing.T, gw *Gateway, shard string, start int64, build func(int64) spec.Spec) spec.Spec {
	t.Helper()
	for seed := start; seed < start+4096; seed++ {
		sp := build(seed)
		_, hash := canonHash(t, sp)
		if gw.Ring().Lookup(hash) == shard {
			return sp
		}
	}
	t.Fatalf("no seed in [%d,%d) lands on shard %s", start, start+4096, shard)
	return spec.Spec{}
}

// mediumSpec is heavy enough (~tens of ms) that a 1ms status-poll loop can
// observe each flight's start on a Workers=1 shard.
func mediumSpec(seed int64) spec.Spec {
	p := trace.GoogleParams()
	p.Jobs = 300
	p.Span = 3000
	return spec.Spec{
		Workload:   spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{{Name: "srptms+c"}},
		Points:     []spec.Point{{X: 0, Machines: 25}},
		Runs:       1,
		BaseSeed:   seed,
	}
}

// blockerSpec occupies a Workers=1 shard for long enough to stack a backlog
// behind it (a few hundred ms at least), without dragging out the drain.
// Runs is calibrated to the discrete-event engine; if the engine gets
// faster, raise it — backlog-dependent assertions (fair-share splits,
// queued-quota 429s) silently degrade to FIFO/no-op observations when the
// blocker drains before the backlog forms.
func blockerSpec(seed int64) spec.Spec {
	sp := mediumSpec(seed)
	sp.Runs = 64
	return sp
}

// recordRunOrder watches namespaced jobs on one shard until all are done,
// returning the order in which their flights were first observed started
// (running or already terminal). On a Workers=1 shard that is the dequeue
// order. Observation goes straight to the shard service — a poll round is
// a handful of in-process Gets (microseconds), far finer-grained than the
// shortest matrix run, where polling over HTTP could see two consecutive
// short runs in one round and record them in submission order.
func recordRunOrder(t *testing.T, svc *service.Service, ids []string) []string {
	t.Helper()
	local := make(map[string]string, len(ids))
	for _, id := range ids {
		_, rest, ok := strings.Cut(id, idSep)
		if !ok {
			t.Fatalf("job ID %q is not shard-namespaced", id)
		}
		local[id] = rest
	}
	seen := make(map[string]bool, len(ids))
	var order []string
	done := 0
	deadline := time.Now().Add(120 * time.Second)
	for done < len(ids) {
		if time.Now().After(deadline) {
			t.Fatalf("observed only %d/%d runs (order %v)", len(order), len(ids), order)
		}
		done = 0
		for _, id := range ids {
			st, err := svc.Get(local[id])
			if err != nil {
				t.Fatal(err)
			}
			if st.State == service.StateFailed || st.State == service.StateCancelled {
				t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
			}
			if st.State.Terminal() {
				done++
			}
			if !seen[id] && (st.State == service.StateRunning || st.State.Terminal()) {
				seen[id] = true
				order = append(order, id)
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return order
}

// TestTenantFairShareThroughGateway is the weighted-fairness acceptance:
// alpha (weight 3) and bravo (weight 1) hold sustained backlogs on one
// shard of a two-shard cluster; under -queue-policy fair the shard's
// dequeue order converges on a ~3:1 split while both backlogs last.
func TestTenantFairShareThroughGateway(t *testing.T) {
	c := newTenantCluster(t, 2, 1, func(i int) service.Config {
		return service.Config{
			Workers: 1, CellParallelism: 2, QueueDepth: 64,
			Tenants:     mustRegistry(t, tenantList()),
			QueuePolicy: tenant.PolicyFair,
		}
	}, nil)
	base := c.gwURL(0)
	gw := c.gateways[0]

	// Occupy s0's worker, then stack interleaved backlogs behind it.
	blocker := seedOnShard(t, gw, "s0", 900, blockerSpec)
	canon, _ := canonHash(t, blocker)
	bst := postSpecTok(t, base, canon, "tok-ops")
	waitRunningTok(t, base, bst.ID, "tok-ops")

	var ids []string
	owner := make(map[string]string)
	seed := int64(1)
	for i := 0; i < 8; i++ {
		for _, token := range []string{"tok-alpha", "tok-bravo"} {
			sp := seedOnShard(t, gw, "s0", seed, mediumSpec)
			seed = sp.BaseSeed + 1
			st := postSpecTok(t, base, mustCanon(t, sp), token)
			if want := strings.TrimPrefix(token, "tok-"); st.Tenant != want {
				t.Fatalf("submission tenant %q, want %q", st.Tenant, want)
			}
			ids = append(ids, st.ID)
			owner[st.ID] = token
		}
	}

	order := recordRunOrder(t, c.shardFor(t, "s0"), ids)
	// While both backlogs last — bravo's 8 jobs guarantee that for at
	// least the first 8 contested dequeues — weight 3 should win alpha
	// roughly 6 of every 8.
	var owners []string
	for _, id := range order {
		owners = append(owners, strings.TrimPrefix(owner[id], "tok-"))
	}
	t.Logf("dequeue order: %v ids: %v", owners, order)
	alphaWins := 0
	for _, id := range order[:8] {
		if owner[id] == "tok-alpha" {
			alphaWins++
		}
	}
	if alphaWins < 5 || alphaWins > 7 {
		t.Fatalf("alpha won %d of the first 8 contested dequeues, want ~6 (3:1 weights)", alphaWins)
	}
	waitDoneTok(t, base, bst.ID, "tok-ops")
}

func mustCanon(t *testing.T, sp spec.Spec) []byte {
	t.Helper()
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// waitRunningTok polls until the job's flight has started.
func waitRunningTok(t *testing.T, base, id, token string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatusTok(t, base, id, token)
		if code != http.StatusOK {
			t.Fatalf("job %s: HTTP %d", id, code)
		}
		if st.State == service.StateRunning {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s early", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestTenantSRPTJumpsQueueThroughGateway is the dogfooding acceptance at
// cluster level: with shards running -queue-policy srpt over their cell
// stores, a small mostly-cached matrix submitted after a large cold one
// runs (and finishes) first, because its cached cells shrink its estimated
// size.
func TestTenantSRPTJumpsQueueThroughGateway(t *testing.T) {
	c := newTenantCluster(t, 2, 1, func(i int) service.Config {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return service.Config{
			Workers: 1, CellParallelism: 2, QueueDepth: 16, Store: st,
			QueuePolicy: tenant.PolicySRPT,
		}
	}, nil)
	base := c.gwURL(0)
	gw := c.gateways[0]

	pointA := spec.Point{X: 0, Machines: 20}
	pointB := spec.Point{X: 1, Machines: 25}
	pointD := spec.Point{X: 9, Machines: 40}
	pointE := spec.Point{X: 10, Machines: 45}
	family := func(points []spec.Point) func(int64) spec.Spec {
		return func(seed int64) spec.Spec {
			p := trace.GoogleParams()
			p.Jobs = 200
			p.Span = 2000
			return spec.Spec{
				Workload:   spec.Workload{Trace: &p},
				Schedulers: []spec.Scheduler{{Name: "fair"}},
				Points:     points,
				Runs:       2,
				BaseSeed:   seed,
			}
		}
	}
	// Warm and small must share a seed (cell reuse) and a shard; find a
	// seed that pins both hashes to s0, then pin the others independently.
	var warm, small spec.Spec
	for seed := int64(1); ; seed++ {
		if seed > 4096 {
			t.Fatal("no seed pins warm+small to s0")
		}
		warm, small = family([]spec.Point{pointA, pointB})(seed), family([]spec.Point{pointA, pointD})(seed)
		_, wh := canonHash(t, warm)
		_, sh := canonHash(t, small)
		if gw.Ring().Lookup(wh) == "s0" && gw.Ring().Lookup(sh) == "s0" {
			break
		}
	}
	// The cold matrix shares no cells with the warm run: fresh points, its
	// own seed, pinned to the same shard.
	cold := seedOnShard(t, gw, "s0", 5000,
		family([]spec.Point{pointD, pointE, {X: 11, Machines: 50}}))
	blocker := seedOnShard(t, gw, "s0", 9000, blockerSpec)

	// Warm the shard's cell cache with pointA and pointB.
	wst := postSpecTok(t, base, mustCanon(t, warm), "")
	waitDone(t, base, wst.ID)

	// Occupy the worker, then queue cold (6 cells) before small (4 cells,
	// 2 of them cached → estimated size 2 cells).
	bst := postSpecTok(t, base, mustCanon(t, blocker), "")
	waitRunningTok(t, base, bst.ID, "")
	cst := postSpecTok(t, base, mustCanon(t, cold), "")
	sst := postSpecTok(t, base, mustCanon(t, small), "")

	order := recordRunOrder(t, c.shardFor(t, "s0"), []string{cst.ID, sst.ID})
	if order[0] != sst.ID {
		t.Fatalf("cold large matrix ran before the mostly-cached small one (order %v)", order)
	}
	final := waitDoneTok(t, base, sst.ID, "")
	if final.CachedCells != 2 {
		t.Fatalf("small matrix resolved %d cells from cache, want 2", final.CachedCells)
	}
	waitDoneTok(t, base, bst.ID, "")
}

// TestTenantQuotaThroughGateway: a tenant at its queued-jobs quota gets a
// 429 with Retry-After through the gateway — passed through untouched —
// while another tenant's submissions to the same shard proceed.
func TestTenantQuotaThroughGateway(t *testing.T) {
	tenants := []tenant.Tenant{
		{Name: "alpha", Token: "tok-alpha", MaxQueued: 1},
		{Name: "bravo", Token: "tok-bravo"},
		{Name: "ops", Token: "tok-ops"},
	}
	c := newTenantCluster(t, 2, 1, func(i int) service.Config {
		return service.Config{
			Workers: 1, CellParallelism: 2, QueueDepth: 32,
			Tenants: mustRegistry(t, tenants),
		}
	}, nil)
	base := c.gwURL(0)
	gw := c.gateways[0]

	blocker := seedOnShard(t, gw, "s0", 900, blockerSpec)
	bst := postSpecTok(t, base, mustCanon(t, blocker), "tok-ops")
	waitRunningTok(t, base, bst.ID, "tok-ops")

	q1 := seedOnShard(t, gw, "s0", 1, testSpec)
	st1 := postSpecTok(t, base, mustCanon(t, q1), "tok-alpha")

	q2 := seedOnShard(t, gw, "s0", q1.BaseSeed+1, testSpec)
	resp := tokRequest(t, http.MethodPost, base+"/v1/matrices", "tok-alpha", mustCanon(t, q2))
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission: HTTP %d: %s", resp.StatusCode, raw)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("429 Retry-After %q did not survive the proxy hop", resp.Header.Get("Retry-After"))
	}

	// Same shard, different tenant: unaffected.
	q3 := seedOnShard(t, gw, "s0", q2.BaseSeed+1, testSpec)
	st3 := postSpecTok(t, base, mustCanon(t, q3), "tok-bravo")

	waitDoneTok(t, base, st1.ID, "tok-alpha")
	waitDoneTok(t, base, st3.ID, "tok-bravo")
	waitDoneTok(t, base, bst.ID, "tok-ops")

	// The quota freed as alpha's job finished.
	q4 := seedOnShard(t, gw, "s0", q3.BaseSeed+1, testSpec)
	st4 := postSpecTok(t, base, mustCanon(t, q4), "tok-alpha")
	waitDoneTok(t, base, st4.ID, "tok-alpha")
}

// TestTenantMetricsAggregateAcrossShards: per-tenant labeled series from
// every shard sum through the gateway's /metrics, keyed by tenant.
func TestTenantMetricsAggregateAcrossShards(t *testing.T) {
	c := newTenantCluster(t, 2, 1, func(i int) service.Config {
		return service.Config{
			Workers: 2, CellParallelism: 2, QueueDepth: 32,
			Tenants: mustRegistry(t, tenantList()),
		}
	}, nil)
	base := c.gwURL(0)
	gw := c.gateways[0]

	// Spread alpha submissions over both shards: pin one to each.
	var ids []string
	for _, shard := range []string{"s0", "s1"} {
		for k := 0; k < 2; k++ {
			sp := seedOnShard(t, gw, shard, int64(1+100*k), testSpec)
			if shard == "s1" {
				sp = seedOnShard(t, gw, shard, sp.BaseSeed+1000, testSpec)
			}
			st := postSpecTok(t, base, mustCanon(t, sp), "tok-alpha")
			ids = append(ids, st.ID)
		}
	}
	for _, id := range ids {
		waitDoneTok(t, base, id, "tok-alpha")
	}

	// Both shards must have served alpha, or the aggregation check is
	// vacuous.
	for i, svc := range c.shards {
		if svc.Metrics().Tenants["alpha"].Submitted == 0 {
			t.Fatalf("shard s%d served no alpha submissions", i)
		}
	}

	resp := tokRequest(t, http.MethodGet, base+"/metrics", "", nil)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := `mrclone_tenant_submitted_total{tenant="alpha"}`
	got := metricValue(t, string(body), series)
	if got != float64(len(ids)) {
		t.Fatalf("%s = %g through the gateway, want %d (summed across shards)\n%s",
			series, got, len(ids), body)
	}
}

// metricValue extracts one series' value from a Prometheus text payload.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), series)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s missing from:\n%s", series, body)
	return 0
}

// TestGatewayEdgeRateLimit: with a registry on the gateway itself,
// admission happens before routing — the shards stay anonymous and never
// see the rejected request.
func TestGatewayEdgeRateLimit(t *testing.T) {
	c := newTenantCluster(t, 2, 1, func(i int) service.Config {
		return service.Config{Workers: 1, CellParallelism: 2, QueueDepth: 16}
	}, func(cfg Config) Config {
		cfg.Tenants = mustRegistry(t, []tenant.Tenant{
			{Name: "alpha", Token: "tok-alpha", Rate: 0.2, Burst: 1},
		})
		return cfg
	})
	base := c.gwURL(0)

	// No token: rejected at the edge with a challenge.
	resp := tokRequest(t, http.MethodPost, base+"/v1/matrices", "", mustCanon(t, testSpec(1)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized || resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatalf("unauthenticated edge submit: HTTP %d", resp.StatusCode)
	}

	st := postSpecTok(t, base, mustCanon(t, testSpec(2)), "tok-alpha")

	resp = tokRequest(t, http.MethodPost, base+"/v1/matrices", "tok-alpha", mustCanon(t, testSpec(3)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate edge submit: HTTP %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("edge 429 Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	waitDone(t, base, st.ID)

	// Only the admitted submission reached any shard.
	var submissions int64
	for _, svc := range c.shards {
		submissions += svc.Metrics().Submissions
	}
	if submissions != 1 {
		t.Fatalf("shards saw %d submissions, want 1 (edge must reject before routing)", submissions)
	}

	// The gateway's own counters record both rejections.
	resp = tokRequest(t, http.MethodGet, base+"/metrics", "", nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if metricValue(t, string(body), "mrclone_gateway_rate_limited_total") != 1 {
		t.Fatal("edge rate-limit rejection not counted")
	}
	if metricValue(t, string(body), "mrclone_gateway_unauthorized_total") != 1 {
		t.Fatal("edge auth rejection not counted")
	}
}

// TestReloadTenantsRules holds the gateway's registry swap to the service's
// rules: a nil registry is rejected, a gateway started without one cannot
// take one, and a tenanted gateway admits by the registry it was last given.
func TestReloadTenantsRules(t *testing.T) {
	u, err := url.Parse("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	newGateway := func(reg *tenant.Registry) *Gateway {
		g, err := New(Config{Shards: []Shard{{Name: "s0", URL: u}}, ProbeInterval: -1, Tenants: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	admits := func(g *Gateway, token string) bool {
		req := httptest.NewRequest(http.MethodPost, "/v1/matrices", nil)
		req.Header.Set("Authorization", "Bearer "+token)
		return g.admit(httptest.NewRecorder(), req)
	}

	anon := newGateway(nil)
	if err := anon.ReloadTenants(mustRegistry(t, tenantList())); err == nil {
		t.Error("an anonymous gateway took a registry")
	}
	if !admits(anon, "tok-nobody") {
		t.Error("an anonymous gateway rejected a submission after a refused reload")
	}

	g := newGateway(mustRegistry(t, tenantList()[:1]))
	if err := g.ReloadTenants(nil); err == nil {
		t.Error("a nil registry was accepted")
	}
	if admits(g, "tok-bravo") {
		t.Fatal("bravo admitted before the reload")
	}
	if err := g.ReloadTenants(mustRegistry(t, tenantList())); err != nil {
		t.Fatal(err)
	}
	if !admits(g, "tok-bravo") || !admits(g, "tok-alpha") {
		t.Fatal("the reloaded registry does not admit its tenants")
	}

	// Swaps race admissions: alpha is in every registry swapped in, so each
	// admission passes whichever registry it loaded.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				if !admits(g, "tok-alpha") {
					t.Error("alpha rejected during reloads")
					return
				}
			}
		}()
	}
	for i := range 100 {
		if err := g.ReloadTenants(mustRegistry(t, tenantList()[:1+i%3])); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}
