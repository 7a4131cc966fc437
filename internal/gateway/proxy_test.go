package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"mrclone/internal/obs"
	"mrclone/internal/service"
)

// TestGatewayJobRoutes pins the one job-route proxy on all four job routes:
// the gateway's own 404s for a malformed ID and an unknown shard, a live
// shard's 404 for an unknown job passed through under X-Mrclone-Shard, a 502
// naming a killed shard that counts as a shard error, and a 502 from an open
// breaker that dials nothing and counts as a breaker skip instead.
func TestGatewayJobRoutes(t *testing.T) {
	c := newTestCluster(t, 2, 0, service.Config{Workers: 1, CellParallelism: 2})
	c.shardSrvs[1].Close() // s1 is killed; s0 stays live
	gateway := func(failures int) string {
		t.Helper()
		// No probe loop: only the requests below feed the breakers.
		gw, err := New(Config{Shards: c.pool, ProbeInterval: -1,
			BreakerFailures: failures, BreakerCooldown: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(gw.Close)
		srv := httptest.NewServer(gw.Handler())
		t.Cleanup(srv.Close)
		return srv.URL
	}
	dialing := gateway(1000) // s1's breaker stays closed: every request dials
	open := gateway(1)       // one failed dial opens s1's breaker
	do := func(method, u string) (int, http.Header, string) {
		t.Helper()
		req, err := http.NewRequest(method, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, string(body)
	}
	if code, _, body := do(http.MethodGet, open+"/v1/matrices/s1.m000001"); code != http.StatusBadGateway {
		t.Fatalf("opening s1's breaker: HTTP %d (%s), want 502", code, body)
	}

	for _, rt := range []struct{ method, suffix string }{
		{http.MethodGet, ""},
		{http.MethodDelete, ""},
		{http.MethodGet, "/result"},
		{http.MethodGet, "/events"},
	} {
		route := rt.method + " /v1/matrices/{id}" + rt.suffix
		path := func(id string) string { return "/v1/matrices/" + id + rt.suffix }

		for _, id := range []string{"no-separator", "ghost.m000001"} {
			if code, _, body := do(rt.method, dialing+path(id)); code != http.StatusNotFound {
				t.Errorf("%s with id %q: HTTP %d (%s), want 404", route, id, code, body)
			}
		}

		code, hdr, body := do(rt.method, dialing+path("s0.m999999"))
		if code != http.StatusNotFound || hdr.Get(HeaderShard) != "s0" || !strings.Contains(body, "unknown job") {
			t.Errorf("%s for an unknown job on s0: HTTP %d, %s %q, body %s; want the shard's 404 under %s s0",
				route, code, HeaderShard, hdr.Get(HeaderShard), body, HeaderShard)
		}

		errs := gatewayMetricValue(t, dialing, "mrclone_gateway_shard_errors_total")
		code, _, body = do(rt.method, dialing+path("s1.m000001"))
		if code != http.StatusBadGateway || !strings.Contains(body, "shard s1") {
			t.Errorf("%s on killed s1: HTTP %d (%s), want 502 naming s1", route, code, body)
		}
		if got := gatewayMetricValue(t, dialing, "mrclone_gateway_shard_errors_total"); got != errs+1 {
			t.Errorf("%s on killed s1: shard_errors_total %v -> %v, want +1", route, errs, got)
		}

		errs = gatewayMetricValue(t, open, "mrclone_gateway_shard_errors_total")
		skips := gatewayMetricValue(t, open, "mrclone_gateway_breaker_skips_total")
		code, _, body = do(rt.method, open+path("s1.m000001"))
		if code != http.StatusBadGateway || !strings.Contains(body, "shard s1") {
			t.Errorf("%s behind s1's open breaker: HTTP %d (%s), want 502 naming s1", route, code, body)
		}
		if got := gatewayMetricValue(t, open, "mrclone_gateway_shard_errors_total"); got != errs {
			t.Errorf("%s behind s1's open breaker: shard_errors_total %v -> %v, want unchanged", route, errs, got)
		}
		if got := gatewayMetricValue(t, open, "mrclone_gateway_breaker_skips_total"); got != skips+1 {
			t.Errorf("%s behind s1's open breaker: breaker_skips_total %v -> %v, want +1", route, skips, got)
		}
	}
}

// TestGatewayProbeBodyCap serves a shard whose /healthz and /metrics answers
// run past the 1 MiB probe cap. The exposition is valid and a line ends
// exactly at the cap, so a read cut there would still parse, with part of a
// family: the gateway must instead count the shard down on both routes and
// sum none of its samples.
func TestGatewayProbeBodyCap(t *testing.T) {
	var expo strings.Builder
	expo.WriteString("# HELP mrclone_big_total Padding samples.\n# TYPE mrclone_big_total counter\n")
	for i := 0; expo.Len() < maxProbeBytes-64; i++ {
		fmt.Fprintf(&expo, "mrclone_big_total{i=\"%d\"} 1\n", i)
	}
	const head, tail = `mrclone_big_total{i="pad",p="`, "\"} 1\n"
	expo.WriteString(head + strings.Repeat("x", maxProbeBytes-expo.Len()-len(head)-len(tail)) + tail)
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&expo, "mrclone_big_total{i=\"after%d\"} 1\n", i)
	}
	metrics := expo.String()
	if metrics[maxProbeBytes-1] != '\n' {
		t.Fatal("test exposition: no line ends at the cap")
	}
	for _, body := range []string{metrics, metrics[:maxProbeBytes]} {
		if _, err := obs.ParseExposition(body); err != nil {
			t.Fatalf("test exposition of %d bytes does not parse: %v", len(body), err)
		}
	}
	health, err := json.Marshal(service.Health{Status: "ok", QueueCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	healthz := string(health) + strings.Repeat(" ", maxProbeBytes)

	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			io.WriteString(w, metrics)
		case "/healthz":
			io.WriteString(w, healthz)
		default:
			http.NotFound(w, r)
		}
	}))
	defer big.Close()
	u, err := url.Parse(big.URL)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{Shards: []Shard{{Name: "big", URL: u}}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	m := scrape(t, srv.URL)
	if up := metricValue(t, m, `mrclone_gateway_shard_up{shard="big"}`); up != 0 {
		t.Errorf("gateway /metrics over an oversized scrape: shard_up %v, want 0", up)
	}
	if n := strings.Count(m, "\nmrclone_big_total{"); n != 0 {
		t.Errorf("gateway /metrics over an oversized scrape sums %d of its samples, want none", n)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ph PoolHealth
	if err := json.NewDecoder(resp.Body).Decode(&ph); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || len(ph.Shards) != 1 || ph.Shards[0].Up ||
		!strings.Contains(ph.Shards[0].Error, "exceeds") {
		t.Errorf("gateway /healthz over an oversized probe: HTTP %d %+v, want 503 with the shard down for its size",
			resp.StatusCode, ph)
	}
}
