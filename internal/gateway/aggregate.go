package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mrclone/internal/obs"
	"mrclone/internal/service"
)

// ShardHealth is one shard's entry in the aggregated /healthz payload.
type ShardHealth struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Up   bool   `json:"up"`
	// Breaker is the shard's circuit-breaker state ("closed", "open",
	// "half-open") at probe time.
	Breaker string `json:"breaker,omitempty"`
	// Error explains why the shard is down (transport or decode failure).
	Error string `json:"error,omitempty"`
	// Health is the shard's own /healthz payload when it answered.
	Health *service.Health `json:"health,omitempty"`
}

// PoolHealth is the gateway's /healthz payload: per-shard probes plus an
// overall verdict — "ok" (all shards up), "degraded" (some up), or "down".
type PoolHealth struct {
	Status        string        `json:"status"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Shards        []ShardHealth `json:"shards"`
}

// maxProbeBytes caps a shard's /healthz or /metrics body. A longer answer is
// a failed probe or scrape, never one summed from a truncated read.
const maxProbeBytes = 1 << 20

// probeGet fetches one shard path under the probe timeout, over the probe
// client rather than the request client. reached reports whether the shard
// answered at all: any HTTP response, even a non-200 or an oversized one,
// proves the shard is dialable, which is what its circuit breaker tracks.
func (g *Gateway) probeGet(parent context.Context, sh Shard, path string) (body []byte, reached bool, err error) {
	ctx, cancel := context.WithTimeout(parent, g.probeTimeout)
	defer cancel()
	u := *sh.URL
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := g.probeClient.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, true, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, maxProbeBytes+1))
	if err == nil && len(body) > maxProbeBytes {
		err = fmt.Errorf("%s answer exceeds %d bytes", path, maxProbeBytes)
	}
	return body, true, err
}

// probeHealth probes one shard's /healthz and feeds the outcome to the
// shard's circuit breaker: any HTTP answer closes it, a transport failure
// counts against it. Both the background probe loop and the aggregated
// /healthz route go through here, so either keeps breaker state fresh.
func (g *Gateway) probeHealth(ctx context.Context, sh Shard) ShardHealth {
	out := ShardHealth{Name: sh.Name, URL: sh.URL.String()}
	body, reached, err := g.probeGet(ctx, sh, "/healthz")
	var h service.Health
	if err == nil {
		if uerr := json.Unmarshal(body, &h); uerr != nil {
			err = fmt.Errorf("undecodable health payload: %w", uerr)
		}
	}
	if err != nil {
		out.Error = err.Error()
	} else {
		out.Up, out.Health = true, &h
	}
	if br := g.breakerFor(sh.Name); br != nil {
		if reached {
			br.Success()
		} else {
			br.Failure()
		}
		out.Breaker = br.State().String()
	}
	return out
}

// eachShard calls fn concurrently for every shard in order, with its index,
// and returns once every call has.
func eachShard(order []Shard, fn func(i int, sh Shard)) {
	var wg sync.WaitGroup
	for i, sh := range order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, sh)
		}()
	}
	wg.Wait()
}

// handleHealthz probes every shard concurrently and reports the pool
// verdict: "ok" only when every shard answers and accepts work ("draining"
// shards are reachable but rejecting submissions, so they degrade the pool
// like a down shard does), "degraded" while at least one shard answers,
// "down" (HTTP 503) when none do.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	view := g.currentView()
	out := PoolHealth{
		UptimeSeconds: time.Since(g.start).Seconds(),
		Shards:        make([]ShardHealth, len(view.order)),
	}
	eachShard(view.order, func(i int, sh Shard) { out.Shards[i] = g.probeHealth(r.Context(), sh) })
	up, accepting := 0, 0
	for _, sh := range out.Shards {
		if sh.Up {
			up++
			if sh.Health != nil && sh.Health.Status == "ok" {
				accepting++
			}
		}
	}
	code := http.StatusOK
	switch {
	case accepting == len(out.Shards):
		out.Status = "ok"
	case up > 0:
		out.Status = "degraded"
	default:
		out.Status = "down"
		code = http.StatusServiceUnavailable
	}
	service.WriteJSON(w, code, out)
}

// handleMetrics merges every shard family that is not process-local
// (service.LocalFamily; per-shard values remain on each shard's own
// /metrics) across the pool — counters and gauges sum per label set,
// histograms sum bucket-wise (all shards share the obs.LatencyBuckets
// layout, so equal `le` buckets add exactly) — and appends the gateway's own
// counters, its edge request histogram, a per-shard up gauge, and its
// runtime stats. Scrapes are parsed into whole families (obs.ParseExposition),
// not flattened series, so the pool can re-emit valid HELP/TYPE metadata. A
// shard that fails its scrape contributes nothing to the sums and reports up
// 0.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	view := g.currentView()
	merge := obs.NewMerge()
	up := make([]bool, len(view.order))
	var mu sync.Mutex
	eachShard(view.order, func(i int, sh Shard) {
		body, _, err := g.probeGet(r.Context(), sh, "/metrics")
		if err != nil {
			return
		}
		fams, err := obs.ParseExposition(string(body))
		if err != nil {
			return
		}
		keep := make([]*obs.Family, 0, len(fams))
		for _, f := range fams {
			if !service.LocalFamily(f.Name) {
				keep = append(keep, f)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		up[i] = true
		merge.Add(keep)
	})

	upCount := 0
	for _, ok := range up {
		if ok {
			upCount++
		}
	}
	w.Header().Set("Content-Type", obs.ExpoContentType)
	e := obs.NewExpoWriter(w)
	e.Comment(fmt.Sprintf("Pool aggregate: %d/%d shards answered their scrape.", upCount, len(view.order)))
	merge.WriteTo(e)
	e.Gauge("mrclone_gateway_shards", "Current pool size.", float64(len(view.order)))
	e.Gauge("mrclone_gateway_shards_up", "Shards that answered the last scrape.", float64(upCount))
	e.Counter("mrclone_gateway_requests_total", "Requests handled by this gateway.", float64(g.requests.Load()))
	e.Counter("mrclone_gateway_submissions_total", "Submissions routed by content hash.", float64(g.submissions.Load()))
	e.Counter("mrclone_gateway_failovers_total", "Submissions served by a non-owner replica.", float64(g.failovers.Load()))
	e.Counter("mrclone_gateway_shard_errors_total", "Upstream attempts that failed (transport or draining).", float64(g.shardErrors.Load()))
	e.Counter("mrclone_gateway_breaker_skips_total", "Upstream attempts short-circuited by an open circuit breaker (no dial).", float64(g.breakerSkips.Load()))
	e.Counter("mrclone_gateway_unauthorized_total", "Submissions rejected at the edge for missing or invalid credentials.", float64(g.unauthorized.Load()))
	e.Counter("mrclone_gateway_rate_limited_total", "Submissions rejected at the edge by a tenant's rate limit.", float64(g.rateLimited.Load()))
	e.Gauge("mrclone_gateway_uptime_seconds", "Gateway uptime.", time.Since(g.start).Seconds())
	e.HistogramSeries("mrclone_gateway_http_request_seconds",
		"Gateway HTTP request duration by route and status (includes the shard hop).",
		g.httpHist.Snapshots())
	e.Header("mrclone_gateway_shard_up", "Whether the shard answered the last scrape (1 = up).", "gauge")
	for i, sh := range view.order {
		v := 0.0
		if up[i] {
			v = 1
		}
		e.Sample("mrclone_gateway_shard_up", []obs.Label{{Name: "shard", Value: sh.Name}}, v)
	}
	e.Header("mrclone_gateway_breaker_state",
		"Circuit breaker position per shard (0 = closed, 1 = open, 2 = half-open).", "gauge")
	for _, sh := range view.order {
		if br := g.breakerFor(sh.Name); br != nil {
			e.Sample("mrclone_gateway_breaker_state",
				[]obs.Label{{Name: "shard", Value: sh.Name}}, float64(br.State()))
		}
	}
	obs.WriteRuntimeMetrics(e)
}
