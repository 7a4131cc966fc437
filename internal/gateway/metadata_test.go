package gateway

import (
	"strings"
	"testing"

	"mrclone/internal/service"
)

// shardMetadata is the ordered # HELP/# TYPE stream of a tenant-enabled
// shard's /metrics once it holds a tenant account and has served a request:
// every scalar family, the request histogram, the runtime stats, and the
// per-tenant families. Names, HELP texts, types and their order are wire
// contract (docs/API.md); a change here is a change scrapers see.
var shardMetadata = []string{
	"# HELP mrclone_submissions_total Matrix submissions accepted.",
	"# TYPE mrclone_submissions_total counter",
	"# HELP mrclone_cache_hits_total Submissions served from the in-memory result cache.",
	"# TYPE mrclone_cache_hits_total counter",
	"# HELP mrclone_disk_hits_total Artifact reads served from the disk store.",
	"# TYPE mrclone_disk_hits_total counter",
	"# HELP mrclone_dedup_hits_total Submissions attached to an in-flight computation.",
	"# TYPE mrclone_dedup_hits_total counter",
	"# HELP mrclone_flights_total Distinct matrix computations registered.",
	"# TYPE mrclone_flights_total counter",
	"# HELP mrclone_jobs_done_total Jobs finished successfully.",
	"# TYPE mrclone_jobs_done_total counter",
	"# HELP mrclone_jobs_failed_total Jobs finished in failure.",
	"# TYPE mrclone_jobs_failed_total counter",
	"# HELP mrclone_jobs_cancelled_total Jobs cancelled by clients or shutdown.",
	"# TYPE mrclone_jobs_cancelled_total counter",
	"# HELP mrclone_gc_jobs_total Terminal jobs aged out of the job table.",
	"# TYPE mrclone_gc_jobs_total counter",
	"# HELP mrclone_gc_artifacts_total TTL-expired artifacts deleted from the disk store.",
	"# TYPE mrclone_gc_artifacts_total counter",
	"# HELP mrclone_quarantined_total Corrupt disk entries moved to quarantine.",
	"# TYPE mrclone_quarantined_total counter",
	"# HELP mrclone_store_errors_total Disk store operations that failed.",
	"# TYPE mrclone_store_errors_total counter",
	"# HELP mrclone_queue_depth Matrices waiting for a worker.",
	"# TYPE mrclone_queue_depth gauge",
	"# HELP mrclone_queue_capacity Bounded queue capacity.",
	"# TYPE mrclone_queue_capacity gauge",
	"# HELP mrclone_cache_entries Matrices held in the in-memory result cache.",
	"# TYPE mrclone_cache_entries gauge",
	"# HELP mrclone_cache_bytes Artifact bytes held in the in-memory result cache.",
	"# TYPE mrclone_cache_bytes gauge",
	"# HELP mrclone_jobs_tracked Job records currently in the job table.",
	"# TYPE mrclone_jobs_tracked gauge",
	"# HELP mrclone_persistent 1 when a disk store is configured.",
	"# TYPE mrclone_persistent gauge",
	"# HELP mrclone_cells_done_total Matrix cells landed (simulated or resolved from the cell cache).",
	"# TYPE mrclone_cells_done_total counter",
	"# HELP mrclone_cell_hits_total Cells resolved from the content-addressed cell cache.",
	"# TYPE mrclone_cell_hits_total counter",
	"# HELP mrclone_cell_misses_total Cell lookups that missed the cell cache.",
	"# TYPE mrclone_cell_misses_total counter",
	"# HELP mrclone_cell_bytes_total Cell payload bytes written to the cell store.",
	"# TYPE mrclone_cell_bytes_total counter",
	"# HELP mrclone_gc_cells_total Expired or evicted cell records deleted from the disk store.",
	"# TYPE mrclone_gc_cells_total counter",
	"# HELP mrclone_assembled_total Matrices assembled entirely from cached cells without a worker slot.",
	"# TYPE mrclone_assembled_total counter",
	"# HELP mrclone_peer_fetch_hits_total Artifacts and cells adopted from a peer shard after a pool membership change.",
	"# TYPE mrclone_peer_fetch_hits_total counter",
	"# HELP mrclone_peer_fetch_misses_total Peer fetches that missed or failed verification and fell back to recomputation.",
	"# TYPE mrclone_peer_fetch_misses_total counter",
	"# HELP mrclone_peer_fetch_bytes_total Payload bytes installed from verified peer fetches.",
	"# TYPE mrclone_peer_fetch_bytes_total counter",
	"# HELP mrclone_unauthorized_total Requests rejected for missing or invalid credentials.",
	"# TYPE mrclone_unauthorized_total counter",
	"# HELP mrclone_uptime_seconds Service uptime.",
	"# TYPE mrclone_uptime_seconds gauge",
	"# HELP mrclone_cells_per_second Lifetime mean simulation throughput.",
	"# TYPE mrclone_cells_per_second gauge",
	"# HELP mrclone_http_request_seconds HTTP request duration by route and status.",
	"# TYPE mrclone_http_request_seconds histogram",
	"# HELP mrclone_queue_wait_seconds Time jobs waited in the queue before running.",
	"# TYPE mrclone_queue_wait_seconds histogram",
	"# HELP mrclone_run_seconds Worker wall-clock time per matrix flight.",
	"# TYPE mrclone_run_seconds histogram",
	"# HELP mrclone_cell_seconds Simulation time per matrix cell (cache hits excluded).",
	"# TYPE mrclone_cell_seconds histogram",
	"# HELP go_goroutines Number of live goroutines.",
	"# TYPE go_goroutines gauge",
	"# HELP go_heap_alloc_bytes Bytes of allocated heap objects.",
	"# TYPE go_heap_alloc_bytes gauge",
	"# HELP go_heap_objects Number of allocated heap objects.",
	"# TYPE go_heap_objects gauge",
	"# HELP go_heap_sys_bytes Bytes of heap memory obtained from the OS.",
	"# TYPE go_heap_sys_bytes gauge",
	"# HELP go_next_gc_bytes Heap size target of the next GC cycle.",
	"# TYPE go_next_gc_bytes gauge",
	"# HELP go_alloc_bytes_total Cumulative bytes allocated for heap objects.",
	"# TYPE go_alloc_bytes_total counter",
	"# HELP go_gc_cycles_total Completed GC cycles.",
	"# TYPE go_gc_cycles_total counter",
	"# HELP go_gc_pause_seconds_total Cumulative stop-the-world GC pause time.",
	"# TYPE go_gc_pause_seconds_total counter",
	"# HELP mrclone_tenant_submitted_total Submissions accepted, by tenant.",
	"# TYPE mrclone_tenant_submitted_total counter",
	"# HELP mrclone_tenant_rejected_total Submissions rejected by quota or rate limit, by tenant.",
	"# TYPE mrclone_tenant_rejected_total counter",
	"# HELP mrclone_tenant_queued Jobs waiting for a worker, by tenant.",
	"# TYPE mrclone_tenant_queued gauge",
	"# HELP mrclone_tenant_running Jobs occupying a worker, by tenant.",
	"# TYPE mrclone_tenant_running gauge",
	"# HELP mrclone_tenant_cell_seconds_total Worker wall-clock seconds consumed, by tenant.",
	"# TYPE mrclone_tenant_cell_seconds_total counter",
}

// gatewayMetadata is the same stream for a gateway over that shard: the
// pool-additive shard families sorted by name (pool-local ones and the
// shard's go_* stats dropped), then the gateway's own families and its
// runtime stats.
var gatewayMetadata = []string{
	"# HELP mrclone_assembled_total Matrices assembled entirely from cached cells without a worker slot.",
	"# TYPE mrclone_assembled_total counter",
	"# HELP mrclone_cache_bytes Artifact bytes held in the in-memory result cache.",
	"# TYPE mrclone_cache_bytes gauge",
	"# HELP mrclone_cache_entries Matrices held in the in-memory result cache.",
	"# TYPE mrclone_cache_entries gauge",
	"# HELP mrclone_cache_hits_total Submissions served from the in-memory result cache.",
	"# TYPE mrclone_cache_hits_total counter",
	"# HELP mrclone_cell_bytes_total Cell payload bytes written to the cell store.",
	"# TYPE mrclone_cell_bytes_total counter",
	"# HELP mrclone_cell_hits_total Cells resolved from the content-addressed cell cache.",
	"# TYPE mrclone_cell_hits_total counter",
	"# HELP mrclone_cell_misses_total Cell lookups that missed the cell cache.",
	"# TYPE mrclone_cell_misses_total counter",
	"# HELP mrclone_cell_seconds Simulation time per matrix cell (cache hits excluded).",
	"# TYPE mrclone_cell_seconds histogram",
	"# HELP mrclone_cells_done_total Matrix cells landed (simulated or resolved from the cell cache).",
	"# TYPE mrclone_cells_done_total counter",
	"# HELP mrclone_dedup_hits_total Submissions attached to an in-flight computation.",
	"# TYPE mrclone_dedup_hits_total counter",
	"# HELP mrclone_disk_hits_total Artifact reads served from the disk store.",
	"# TYPE mrclone_disk_hits_total counter",
	"# HELP mrclone_flights_total Distinct matrix computations registered.",
	"# TYPE mrclone_flights_total counter",
	"# HELP mrclone_gc_artifacts_total TTL-expired artifacts deleted from the disk store.",
	"# TYPE mrclone_gc_artifacts_total counter",
	"# HELP mrclone_gc_cells_total Expired or evicted cell records deleted from the disk store.",
	"# TYPE mrclone_gc_cells_total counter",
	"# HELP mrclone_gc_jobs_total Terminal jobs aged out of the job table.",
	"# TYPE mrclone_gc_jobs_total counter",
	"# HELP mrclone_http_request_seconds HTTP request duration by route and status.",
	"# TYPE mrclone_http_request_seconds histogram",
	"# HELP mrclone_jobs_cancelled_total Jobs cancelled by clients or shutdown.",
	"# TYPE mrclone_jobs_cancelled_total counter",
	"# HELP mrclone_jobs_done_total Jobs finished successfully.",
	"# TYPE mrclone_jobs_done_total counter",
	"# HELP mrclone_jobs_failed_total Jobs finished in failure.",
	"# TYPE mrclone_jobs_failed_total counter",
	"# HELP mrclone_jobs_tracked Job records currently in the job table.",
	"# TYPE mrclone_jobs_tracked gauge",
	"# HELP mrclone_peer_fetch_bytes_total Payload bytes installed from verified peer fetches.",
	"# TYPE mrclone_peer_fetch_bytes_total counter",
	"# HELP mrclone_peer_fetch_hits_total Artifacts and cells adopted from a peer shard after a pool membership change.",
	"# TYPE mrclone_peer_fetch_hits_total counter",
	"# HELP mrclone_peer_fetch_misses_total Peer fetches that missed or failed verification and fell back to recomputation.",
	"# TYPE mrclone_peer_fetch_misses_total counter",
	"# HELP mrclone_quarantined_total Corrupt disk entries moved to quarantine.",
	"# TYPE mrclone_quarantined_total counter",
	"# HELP mrclone_queue_capacity Bounded queue capacity.",
	"# TYPE mrclone_queue_capacity gauge",
	"# HELP mrclone_queue_depth Matrices waiting for a worker.",
	"# TYPE mrclone_queue_depth gauge",
	"# HELP mrclone_queue_wait_seconds Time jobs waited in the queue before running.",
	"# TYPE mrclone_queue_wait_seconds histogram",
	"# HELP mrclone_run_seconds Worker wall-clock time per matrix flight.",
	"# TYPE mrclone_run_seconds histogram",
	"# HELP mrclone_store_errors_total Disk store operations that failed.",
	"# TYPE mrclone_store_errors_total counter",
	"# HELP mrclone_submissions_total Matrix submissions accepted.",
	"# TYPE mrclone_submissions_total counter",
	"# HELP mrclone_tenant_cell_seconds_total Worker wall-clock seconds consumed, by tenant.",
	"# TYPE mrclone_tenant_cell_seconds_total counter",
	"# HELP mrclone_tenant_queued Jobs waiting for a worker, by tenant.",
	"# TYPE mrclone_tenant_queued gauge",
	"# HELP mrclone_tenant_rejected_total Submissions rejected by quota or rate limit, by tenant.",
	"# TYPE mrclone_tenant_rejected_total counter",
	"# HELP mrclone_tenant_running Jobs occupying a worker, by tenant.",
	"# TYPE mrclone_tenant_running gauge",
	"# HELP mrclone_tenant_submitted_total Submissions accepted, by tenant.",
	"# TYPE mrclone_tenant_submitted_total counter",
	"# HELP mrclone_unauthorized_total Requests rejected for missing or invalid credentials.",
	"# TYPE mrclone_unauthorized_total counter",
	"# HELP mrclone_gateway_shards Current pool size.",
	"# TYPE mrclone_gateway_shards gauge",
	"# HELP mrclone_gateway_shards_up Shards that answered the last scrape.",
	"# TYPE mrclone_gateway_shards_up gauge",
	"# HELP mrclone_gateway_requests_total Requests handled by this gateway.",
	"# TYPE mrclone_gateway_requests_total counter",
	"# HELP mrclone_gateway_submissions_total Submissions routed by content hash.",
	"# TYPE mrclone_gateway_submissions_total counter",
	"# HELP mrclone_gateway_failovers_total Submissions served by a non-owner replica.",
	"# TYPE mrclone_gateway_failovers_total counter",
	"# HELP mrclone_gateway_shard_errors_total Upstream attempts that failed (transport or draining).",
	"# TYPE mrclone_gateway_shard_errors_total counter",
	"# HELP mrclone_gateway_breaker_skips_total Upstream attempts short-circuited by an open circuit breaker (no dial).",
	"# TYPE mrclone_gateway_breaker_skips_total counter",
	"# HELP mrclone_gateway_unauthorized_total Submissions rejected at the edge for missing or invalid credentials.",
	"# TYPE mrclone_gateway_unauthorized_total counter",
	"# HELP mrclone_gateway_rate_limited_total Submissions rejected at the edge by a tenant's rate limit.",
	"# TYPE mrclone_gateway_rate_limited_total counter",
	"# HELP mrclone_gateway_uptime_seconds Gateway uptime.",
	"# TYPE mrclone_gateway_uptime_seconds gauge",
	"# HELP mrclone_gateway_http_request_seconds Gateway HTTP request duration by route and status (includes the shard hop).",
	"# TYPE mrclone_gateway_http_request_seconds histogram",
	"# HELP mrclone_gateway_shard_up Whether the shard answered the last scrape (1 = up).",
	"# TYPE mrclone_gateway_shard_up gauge",
	"# HELP mrclone_gateway_breaker_state Circuit breaker position per shard (0 = closed, 1 = open, 2 = half-open).",
	"# TYPE mrclone_gateway_breaker_state gauge",
	"# HELP go_goroutines Number of live goroutines.",
	"# TYPE go_goroutines gauge",
	"# HELP go_heap_alloc_bytes Bytes of allocated heap objects.",
	"# TYPE go_heap_alloc_bytes gauge",
	"# HELP go_heap_objects Number of allocated heap objects.",
	"# TYPE go_heap_objects gauge",
	"# HELP go_heap_sys_bytes Bytes of heap memory obtained from the OS.",
	"# TYPE go_heap_sys_bytes gauge",
	"# HELP go_next_gc_bytes Heap size target of the next GC cycle.",
	"# TYPE go_next_gc_bytes gauge",
	"# HELP go_alloc_bytes_total Cumulative bytes allocated for heap objects.",
	"# TYPE go_alloc_bytes_total counter",
	"# HELP go_gc_cycles_total Completed GC cycles.",
	"# TYPE go_gc_cycles_total counter",
	"# HELP go_gc_pause_seconds_total Cumulative stop-the-world GC pause time.",
	"# TYPE go_gc_pause_seconds_total counter",
}

// metadataLines keeps a /metrics body's # HELP and # TYPE lines in order.
func metadataLines(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			out = append(out, line)
		}
	}
	return out
}

// TestObservabilityMetricsMetadata pins both tiers' /metrics metadata — the
// ordered HELP/TYPE lines — against the golden lists above.
func TestObservabilityMetricsMetadata(t *testing.T) {
	c := newTenantCluster(t, 1, 1, func(int) service.Config {
		return service.Config{
			Workers: 1, CellParallelism: 2,
			Tenants: mustRegistry(t, tenantList()[:1]),
		}
	}, nil)
	st := postSpecTok(t, c.gwURL(0), mustCanon(t, testSpec(61)), "tok-alpha")
	waitDoneTok(t, c.gwURL(0), st.ID, "tok-alpha")

	for _, tc := range []struct {
		tier string
		base string
		want []string
	}{
		{"shard", c.shardSrvs[0].URL, shardMetadata},
		{"gateway", c.gwURL(0), gatewayMetadata},
	} {
		got := metadataLines(scrape(t, tc.base))
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s /metrics metadata drifted from the golden list:\ngot:\n%s\nwant:\n%s",
				tc.tier, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
