package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"mrclone/internal/obs"
	"mrclone/internal/service/spec"
	"mrclone/internal/tenant"
)

// MaxSpecBytes bounds the accepted request body: large enough for a full
// 6064-row explicit trace, small enough to shed abusive payloads. Exported
// so the gateway tier enforces the same cap as the shards it fronts.
const MaxSpecBytes = 32 << 20

// Handler returns the HTTP/JSON API of the service:
//
//	POST   /v1/matrices              submit a spec; 200 on a cache hit, 202 otherwise
//	GET    /v1/matrices/{id}         job status
//	GET    /v1/matrices/{id}/result  artifact (?format=json|csv|aggregate)
//	DELETE /v1/matrices/{id}         cancel
//	GET    /v1/matrices/{id}/events  lifecycle + progress as Server-Sent Events
//	GET    /v1/peer/artifacts/{hash} stored artifacts, for peer shards (no tenant auth)
//	GET    /v1/peer/cells/{hash}     stored cell record, for peer shards (no tenant auth)
//	GET    /healthz                  liveness
//	GET    /metrics                  Prometheus-style counters
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matrices", s.handleSubmit)
	mux.HandleFunc("GET /v1/matrices/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/matrices/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/matrices/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/matrices/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/peer/artifacts/{hash}", s.handlePeerArtifacts)
	mux.HandleFunc("GET /v1/peer/cells/{hash}", s.handlePeerCells)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.instrument(mux)
}

// writeJSON renders v with a status code; encoding failures are ignored
// (the status line is already out).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// retryAfterSeconds renders a wait as a whole-second Retry-After value,
// rounded up so a client that honors it exactly does not immediately trip
// the limiter again. Zero (quota rejections, full queue) reads as "soon".
func retryAfterSeconds(d float64) string {
	secs := int(math.Ceil(d))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeAuthError maps a tenant authentication/admission failure onto HTTP:
// missing or unknown credentials are 401 with a challenge, a disabled
// tenant is 403, and a rate-limited one is 429 with Retry-After.
func writeAuthError(w http.ResponseWriter, err error) {
	var rl *tenant.RateLimitError
	switch {
	case errors.As(err, &rl):
		w.Header().Set("Retry-After", retryAfterSeconds(rl.RetryAfter.Seconds()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, tenant.ErrDisabled):
		writeError(w, http.StatusForbidden, err)
	default:
		w.Header().Set("WWW-Authenticate", `Bearer realm="mrclone"`)
		writeError(w, http.StatusUnauthorized, err)
	}
}

// authorize resolves the request's tenant for read/cancel routes. Without a
// registry every request is the anonymous tenant; with one, a valid token is
// required (but no submission rate is consumed — only POST pays the bucket).
// On failure the response has been written and ok is false.
func (s *Service) authorize(w http.ResponseWriter, r *http.Request) (string, bool) {
	reg := s.registry()
	if reg == nil {
		return "", true
	}
	t, err := reg.Authenticate(tenant.BearerToken(r))
	if err != nil {
		s.mu.Lock()
		s.m.Unauthorized++
		s.mu.Unlock()
		writeAuthError(w, err)
		return "", false
	}
	return t.Name, true
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	if len(body) > MaxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("spec exceeds %d bytes", MaxSpecBytes))
		return
	}
	sp, err := spec.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if peer := r.Header.Get(PeerHeader); peer != "" && validPeerURL(peer) {
		ctx = ContextWithPeer(ctx, peer)
	}
	st, err := s.SubmitTokenContext(ctx, tenant.BearerToken(r), sp)
	switch {
	case errors.Is(err, tenant.ErrRateLimited), errors.Is(err, tenant.ErrDisabled),
		errors.Is(err, tenant.ErrNoToken), errors.Is(err, tenant.ErrUnknownToken):
		writeAuthError(w, err)
	case errors.Is(err, ErrTenantQuota), errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds(0))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	case st.State == StateDone:
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	res, err := s.Result(id)
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownJob):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrNotReady):
			writeError(w, http.StatusConflict, err)
		default: // failed or cancelled
			writeError(w, http.StatusGone, err)
		}
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(res.JSON)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_, _ = w.Write(res.CSV)
	case "aggregate":
		w.Header().Set("Content-Type", "text/csv")
		_, _ = w.Write(res.AggregateCSV)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want json, csv, or aggregate)", format))
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.authorize(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if s.registry() != nil {
		// Cancellation is destructive, so it is owner-only: a job submitted
		// under one token cannot be torn down by another tenant.
		st, err := s.Get(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		if st.Tenant != "" && st.Tenant != tn {
			writeError(w, http.StatusForbidden,
				fmt.Errorf("job %s belongs to another tenant", id))
			return
		}
	}
	cancelled, err := s.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	st, err := s.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Cancelled bool `json:"cancelled"`
		JobStatus
	}{cancelled, st})
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	sub, err := s.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		e, ok := sub.Next(r.Context())
		if !ok {
			return
		}
		data, err := json.Marshal(e)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data); err != nil {
			return
		}
		flusher.Flush()
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", obs.ExpoContentType)
	e := obs.NewExpoWriter(w)
	for _, row := range []struct {
		name  string
		help  string
		typ   string
		value float64
	}{
		{"mrclone_submissions_total", "Matrix submissions accepted.", "counter", float64(m.Submissions)},
		{"mrclone_cache_hits_total", "Submissions served from the in-memory result cache.", "counter", float64(m.CacheHits)},
		{"mrclone_disk_hits_total", "Artifact reads served from the disk store.", "counter", float64(m.DiskHits)},
		{"mrclone_dedup_hits_total", "Submissions attached to an in-flight computation.", "counter", float64(m.DedupHits)},
		{"mrclone_flights_total", "Distinct matrix computations registered.", "counter", float64(m.Flights)},
		{"mrclone_jobs_done_total", "Jobs finished successfully.", "counter", float64(m.JobsDone)},
		{"mrclone_jobs_failed_total", "Jobs finished in failure.", "counter", float64(m.JobsFailed)},
		{"mrclone_jobs_cancelled_total", "Jobs cancelled by clients or shutdown.", "counter", float64(m.JobsCancelled)},
		{"mrclone_gc_jobs_total", "Terminal jobs aged out of the job table.", "counter", float64(m.JobsGCed)},
		{"mrclone_gc_artifacts_total", "TTL-expired artifacts deleted from the disk store.", "counter", float64(m.ArtifactsGCed)},
		{"mrclone_quarantined_total", "Corrupt disk entries moved to quarantine.", "counter", float64(m.Quarantined)},
		{"mrclone_store_errors_total", "Disk store operations that failed.", "counter", float64(m.StoreErrors)},
		{"mrclone_queue_depth", "Matrices waiting for a worker.", "gauge", float64(m.QueueDepth)},
		{"mrclone_queue_capacity", "Bounded queue capacity.", "gauge", float64(m.QueueCapacity)},
		{"mrclone_cache_entries", "Matrices held in the in-memory result cache.", "gauge", float64(m.CacheEntries)},
		{"mrclone_cache_bytes", "Artifact bytes held in the in-memory result cache.", "gauge", float64(m.CacheBytes)},
		{"mrclone_jobs_tracked", "Job records currently in the job table.", "gauge", float64(m.JobsTracked)},
		{"mrclone_persistent", "1 when a disk store is configured.", "gauge", boolGauge(m.Persistent)},
		{"mrclone_cells_done_total", "Matrix cells landed (simulated or resolved from the cell cache).", "counter", float64(m.CellsDone)},
		{"mrclone_cell_hits_total", "Cells resolved from the content-addressed cell cache.", "counter", float64(m.CellHits)},
		{"mrclone_cell_misses_total", "Cell lookups that missed the cell cache.", "counter", float64(m.CellMisses)},
		{"mrclone_cell_bytes_total", "Cell payload bytes written to the cell store.", "counter", float64(m.CellBytes)},
		{"mrclone_gc_cells_total", "Expired or evicted cell records deleted from the disk store.", "counter", float64(m.CellsGCed)},
		{"mrclone_assembled_total", "Matrices assembled entirely from cached cells without a worker slot.", "counter", float64(m.Assembled)},
		{"mrclone_peer_fetch_hits_total", "Artifacts and cells adopted from a peer shard after a pool membership change.", "counter", float64(m.PeerFetchHits)},
		{"mrclone_peer_fetch_misses_total", "Peer fetches that missed or failed verification and fell back to recomputation.", "counter", float64(m.PeerFetchMisses)},
		{"mrclone_peer_fetch_bytes_total", "Payload bytes installed from verified peer fetches.", "counter", float64(m.PeerFetchBytes)},
		{"mrclone_unauthorized_total", "Requests rejected for missing or invalid credentials.", "counter", float64(m.Unauthorized)},
		{"mrclone_uptime_seconds", "Service uptime.", "gauge", m.UptimeSeconds},
		{"mrclone_cells_per_second", "Lifetime mean simulation throughput.", "gauge", m.CellsPerSecond},
	} {
		e.Header(row.name, row.help, row.typ)
		e.Sample(row.name, nil, row.value)
	}
	s.obsv.writeHistograms(e)
	obs.WriteRuntimeMetrics(e)
	if len(m.Tenants) == 0 {
		return
	}
	names := make([]string, 0, len(m.Tenants))
	for name := range m.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, row := range []struct {
		name string
		help string
		typ  string
		get  func(TenantMetrics) float64
	}{
		{"mrclone_tenant_submitted_total", "Submissions accepted, by tenant.", "counter", func(t TenantMetrics) float64 { return float64(t.Submitted) }},
		{"mrclone_tenant_rejected_total", "Submissions rejected by quota or rate limit, by tenant.", "counter", func(t TenantMetrics) float64 { return float64(t.Rejected) }},
		{"mrclone_tenant_queued", "Jobs waiting for a worker, by tenant.", "gauge", func(t TenantMetrics) float64 { return float64(t.Queued) }},
		{"mrclone_tenant_running", "Jobs occupying a worker, by tenant.", "gauge", func(t TenantMetrics) float64 { return float64(t.Running) }},
		{"mrclone_tenant_cell_seconds_total", "Worker wall-clock seconds consumed, by tenant.", "counter", func(t TenantMetrics) float64 { return t.CellSeconds }},
	} {
		e.Header(row.name, row.help, row.typ)
		for _, name := range names {
			e.Sample(row.name, []obs.Label{{Name: "tenant", Value: name}}, row.get(m.Tenants[name]))
		}
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
