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
	"strings"

	"mrclone/internal/obs"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
	"mrclone/internal/tenant"
)

// maxSpecBytes bounds the accepted request body: large enough for a full
// 6064-row explicit trace, small enough to shed abusive payloads.
const maxSpecBytes = 32 << 20

// Handler returns the HTTP/JSON API of the service:
//
//	POST   /v1/matrices              submit a spec; 200 on a cache hit, 202 otherwise
//	GET    /v1/matrices/{id}         job status
//	GET    /v1/matrices/{id}/result  artifact (?format=json|csv|aggregate)
//	DELETE /v1/matrices/{id}         cancel
//	GET    /v1/matrices/{id}/events  lifecycle + progress as Server-Sent Events
//	GET    /v1/peer/artifacts/{hash} stored artifact record, for peer shards (no tenant auth)
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
	mux.HandleFunc("GET /v1/peer/artifacts/{hash}", peerRoute(s, (*store.Store).GetArtifacts, store.EncodeArtifacts))
	mux.HandleFunc("GET /v1/peer/cells/{hash}", peerRoute(s, (*store.Store).GetCell, store.EncodeCell))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return obs.Instrument(s.obsv.log, s.obsv.httpHist, mux, nil)
}

// The writers below are the HTTP edge the gateway shares with the shards it
// fronts, so both tiers answer with the same bodies, headers and statuses.

// WriteJSON renders v with a status code; encoding failures are ignored
// (the status line is already out).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError renders err as the API's {"error": "..."} body.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
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

// WriteAuthError maps a tenant authentication/admission failure onto HTTP:
// missing or unknown credentials are 401 with a challenge, a disabled
// tenant is 403, and a rate-limited one is 429 with Retry-After.
func WriteAuthError(w http.ResponseWriter, err error) {
	var rl *tenant.RateLimitError
	switch {
	case errors.As(err, &rl):
		w.Header().Set("Retry-After", retryAfterSeconds(rl.RetryAfter.Seconds()))
		WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, tenant.ErrDisabled):
		WriteError(w, http.StatusForbidden, err)
	default:
		w.Header().Set("WWW-Authenticate", `Bearer realm="mrclone"`)
		WriteError(w, http.StatusUnauthorized, err)
	}
}

// ReadSpecBody reads a submission body under the spec size cap. On failure
// the 400 or 413 response has been written and ok is false.
func ReadSpecBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return nil, false
	}
	if len(body) > maxSpecBytes {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("spec exceeds %d bytes", maxSpecBytes))
		return nil, false
	}
	return body, true
}

// StartEventStream opens a Server-Sent Events response — the stream
// headers, a 200 and a flush, so the client sees the stream before its
// first frame — and returns the flusher for the frames. On a writer that
// cannot flush the 500 response has been written and ok is false.
func StartEventStream(w http.ResponseWriter) (f http.Flusher, ok bool) {
	f, ok = w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return f, true
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
		WriteAuthError(w, err)
		return "", false
	}
	return t.Name, true
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadSpecBody(w, r)
	if !ok {
		return
	}
	sp, err := spec.Parse(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
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
		WriteAuthError(w, err)
	case errors.Is(err, ErrTenantQuota), errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds(0))
		WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		WriteError(w, http.StatusBadRequest, err)
	case st.State == StateDone:
		WriteJSON(w, http.StatusOK, st)
	default:
		WriteJSON(w, http.StatusAccepted, st)
	}
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
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
			WriteError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrNotReady):
			WriteError(w, http.StatusConflict, err)
		default: // failed or cancelled
			WriteError(w, http.StatusGone, err)
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
		WriteError(w, http.StatusBadRequest,
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
			WriteError(w, http.StatusNotFound, err)
			return
		}
		if st.Tenant != "" && st.Tenant != tn {
			WriteError(w, http.StatusForbidden,
				fmt.Errorf("job %s belongs to another tenant", id))
			return
		}
	}
	cancelled, err := s.Cancel(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	st, err := s.Get(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, struct {
		Cancelled bool `json:"cancelled"`
		JobStatus
	}{cancelled, st})
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	sub, err := s.Subscribe(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	defer s.unsubscribe(id, sub)
	flusher, ok := StartEventStream(w)
	if !ok {
		return
	}
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
	WriteJSON(w, http.StatusOK, s.Health())
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", obs.ExpoContentType)
	e := obs.NewExpoWriter(w)
	e.Counter("mrclone_submissions_total", "Matrix submissions accepted.", float64(m.Submissions))
	e.Counter("mrclone_cache_hits_total", "Submissions served from the in-memory result cache.", float64(m.CacheHits))
	e.Counter("mrclone_disk_hits_total", "Artifact reads served from the disk store.", float64(m.DiskHits))
	e.Counter("mrclone_dedup_hits_total", "Submissions attached to an in-flight computation.", float64(m.DedupHits))
	e.Counter("mrclone_flights_total", "Distinct matrix computations registered.", float64(m.Flights))
	e.Counter("mrclone_jobs_done_total", "Jobs finished successfully.", float64(m.JobsDone))
	e.Counter("mrclone_jobs_failed_total", "Jobs finished in failure.", float64(m.JobsFailed))
	e.Counter("mrclone_jobs_cancelled_total", "Jobs cancelled by clients or shutdown.", float64(m.JobsCancelled))
	e.Counter("mrclone_gc_jobs_total", "Terminal jobs aged out of the job table.", float64(m.JobsGCed))
	e.Counter("mrclone_gc_artifacts_total", "TTL-expired artifacts deleted from the disk store.", float64(m.ArtifactsGCed))
	e.Counter("mrclone_quarantined_total", "Corrupt disk entries moved to quarantine.", float64(m.Quarantined))
	e.Counter("mrclone_store_errors_total", "Disk store operations that failed.", float64(m.StoreErrors))
	e.Gauge("mrclone_queue_depth", "Matrices waiting for a worker.", float64(m.QueueDepth))
	e.Gauge("mrclone_queue_capacity", "Bounded queue capacity.", float64(m.QueueCapacity))
	e.Gauge("mrclone_cache_entries", "Matrices held in the in-memory result cache.", float64(m.CacheEntries))
	e.Gauge("mrclone_cache_bytes", "Artifact bytes held in the in-memory result cache.", float64(m.CacheBytes))
	e.Gauge("mrclone_jobs_tracked", "Job records currently in the job table.", float64(m.JobsTracked))
	e.Gauge("mrclone_persistent", "1 when a disk store is configured.", boolGauge(m.Persistent))
	e.Counter("mrclone_cells_done_total", "Matrix cells landed (simulated or resolved from the cell cache).", float64(m.CellsDone))
	e.Counter("mrclone_cell_hits_total", "Cells resolved from the content-addressed cell cache.", float64(m.CellHits))
	e.Counter("mrclone_cell_misses_total", "Cell lookups that missed the cell cache.", float64(m.CellMisses))
	e.Counter("mrclone_cell_bytes_total", "Cell payload bytes written to the cell store.", float64(m.CellBytes))
	e.Counter("mrclone_gc_cells_total", "Expired or evicted cell records deleted from the disk store.", float64(m.CellsGCed))
	e.Counter("mrclone_assembled_total", "Matrices assembled entirely from cached cells without a worker slot.", float64(m.Assembled))
	e.Counter("mrclone_peer_fetch_hits_total", "Artifacts and cells adopted from a peer shard after a pool membership change.", float64(m.PeerFetchHits))
	e.Counter("mrclone_peer_fetch_misses_total", "Peer fetches that missed or failed verification and fell back to recomputation.", float64(m.PeerFetchMisses))
	e.Counter("mrclone_peer_fetch_bytes_total", "Payload bytes installed from verified peer fetches.", float64(m.PeerFetchBytes))
	e.Counter("mrclone_unauthorized_total", "Requests rejected for missing or invalid credentials.", float64(m.Unauthorized))
	e.Gauge("mrclone_uptime_seconds", "Service uptime.", m.UptimeSeconds)
	e.Gauge("mrclone_cells_per_second", "Lifetime mean simulation throughput.", m.CellsPerSecond)
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

// LocalFamily reports whether a /metrics family of the shard describes this
// process alone, so a pool aggregate must drop it rather than sum it: the
// uptime (a sum hides single-shard restarts), the mean cell rate (a sum
// overstates throughput), the persistence flag (an identity, not a
// quantity), and the go_* runtime stats (summed heaps and goroutine counts
// describe no real process). Every other family is a lifetime counter or a
// point-in-time quantity of work or bytes that adds up across shards.
func LocalFamily(name string) bool {
	switch name {
	case "mrclone_uptime_seconds", "mrclone_cells_per_second", "mrclone_persistent":
		return true
	}
	return strings.HasPrefix(name, "go_")
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
