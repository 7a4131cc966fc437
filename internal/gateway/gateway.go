// Package gateway is the routing tier of the sharded simulation service: an
// HTTP reverse proxy that owns no compute and no state beyond its pool view
// and per-shard circuit breakers. It fronts an elastic pool of mrserved
// shards (internal/service) and routes every request to the shard that owns
// it:
//
//   - submissions (POST /v1/matrices) are routed by content — the gateway
//     extracts the spec hash from the raw body (spec.HashSubmission) and
//     forwards to the shard the consistent-hash ring (internal/ring) places
//     that hash on, falling back to the next replica in ring order when the
//     owner is unreachable or draining;
//   - job routes (GET/DELETE /v1/matrices/{id}, /result, SSE /events) are
//     routed by ID — gateway job IDs are namespaced "<shard>.<local-id>", so
//     the owning shard is recoverable from the ID alone;
//   - GET /healthz and /metrics aggregate the whole pool.
//
// Routing by hash is what makes the shard-local single-flight table
// cluster-wide: identical specs hash identically, every gateway places a
// hash on the same shard (ring placement is deterministic and order-
// independent), so concurrent identical submissions through any number of
// gateways meet in one shard's dedup table and collapse into one flight.
// And because the runner produces byte-identical artifacts for equal specs,
// failover is safe: a resubmission routed to the next replica computes
// exactly the bytes the dead owner would have served.
//
// Membership is elastic: POST /v1/pool/shards (when Config.EnableAdmin is
// set) adds and removes shards at runtime, rebuilding the routing ring as an
// atomic snapshot swap. A background probe loop watches every member's
// /healthz and feeds per-shard circuit breakers; once a shard's breaker
// opens, requests skip it without dialing, and submissions relocated by a
// membership change carry an X-Mrclone-Peer hint naming the previous ring
// owner so the new owner can fetch already-computed artifacts instead of
// recomputing them.
//
// Responses the gateway has routed carry X-Mrclone-Shard (the shard that
// served the request), and submissions additionally X-Mrclone-Routed-By
// (the spec hash used for placement) and X-Mrclone-Failover when a replica
// other than the ring owner served it. Result bytes are passed through
// untouched — byte-identity survives the proxy hop.
package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mrclone/internal/obs"
	"mrclone/internal/ring"
	"mrclone/internal/service"
	"mrclone/internal/service/spec"
	"mrclone/internal/tenant"
)

// idSep separates the shard namespace from the shard-local job ID in
// gateway job IDs ("<shard>.<local-id>"); shard names must not contain it.
const idSep = "."

// Gateway-added response headers.
const (
	// HeaderShard names the shard that served the request.
	HeaderShard = "X-Mrclone-Shard"
	// HeaderRoutedBy carries the spec content hash a submission was placed
	// by.
	HeaderRoutedBy = "X-Mrclone-Routed-By"
	// HeaderFailover is "true" when a submission was served by a replica
	// other than the ring owner.
	HeaderFailover = "X-Mrclone-Failover"
)

// ErrNoShards reports an attempt to build a gateway with an empty pool.
var ErrNoShards = errors.New("gateway: need at least one shard")

// Shard is one mrserved worker in the pool.
type Shard struct {
	// Name is the stable shard identifier used in the ring, in namespaced
	// job IDs, and in the aggregated health/metrics output. It must be
	// non-empty and must not contain ".", "/", or whitespace.
	Name string
	// URL is the shard's base URL (scheme + host, optionally a path
	// prefix).
	URL *url.URL
}

// Config assembles a gateway. Shards is required; everything else defaults.
type Config struct {
	// Shards is the initial pool membership — elastic thereafter via
	// ApplyPoolUpdate / POST /v1/pool/shards. Order is cosmetic (health
	// output); placement depends only on the set of names.
	Shards []Shard
	// VirtualNodes is the per-shard point count of the consistent-hash
	// ring (default ring.DefaultVirtualNodes).
	VirtualNodes int
	// Replicas bounds how many shards a submission is attempted on before
	// the gateway gives up (ring order: owner first). 0 means every shard.
	Replicas int
	// Client issues upstream requests (default: a client with no overall
	// timeout, so SSE streams are not cut; per-request lifetime follows
	// the client's request context).
	Client *http.Client
	// ProbeClient issues the background health probes and /healthz//metrics
	// aggregation fetches, kept separate from Client so probe traffic never
	// shows up in request-path accounting (tests count request dials on
	// Client alone). Defaults to Client.
	ProbeClient *http.Client
	// ProbeTimeout bounds each per-shard /healthz and /metrics probe
	// (default 2s).
	ProbeTimeout time.Duration
	// ProbeInterval is the background health-probe period feeding the
	// per-shard circuit breakers (default 1s; negative disables the loop,
	// leaving breakers fed by request outcomes alone).
	ProbeInterval time.Duration
	// BreakerFailures is the consecutive-failure threshold that opens a
	// shard's circuit breaker (default 3).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker short-circuits requests
	// before admitting a half-open probe (default 5s). The probe loop
	// refreshes the cooldown while a shard stays unreachable and snaps the
	// breaker closed as soon as it answers again.
	BreakerCooldown time.Duration
	// EnableAdmin registers POST /v1/pool/shards, the runtime membership
	// route. It carries no tenant authentication — enable it only where the
	// gateway listens on a trusted operator network (docs/OPERATIONS.md).
	EnableAdmin bool
	// Tenants, when set, makes the gateway an admission edge: submissions
	// are authenticated and rate-limited here, before any shard is dialed,
	// so a flooding tenant burns gateway CPU rather than shard queue slots.
	// The Authorization header is still forwarded verbatim — shards
	// configured with their own registry re-authenticate (use the same
	// file) and apply queue/cell quotas, which only they can see. Nil means
	// the gateway forwards credentials without inspecting them.
	// ReloadTenants swaps a non-nil registry at runtime.
	Tenants *tenant.Registry
	// Logger receives one structured line per request, stamped with the
	// request ID, trace and span IDs, matched route, status, duration, and
	// (when a shard served the request) the shard name. Nil discards —
	// output stays exactly as before observability existed.
	Logger *slog.Logger
}

// Gateway routes requests across the shard pool. Create with New, serve via
// Handler, and Close when done (it stops the probe loop). A gateway is
// stateless apart from counters and per-shard breaker positions: membership
// lives in an atomically swapped pool snapshot, and shard health is tracked
// by the background probe loop plus request outcomes — a down shard costs at
// most a few failed dials before its breaker opens and requests skip it
// without dialing; the first successful probe puts it back in rotation.
type Gateway struct {
	client       *http.Client
	probeClient  *http.Client
	replicas     int
	probeTimeout time.Duration
	tenants      atomic.Pointer[tenant.Registry] // edge registry, nil = forward credentials
	admin        bool
	start        time.Time
	log          *slog.Logger
	// httpHist is gateway-side HTTP request duration by matched route and
	// status — the client-observed latency, including the upstream hop.
	httpHist *obs.HistogramVec

	breakerFailures int
	breakerCooldown time.Duration

	poolMu sync.Mutex // serializes membership changes
	view   atomic.Pointer[poolView]

	brMu     sync.Mutex
	breakers map[string]*breaker

	stopCh    chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once

	requests     atomic.Int64
	submissions  atomic.Int64
	failovers    atomic.Int64
	shardErrors  atomic.Int64
	breakerSkips atomic.Int64
	unauthorized atomic.Int64
	rateLimited  atomic.Int64
}

// validateShard checks one pool member the same way at construction and at
// runtime admission: a routable name and a clean absolute base URL.
func validateShard(sh Shard) error {
	if sh.Name == "" || strings.ContainsAny(sh.Name, idSep+"/ \t\n") {
		return fmt.Errorf("gateway: invalid shard name %q (must be non-empty, no %q, %q, or whitespace)",
			sh.Name, idSep, "/")
	}
	if sh.URL == nil || (sh.URL.Scheme != "http" && sh.URL.Scheme != "https") || sh.URL.Host == "" {
		return fmt.Errorf("gateway: shard %s: need an absolute http(s) base URL", sh.Name)
	}
	if sh.URL.RawQuery != "" || sh.URL.Fragment != "" {
		// forward() rebuilds the query from each client request, so a
		// query on the base URL would be silently dropped — reject it.
		return fmt.Errorf("gateway: shard %s: base URL must not carry a query or fragment", sh.Name)
	}
	return nil
}

// New validates the pool, builds the routing ring, and starts the
// background probe loop (unless disabled). Callers own the returned
// gateway's lifecycle: Close it to stop the prober.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, ErrNoShards
	}
	byName := make(map[string]Shard, len(cfg.Shards))
	names := make([]string, 0, len(cfg.Shards))
	for _, sh := range cfg.Shards {
		if err := validateShard(sh); err != nil {
			return nil, err
		}
		if _, dup := byName[sh.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate shard name %q", sh.Name)
		}
		byName[sh.Name] = sh
		names = append(names, sh.Name)
	}
	r, err := ring.New(names, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	probeClient := cfg.ProbeClient
	if probeClient == nil {
		probeClient = client
	}
	probe := cfg.ProbeTimeout
	if probe <= 0 {
		probe = 2 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Nop()
	}
	g := &Gateway{
		client:          client,
		probeClient:     probeClient,
		replicas:        cfg.Replicas,
		probeTimeout:    probe,
		admin:           cfg.EnableAdmin,
		start:           time.Now(),
		log:             log,
		httpHist:        obs.NewHistogramVec(obs.LatencyBuckets, "route", "status"),
		breakerFailures: cfg.BreakerFailures,
		breakerCooldown: cfg.BreakerCooldown,
		stopCh:          make(chan struct{}),
		probeDone:       make(chan struct{}),
	}
	g.tenants.Store(cfg.Tenants)
	g.view.Store(&poolView{
		shards: byName,
		order:  append([]Shard(nil), cfg.Shards...),
		ring:   r,
	})
	g.breakers = make(map[string]*breaker, len(names))
	for _, name := range names {
		g.breakers[name] = g.newShardBreaker(name)
	}
	interval := cfg.ProbeInterval
	if interval == 0 {
		interval = time.Second
	}
	if interval > 0 {
		go g.probeLoop(interval)
	} else {
		close(g.probeDone)
	}
	return g, nil
}

// Ring exposes the current placement ring (for tests and diagnostics).
func (g *Gateway) Ring() *ring.Ring { return g.currentView().ring }

// ReloadTenants swaps in a new edge registry, under the service's rules
// (service.ReloadTenants): the swap is atomic, so a request finishes on the
// registry it loaded and the next one sees reg; a nil registry is rejected,
// and a gateway started without one cannot take one, so a gateway never
// switches between forwarding and admitting.
func (g *Gateway) ReloadTenants(reg *tenant.Registry) error {
	if reg == nil {
		return errors.New("gateway: reload: nil registry (tenancy cannot be turned off at runtime)")
	}
	if g.tenants.Load() == nil {
		return errors.New("gateway: reload: gateway started anonymous (tenancy cannot be turned on at runtime)")
	}
	g.tenants.Store(reg)
	return nil
}

// Handler returns the gateway's HTTP API — the same surface a single
// mrserved exposes (docs/API.md), with gateway job IDs namespaced by shard —
// behind the shard's own request middleware (obs.Instrument). A request
// line names the serving shard when the route set X-Mrclone-Shard, which is
// what ties a gateway log line to the shard line sharing its trace ID.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matrices", g.handleSubmit)
	mux.HandleFunc("GET /v1/matrices/{id}", g.proxyJob(http.MethodGet, "", relayJobStatus))
	mux.HandleFunc("DELETE /v1/matrices/{id}", g.proxyJob(http.MethodDelete, "", relayJobStatus))
	mux.HandleFunc("GET /v1/matrices/{id}/result", g.proxyJob(http.MethodGet, "/result", passThrough))
	mux.HandleFunc("GET /v1/matrices/{id}/events", g.proxyJob(http.MethodGet, "/events", relayEvents))
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	if g.admin {
		mux.HandleFunc("POST /v1/pool/shards", g.handlePoolUpdate)
	}
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { g.requests.Add(1); mux.ServeHTTP(w, r) })
	return obs.Instrument(g.log, g.httpHist, counted, func(h http.Header) []slog.Attr {
		if shard := h.Get(HeaderShard); shard != "" {
			return []slog.Attr{slog.String(obs.KeyShard, shard)}
		}
		return nil
	})
}

// errBreakerOpen marks an attempt short-circuited by an open circuit
// breaker: the shard was never dialed.
var errBreakerOpen = errors.New("circuit breaker open")

// forward issues one upstream request against a shard's base URL. The body,
// when non-nil, is a fully buffered submission (retries need rewinding);
// extra headers, when non-nil, are added to the upstream request. The
// shard's circuit breaker gates the attempt — an open breaker returns
// errBreakerOpen without dialing — and absorbs its outcome: any response
// counts as reachable, a dial failure counts against the shard, and an
// ambiguous mid-response error counts as neither.
func (g *Gateway) forward(r *http.Request, sh Shard, method, path, rawQuery string, body []byte, extra http.Header) (*http.Response, error) {
	br := g.breakerFor(sh.Name)
	if br != nil && !br.Allow() {
		g.breakerSkips.Add(1)
		return nil, fmt.Errorf("%w (shard %s)", errBreakerOpen, sh.Name)
	}
	u := *sh.URL
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = rawQuery
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, u.String(), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	// Credentials ride through untouched so multi-tenant shards can
	// authenticate the original caller, not the gateway.
	if auth := r.Header.Get("Authorization"); auth != "" {
		req.Header.Set("Authorization", auth)
	}
	// Propagate the request's trace to the shard under a fresh span ID, so
	// the shard's log lines and the gateway's share one trace ID while each
	// hop remains distinguishable.
	if tc, ok := obs.TraceFrom(r.Context()); ok {
		req.Header.Set(obs.TraceparentHeader, tc.WithNewSpan().String())
	}
	resp, err := g.client.Do(req)
	if br != nil {
		switch {
		case err == nil:
			br.Success()
		case dialFailure(err):
			br.Failure()
		}
	}
	return resp, err
}

// handleSubmit routes a submission by content hash: owner first, then the
// ring's replica sequence when the owner is down. A shard that answers —
// including with a client error or queue-full backpressure — ends the
// walk, and so does a transport error after the connection was
// established: only dial failures (the request provably never reached the
// shard) and 503 (drain in progress, the shard rejected it) fail over.
// That keeps per-shard backpressure visible to the client and guarantees a
// spec never silently computes on two shards — an ambiguous mid-response
// failure surfaces as 502 for the client to retry rather than being
// replayed onto a replica while the owner may still be running it. A shard
// whose circuit breaker is open is skipped without dialing at all; the walk
// moves straight to the next replica.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !g.admit(w, r) {
		return
	}
	body, ok := service.ReadSpecBody(w, r)
	if !ok {
		return
	}
	hash, err := spec.HashSubmission(body)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	g.submissions.Add(1)
	view := g.currentView()
	// When a membership change relocated this hash, name its previous ring
	// owner so the new owner can peer-fetch already-computed artifacts
	// instead of recomputing. A hint pointing at an open-breaker shard is
	// dropped — the peer fetch would only burn its timeout.
	peerName, peerURL := view.peerHint(hash)
	if peerName != "" {
		if br := g.breakerFor(peerName); br != nil && br.State() == breakerOpen {
			peerName, peerURL = "", ""
		}
	}
	var lastErr error
	allDraining := true // every failed attempt was a shard answering 503
	for i, name := range view.ring.Replicas(hash, g.replicas) {
		sh := view.shards[name]
		var extra http.Header
		if peerURL != "" && name != peerName {
			extra = http.Header{service.PeerHeader: []string{peerURL}}
		}
		resp, ferr := g.forward(r, sh, http.MethodPost, "/v1/matrices", "", body, extra)
		if ferr != nil {
			if errors.Is(ferr, errBreakerOpen) {
				// Skipped without a dial: the breaker already knows this
				// shard is down. Not a shard error — nothing was attempted.
				lastErr = fmt.Errorf("shard %s: %w", name, ferr)
				allDraining = false
				continue
			}
			g.shardErrors.Add(1)
			lastErr = fmt.Errorf("shard %s: %w", name, ferr)
			allDraining = false
			if !dialFailure(ferr) {
				// The request may have been delivered (error after the
				// connection was up): replaying it elsewhere could compute
				// the spec twice and orphan a job on the owner. Let the
				// client retry against a known state instead.
				break
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			g.shardErrors.Add(1)
			lastErr = fmt.Errorf("shard %s: draining (HTTP 503)", name)
			continue
		}
		if i > 0 {
			g.failovers.Add(1)
			w.Header().Set(HeaderFailover, "true")
		}
		w.Header().Set(HeaderShard, name)
		w.Header().Set(HeaderRoutedBy, hash)
		relayJobStatus(w, resp, name)
		resp.Body.Close()
		return
	}
	// A pool where every attempted shard answered 503 is draining, not
	// broken: relay the retryable-unavailable signal instead of a hard 502.
	code := http.StatusBadGateway
	if allDraining {
		code = http.StatusServiceUnavailable
	}
	service.WriteError(w, code,
		fmt.Errorf("gateway: no replica accepted spec %.12s…: %v", hash, lastErr))
}

// admit applies edge admission when the gateway carries a tenant registry:
// the submission must authenticate and fit the tenant's rate budget before
// any shard is dialed. The reply is the shard's own (service.WriteAuthError:
// 401 with a challenge, 403, or 429 with Retry-After), so clients cannot
// tell which tier rejected them. Returns true when the request may proceed.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request) bool {
	reg := g.tenants.Load()
	if reg == nil {
		return true
	}
	_, err := reg.Admit(tenant.BearerToken(r), time.Now())
	if err == nil {
		return true
	}
	if errors.Is(err, tenant.ErrRateLimited) {
		g.rateLimited.Add(1)
	} else {
		g.unauthorized.Add(1)
	}
	service.WriteAuthError(w, err)
	return false
}

// dialFailure reports whether an upstream error happened while connecting —
// before any bytes of the request could reach the shard — which is the only
// transport failure a submission may safely fail over on.
func dialFailure(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// proxyJob serves one job route by the namespaced ID alone: the shard named
// by its "<shard>.<local-id>" prefix gets method on /v1/matrices/<local-id>
// plus suffix, with the client's query string, and relay writes the answer
// under X-Mrclone-Shard. Jobs live on exactly one shard, so there is no
// replica to fall back to: an unreachable shard is a clean 502 naming it
// instead of a hung request. A breaker short-circuit is a 502 too, but not a
// shard error: nothing was attempted.
func (g *Gateway) proxyJob(method, suffix string, relay func(w http.ResponseWriter, resp *http.Response, shard string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		name, local, ok := strings.Cut(id, idSep)
		if !ok || name == "" || local == "" {
			service.WriteError(w, http.StatusNotFound,
				fmt.Errorf("gateway: malformed job id %q (want <shard>%s<id>)", id, idSep))
			return
		}
		sh, ok := g.currentView().shards[name]
		if !ok {
			service.WriteError(w, http.StatusNotFound,
				fmt.Errorf("gateway: job %q names unknown shard %q", id, name))
			return
		}
		resp, err := g.forward(r, sh, method, "/v1/matrices/"+local+suffix, r.URL.RawQuery, nil, nil)
		if err != nil {
			if !errors.Is(err, errBreakerOpen) {
				g.shardErrors.Add(1)
			}
			service.WriteError(w, http.StatusBadGateway,
				fmt.Errorf("gateway: shard %s unreachable: %v", name, err))
			return
		}
		defer resp.Body.Close()
		w.Header().Set(HeaderShard, name)
		relay(w, resp, name)
	}
}

// relayJobStatus forwards a shard response that carries a JobStatus — a
// submission, a status read or a cancel, whose leading "cancelled" field
// survives only where the shard sent it — namespacing the job ID; non-2xx
// responses pass through untouched.
func relayJobStatus(w http.ResponseWriter, resp *http.Response, shard string) {
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		passThrough(w, resp, shard)
		return
	}
	var st struct {
		Cancelled *bool `json:"cancelled,omitempty"`
		service.JobStatus
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		service.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("gateway: shard %s: undecodable job status: %w", shard, err))
		return
	}
	st.ID = shard + idSep + st.ID
	service.WriteJSON(w, resp.StatusCode, st)
}

// passThrough relays an upstream response verbatim, preserving the headers
// clients act on: content type plus the backpressure (Retry-After) and
// authentication-challenge (WWW-Authenticate) signals a multi-tenant shard
// attaches to its rejections. Result bytes go through it untouched: the
// deterministic runner guarantees byte-identical artifacts per spec, and the
// gateway must not break that property.
func passThrough(w http.ResponseWriter, resp *http.Response, _ string) {
	for _, h := range []string{"Content-Type", "Retry-After", "WWW-Authenticate"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// relayEvents relays the shard's SSE stream frame by frame, rewriting the
// job field of each event to the namespaced gateway ID.
func relayEvents(w http.ResponseWriter, resp *http.Response, shard string) {
	if resp.StatusCode != http.StatusOK {
		passThrough(w, resp, shard)
		return
	}
	flusher, ok := service.StartEventStream(w)
	if !ok {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, isData := strings.CutPrefix(line, "data: "); isData {
			var e service.Event
			if json.Unmarshal([]byte(data), &e) == nil {
				e.Job = shard + idSep + e.Job
				if b, merr := json.Marshal(e); merr == nil {
					line = "data: " + string(b)
				}
			}
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return
		}
		if line == "" { // frame boundary
			flusher.Flush()
		}
	}
	flusher.Flush()
}
