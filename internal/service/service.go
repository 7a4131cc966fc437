// Package service turns the deterministic matrix runner into a
// simulation-as-a-service layer: clients submit canonical matrix specs
// (internal/service/spec), the service executes them on a bounded FIFO
// queue feeding a pool of runner.Run workers, and every completed matrix is
// stored in a content-addressed result cache keyed by the spec hash —
// size-in-bytes LRU in memory, optionally backed by a disk store
// (internal/store) that survives restarts.
//
// Determinism is what makes the sharing sound: the runner produces
// byte-identical artifacts for equal specs at any parallelism, so
//
//   - identical in-flight submissions collapse into one computation
//     (single-flight: later submissions attach to the running flight),
//   - cached responses are exactly the bytes a fresh run would produce, and
//   - a disk entry written by one process is byte-identical to what the next
//     process would compute, so restarts start with a warm cache.
//
// Each submission is an independent job with its own lifecycle
// (queued → running → done/failed/cancelled), an event stream for live
// progress, and independent cancellation; a shared computation is cancelled
// only when every job attached to it has been cancelled.
//
// A submission climbs one lookup ladder: the memory cache, an equal flight
// to attach to, then (with a Store) the disk store, a peer shard, and the
// cells tier, from which a matrix whose every cell is persisted is
// assembled without a worker. Every cached result completes its job at
// submission, before any flight exists. Only a miss creates a flight, and
// a flight is born queued: its spec record and SRPT size are written
// before it is pushed, and the worker that pops it is the only place its
// workload is expanded, so an expansion error fails the flight like a run
// error.
//
// With a Store configured, job state transitions are appended to a durable
// job log: on startup the service replays it, keeping terminal-job history
// visible across restarts. The store also backs a per-cell
// content-addressed cache (keyed by spec.CellHash): every computed cell is
// persisted individually, matrices resolve cells they share with earlier
// matrices from disk instead of recomputing them, and a job that was queued
// or running at crash time is requeued from its persisted spec — its new
// flight refills from the dead process's cells and recomputes only the
// remainder. Cell-level progress streams to subscribers as "cells" events
// carrying done/cached/total counts. A background garbage collector ages
// terminal jobs (and their replayable event buffers) out of the job table
// under JobRetention, expires cached artifacts and cells past CacheTTL from
// memory and disk, evicts oldest cells past the CellCacheBytes budget, and
// compacts the job log.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mrclone/internal/obs"
	"mrclone/internal/runner"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
	"mrclone/internal/tenant"
)

// Errors reported by the service.
var (
	ErrClosed      = errors.New("service: closed")
	ErrQueueFull   = errors.New("service: queue full")
	ErrUnknownJob  = errors.New("service: unknown job")
	ErrNotReady    = errors.New("service: result not ready")
	ErrTenantQuota = errors.New("service: tenant quota exceeded")
)

// restartErrMsg marks jobs that were queued or running when the previous
// process died; recovery fails them because their flight did not survive.
const restartErrMsg = "job interrupted by service restart"

// fairQueueSeed seeds the fair policy's lottery, so a shard's dequeue
// order for a given arrival sequence is reproducible.
const fairQueueSeed = 42

// compactAppendThreshold triggers a job-log compaction once this many
// records have been appended since the last one, so the log stays bounded
// even when retention never removes a job.
const compactAppendThreshold = 1024

// Size bounds of one matrix, checked by submit before it reads the store,
// assembles cells or queues a flight, so a single small request cannot
// make a shard allocate without limit.
const (
	// maxMatrixCells bounds schedulers × points × runs.
	maxMatrixCells = 65536
	// maxWorkloadJobs bounds the jobs every cell simulates: over 21 times
	// the 6,064-job Table II trace.
	maxWorkloadJobs = 131072
)

// State is a job lifecycle state.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Config sizes the service. The zero value gets sensible defaults.
type Config struct {
	// Workers is the number of matrices executed concurrently (default 2).
	Workers int
	// QueueDepth bounds the FIFO of matrices waiting for a worker
	// (default 16); submissions beyond it fail fast with ErrQueueFull.
	QueueDepth int
	// CacheBytes bounds the in-memory result cache in artifact bytes
	// (default 256 MiB; negative disables in-memory caching).
	CacheBytes int64
	// CacheTTL expires cached artifacts — in memory and on disk — this long
	// after their computation time (0 = never expire).
	CacheTTL time.Duration
	// CellParallelism bounds the worker pool inside each runner.Run call
	// (default runtime.GOMAXPROCS(0)). Results do not depend on it.
	CellParallelism int
	// Store, when non-nil, persists artifacts and the job table across
	// restarts, and with them every computed cell under its cell hash
	// (spec.CellHash): matrices resolve cells shared with earlier matrices —
	// or with their own interrupted previous run — from disk instead of
	// recomputing them. The service takes ownership: Close closes it.
	Store *store.Store
	// CellCacheBytes bounds the disk cells tier: when a GC sweep finds the
	// tier above this budget, oldest cells are evicted first until it fits
	// (0 = unbounded).
	CellCacheBytes int64
	// JobRetention ages terminal jobs (and their event history) out of the
	// job table (default 24h; negative keeps them forever).
	JobRetention time.Duration
	// GCInterval paces the background sweep that applies JobRetention and
	// CacheTTL (default 1m; negative disables the background sweep — GC can
	// still be invoked manually).
	GCInterval time.Duration
	// Tenants, when non-nil, turns on multi-tenant admission control:
	// submissions must carry a registered API token (SubmitToken), each
	// tenant's quotas and submission rate are enforced, and per-tenant
	// accounting is kept on every job state transition. Nil (the default) is
	// anonymous single-tenant mode with all pre-tenant behavior unchanged.
	// The registry can be replaced at runtime with ReloadTenants; this field
	// only seeds the initial one.
	Tenants *tenant.Registry
	// QueuePolicy selects how queued matrices are dequeued: fifo (default),
	// fair (weighted-fair lottery across tenants), or srpt
	// (shortest-estimated-job-first, sized by uncached cells × workload
	// jobs). fair degenerates to fifo without Tenants; srpt is useful either
	// way.
	QueuePolicy tenant.Policy
	// PeerTimeout bounds each peer artifact or cell fetch, made over
	// http.DefaultClient (default 5s). A slow peer degrades to
	// recomputation, never to a hung submission.
	PeerTimeout time.Duration
	// Logger receives structured log lines (job lifecycle, flight
	// execution, HTTP requests) with the internal/obs attribute vocabulary.
	// Nil (the default) discards them, keeping library and daemon behavior
	// identical to pre-observability releases.
	Logger *slog.Logger
	// ShardName, when set, is stamped as the "shard" attribute on every log
	// line — the mrgated pool name that lets one grep follow a trace ID
	// across a gateway and the shard it routed to.
	ShardName string
}

func (c Config) normalize() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.CellParallelism <= 0 {
		c.CellParallelism = runtime.GOMAXPROCS(0)
	}
	if c.JobRetention == 0 {
		c.JobRetention = 24 * time.Hour
	}
	if c.GCInterval == 0 {
		c.GCInterval = time.Minute
	}
	if c.QueuePolicy == "" {
		c.QueuePolicy = tenant.PolicyFIFO
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 5 * time.Second
	}
	return c
}

// JobStatus is the client-visible snapshot of one job.
type JobStatus struct {
	ID    string `json:"id"`
	Hash  string `json:"hash"`
	State State  `json:"state"`
	// Tenant is the submitting tenant's name; empty in anonymous mode (the
	// field is omitted, keeping anonymous responses byte-identical).
	Tenant string `json:"tenant,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// Done/Total report matrix-cell progress.
	Done  int `json:"done"`
	Total int `json:"total"`
	// CachedCells counts landed cells resolved from the cell cache rather
	// than simulated.
	CachedCells int    `json:"cached_cells,omitempty"`
	Error       string `json:"error,omitempty"`
	// Lifecycle timestamps (RFC 3339, millisecond precision, UTC).
	// SubmittedAt is when the submission was accepted; StartedAt when the
	// job began running (empty for cache hits, which never run); FinishedAt
	// when it reached a terminal state. Queue wait and run duration fall
	// out of the three. omitempty keeps pre-timestamp responses identical
	// for phases never reached.
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// jobState is one submission's server-side state. Guarded by Service.mu.
type jobState struct {
	id          string
	hash        string
	tenant      string // submitting tenant; "" in anonymous mode
	state       State  // "" until the first setState; changed only there
	cached      bool
	errMsg      string
	done        int
	cachedCells int
	total       int
	submittedAt time.Time // when the submission was accepted
	startedAt   time.Time // when the job began running (zero for cache hits)
	terminalAt  time.Time // when the job reached a terminal state (GC anchor)
	traceID     string    // trace of the submitting request; "" if untraced
	result      *CachedResult
	flight      *flight // nil once terminal
	subs        []*Subscription
	history     []Event // state transitions, replayed to late subscribers
}

func (j *jobState) status() JobStatus {
	st := JobStatus{
		ID: j.id, Hash: j.hash, State: j.state, Tenant: j.tenant, Cached: j.cached,
		Done: j.done, Total: j.total, CachedCells: j.cachedCells, Error: j.errMsg,
		SubmittedAt: rfc3339(j.submittedAt), StartedAt: rfc3339(j.startedAt),
	}
	if j.state.Terminal() {
		st.FinishedAt = rfc3339(j.terminalAt)
	}
	return st
}

// historyFrameCap bounds a job's replayable event buffer in frames. State
// transitions are few and cells frames coalesce to one trailing entry, so
// the cap is a defensive ceiling, not a working limit; once reached, further
// non-terminal frames are dropped from replay (live subscribers still see
// them) rather than growing the buffer.
const historyFrameCap = 64

// emit publishes an event to every subscriber and records replayable frames:
// state transitions always, and cells frames coalesced newest-wins (each
// carries the full running counts, so one trailing frame replays the same
// progress a live subscriber saw). Raw progress events stay live-only. The
// buffer is bounded by historyFrameCap; terminal events are recorded even at
// the cap. A terminal event closes every subscription, so the references are
// dropped immediately rather than pinned for the life of the job record.
// Callers hold Service.mu.
func (j *jobState) emit(e Event) {
	e.Job = j.id
	e.Tenant = j.tenant
	if e.Terminal() {
		e.SubmittedAt = rfc3339(j.submittedAt)
		e.StartedAt = rfc3339(j.startedAt)
		e.FinishedAt = rfc3339(j.terminalAt)
	}
	switch {
	case e.Type == EventProgress:
		// live-only
	case e.Type == EventCells:
		if n := len(j.history); n > 0 && j.history[n-1].Type == EventCells {
			j.history[n-1] = e
		} else if n < historyFrameCap {
			j.history = append(j.history, e)
		}
	case e.Terminal() || len(j.history) < historyFrameCap:
		j.history = append(j.history, e)
	}
	for _, sub := range j.subs {
		sub.publish(e)
	}
	if e.Terminal() {
		j.subs = nil
	}
}

// terminalEvent builds the event announcing the job's terminal state; emit
// stamps the job, tenant and lifecycle timestamps.
func (j *jobState) terminalEvent() Event {
	e := Event{Done: j.done, Total: j.total}
	switch j.state {
	case StateDone:
		e.Type = EventDone
		e.Cached = j.cached
	case StateCancelled:
		e.Type = EventCancelled
	default:
		e.Type = EventFailed
		e.Error = j.errMsg
	}
	return e
}

// flight is one shared matrix computation: every job submitted with the
// same spec hash while it is queued or running attaches to it. A flight is
// born queued (newFlight) and a worker starts it (nextFlight), so it is
// only ever queued or running until it settles.
type flight struct {
	hash      string
	tenant    string    // owner: the tenant that first submitted this matrix
	sp        spec.Spec // normalized service spec: the worker expands it, cells hash by it
	jobs      []*jobState
	ctx       context.Context
	cancel    context.CancelFunc
	state     State
	startedAt time.Time // when a worker picked the flight up
	traceID   string    // trace of the first submission; "" if untraced
	peer      string    // previous ring owner's base URL; "" without a hint
	done      int
	cached    int // landed cells resolved from the cell cache
	total     int
}

// Service is an in-process simulation service. Create with New, serve over
// HTTP via Handler, and stop with Close.
type Service struct {
	cfg   Config
	start time.Time
	obsv  serviceObs

	baseCtx    context.Context
	baseCancel context.CancelFunc

	wg     sync.WaitGroup
	gcStop chan struct{}

	// runMatrix executes one matrix; runner.Run outside tests.
	runMatrix func(context.Context, runner.Spec, runner.Options) (*runner.Result, error)

	// storeHandle persists artifacts and job records; nil in in-memory mode.
	// Fields under mu below never touch the disk while locked except for
	// job-log appends (one buffered write per state transition; only
	// terminal records fsync) — artifact reads and writes happen off-lock.
	storeHandle *store.Store

	mu   sync.Mutex
	cond *sync.Cond // wakes workers when the queue grows or the service closes
	// queue holds the flights waiting for a worker under the configured
	// dequeue policy (fifo, weighted-fair, or srpt). A policy queue rather
	// than a channel so Cancel can remove a fully-cancelled queued flight
	// immediately and free its slot for new submissions.
	queue    *tenant.Queue[*flight]
	closed   bool
	seq      int
	jobs     map[string]*jobState
	inflight map[string]*flight
	cache    *lruCache

	// m holds the process-lifetime counters; Metrics copies it and fills in
	// the gauges.
	m Metrics

	// tenantAccts is the per-tenant counter and gauge table, lazily created
	// per named tenant; anonymous submissions ("") are never entered.
	tenantAccts map[string]*tenantAcct

	// tenants is the live tenant registry, read through registry() on every
	// authentication/quota decision and swapped atomically by ReloadTenants —
	// never read Config.Tenants after New. Nil means anonymous mode; a
	// service started anonymous stays anonymous (and vice versa), so the
	// queue's weight closure and handlers can treat tenancy as a startup
	// property even though the tenant set underneath is live.
	tenants atomic.Pointer[tenant.Registry]
}

// tenantAcct is one tenant's accounting row. Queued, Running and cells are
// gauges kept by setState — cells (the live total across the tenant's
// queued and running jobs) is the basis of the MaxCells quota — and the
// rest are process-lifetime counters.
type tenantAcct struct {
	TenantMetrics
	cells int64
}

// New starts a service with cfg defaults filled and its worker pool running.
// If cfg.Store is set, the job table is recovered from its log first (jobs
// that were queued or running at crash time are failed) and the background
// garbage collector starts alongside the workers.
func New(cfg Config) *Service {
	cfg = cfg.normalize()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:         cfg,
		start:       time.Now(),
		baseCtx:     ctx,
		baseCancel:  cancel,
		gcStop:      make(chan struct{}),
		jobs:        make(map[string]*jobState),
		inflight:    make(map[string]*flight),
		cache:       newLRUCache(cfg.CacheBytes, cfg.CacheTTL),
		storeHandle: cfg.Store,
		runMatrix:   runner.Run,
		tenantAccts: make(map[string]*tenantAcct),
		obsv:        newServiceObs(cfg.Logger, cfg.ShardName),
	}
	s.tenants.Store(cfg.Tenants)
	var weight func(string) float64
	if cfg.Tenants != nil {
		// Resolve through the live registry on every lottery draw, not the
		// startup one, so a hot reload's weight changes apply to jobs already
		// queued. registry() stays non-nil: reload cannot turn tenancy off.
		weight = func(name string) float64 { return s.registry().Weight(name) }
	}
	s.queue = tenant.NewQueue[*flight](cfg.QueuePolicy, weight, fairQueueSeed)
	s.cond = sync.NewCond(&s.mu)
	if s.storeHandle != nil {
		s.recoverJobs()
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				fl, ok := s.nextFlight()
				if !ok {
					return
				}
				s.runFlight(fl)
			}
		}()
	}
	if cfg.GCInterval > 0 {
		s.wg.Add(1)
		go s.gcLoop(cfg.GCInterval)
	}
	return s
}

// registry returns the live tenant registry, nil in anonymous mode. Every
// tenant decision loads it exactly once so one request sees one registry
// generation even while ReloadTenants swaps it underneath.
func (s *Service) registry() *tenant.Registry { return s.tenants.Load() }

// ReloadTenants atomically replaces the tenant registry: requests already
// past authentication finish against the registry they loaded, the next
// request sees the new one. Tokens added to the new registry are admitted
// immediately; tokens removed stop authenticating, though jobs they already
// submitted keep running (cancel them explicitly if needed). Rate-limit
// buckets restart full — a reload is rare enough that the one free burst
// does not matter. Per-tenant accounting survives by name.
//
// Tenancy itself is a startup property: reloading a nil registry, or
// reloading into a service that started anonymous, is rejected — toggling
// authentication on a live service would silently change the admission
// model for every queued job.
func (s *Service) ReloadTenants(reg *tenant.Registry) error {
	if reg == nil {
		return errors.New("service: reload: nil registry (tenancy cannot be turned off at runtime)")
	}
	if s.registry() == nil {
		return errors.New("service: reload: service started anonymous (tenancy cannot be turned on at runtime)")
	}
	s.tenants.Store(reg)
	return nil
}

// recoverJobs rebuilds the job table from the store's job log: the latest
// record per job wins and the ID sequence resumes past the highest recovered
// ID. Terminal records are replayed as they are. A job that was queued or
// running at crash time is reset and decided afresh by this process: it is
// requeued when its canonical spec survived in the specs/ tier — its new
// flight refills from the cells the dead process persisted, recomputing
// only the remainder — and failed otherwise. Both verdicts go through
// setState, so they are persisted, counted and logged like any transition
// of this process; recovered jobs do not count as submissions, but requeued
// flights count as flights because they run here. Called from New before
// any worker starts.
func (s *Service) recoverJobs() {
	recs, err := s.storeHandle.ReplayJobs()
	if err != nil {
		s.countStoreErr(err)
		return
	}
	interrupted, requeued := 0, 0
	for _, r := range recs {
		j := &jobState{
			id:          r.ID,
			hash:        r.Hash,
			tenant:      r.Tenant,
			state:       State(r.State),
			cached:      r.Cached,
			errMsg:      r.Error,
			done:        r.Done,
			total:       r.Total,
			submittedAt: timeFromMs(r.SubmittedAtMs),
			startedAt:   timeFromMs(r.StartedAtMs),
			terminalAt:  time.UnixMilli(r.UpdatedAtMs),
		}
		if r.FinishedAtMs != 0 {
			j.terminalAt = time.UnixMilli(r.FinishedAtMs)
		}
		s.jobs[j.id] = j
		if n, ok := parseJobSeq(j.id); ok && n > s.seq {
			s.seq = n
		}
		if j.state.Terminal() {
			j.emit(Event{Type: EventQueued, Total: j.total})
			j.emit(j.terminalEvent())
			continue
		}
		interrupted++
		j.state = ""
		if fl := s.recoveredFlight(j); fl != nil {
			// The previous process's run never finished, so its start time
			// is meaningless for the rerun; this process stamps a fresh one
			// when a worker picks the flight up.
			j.startedAt = time.Time{}
			s.attach(fl, j)
			requeued++
			continue
		}
		j.errMsg = restartErrMsg
		s.setState(j, StateFailed)
	}
	if len(recs) > 0 {
		s.obsv.log.Info("job log recovered",
			"jobs", len(recs), "interrupted", interrupted, "requeued", requeued)
	}
}

// recoveredFlight returns the flight an interrupted job is requeued on: the
// one an earlier interrupted job of the same matrix rebuilt, or a new one
// queued from the persisted spec record. It returns nil — the caller then
// fails the job — when the record is missing, corrupt, or no longer parses.
func (s *Service) recoveredFlight(j *jobState) *flight {
	if fl, ok := s.inflight[j.hash]; ok {
		return fl
	}
	canon, err := s.storeHandle.GetSpec(j.hash)
	if err != nil {
		s.countStoreErr(err)
		return nil
	}
	sp, err := spec.Parse(canon) // normalized
	if err != nil {
		return nil
	}
	return s.newFlight(j.hash, j.tenant, "", "", sp, s.jobSize(sp))
}

// acct returns (creating if needed) a named tenant's accounting row.
// Anonymous submissions are never entered: callers skip an empty name,
// which is what keeps anonymous single-tenant mode behaviorally identical
// to the pre-tenant service. Caller holds mu.
func (s *Service) acct(name string) *tenantAcct {
	ta, ok := s.tenantAccts[name]
	if !ok {
		ta = &tenantAcct{}
		s.tenantAccts[name] = ta
	}
	return ta
}

// setState is the only place a job's state changes. A new job starts from
// the zero state "", and every transition keeps the rest of the service in
// step with it:
//   - the tenant's gauges: live cells from the first transition until a
//     terminal one, the queued and running counts by state;
//   - the event stream: the first transition emits the queued frame (so a
//     cache hit that goes straight to done still replays queued first),
//     entering running emits running, entering a terminal state emits the
//     terminal frame and closes every subscription;
//   - timestamps and counters: running stamps startedAt and observes the
//     queue wait, a terminal state stamps terminalAt, detaches the flight
//     and bumps JobsDone, JobsFailed or JobsCancelled;
//   - the job log (persistJob) and the lifecycle log line. extra carries
//     attributes for the job done line (cached, source).
//
// Caller holds mu (or runs single-threaded from New).
func (s *Service) setState(j *jobState, to State, extra ...any) {
	from := j.state
	j.state = to
	now := time.Now()
	if j.tenant != "" {
		ta := s.acct(j.tenant)
		switch from {
		case "":
			ta.cells += int64(j.total)
		case StateQueued:
			ta.Queued--
		case StateRunning:
			ta.Running--
		}
		switch to {
		case StateQueued:
			ta.Queued++
		case StateRunning:
			ta.Running++
		default:
			ta.cells -= int64(j.total)
		}
	}
	if from == "" {
		j.emit(Event{Type: EventQueued, Total: j.total})
	}
	switch to {
	case StateRunning:
		j.startedAt = now
		s.obsv.observeQueueWait(j.submittedAt, now)
		j.emit(Event{Type: EventRunning, Done: j.done, Total: j.total})
	case StateDone:
		s.m.JobsDone++
	case StateFailed:
		s.m.JobsFailed++
	case StateCancelled:
		s.m.JobsCancelled++
	}
	if to.Terminal() {
		j.flight = nil
		j.terminalAt = now
		j.emit(j.terminalEvent())
	}
	s.persistJob(j)
	switch {
	case from == "" && !to.Terminal():
		s.obsv.log.Info("job queued", append(jobAttrs(j), "cells", j.total)...)
	case to == StateDone:
		s.obsv.log.Info("job done", append(jobAttrs(j), extra...)...)
	case to == StateFailed:
		s.obsv.log.Warn("job failed", append(jobAttrs(j), "error", j.errMsg)...)
	case to == StateCancelled:
		s.obsv.log.Info("job cancelled", jobAttrs(j)...)
	}
}

// checkQuota enforces a tenant's admission quotas for a job that would
// enter in state `state` with `total` matrix cells: MaxQueued bounds jobs
// waiting in the queue, MaxCells bounds live cells across the tenant's
// queued and running jobs. Cached results (memory, disk, peer, assembled)
// never reach here — they complete immediately and hold neither a queue
// slot nor cells. Caller holds mu.
func (s *Service) checkQuota(tn string, state State, total int) error {
	reg := s.registry()
	if tn == "" || reg == nil {
		return nil
	}
	t, ok := reg.Lookup(tn)
	if !ok {
		return nil
	}
	ta := s.acct(tn)
	if t.MaxQueued > 0 && state == StateQueued && ta.Queued >= int64(t.MaxQueued) {
		return fmt.Errorf("%w: tenant %s has %d queued jobs (max %d)",
			ErrTenantQuota, tn, ta.Queued, t.MaxQueued)
	}
	if t.MaxCells > 0 && ta.cells+int64(total) > t.MaxCells {
		return fmt.Errorf("%w: tenant %s would hold %d in-flight cells (max %d)",
			ErrTenantQuota, tn, ta.cells+int64(total), t.MaxCells)
	}
	return nil
}

// jobSize estimates a validated, normalized matrix's remaining work for
// the SRPT dequeue policy: uncached cells × workload jobs. The uncached
// count comes from cheap existence probes against the cells tier by cell
// content address, so a mostly-cached matrix estimates small and jumps the
// queue; under other policies — where nothing reads the size — the probes
// are skipped and the full cell count is used. Runs off-lock: it does
// store I/O.
func (s *Service) jobSize(norm spec.Spec) float64 {
	uncached := len(norm.Schedulers) * len(norm.Points) * norm.Runs
	if s.cfg.QueuePolicy == tenant.PolicySRPT && s.storeHandle != nil {
		if hasher, err := norm.CellHasher(); err == nil {
			uncached = 0
			for si := range norm.Schedulers {
				for pi := range norm.Points {
					for run := 0; run < norm.Runs; run++ {
						hash, herr := hasher.Hash(si, pi, run)
						if herr != nil || !s.storeHandle.HasCell(hash) {
							uncached++
						}
					}
				}
			}
		}
	}
	return float64(uncached) * float64(norm.WorkloadJobs())
}

// parseJobSeq extracts the numeric sequence of a job ID ("m%06d").
func parseJobSeq(id string) (int, bool) {
	num, ok := strings.CutPrefix(id, "m")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// nextFlight blocks until a flight is queued and starts it: the flight and
// every attached job enter running under the lock that pops it, so no
// flight is ever off the queue and not running. The bool is false once the
// service has closed and the queue is empty.
func (s *Service) nextFlight() (*flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if fl, ok := s.queue.Pop(); ok {
			fl.state = StateRunning
			fl.startedAt = time.Now()
			for _, j := range fl.jobs {
				s.setState(j, StateRunning)
			}
			s.obsv.log.Info("flight running",
				obs.KeySpec, obs.SpecPrefix(fl.hash), obs.KeyTraceID, fl.traceID,
				"cells", fl.total, "jobs", len(fl.jobs))
			return fl, true
		}
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
}

// Submit registers an anonymous job for the spec and returns its initial
// status. With a tenant registry configured, use SubmitToken instead —
// Submit bypasses authentication and is intended for in-process callers
// and anonymous single-tenant deployments.
func (s *Service) Submit(sp spec.Spec) (JobStatus, error) {
	return s.submit(context.Background(), "", sp)
}

// SubmitContext is Submit with a caller context: a trace context installed
// by obs.ContextWithTrace is stamped on the job and carried through its
// log lines, so one trace ID follows the submission from the HTTP edge
// into the queue and the runner. The context is read for observability
// only — it does not cancel the job (use Cancel).
func (s *Service) SubmitContext(ctx context.Context, sp spec.Spec) (JobStatus, error) {
	return s.submit(ctx, "", sp)
}

// SubmitToken authenticates an API token against the configured tenant
// registry, charges the tenant's submission rate limit, and submits the
// spec on the tenant's behalf. Without a registry the token is ignored and
// the submission is anonymous. Errors: tenant.ErrNoToken /
// tenant.ErrUnknownToken / tenant.ErrDisabled for authentication failures,
// tenant.ErrRateLimited (a *tenant.RateLimitError carrying the retry
// delay) for rate rejections, ErrTenantQuota and ErrQueueFull for
// admission rejections.
func (s *Service) SubmitToken(token string, sp spec.Spec) (JobStatus, error) {
	return s.SubmitTokenContext(context.Background(), token, sp)
}

// SubmitTokenContext is SubmitToken with a caller context; see
// SubmitContext for what the context carries.
func (s *Service) SubmitTokenContext(ctx context.Context, token string, sp spec.Spec) (JobStatus, error) {
	reg := s.registry()
	if reg == nil {
		return s.submit(ctx, "", sp)
	}
	t, err := reg.Admit(token, time.Now())
	if err != nil {
		s.mu.Lock()
		var rl *tenant.RateLimitError
		if errors.As(err, &rl) {
			s.acct(rl.Tenant).Rejected++
		} else {
			s.m.Unauthorized++
		}
		s.mu.Unlock()
		s.obsv.log.Warn("submission rejected", "error", err.Error(),
			obs.KeyTraceID, traceIDFrom(ctx))
		return JobStatus{}, err
	}
	return s.submit(ctx, t.Name, sp)
}

// traceIDFrom extracts the trace ID installed by obs.ContextWithTrace, or
// "" when the caller is untraced (in-process Submit).
func traceIDFrom(ctx context.Context) string {
	if tc, ok := obs.TraceFrom(ctx); ok {
		return tc.TraceID
	}
	return ""
}

// submit registers a job for the spec on behalf of tenant tn ("" =
// anonymous) and returns its initial status. The spec is validated,
// content-hashed and bounded, then looked up in one ladder: under the lock
// the memory cache and the single-flight table (an equal queued or running
// spec shares its flight), then off the lock the durable tiers (disk,
// peer, cells; see probeStore). A cached result completes the job at once
// through completeCached, before any flight exists, even when the queue is
// full. On a miss the spec record and the SRPT size are written off the
// lock, and one locked section checks again and queues a new flight for
// the job: it fails fast with ErrQueueFull when the queue is at capacity,
// or ErrTenantQuota when the tenant is over its own limits. Only accepted
// submissions count toward the submissions metric.
func (s *Service) submit(ctx context.Context, tn string, sp spec.Spec) (JobStatus, error) {
	trace := traceIDFrom(ctx)
	hash, err := sp.Hash()
	if err != nil {
		return JobStatus{}, err
	}
	// The matrix size is known from the axes alone, so it is bounded before
	// any store read or cell assembly.
	norm := sp.Normalize()
	if err := checkMatrixSize(norm); err != nil {
		return JobStatus{}, err
	}
	total := len(norm.Schedulers) * len(norm.Points) * norm.Runs

	s.mu.Lock()
	st, ok, err := s.fastPath(tn, hash, trace)
	s.mu.Unlock()
	if ok || err != nil {
		return st, err
	}
	var specErr error
	if s.storeHandle != nil {
		res, source, readErr, putErr := s.probeStore(ctx, hash, norm)
		s.mu.Lock()
		s.countStoreErr(readErr)
		s.countStoreErr(putErr)
		if res != nil && !s.closed {
			st, ok = s.completeCached(tn, hash, trace, res, source), true
		} else if st, ok, err = s.fastPath(tn, hash, trace); !ok && err == nil {
			// Refuse a submission the queue or quota would refuse anyway
			// before it pays for the spec record's fsync.
			err = s.admitFlight(tn, hash, trace, total)
		}
		s.mu.Unlock()
		if ok || err != nil {
			return st, err
		}
		// Persist the canonical spec under its matrix hash before the flight
		// is queued: should this process die mid-matrix, the next one
		// requeues the interrupted job from this record and refills from
		// persisted cells instead of failing it. Best-effort — without the
		// record, recovery degrades to the fail-on-restart behavior. A
		// record left by a submission that is then refused or deduplicated
		// is swept by GC like a crash orphan.
		if canon, cerr := norm.Canonical(); cerr == nil {
			specErr = s.storeHandle.PutSpec(hash, canon)
		}
	}
	size := s.jobSize(norm)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.countStoreErr(specErr)
	if st, ok, err := s.fastPath(tn, hash, trace); ok || err != nil {
		return st, err
	}
	if err := s.admitFlight(tn, hash, trace, total); err != nil {
		return JobStatus{}, err
	}
	fl := s.newFlight(hash, tn, trace, peerFrom(ctx), norm, size)
	j := s.newJob(hash, tn, trace)
	s.attach(fl, j)
	return j.status(), nil
}

// checkMatrixSize rejects a validated, normalized spec past either size
// bound, naming the bound. The cell count is multiplied out one factor at a
// time against the bound, so it cannot overflow.
func checkMatrixSize(sp spec.Spec) error {
	cells := 1
	for _, n := range []int{len(sp.Schedulers), len(sp.Points), sp.Runs} {
		if n > maxMatrixCells/cells {
			return fmt.Errorf("service: matrix of %d schedulers × %d points × %d runs exceeds the %d-cell limit",
				len(sp.Schedulers), len(sp.Points), sp.Runs, maxMatrixCells)
		}
		cells *= n
	}
	if jobs := sp.WorkloadJobs(); jobs > maxWorkloadJobs {
		return fmt.Errorf("service: workload of %d jobs exceeds the %d-job limit", jobs, maxWorkloadJobs)
	}
	return nil
}

// probeStore looks a matrix up in the durable tiers, off the lock, and
// names the source of what it finds: its result record on disk ("disk");
// on a local miss for a hash the gateway says relocated here, the previous
// ring owner's record ("peer"); then its cells ("cells"), which assemble
// into the result without a worker when every one of them is persisted. A
// record past CacheTTL reads as a miss. res is nil on a miss; readErr is
// the disk read's error and putErr the write of an assembled result, both
// for the store counters.
func (s *Service) probeStore(ctx context.Context, hash string, norm spec.Spec) (res *CachedResult, source string, readErr, putErr error) {
	fresh := func(r *CachedResult) bool {
		return s.cfg.CacheTTL <= 0 || time.Since(r.CreatedAt) <= s.cfg.CacheTTL
	}
	art, readErr := s.storeHandle.GetArtifacts(hash)
	if readErr == nil && fresh(&art) {
		return &art, "disk", nil, nil
	}
	if peer := peerFrom(ctx); peer != "" && errors.Is(readErr, store.ErrNotFound) {
		if res := s.peerArtifacts(ctx, peer, hash); res != nil && fresh(res) {
			return res, "peer", nil, nil
		}
	}
	res, putErr = s.assemble(hash, norm)
	return res, "cells", readErr, putErr
}

// fastPath serves a submission from the in-memory result cache or attaches
// it to an in-flight computation, counting it as accepted. Caller holds mu;
// the bool reports success. A non-nil error means the submission was
// positively rejected (closed service, tenant quota) rather than missed.
func (s *Service) fastPath(tn, hash, trace string) (JobStatus, bool, error) {
	if s.closed {
		return JobStatus{}, false, ErrClosed
	}
	if res, ok := s.cache.get(hash); ok {
		return s.completeCached(tn, hash, trace, res, "memory"), true, nil
	}
	fl, ok := s.inflight[hash]
	if !ok {
		return JobStatus{}, false, nil
	}
	// Attaching still charges the tenant's gauges (the job occupies their
	// queued/cell budget even though the work is shared), so the quota
	// check applies here too.
	if qerr := s.checkQuota(tn, fl.state, fl.total); qerr != nil {
		s.acct(tn).Rejected++
		return JobStatus{}, false, qerr
	}
	s.m.DedupHits++
	j := s.newJob(hash, tn, trace)
	s.attach(fl, j)
	return j.status(), true, nil
}

// completeCached completes a submission with a stored result, counted by
// its source: a memory hit, a disk or peer hit, or a matrix assembled from
// cells, whose every cell counts as landed from the cell cache. A result
// read from the store enters the memory cache. Caller holds mu.
func (s *Service) completeCached(tn, hash, trace string, res *CachedResult, source string) JobStatus {
	j := s.newJob(hash, tn, trace)
	j.cached = true
	j.result = res
	j.done, j.total = res.Cells, res.Cells
	switch source {
	case "memory":
		s.m.CacheHits++
	case "disk":
		s.m.DiskHits++
	case "cells":
		s.m.Assembled++
		s.m.CellsDone += int64(res.Cells)
		s.m.CellHits += int64(res.Cells)
		j.cachedCells = res.Cells
	}
	if source != "memory" {
		s.cache.add(res)
	}
	s.setState(j, StateDone, "cached", true, "source", source)
	return j.status()
}

// admitFlight checks that a new flight may be queued for tenant tn: the
// queue has a free slot and the tenant stays within its quotas. A refusal
// is counted against the tenant and logged. Caller holds mu.
func (s *Service) admitFlight(tn, hash, trace string, total int) error {
	if s.queue.Len() >= s.cfg.QueueDepth {
		if tn != "" {
			s.acct(tn).Rejected++
		}
		s.obsv.log.Warn("submission rejected", "error", "queue full",
			obs.KeySpec, obs.SpecPrefix(hash), obs.KeyTraceID, trace)
		return fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cfg.QueueDepth)
	}
	if err := s.checkQuota(tn, StateQueued, total); err != nil {
		s.acct(tn).Rejected++
		s.obsv.log.Warn("submission rejected", "error", err.Error(),
			obs.KeySpec, obs.SpecPrefix(hash), obs.KeyTenant, tn, obs.KeyTraceID, trace)
		return err
	}
	return nil
}

// attach joins a job to a queued or running flight: the job takes the
// flight's state and cell counts. Caller holds mu.
func (s *Service) attach(fl *flight, j *jobState) {
	j.done, j.cachedCells, j.total = fl.done, fl.cached, fl.total
	j.flight = fl
	fl.jobs = append(fl.jobs, j)
	s.setState(j, fl.state)
	if fl.state == StateRunning && fl.done > 0 {
		// Catch the late job up to the flight's cell counts so its replay
		// buffer is consistent with jobs attached earlier.
		j.emit(Event{Type: EventCells, Done: fl.done, CachedCells: fl.cached, Total: fl.total})
	}
}

// newFlight registers a flight for the normalized spec in the
// single-flight table and pushes it on the queue with its estimated size
// (the SRPT dequeue key): a flight is born queued. Caller holds mu (or runs
// single-threaded from New).
func (s *Service) newFlight(hash, tn, trace, peer string, norm spec.Spec, size float64) *flight {
	ctx, cancel := context.WithCancel(s.baseCtx)
	fl := &flight{
		hash:    hash,
		tenant:  tn,
		sp:      norm,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		traceID: trace,
		peer:    peer,
		total:   len(norm.Schedulers) * len(norm.Points) * norm.Runs,
	}
	s.inflight[hash] = fl
	s.queue.Push(tn, size, fl)
	s.m.Flights++
	s.cond.Signal()
	return fl
}

// settle is the only way a flight ends: it leaves the single-flight table,
// its context is cancelled, and every attached job moves to done with res
// or to failed with err. extra is passed on to the job done log lines. A
// flight whose jobs were all cancelled settles with none left. Caller
// holds mu.
func (s *Service) settle(fl *flight, res *CachedResult, err error, extra ...any) {
	if s.inflight[fl.hash] == fl {
		delete(s.inflight, fl.hash)
	}
	fl.cancel()
	if err == nil && res != nil {
		s.cache.add(res)
	}
	jobs := fl.jobs
	fl.jobs = nil
	for _, j := range jobs {
		if err != nil {
			j.errMsg = err.Error()
			s.setState(j, StateFailed)
			continue
		}
		j.result = res
		j.done = j.total
		s.setState(j, StateDone, extra...)
	}
}

// newJob allocates the job record of one accepted submission, stamped with
// its submission time and the submitting request's trace ID, and counts the
// submission, attributed to the tenant when named. Its state stays "" until
// the caller's first setState. Caller holds mu.
func (s *Service) newJob(hash, tn, trace string) *jobState {
	s.m.Submissions++
	if tn != "" {
		s.acct(tn).Submitted++
	}
	s.seq++
	j := &jobState{
		id:          fmt.Sprintf("m%06d", s.seq),
		hash:        hash,
		tenant:      tn,
		traceID:     trace,
		submittedAt: time.Now(),
	}
	s.jobs[j.id] = j
	return j
}

// persistJob appends the job's current state to the store's job log.
// Best-effort: failures are counted, not surfaced — the in-memory state
// remains authoritative for this process. Only terminal records pay for an
// fsync (a lost queued/running record reads as a job that never arrived,
// while lost history would be real damage), so the buffered appends on the
// submission fast paths stay cheap under this lock. Caller holds mu.
func (s *Service) persistJob(j *jobState) {
	if s.storeHandle == nil {
		return
	}
	rec := store.JobRecord{
		ID:            j.id,
		Hash:          j.hash,
		State:         string(j.state),
		Cached:        j.cached,
		Done:          j.done,
		Total:         j.total,
		Error:         j.errMsg,
		Tenant:        j.tenant,
		UpdatedAtMs:   time.Now().UnixMilli(),
		SubmittedAtMs: unixMsOrZero(j.submittedAt),
		StartedAtMs:   unixMsOrZero(j.startedAt),
	}
	if j.state.Terminal() {
		rec.FinishedAtMs = unixMsOrZero(j.terminalAt)
	}
	s.countStoreErr(s.storeHandle.AppendJob(rec, j.state.Terminal()))
}

// countStoreErr classifies a store error for the counters: ErrCorrupt means
// the entry was quarantined, ErrNotFound is a plain miss, and anything else
// is a store error. A nil error counts nothing. Caller holds mu.
func (s *Service) countStoreErr(err error) {
	switch {
	case err == nil, errors.Is(err, store.ErrNotFound):
	case errors.Is(err, store.ErrCorrupt):
		s.m.Quarantined++
	default:
		s.m.StoreErrors++
	}
}

// runFlight expands a started flight's workload and runs the matrix on the
// calling worker. The worker is the only place a workload is expanded, and
// an expansion error fails the flight like a run error.
func (s *Service) runFlight(fl *flight) {
	matrix, err := fl.sp.Runner()
	var res *runner.Result
	if err == nil {
		res, err = s.runMatrix(fl.ctx, matrix, runner.Options{
			Parallelism: s.cfg.CellParallelism,
			Progress:    func(done, cached, total int) { s.flightCells(fl, done, cached, total) },
			CellCache:   s.cellCacheFor(fl),
			CellTime: func(d time.Duration, fromCache bool) {
				if !fromCache {
					s.obsv.cellDur.Observe(d.Seconds())
				}
			},
		})
	}
	runDur := time.Since(fl.startedAt)
	s.obsv.runDur.Observe(runDur.Seconds())

	var cached *CachedResult
	if err == nil {
		cached, err = encodeResult(fl.hash, res)
	}
	// Persist before announcing completion (still off the lock): once a
	// client sees done, a crash must not lose the artifact it was promised.
	var putErr error
	if err == nil && s.storeHandle != nil {
		putErr = s.storeHandle.PutArtifacts(*cached)
	}
	// The flight is over either way: its spec record has served its purpose
	// (crash-resume needs it only while the matrix is in flight — on success
	// the cells and artifacts carry the result, on failure a resubmission
	// writes a fresh record).
	if s.storeHandle != nil {
		_ = s.storeHandle.DeleteSpec(fl.hash)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.countStoreErr(putErr)
	if fl.tenant != "" {
		// Wall-clock worker time, charged whether or not the matrix landed:
		// the slot was occupied either way.
		s.acct(fl.tenant).CellSeconds += time.Since(fl.startedAt).Seconds()
	}
	njobs := len(fl.jobs)
	s.settle(fl, cached, err)
	if err != nil {
		s.obsv.log.Warn("flight failed",
			obs.KeySpec, obs.SpecPrefix(fl.hash), obs.KeyTraceID, fl.traceID,
			obs.KeyDurationMs, float64(runDur)/float64(time.Millisecond),
			"jobs", njobs, "error", err.Error())
		return
	}
	s.obsv.log.Info("flight done",
		obs.KeySpec, obs.SpecPrefix(fl.hash), obs.KeyTraceID, fl.traceID,
		obs.KeyDurationMs, float64(runDur)/float64(time.Millisecond),
		"cells", fl.total, "cached_cells", fl.cached, "jobs", njobs)
}

// flightCells fans one landed cell out to every attached job — a progress
// frame, then a cells frame carrying the streaming partial aggregate: how
// much of the matrix has landed and how much of that was resolved from the
// cell cache — and keeps the global cell counter current.
func (s *Service) flightCells(fl *flight, done, cached, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.CellsDone += int64(done - fl.done)
	fl.done, fl.cached, fl.total = done, cached, total
	for _, j := range fl.jobs {
		j.done, j.cachedCells, j.total = done, cached, total
		j.emit(Event{Type: EventProgress, Done: done, Total: total})
		j.emit(Event{Type: EventCells, Done: done, CachedCells: cached, Total: total})
	}
}

// encodeResult renders the deterministic artifact bytes of a completed
// matrix once; every job and every future cache hit shares them.
func encodeResult(hash string, res *runner.Result) (*CachedResult, error) {
	var jsonBuf, csvBuf, aggBuf bytes.Buffer
	if err := res.WriteJSON(&jsonBuf); err != nil {
		return nil, fmt.Errorf("service: encode json: %w", err)
	}
	if err := res.WriteCSV(&csvBuf); err != nil {
		return nil, fmt.Errorf("service: encode csv: %w", err)
	}
	if err := res.WriteAggregateCSV(&aggBuf); err != nil {
		return nil, fmt.Errorf("service: encode aggregate csv: %w", err)
	}
	return &CachedResult{
		Hash:         hash,
		JSON:         jsonBuf.Bytes(),
		CSV:          csvBuf.Bytes(),
		AggregateCSV: aggBuf.Bytes(),
		Cells:        len(res.Cells),
		CreatedAt:    time.Now(),
	}, nil
}

// Get returns the status snapshot of a job.
func (s *Service) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.status(), nil
}

// Result returns the completed artifact of a done job; ErrNotReady while it
// is queued or running, and the failure/cancellation as an error otherwise.
// For a job recovered from the job log — done in a previous process — the
// artifact is loaded back from the disk store on first access; if the entry
// has since been GC'd or quarantined, the result is reported gone and the
// client must resubmit the spec.
func (s *Service) Result(id string) (*CachedResult, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var snap jobState
	if ok {
		if j.state == StateDone && j.result == nil {
			j.result, _ = s.cache.get(j.hash)
		}
		snap = *j
	}
	s.mu.Unlock()
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	case snap.state == StateFailed:
		return nil, fmt.Errorf("service: job %s failed: %s", id, snap.errMsg)
	case snap.state == StateCancelled:
		return nil, fmt.Errorf("service: job %s was cancelled", id)
	case snap.state != StateDone:
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotReady, id, snap.state)
	case snap.result != nil:
		return snap.result, nil
	case s.storeHandle == nil:
		return nil, fmt.Errorf("service: job %s: result no longer available", id)
	}
	art, err := s.storeHandle.GetArtifacts(snap.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.countStoreErr(err)
		return nil, fmt.Errorf(
			"service: job %s: result no longer available (expired or quarantined); resubmit the spec", id)
	}
	s.cache.add(&art)
	s.m.DiskHits++
	if j, ok := s.jobs[id]; ok && j.state == StateDone {
		j.result = &art
	}
	return &art, nil
}

// Subscribe returns the job's event stream. The stream replays past state
// transitions (so a subscriber always sees queued first), then delivers
// live progress and the terminal event, after which it closes.
func (s *Service) Subscribe(id string) (*Subscription, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	sub := newSubscription()
	for _, e := range j.history {
		sub.publish(e)
	}
	if !j.state.Terminal() {
		j.subs = append(j.subs, sub)
	}
	return sub, nil
}

// unsubscribe drops a live subscription from its job, so a stream whose
// reader went away stops receiving frames.
func (s *Service) unsubscribe(id string, sub *Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.subs = slices.DeleteFunc(j.subs, func(o *Subscription) bool { return o == sub })
	}
}

// Cancel cancels a job. Cancelling is per-submission: a computation shared
// with other jobs keeps running until its last attached job is cancelled.
// It reports false (with no error) when the job had already finished.
func (s *Service) Cancel(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if j.state.Terminal() {
		return false, nil
	}
	fl := j.flight
	s.setState(j, StateCancelled)
	if fl != nil {
		fl.jobs = slices.DeleteFunc(fl.jobs, func(o *jobState) bool { return o == j })
		if len(fl.jobs) == 0 {
			// A fully-cancelled flight settles now: a queued one frees its
			// queue slot, a running one has its context cancelled.
			s.queue.Remove(fl)
			s.settle(fl, nil, nil)
		}
	}
	return true, nil
}

// gcLoop runs GC on a fixed cadence until Close.
func (s *Service) gcLoop(interval time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.GC()
		case <-s.gcStop:
			return
		}
	}
}

// GC runs one garbage-collection sweep and reports what it removed:
// terminal jobs older than JobRetention leave the job table (taking their
// replayable event history with them — the unbounded-growth fix), the job
// log is compacted to the surviving jobs, TTL-expired entries leave the
// in-memory cache, and TTL-expired artifacts are deleted from the disk
// store. The cells tier is swept too — TTL-expired cells are deleted, then
// oldest cells are evicted until the tier fits CellCacheBytes — and spec
// records orphaned by a crash (no live flight, older than JobRetention)
// are dropped. The background loop calls this every GCInterval; it is also
// safe to invoke manually.
func (s *Service) GC() (jobsRemoved, artifactsRemoved int) {
	now := time.Now()
	s.mu.Lock()
	removed := make(map[string]bool)
	if s.cfg.JobRetention >= 0 {
		for id, j := range s.jobs {
			if j.state.Terminal() && !j.terminalAt.IsZero() &&
				now.Sub(j.terminalAt) > s.cfg.JobRetention {
				delete(s.jobs, id)
				removed[id] = true
				jobsRemoved++
			}
		}
	}
	if s.storeHandle != nil {
		// In persistent mode job records need not pin artifact bytes: the
		// memory cache (byte-budgeted) and the disk store serve result
		// fetches, and Result reloads lazily — exactly the recovered-job
		// path. Without this, every done job would hold its artifacts for
		// the whole retention window, dwarfing the cache budget.
		for _, j := range s.jobs {
			if j.state == StateDone && j.result != nil {
				j.result = nil
			}
		}
	}
	s.cache.expire()
	s.m.JobsGCed += int64(jobsRemoved)
	st := s.storeHandle
	ttl := s.cfg.CacheTTL
	inflightHashes := make(map[string]bool, len(s.inflight))
	for h := range s.inflight {
		inflightHashes[h] = true
	}
	s.mu.Unlock()

	if st == nil {
		return jobsRemoved, 0
	}
	var storeErrs int64
	// Compact when jobs were dropped, or when enough redundant transition
	// records have piled up that the log is worth folding even under
	// keep-forever retention. Keeping records NOT in the removed set (rather
	// than only snapshot-time survivors) means a job submitted while the
	// sweep runs can never lose its record to the rewrite.
	if jobsRemoved > 0 || st.PendingAppends() >= compactAppendThreshold {
		if _, err := st.CompactJobs(func(r store.JobRecord) bool { return !removed[r.ID] }); err != nil {
			storeErrs++
		}
	}
	expired := func(info store.Info) bool { return ttl > 0 && now.Sub(info.CreatedAt) > ttl }
	if ttl > 0 {
		_, artifactsRemoved = sweep(st.ListArtifacts, st.DeleteArtifacts, expired, &storeErrs)
	}
	live, n := sweep(st.ListCells, st.DeleteCell, expired, &storeErrs)
	cellsRemoved := n + evictOldest(live, s.cfg.CellCacheBytes, st.DeleteCell, &storeErrs)
	// A spec record with no live flight that has outlived JobRetention was
	// orphaned by a crash and will never be requeued (its job either
	// recovered already or aged out of the table). Flights delete their own
	// record on completion; keep-forever retention keeps orphans too.
	if retention := s.cfg.JobRetention; retention >= 0 {
		sweep(st.ListSpecs, st.DeleteSpec, func(info store.Info) bool {
			return !inflightHashes[info.Hash] && now.Sub(info.CreatedAt) > retention
		}, &storeErrs)
	}
	s.mu.Lock()
	s.m.ArtifactsGCed += int64(artifactsRemoved)
	s.m.CellsGCed += int64(cellsRemoved)
	s.m.StoreErrors += storeErrs
	s.mu.Unlock()
	return jobsRemoved, artifactsRemoved
}

// sweep lists one store tier and deletes every entry drop selects. It
// returns the entries it kept and how many it deleted; an entry whose
// delete fails is neither, and the failure counts into storeErrs.
func sweep(list func() ([]store.Info, error), del func(string) error, drop func(store.Info) bool, storeErrs *int64) (live []store.Info, removed int) {
	infos, err := list()
	if err != nil {
		*storeErrs++
	}
	for _, info := range infos {
		if !drop(info) {
			live = append(live, info)
		} else if err := del(info.Hash); err != nil {
			*storeErrs++
		} else {
			removed++
		}
	}
	return live, removed
}

// evictOldest deletes the oldest of live — ties broken by hash, so the order
// is deterministic — until their bytes fit budget (no budget when <= 0), and
// returns how many it deleted.
func evictOldest(live []store.Info, budget int64, del func(string) error, storeErrs *int64) (removed int) {
	var total int64
	for _, info := range live {
		total += info.Bytes
	}
	if budget <= 0 || total <= budget {
		return 0
	}
	sort.Slice(live, func(i, j int) bool {
		if !live[i].CreatedAt.Equal(live[j].CreatedAt) {
			return live[i].CreatedAt.Before(live[j].CreatedAt)
		}
		return live[i].Hash < live[j].Hash
	})
	for _, info := range live {
		if total <= budget {
			break
		}
		if err := del(info.Hash); err != nil {
			*storeErrs++
			continue
		}
		total -= info.Bytes
		removed++
	}
	return removed
}

// Health is the payload of GET /healthz: the cheap shard-health probe a
// routing tier uses to aggregate pool state (see internal/gateway). It
// carries the handful of gauges an operator needs to judge one shard at a
// glance — backpressure (queue depth vs capacity), job-table size, and
// whether the shard is durable — without the full Metrics scrape.
type Health struct {
	// Status is "ok" while the shard accepts submissions and "draining"
	// once Close has begun.
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	JobsTracked   int     `json:"jobs_tracked"`
	Persistent    bool    `json:"persistent"`
}

// Health returns the shard-health snapshot served on /healthz.
func (s *Service) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	status := "ok"
	if s.closed {
		status = "draining"
	}
	return Health{
		Status:        status,
		UptimeSeconds: time.Since(s.start).Seconds(),
		QueueDepth:    s.queue.Len(),
		QueueCapacity: s.cfg.QueueDepth,
		JobsTracked:   len(s.jobs),
		Persistent:    s.storeHandle != nil,
	}
}

// Metrics is a point-in-time snapshot of service counters and gauges.
type Metrics struct {
	Submissions     int64   `json:"submissions"`
	CacheHits       int64   `json:"cache_hits"`
	DiskHits        int64   `json:"disk_hits"`
	DedupHits       int64   `json:"dedup_hits"`
	Flights         int64   `json:"flights"`
	JobsDone        int64   `json:"jobs_done"`
	JobsFailed      int64   `json:"jobs_failed"`
	JobsCancelled   int64   `json:"jobs_cancelled"`
	JobsGCed        int64   `json:"jobs_gced"`
	ArtifactsGCed   int64   `json:"artifacts_gced"`
	Quarantined     int64   `json:"quarantined"`
	StoreErrors     int64   `json:"store_errors"`
	QueueDepth      int     `json:"queue_depth"`
	QueueCapacity   int     `json:"queue_capacity"`
	CacheEntries    int     `json:"cache_entries"`
	CacheBytes      int64   `json:"cache_bytes"`
	JobsTracked     int     `json:"jobs_tracked"`
	Persistent      bool    `json:"persistent"`
	CellsDone       int64   `json:"cells_done"`
	CellHits        int64   `json:"cell_hits"`
	CellMisses      int64   `json:"cell_misses"`
	CellBytes       int64   `json:"cell_bytes"`
	CellsGCed       int64   `json:"cells_gced"`
	Assembled       int64   `json:"assembled"`
	Unauthorized    int64   `json:"unauthorized"`
	PeerFetchHits   int64   `json:"peer_fetch_hits"`
	PeerFetchMisses int64   `json:"peer_fetch_misses"`
	PeerFetchBytes  int64   `json:"peer_fetch_bytes"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	CellsPerSecond  float64 `json:"cells_per_second"`

	// Tenants holds per-tenant counters, keyed by tenant name. Only named
	// tenants appear: anonymous traffic stays in the global counters alone,
	// keeping single-tenant output identical to prior releases. Every field
	// is additive across shards so a gateway can sum them.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
}

// TenantMetrics is one tenant's slice of the service counters.
type TenantMetrics struct {
	Submitted   int64   `json:"submitted"`
	Rejected    int64   `json:"rejected"`
	Queued      int64   `json:"queued"`
	Running     int64   `json:"running"`
	CellSeconds float64 `json:"cell_seconds"`
}

// Metrics returns current counters: submissions split into memory cache
// hits, disk hits, in-flight dedups, and executed flights, plus GC and
// store-health counters, queue and cache gauges, and the lifetime simulation
// throughput in matrix cells per second. Counters are process-lifetime:
// they restart at zero with the process even in persistent mode.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.m
	m.QueueDepth = s.queue.Len()
	m.QueueCapacity = s.cfg.QueueDepth
	m.CacheEntries = s.cache.len()
	m.CacheBytes = s.cache.sizeBytes()
	m.JobsTracked = len(s.jobs)
	m.Persistent = s.storeHandle != nil
	if len(s.tenantAccts) > 0 {
		m.Tenants = make(map[string]TenantMetrics, len(s.tenantAccts))
		for name, ta := range s.tenantAccts {
			m.Tenants[name] = ta.TenantMetrics
		}
	}
	m.UptimeSeconds = time.Since(s.start).Seconds()
	if m.UptimeSeconds > 0 {
		m.CellsPerSecond = float64(m.CellsDone) / m.UptimeSeconds
	}
	return m
}

// Close drains the service: no new submissions are accepted, queued and
// running matrices are completed, and Close returns once the workers and the
// garbage collector exit. If ctx expires first, all remaining computations
// are cancelled (their jobs fail with the cancellation error) and the
// context error is returned. A service with no flight when Close begins
// has nothing to cancel, so its Close returns nil whatever ctx says. In
// persistent mode the store — which the service owns — is closed last,
// after every worker that could touch it.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	idle := len(s.inflight) == 0
	close(s.gcStop)
	s.cond.Broadcast() // wake idle workers so they drain the queue and exit
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	if !idle {
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.baseCancel()
	<-done
	s.closeStore()
	return err
}

func (s *Service) closeStore() {
	if s.storeHandle != nil {
		_ = s.storeHandle.Close()
	}
}
