package mrclone

import (
	"context"
	"errors"
	"fmt"
	"io"

	"mrclone/internal/cluster"
	"mrclone/internal/experiments"
	"mrclone/internal/job"
	"mrclone/internal/metrics"
	"mrclone/internal/runner"
	"mrclone/internal/sched"
	"mrclone/internal/service"
	svcspec "mrclone/internal/service/spec"
	"mrclone/internal/store"
	"mrclone/internal/tenant"
	"mrclone/internal/trace"
)

// Re-exported core types. The internal packages hold the implementations;
// these aliases form the stable public surface.
type (
	// JobSpec describes one two-phase job (tasks, arrival, weight, duration
	// distributions).
	JobSpec = job.Spec
	// Phase identifies the Map or Reduce phase.
	Phase = job.Phase
	// Result is the outcome of a simulation run.
	Result = cluster.Result
	// JobRecord is one job's outcome within a Result.
	JobRecord = cluster.JobRecord
	// Scheduler is the per-slot scheduling interface.
	Scheduler = cluster.Scheduler
	// SchedulerContext is the per-slot view handed to a Scheduler; custom
	// schedulers implement Schedule(*SchedulerContext). A scheduler with
	// time-based rules is invoked on every slot unless it reports, with
	// SchedulerContext.WakeAt, the next slot at which it could act.
	SchedulerContext = cluster.Context
	// Job is the runtime job state visible to schedulers.
	Job = job.Job
	// Task is the runtime task state visible to schedulers.
	Task = job.Task
	// SchedulerParams carries scheduler tunables (epsilon, r, clone caps).
	SchedulerParams = sched.Params
	// Trace is a workload trace (generated or loaded).
	Trace = trace.Trace
	// TraceParams configures the synthetic trace generator.
	TraceParams = trace.Params
	// FlowtimeSummary aggregates flowtime statistics.
	FlowtimeSummary = metrics.FlowtimeSummary
	// CDFPoint is one point of an empirical flowtime CDF.
	CDFPoint = metrics.CDFPoint
	// MatrixSpec describes a run matrix: schedulers × sweep points × seed
	// replicates over one workload (see internal/runner).
	MatrixSpec = runner.Spec
	// MatrixSchedulerSpec is one scheduler row of a run matrix.
	MatrixSchedulerSpec = runner.SchedulerSpec
	// MatrixPoint is one sweep-point column of a run matrix.
	MatrixPoint = runner.Point
	// MatrixResult is a completed run matrix with per-cell results.
	MatrixResult = runner.Result
	// MatrixCellResult is the outcome of one (scheduler, point, run) cell.
	MatrixCellResult = runner.CellResult
	// MatrixAggregate is the replicate-averaged outcome of one
	// (scheduler, point) pair.
	MatrixAggregate = runner.Aggregate
	// Service is the in-process simulation service: a bounded job queue
	// over RunMatrix with single-flight deduplication and a
	// content-addressed result cache (see internal/service).
	Service = service.Service
	// ServiceConfig sizes a Service (workers, queue depth, cache byte
	// budget and TTL, per-matrix cell parallelism, job retention, GC
	// cadence, and optionally a persistent store, a structured Logger,
	// and a ShardName stamped on every log line).
	ServiceConfig = service.Config
	// ServiceJobStatus is the client-visible snapshot of one service job.
	ServiceJobStatus = service.JobStatus
	// ServiceMetrics is a snapshot of service counters and gauges.
	ServiceMetrics = service.Metrics
	// ServiceSpec is the canonical, versioned wire form of a run matrix:
	// workload (trace params or rows), schedulers, sweep points, seeding.
	// Its Canonical and Hash methods give the content address the service
	// caches under.
	ServiceSpec = svcspec.Spec
	// ServiceWorkload is the workload clause of a ServiceSpec.
	ServiceWorkload = svcspec.Workload
	// ServiceSchedulerSpec is one scheduler row of a ServiceSpec.
	ServiceSchedulerSpec = svcspec.Scheduler
	// ServicePoint is one sweep-point column of a ServiceSpec.
	ServicePoint = svcspec.Point
	// TraceRow is the serializable description of one trace job.
	TraceRow = trace.JobRow
	// Tenant is one row of a multi-tenant registry: a named principal with
	// an API token, a fair-share weight, and admission quotas.
	Tenant = tenant.Tenant
	// TenantRegistry authenticates API tokens and enforces per-tenant
	// submission rates; set it as ServiceConfig.Tenants and submit with
	// Service.SubmitToken.
	TenantRegistry = tenant.Registry
	// QueuePolicy selects how a Service dequeues queued matrices
	// (ServiceConfig.QueuePolicy).
	QueuePolicy = tenant.Policy
	// ServiceTenantMetrics is one tenant's slice of ServiceMetrics.
	ServiceTenantMetrics = service.TenantMetrics
)

// Phases of a MapReduce job.
const (
	PhaseMap    = job.PhaseMap
	PhaseReduce = job.PhaseReduce
)

// Queue policies for ServiceConfig.QueuePolicy: arrival order, a
// weighted-fair lottery across tenant backlogs, or
// shortest-remaining-work-first sized by uncached cells — the paper's
// scheduling disciplines applied to the service's own job queue.
const (
	QueuePolicyFIFO = tenant.PolicyFIFO
	QueuePolicyFair = tenant.PolicyFair
	QueuePolicySRPT = tenant.PolicySRPT
)

// ParseTenants decodes and validates a multi-tenant registry from its JSON
// config-file form (strict: unknown fields and duplicate names or tokens
// are rejected). See docs/OPERATIONS.md, "Multi-tenant deployment", for
// the format.
func ParseTenants(data []byte) (*TenantRegistry, error) { return tenant.Parse(data) }

// LoadTenants reads and parses a tenants config file from disk.
func LoadTenants(path string) (*TenantRegistry, error) { return tenant.Load(path) }

// ParseQueuePolicy validates a queue-policy name ("fifo", "fair", "srpt");
// the empty string means QueuePolicyFIFO.
func ParseQueuePolicy(s string) (QueuePolicy, error) { return tenant.ParsePolicy(s) }

// GoogleTraceParams returns generator parameters calibrated to the Google
// cluster trace statistics of the paper's Table II.
func GoogleTraceParams() TraceParams { return trace.GoogleParams() }

// GenerateTrace produces a synthetic workload trace.
func GenerateTrace(p TraceParams) (*Trace, error) { return trace.Generate(p) }

// ReadTraceCSV loads a trace written by Trace.WriteCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// SchedulerNames lists the available scheduler implementations.
func SchedulerNames() []string { return sched.Names() }

// NewScheduler builds a named scheduler ("srptms+c", "sca", "mantri",
// "fair", "srpt", "offline") with the given parameters.
func NewScheduler(name string, p SchedulerParams) (Scheduler, error) {
	return sched.Build(name, p)
}

// Summarize computes flowtime statistics over a finished run.
func Summarize(res *Result) (FlowtimeSummary, error) { return metrics.Summarize(res) }

// FlowtimeCDF evaluates the empirical flowtime CDF of a run on [lo, hi].
func FlowtimeCDF(res *Result, lo, hi float64, points int) ([]CDFPoint, error) {
	return metrics.FlowtimeCDF(res, lo, hi, points)
}

// Simulation is a configured cluster simulation, built with NewSimulation
// and executed with Run.
type Simulation struct {
	specs     []JobSpec
	machines  int
	speed     float64
	seed      int64
	schedName string
	params    SchedulerParams
	scheduler Scheduler // overrides schedName when non-nil
}

// Option configures a Simulation.
type Option func(*Simulation) error

// WithMachines sets the cluster size M (required, > 0).
func WithMachines(m int) Option {
	return func(s *Simulation) error {
		if m <= 0 {
			return fmt.Errorf("mrclone: machines %d", m)
		}
		s.machines = m
		return nil
	}
}

// WithScheduler selects a registered scheduler by name. The default is
// "srptms+c" with the tuned parameters.
func WithScheduler(name string) Option {
	return func(s *Simulation) error {
		s.schedName = name
		return nil
	}
}

// WithCustomScheduler installs a caller-provided Scheduler implementation.
func WithCustomScheduler(sc Scheduler) Option {
	return func(s *Simulation) error {
		if sc == nil {
			return errors.New("mrclone: nil scheduler")
		}
		s.scheduler = sc
		return nil
	}
}

// WithSchedulerParams overrides the scheduler tunables.
func WithSchedulerParams(p SchedulerParams) Option {
	return func(s *Simulation) error {
		s.params = p
		return nil
	}
}

// WithSeed fixes the random seed; equal seeds give identical runs.
func WithSeed(seed int64) Option {
	return func(s *Simulation) error {
		s.seed = seed
		return nil
	}
}

// WithSpeed sets the machine speed for resource-augmentation experiments
// (Definition 1 of the paper); 0 means unit speed.
func WithSpeed(speed float64) Option {
	return func(s *Simulation) error {
		if speed < 0 {
			return fmt.Errorf("mrclone: speed %v", speed)
		}
		s.speed = speed
		return nil
	}
}

// NewSimulation prepares a simulation of the trace under the configured
// scheduler and cluster.
func NewSimulation(tr *Trace, opts ...Option) (*Simulation, error) {
	if tr == nil || len(tr.Rows) == 0 {
		return nil, errors.New("mrclone: empty trace")
	}
	specs, err := tr.Specs()
	if err != nil {
		return nil, err
	}
	return NewSimulationFromSpecs(specs, opts...)
}

// NewSimulationFromSpecs prepares a simulation over explicit job specs.
func NewSimulationFromSpecs(specs []JobSpec, opts ...Option) (*Simulation, error) {
	if len(specs) == 0 {
		return nil, errors.New("mrclone: no jobs")
	}
	s := &Simulation{
		specs:     specs,
		machines:  12000,
		schedName: "srptms+c",
		params: SchedulerParams{
			Epsilon:         experiments.TunedEpsilon,
			DeviationFactor: experiments.TunedDeviationFactor,
		},
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Run executes the simulation to completion.
func (s *Simulation) Run() (*Result, error) {
	scheduler := s.scheduler
	if scheduler == nil {
		var err error
		scheduler, err = sched.Build(s.schedName, s.params)
		if err != nil {
			return nil, err
		}
	}
	eng, err := cluster.New(cluster.Config{
		Machines: s.machines,
		Speed:    s.speed,
		Seed:     s.seed,
	}, scheduler, s.specs)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// MatrixOption configures RunMatrix execution (not matrix content).
type MatrixOption func(*runner.Options) error

// WithParallelism bounds the number of concurrently simulated matrix cells.
// 0 means one worker per CPU core. Results are byte-identical at any
// parallelism level.
func WithParallelism(n int) MatrixOption {
	return func(o *runner.Options) error {
		if n < 0 {
			return fmt.Errorf("mrclone: parallelism %d", n)
		}
		o.Parallelism = n
		return nil
	}
}

// WithProgress installs a progress callback invoked after each cell
// completes with (done, total). Calls are serialized and monotone.
func WithProgress(fn func(done, total int)) MatrixOption {
	return func(o *runner.Options) error {
		o.Progress = fn
		return nil
	}
}

// WithRawResults retains every cell's full *Result (per-job records),
// enabling CDF reductions via MatrixResult.CDF at the cost of memory
// proportional to jobs × cells.
func WithRawResults() MatrixOption {
	return func(o *runner.Options) error {
		o.KeepRaw = true
		return nil
	}
}

// RunMatrix executes a run matrix — every (scheduler, sweep point, seed
// replicate) cell — on a bounded worker pool with context cancellation.
// Each cell's RNG seed is derived deterministically from the base seed and
// the cell's replicate coordinate, and all reductions fold cells in matrix
// order, so results (including WriteJSON/WriteCSV artifact bytes) are
// identical at any parallelism level.
//
//	specs, _ := tr.Specs()
//	res, err := mrclone.RunMatrix(ctx, mrclone.MatrixSpec{
//		Specs:      specs,
//		Schedulers: []mrclone.MatrixSchedulerSpec{{Name: "srptms+c"}, {Name: "mantri"}},
//		Points:     []mrclone.MatrixPoint{{X: 1000, Machines: 1000}},
//		Runs:       10,
//		BaseSeed:   1,
//	}, mrclone.WithParallelism(0))
func RunMatrix(ctx context.Context, spec MatrixSpec, opts ...MatrixOption) (*MatrixResult, error) {
	var o runner.Options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	return runner.Run(ctx, spec, o)
}

// NewService starts an in-process simulation service: submissions are
// validated and content-hashed (ParseServiceSpec / ServiceSpec.Hash),
// identical in-flight specs share one computation, and completed matrices
// are served from a byte-budgeted LRU cache — soundly, because RunMatrix
// artifacts are byte-identical for equal specs. Serve it over HTTP with
// Service.Handler (or run the bundled cmd/mrserved daemon), and stop it
// with Service.Close.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewPersistentService starts a simulation service whose result cache and
// job table are backed by a disk store rooted at dataDir (created if
// needed): completed artifacts survive restarts and are served back as disk
// cache hits, terminal-job history is recovered on startup, and every
// simulated matrix cell persists under its own content address, so
// overlapping matrices reuse shared cells and jobs that were in flight when
// the previous process died are requeued and refill from their persisted
// cells (set ServiceConfig.DisableCellCache to fail them instead). The
// service owns the store; Service.Close closes it. See cmd/mrserved and
// docs/OPERATIONS.md for the operational details.
func NewPersistentService(dataDir string, cfg ServiceConfig) (*Service, error) {
	st, err := store.Open(dataDir)
	if err != nil {
		return nil, err
	}
	cfg.Store = st
	return service.New(cfg), nil
}

// ParseServiceSpec decodes and validates a canonical matrix spec. Parsing
// is strict: unknown fields, trailing data, unregistered scheduler names,
// and malformed workloads are rejected.
func ParseServiceSpec(data []byte) (ServiceSpec, error) { return svcspec.Parse(data) }

// ServiceSpecVersion is the current spec schema version.
const ServiceSpecVersion = svcspec.Version
