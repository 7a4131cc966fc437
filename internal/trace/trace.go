// Package trace generates and serializes synthetic MapReduce workload
// traces calibrated to the Google cluster-usage statistics the paper reports
// in Table II:
//
//	jobs                 6064
//	trace duration (s)   35032
//	avg tasks per job    26.31
//	min task duration    12.8 s
//	max task duration    22919.3 s
//	avg task duration    1179.7 s
//	priorities           0–11, used as job weights
//
// The paper consumes the real trace only through per-job task counts,
// per-task duration statistics, arrival times, and priorities; the generator
// reproduces those marginals (heavy-tailed task counts and durations) so the
// schedulers exercise identical code paths.
//
// Each job's task durations follow Scaled(BoundedPareto(1, ratio, alpha)),
// i.e. a bounded Pareto with per-job scale: heavy-tailed within-job
// variation is exactly the straggler model of Section III-A.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/rng"
)

// Table II constants from the paper.
const (
	GoogleJobs        = 6064
	GoogleSpanSeconds = 35032
	GoogleMeanTasks   = 26.31
	GoogleMinTaskDur  = 12.8
	GoogleMaxTaskDur  = 22919.3
	GoogleMeanTaskDur = 1179.7
	GoogleMaxPriority = 11
)

// Params configures the generator. The zero value is invalid; use
// GoogleParams for a Table II-calibrated workload. The JSON tags are the
// wire names used by the service spec (internal/service/spec).
type Params struct {
	Jobs int   `json:"jobs"` // number of jobs
	Span int64 `json:"span"` // arrival window in slots (seconds)

	MeanTasksPerJob float64 `json:"mean_tasks_per_job"` // target mean of the heavy-tailed task count
	MaxTasksPerJob  int     `json:"max_tasks_per_job"`  // cap on tasks per job

	MeanTaskDuration float64 `json:"mean_task_duration"` // target mean task duration across all tasks
	MinTaskDuration  float64 `json:"min_task_duration"`  // support floor (Table II minimum)
	MaxTaskDuration  float64 `json:"max_task_duration"`  // support ceiling (Table II maximum)

	// WithinJobAlpha is the bounded-Pareto tail index of task durations
	// inside one job phase; smaller is heavier (more stragglers). 1.5
	// reproduces the heavy tails reported for production clusters.
	WithinJobAlpha float64 `json:"within_job_alpha"`
	// WithinJobRatio is max/min duration within one job phase.
	WithinJobRatio float64 `json:"within_job_ratio"`
	// DurationCV is the coefficient of variation of the per-job duration
	// noise across jobs (between-job skew on top of the size correlation).
	DurationCV float64 `json:"duration_cv"`
	// CountDurationExponent couples task duration to job size: a job with n
	// tasks scales its duration by (n / MeanTasksPerJob)^exponent. Positive
	// values reproduce the production-trace pattern that small jobs have
	// short tasks (which is why mean job flowtime sits far below mean task
	// duration in the paper's evaluation).
	CountDurationExponent float64 `json:"count_duration_exponent"`
	// ReduceFraction is the expected fraction of a job's tasks that are
	// reduce tasks.
	ReduceFraction float64 `json:"reduce_fraction"`
	// PriorityBias in (0,1) skews priorities low: P(priority=k) ~ bias^k.
	PriorityBias float64 `json:"priority_bias"`

	Seed int64 `json:"seed"`
}

// GoogleParams returns parameters calibrated to Table II.
func GoogleParams() Params {
	return Params{
		Jobs:                  GoogleJobs,
		Span:                  GoogleSpanSeconds,
		MeanTasksPerJob:       GoogleMeanTasks,
		MaxTasksPerJob:        500,
		MeanTaskDuration:      GoogleMeanTaskDur,
		MinTaskDuration:       GoogleMinTaskDur,
		MaxTaskDuration:       GoogleMaxTaskDur,
		WithinJobAlpha:        2.5,
		WithinJobRatio:        5,
		DurationCV:            2,
		CountDurationExponent: 0.8,
		ReduceFraction:        0.3,
		PriorityBias:          0.65,
		Seed:                  1,
	}
}

// Validate checks generator parameters. The task-count target must lie
// between the means at the two ends of calibrateCountAlpha's bracket, so a
// target the calibration cannot reach is a validation error.
func (p Params) Validate() error {
	switch {
	case p.Jobs <= 0:
		return fmt.Errorf("trace: jobs %d", p.Jobs)
	case p.Span <= 0:
		return fmt.Errorf("trace: span %d", p.Span)
	case p.MeanTasksPerJob < 1:
		return fmt.Errorf("trace: mean tasks %v", p.MeanTasksPerJob)
	case p.MaxTasksPerJob < 2:
		return fmt.Errorf("trace: max tasks %d", p.MaxTasksPerJob)
	case countMean(countAlphaLo, p.MaxTasksPerJob) < p.MeanTasksPerJob:
		return fmt.Errorf("trace: mean tasks %v unreachable with max %d", p.MeanTasksPerJob, p.MaxTasksPerJob)
	case countMean(countAlphaHi, p.MaxTasksPerJob) > p.MeanTasksPerJob:
		return fmt.Errorf("trace: mean tasks %v below the bounded-Pareto floor", p.MeanTasksPerJob)
	case p.MeanTaskDuration <= 0 || p.MinTaskDuration <= 0:
		return fmt.Errorf("trace: durations mean=%v min=%v", p.MeanTaskDuration, p.MinTaskDuration)
	case p.MaxTaskDuration <= p.MinTaskDuration:
		return fmt.Errorf("trace: max duration %v <= min %v", p.MaxTaskDuration, p.MinTaskDuration)
	case p.WithinJobAlpha <= 1:
		return fmt.Errorf("trace: within-job alpha %v must exceed 1", p.WithinJobAlpha)
	case p.WithinJobRatio <= 1:
		return fmt.Errorf("trace: within-job ratio %v must exceed 1", p.WithinJobRatio)
	case p.DurationCV <= 0:
		return fmt.Errorf("trace: duration CV %v", p.DurationCV)
	case math.IsInf(p.DurationCV*p.MeanTaskDuration, 0) || math.IsNaN(p.DurationCV*p.MeanTaskDuration):
		// Generate draws per-job means with this standard deviation.
		return fmt.Errorf("trace: duration CV %v times mean %v overflows", p.DurationCV, p.MeanTaskDuration)
	case p.CountDurationExponent < 0 || p.CountDurationExponent > 2:
		return fmt.Errorf("trace: count-duration exponent %v outside [0, 2]", p.CountDurationExponent)
	case p.ReduceFraction < 0 || p.ReduceFraction >= 1:
		return fmt.Errorf("trace: reduce fraction %v outside [0,1)", p.ReduceFraction)
	case p.PriorityBias <= 0 || p.PriorityBias >= 1:
		return fmt.Errorf("trace: priority bias %v outside (0,1)", p.PriorityBias)
	}
	return nil
}

// JobRow is the serializable description of one trace job. Durations use the
// Scaled(BoundedPareto(1, Ratio, Alpha)) parametrization per phase. The JSON
// tags mirror the CSV column names (csvHeader) and are the wire names used
// by the service spec (internal/service/spec).
type JobRow struct {
	ID          int     `json:"id"`
	Arrival     int64   `json:"arrival"`
	Priority    int     `json:"priority"` // 0..11; job weight = Priority + 1 (weights must be > 0)
	MapTasks    int     `json:"map_tasks"`
	ReduceTasks int     `json:"reduce_tasks"`
	MapScale    float64 `json:"map_scale"`
	ReduceScale float64 `json:"reduce_scale"`
	Ratio       float64 `json:"ratio"`
	Alpha       float64 `json:"alpha"`
}

// Validate checks the row against everything JobRow.Spec needs, without
// building its distributions: a non-negative arrival, a 0..11 priority, task
// counts that are non-negative and not both zero, a finite scale for each
// phase that is positive where the phase has tasks, a finite ratio > 1 and a
// finite alpha > 0. The strict inequalities on ratio and alpha double as NaN
// checks. The service spec, the CSV reader and JobRow.Spec all apply this
// one rule.
func (r JobRow) Validate() error {
	switch {
	case r.Arrival < 0:
		return fmt.Errorf("arrival %d", r.Arrival)
	case r.Priority < 0 || r.Priority > GoogleMaxPriority:
		return fmt.Errorf("priority %d outside 0..%d", r.Priority, GoogleMaxPriority)
	case r.MapTasks < 0 || r.ReduceTasks < 0:
		return fmt.Errorf("negative task counts (%d map, %d reduce)", r.MapTasks, r.ReduceTasks)
	case r.MapTasks == 0 && r.ReduceTasks == 0:
		return errors.New("no tasks")
	case !scaleOK(r.MapScale, r.MapTasks):
		return fmt.Errorf("map scale %v", r.MapScale)
	case !scaleOK(r.ReduceScale, r.ReduceTasks):
		return fmt.Errorf("reduce scale %v", r.ReduceScale)
	case !(r.Ratio > 1 && !math.IsInf(r.Ratio, 0)):
		return fmt.Errorf("ratio %v (need > 1)", r.Ratio)
	case !(r.Alpha > 0 && !math.IsInf(r.Alpha, 0)):
		return fmt.Errorf("alpha %v (need > 0)", r.Alpha)
	}
	return nil
}

// UniqueIDs checks the one rule of a trace that spans rows: no two rows share
// an id. Row ids become job IDs, which schedulers use as their unique
// tie-break. The service spec and the CSV reader apply it after every row
// has passed Validate; the error names the first repeat and the row it
// repeats, counting rows from 0.
func UniqueIDs(rows []JobRow) error {
	rowOf := make(map[int]int, len(rows))
	for i, r := range rows {
		if prev, dup := rowOf[r.ID]; dup {
			return fmt.Errorf("rows %d and %d share id %d", prev, i, r.ID)
		}
		rowOf[r.ID] = i
	}
	return nil
}

// scaleOK reports whether scale is finite and, when the phase has tasks,
// positive. An empty phase's scale is never sampled, but it must stay
// finite so the row round-trips through CSV exactly.
func scaleOK(scale float64, tasks int) bool {
	return !math.IsNaN(scale) && !math.IsInf(scale, 0) && (tasks == 0 || scale > 0)
}

// Weight returns the job weight derived from the trace priority. The paper
// treats the 0–11 priority as the weight; our model requires strictly
// positive weights, so priority k maps to weight k+1 (a uniform shift that
// preserves all orderings).
func (r JobRow) Weight() float64 { return float64(r.Priority + 1) }

// Trace is a generated or loaded workload.
type Trace struct {
	Rows   []JobRow
	Params Params // zero for loaded traces without metadata
}

// Generate produces a trace from parameters. The same parameters always
// produce the same trace.
func Generate(p Params) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	arrivalSrc := rng.Derive(p.Seed, "trace", "arrivals")
	countSrc := rng.Derive(p.Seed, "trace", "counts")
	durSrc := rng.Derive(p.Seed, "trace", "durations")
	prioSrc := rng.Derive(p.Seed, "trace", "priorities")
	splitSrc := rng.Derive(p.Seed, "trace", "splits")

	// Task-count distribution: bounded Pareto on [1, MaxTasks] with alpha
	// calibrated by bisection so the (rounded) mean hits MeanTasksPerJob.
	countAlpha := calibrateCountAlpha(p.MeanTasksPerJob, p.MaxTasksPerJob)
	countDist, err := dist.NewBoundedPareto(1, float64(p.MaxTasksPerJob), countAlpha)
	if err != nil {
		return nil, err
	}

	// Per-job mean duration: lognormal across jobs with the target mean and
	// CV, then a correction pass rescales so the task-weighted mean of the
	// clamped values matches MeanTaskDuration.
	ln, err := dist.LognormalFromMoments(p.MeanTaskDuration, p.DurationCV*p.MeanTaskDuration)
	if err != nil {
		return nil, err
	}
	base, err := dist.NewBoundedPareto(1, p.WithinJobRatio, p.WithinJobAlpha)
	if err != nil {
		return nil, err
	}
	bpMean := base.Mean()
	minScale := p.MinTaskDuration
	maxScale := p.MaxTaskDuration / p.WithinJobRatio

	rows := make([]JobRow, p.Jobs)
	var taskCountSum int64
	for i := range rows {
		n := int(math.Round(countDist.Sample(countSrc)))
		if n < 1 {
			n = 1
		}
		if n > p.MaxTasksPerJob {
			n = p.MaxTasksPerJob
		}
		reduces := int(math.Round(p.ReduceFraction * float64(n)))
		if reduces >= n {
			reduces = n - 1
		}
		// A small fraction of jobs are map-only, as in the real trace.
		if reduces > 0 && splitSrc.Float64() < 0.15 {
			reduces = 0
		}
		maps := n - reduces

		mu := ln.Sample(durSrc) *
			math.Pow(float64(n)/p.MeanTasksPerJob, p.CountDurationExponent)
		scale := clamp(mu/bpMean, minScale, maxScale)

		// Priorities skew low overall but correlate positively with job
		// size, as in the Google trace: long-running production services
		// hold both many tasks and high priority, while the numerous small
		// batch jobs run at the lowest priorities.
		prio := samplePriority(prioSrc, p.PriorityBias) + sizeBoost(n, p.MeanTasksPerJob)
		if prio > GoogleMaxPriority {
			prio = GoogleMaxPriority
		}
		rows[i] = JobRow{
			ID:          i,
			Arrival:     int64(arrivalSrc.Float64() * float64(p.Span)),
			Priority:    prio,
			MapTasks:    maps,
			ReduceTasks: reduces,
			MapScale:    scale,
			ReduceScale: scale * (0.8 + 0.4*durSrc.Float64()), // reduces differ mildly
			Ratio:       p.WithinJobRatio,
			Alpha:       p.WithinJobAlpha,
		}
		rows[i].ReduceScale = clamp(rows[i].ReduceScale, minScale, maxScale)
		taskCountSum += int64(n)
	}

	// Correction passes: rescale job scales so the task-weighted mean
	// duration matches the target. Clamping to the Table II support bounds
	// compresses the tail, so a single rescale undershoots; iterating the
	// fixed point converges because the all-at-cap mean exceeds the target.
	for iter := 0; iter < 50; iter++ {
		var weightedMean float64
		for _, r := range rows {
			weightedMean += r.MapScale * bpMean * float64(r.MapTasks)
			weightedMean += r.ReduceScale * bpMean * float64(r.ReduceTasks)
		}
		weightedMean /= float64(taskCountSum)
		if weightedMean <= 0 {
			break
		}
		factor := p.MeanTaskDuration / weightedMean
		if math.Abs(factor-1) < 0.005 {
			break
		}
		for i := range rows {
			rows[i].MapScale = clamp(rows[i].MapScale*factor, minScale, maxScale)
			rows[i].ReduceScale = clamp(rows[i].ReduceScale*factor, minScale, maxScale)
		}
	}

	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Arrival < rows[b].Arrival })
	for i := range rows {
		rows[i].ID = i // re-key in arrival order for readability
	}
	return &Trace{Rows: rows, Params: p}, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sizeBoost raises the priority of jobs much larger than the mean:
// +2 levels per decade of size above the mean task count.
func sizeBoost(tasks int, meanTasks float64) int {
	if float64(tasks) <= meanTasks {
		return 0
	}
	return int(2 * math.Log10(float64(tasks)/meanTasks))
}

// samplePriority draws a 0..11 priority with geometric bias toward 0.
func samplePriority(src *rng.Source, bias float64) int {
	u := src.Float64()
	// P(k) proportional to bias^k over k = 0..11.
	total := (1 - math.Pow(bias, GoogleMaxPriority+1)) / (1 - bias)
	cum := 0.0
	for k := 0; k <= GoogleMaxPriority; k++ {
		cum += math.Pow(bias, float64(k)) / total
		if u <= cum {
			return k
		}
	}
	return GoogleMaxPriority
}

// The tail-index bracket of the task-count distribution: its mean falls
// as the index grows, and task counts need an index below 1 to reach
// Table II's mean (the support is bounded, so the mean stays finite).
const countAlphaLo, countAlphaHi = 0.02, 10.0

// countMean is the mean task count of the bounded Pareto on [1, maxTasks]
// with tail index alpha.
func countMean(alpha float64, maxTasks int) float64 {
	return dist.BoundedPareto{Lo: 1, Hi: float64(maxTasks), Alpha: alpha}.Mean()
}

// calibrateCountAlpha bisects the bounded-Pareto tail index so that the mean
// task count matches the target. Validate has checked that the target lies
// between the means at the ends of the bracket.
func calibrateCountAlpha(target float64, maxTasks int) float64 {
	loA, hiA := countAlphaLo, countAlphaHi
	for i := 0; i < 200; i++ {
		mid := (loA + hiA) / 2
		if countMean(mid, maxTasks) > target {
			loA = mid
		} else {
			hiA = mid
		}
	}
	return (loA + hiA) / 2
}

// Specs converts a trace into engine-ready job specs.
func (t *Trace) Specs() ([]job.Spec, error) {
	specs := make([]job.Spec, 0, len(t.Rows))
	for _, r := range t.Rows {
		spec, err := r.Spec()
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Spec converts one row into a job spec.
func (r JobRow) Spec() (job.Spec, error) {
	if err := r.Validate(); err != nil {
		return job.Spec{}, fmt.Errorf("trace: job %d: %w", r.ID, err)
	}
	spec := job.Spec{
		ID:         r.ID,
		Arrival:    r.Arrival,
		Weight:     r.Weight(),
		MapTasks:   r.MapTasks,
		ReduceTask: r.ReduceTasks,
	}
	if r.MapTasks > 0 {
		d, err := phaseDist(r.MapScale, r.Ratio, r.Alpha)
		if err != nil {
			return job.Spec{}, fmt.Errorf("trace: job %d map dist: %w", r.ID, err)
		}
		spec.MapDist = d
	}
	if r.ReduceTasks > 0 {
		d, err := phaseDist(r.ReduceScale, r.Ratio, r.Alpha)
		if err != nil {
			return job.Spec{}, fmt.Errorf("trace: job %d reduce dist: %w", r.ID, err)
		}
		spec.ReduceDist = d
	}
	if err := spec.Validate(); err != nil {
		return job.Spec{}, err
	}
	return spec, nil
}

func phaseDist(scale, ratio, alpha float64) (dist.Distribution, error) {
	base, err := dist.NewBoundedPareto(1, ratio, alpha)
	if err != nil {
		return nil, err
	}
	return dist.NewScaled(base, scale)
}

// Stats are the Table II-style summary statistics of a trace.
type Stats struct {
	Jobs            int
	SpanSeconds     int64   // last arrival minus first arrival
	MeanTasksPerJob float64 //
	MinTaskDur      float64 // support minimum across all tasks
	MaxTaskDur      float64 // support maximum across all tasks
	MeanTaskDur     float64 // task-weighted mean of per-task expected durations
	MeanPriority    float64
	MapTasks        int64
	ReduceTasks     int64
}

// ErrEmptyTrace is returned for stats over an empty trace.
var ErrEmptyTrace = errors.New("trace: empty trace")

// ComputeStats summarizes a trace in the shape of Table II.
func (t *Trace) ComputeStats() (Stats, error) {
	if len(t.Rows) == 0 {
		return Stats{}, ErrEmptyTrace
	}
	var s Stats
	s.Jobs = len(t.Rows)
	minArr, maxArr := int64(math.MaxInt64), int64(math.MinInt64)
	minDur, maxDur := math.Inf(1), math.Inf(-1)
	var taskSum int64
	var durSum, prioSum float64
	for _, r := range t.Rows {
		n := r.MapTasks + r.ReduceTasks
		taskSum += int64(n)
		s.MapTasks += int64(r.MapTasks)
		s.ReduceTasks += int64(r.ReduceTasks)
		prioSum += float64(r.Priority)
		if r.Arrival < minArr {
			minArr = r.Arrival
		}
		if r.Arrival > maxArr {
			maxArr = r.Arrival
		}
		base := dist.BoundedPareto{Lo: 1, Hi: r.Ratio, Alpha: r.Alpha}
		bpMean := base.Mean()
		if r.MapTasks > 0 {
			durSum += r.MapScale * bpMean * float64(r.MapTasks)
			minDur = math.Min(minDur, r.MapScale)
			maxDur = math.Max(maxDur, r.MapScale*r.Ratio)
		}
		if r.ReduceTasks > 0 {
			durSum += r.ReduceScale * bpMean * float64(r.ReduceTasks)
			minDur = math.Min(minDur, r.ReduceScale)
			maxDur = math.Max(maxDur, r.ReduceScale*r.Ratio)
		}
	}
	s.SpanSeconds = maxArr - minArr
	s.MeanTasksPerJob = float64(taskSum) / float64(s.Jobs)
	s.MinTaskDur = minDur
	s.MaxTaskDur = maxDur
	s.MeanTaskDur = durSum / float64(taskSum)
	s.MeanPriority = prioSum / float64(s.Jobs)
	return s, nil
}

// Subset returns a trace containing the first n rows (by arrival order),
// useful for scaled-down experiments. It panics if n < 0; n beyond the end
// is clipped.
func (t *Trace) Subset(n int) *Trace {
	if n > len(t.Rows) {
		n = len(t.Rows)
	}
	rows := make([]JobRow, n)
	copy(rows, t.Rows[:n])
	return &Trace{Rows: rows, Params: t.Params}
}
