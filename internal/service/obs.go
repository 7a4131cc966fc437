package service

import (
	"log/slog"
	"time"

	"mrclone/internal/obs"
)

// serviceObs bundles the shard's observability state: the structured
// logger (never nil — a discard logger in the default, pre-observability
// configuration) and the latency histograms exported on /metrics.
type serviceObs struct {
	log *slog.Logger

	// httpHist is HTTP request duration by matched route and status code.
	httpHist *obs.HistogramVec
	// queueWait is the time a job spent queued before its flight started
	// (or before it attached to an already-running flight).
	queueWait *obs.Histogram
	// runDur is worker wall-clock time per flight, success or failure.
	runDur *obs.Histogram
	// cellDur is per-cell simulation time; cache-resolved cells are
	// excluded so the distribution reflects simulation cost, not disk reads.
	cellDur *obs.Histogram
}

func newServiceObs(log *slog.Logger, shard string) serviceObs {
	if log == nil {
		log = obs.Nop()
	}
	if shard != "" {
		log = log.With(obs.KeyShard, shard)
	}
	return serviceObs{
		log:       log,
		httpHist:  obs.NewHistogramVec(obs.LatencyBuckets, "route", "status"),
		queueWait: obs.NewHistogram(obs.LatencyBuckets),
		runDur:    obs.NewHistogram(obs.LatencyBuckets),
		cellDur:   obs.NewHistogram(obs.LatencyBuckets),
	}
}

// writeHistograms renders the shard's latency histogram families. The
// names and bucket layout are shared with the gateway (obs.LatencyBuckets),
// which is what lets its /metrics merge them bucket-wise across shards.
func (o *serviceObs) writeHistograms(e *obs.ExpoWriter) {
	e.HistogramSeries("mrclone_http_request_seconds",
		"HTTP request duration by route and status.", o.httpHist.Snapshots())
	e.Histogram("mrclone_queue_wait_seconds",
		"Time jobs waited in the queue before running.", o.queueWait.Snapshot())
	e.Histogram("mrclone_run_seconds",
		"Worker wall-clock time per matrix flight.", o.runDur.Snapshot())
	e.Histogram("mrclone_cell_seconds",
		"Simulation time per matrix cell (cache hits excluded).", o.cellDur.Snapshot())
}

// observeQueueWait records a job's queued→running transition at time now.
func (o *serviceObs) observeQueueWait(submittedAt, now time.Time) {
	if submittedAt.IsZero() {
		return
	}
	if d := now.Sub(submittedAt); d >= 0 {
		o.queueWait.Observe(d.Seconds())
	}
}

// jobAttrs are the log attributes identifying one job everywhere it is
// mentioned: ID, tenant (when named), spec-hash prefix, and trace ID.
func jobAttrs(j *jobState) []any {
	attrs := make([]any, 0, 8)
	attrs = append(attrs, obs.KeyJob, j.id, obs.KeySpec, obs.SpecPrefix(j.hash))
	if j.tenant != "" {
		attrs = append(attrs, obs.KeyTenant, j.tenant)
	}
	if j.traceID != "" {
		attrs = append(attrs, obs.KeyTraceID, j.traceID)
	}
	return attrs
}

// rfc3339 renders a lifecycle timestamp: RFC 3339 with millisecond
// precision in UTC, or "" for the zero time (phase never reached) so
// omitempty keeps it out of JSON.
func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format("2006-01-02T15:04:05.000Z07:00")
}

// unixMsOrZero converts a lifecycle timestamp for the job log.
func unixMsOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// timeFromMs is the inverse of unixMsOrZero for job-log replay.
func timeFromMs(ms int64) time.Time {
	if ms == 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms)
}
