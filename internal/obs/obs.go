// Package obs is the shared observability layer of the serving tiers
// (internal/service, internal/gateway, and their daemons): structured
// logging on log/slog with a common attribute vocabulary, W3C trace-context
// (traceparent) propagation so one trace ID follows a submission through
// gateway → shard → queue → runner, fixed-bucket latency histograms with
// dependency-free Prometheus text exposition (writer, strict parser, and a
// bucket-wise cross-shard merge), and Go runtime metrics. The daemons'
// pprof and expvar listener is internal/daemon's.
//
// Everything here is deliberately small and self-contained: no metric
// client library, no tracing SDK. The service needs lines it can grep by
// trace ID, distributions it can read tails off, and an exposition format
// strict scrapers accept, and this package is the single place they are
// defined, so every tier emits them identically.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Standard log attribute keys. Every tier uses these same keys, so one
// grep (or one jq filter in JSON mode) follows a request across processes.
const (
	// KeyRequestID identifies one HTTP request within one process.
	KeyRequestID = "req_id"
	// KeyTraceID is the W3C trace ID shared across tiers (see TraceContext).
	KeyTraceID = "trace_id"
	// KeySpanID is this tier's span within the trace.
	KeySpanID = "span_id"
	// KeyShard names the serving shard (or the shard a gateway routed to).
	KeyShard = "shard"
	// KeyTenant names the authenticated tenant; omitted when anonymous.
	KeyTenant = "tenant"
	// KeyJob is the job ID a line concerns.
	KeyJob = "job"
	// KeySpec is a spec-hash prefix (12 hex chars) identifying the matrix.
	KeySpec = "spec"
	// KeyRoute is the matched HTTP route pattern ("POST /v1/matrices").
	KeyRoute = "route"
	// KeyStatus is the HTTP response status code.
	KeyStatus = "status"
	// KeyDurationMs is a duration in (fractional) milliseconds.
	KeyDurationMs = "duration_ms"
)

// SpecPrefix shortens a spec content hash to the 12-char prefix used in
// log lines — long enough to be unambiguous in any real deployment, short
// enough to scan.
func SpecPrefix(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// parseLevel maps a -log-level flag value onto a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// NewLogger builds the structured logger behind the -log-format and
// -log-level flags: format is "text" (the default, human-oriented
// logfmt-style) or "json" (one JSON object per line, machine-oriented);
// level gates verbosity ("debug", "info", "warn", "error"). An error names
// the flag whose value it rejects.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	lv, err := parseLevel(level)
	if err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("-log-format: obs: unknown log format %q (want text or json)", format)
}

// Nop returns a logger that discards everything — the default when no
// logger is configured, keeping library behavior identical to the
// pre-observability releases.
func Nop() *slog.Logger { return slog.New(slog.DiscardHandler) }
