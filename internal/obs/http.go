package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// reqPrefix distinguishes request IDs minted by different processes; the
// counter distinguishes requests within one.
var (
	reqPrefix = randHex(3)
	reqSeq    atomic.Uint64
)

// NewRequestID mints a process-unique request ID: a random per-process
// prefix plus a sequence number, cheap enough for every request.
func NewRequestID() string {
	return reqPrefix + "-" + strconv.FormatUint(reqSeq.Add(1), 10)
}

// EnsureTrace resolves the request's trace context: a well-formed inbound
// traceparent header continues that trace under a fresh span ID (this
// tier's own hop), anything else starts a new trace. The returned request
// carries the context (TraceFrom) for handlers and onward propagation.
func EnsureTrace(r *http.Request) (TraceContext, *http.Request) {
	tc, err := ParseTraceparent(r.Header.Get(TraceparentHeader))
	if err != nil {
		tc = NewTrace()
	} else {
		tc = tc.WithNewSpan()
	}
	return tc, r.WithContext(ContextWithTrace(r.Context(), tc))
}

// Instrument wraps a tier's API mux with the request middleware the shard
// and the gateway share: it resolves the request's trace context (minting
// one, or continuing an inbound traceparent under a fresh span), echoes the
// traceparent on the response, records the request into hist by matched
// route and status, and logs one line per request with a fresh request ID.
// respAttrs, when non-nil, adds attributes read off the response headers.
// The health and metrics scrape routes log at debug so a monitoring cadence
// does not drown real traffic at the default level.
func Instrument(log *slog.Logger, hist *HistogramVec, next http.Handler, respAttrs func(http.Header) []slog.Attr) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc, r := EnsureTrace(r)
		w.Header().Set(TraceparentHeader, tc.String())
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)

		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := rec.status()
		dur := time.Since(start)
		hist.Observe(dur.Seconds(), route, strconv.Itoa(status))

		lvl := slog.LevelInfo
		if route == "GET /healthz" || route == "GET /metrics" {
			lvl = slog.LevelDebug
		}
		attrs := []slog.Attr{
			slog.String(KeyRequestID, NewRequestID()),
			slog.String(KeyTraceID, tc.TraceID),
			slog.String(KeySpanID, tc.SpanID),
			slog.String(KeyRoute, route),
			slog.Int(KeyStatus, status),
			slog.Float64(KeyDurationMs, float64(dur)/float64(time.Millisecond)),
		}
		if respAttrs != nil {
			attrs = append(attrs, respAttrs(rec.Header())...)
		}
		log.LogAttrs(r.Context(), lvl, "http request", attrs...)
	})
}

// statusRecorder wraps a ResponseWriter to capture the response status for
// request logs and latency histograms. It passes Flush through so SSE
// streaming keeps working behind it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the first status code written.
func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write implies 200 when the handler never called WriteHeader.
func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports flushing.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status returns the recorded status code (200 when nothing was written).
func (r *statusRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}
