package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
)

// TraceparentHeader is the W3C trace-context header name (lowercase per
// the spec; Go's http canonicalizes on the wire either way).
const TraceparentHeader = "traceparent"

// ErrTraceparent reports a malformed traceparent header value.
var ErrTraceparent = errors.New("obs: malformed traceparent")

// FlagSampled is the sampled bit of the traceparent flags octet.
const FlagSampled byte = 0x01

// TraceContext is a W3C trace-context triple: the trace ID shared by every
// tier a request crosses, the span ID of the tier that stamped it, and the
// trace flags. The zero value is invalid; mint with NewTrace or parse an
// inbound header with ParseTraceparent.
type TraceContext struct {
	// TraceID is 32 lowercase hex chars, not all zero.
	TraceID string
	// SpanID is 16 lowercase hex chars, not all zero.
	SpanID string
	// Flags is the flags octet (bit 0 = sampled).
	Flags byte
}

// Valid reports whether the context carries a well-formed, non-zero
// trace ID and span ID.
func (tc TraceContext) Valid() bool {
	return isNonZeroLowerHex(tc.TraceID, 32) && isNonZeroLowerHex(tc.SpanID, 16)
}

// String renders the context as a version-00 traceparent header value.
func (tc TraceContext) String() string {
	return fmt.Sprintf("00-%s-%s-%02x", tc.TraceID, tc.SpanID, tc.Flags)
}

// WithNewSpan keeps the trace ID but mints a fresh span ID — the operation
// each tier performs before acting on (or forwarding) an inbound trace, so
// every hop is distinguishable inside the shared trace.
func (tc TraceContext) WithNewSpan() TraceContext {
	tc.SpanID = randHex(8)
	return tc
}

// NewTrace mints a new sampled trace context with random IDs.
func NewTrace() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8), Flags: FlagSampled}
}

// ParseTraceparent parses a traceparent header value per the W3C
// trace-context spec: "ver-traceid-spanid-flags" with two lowercase hex
// chars of version (not "ff"), 32 of trace ID (not all zero), 16 of span
// ID (not all zero), and two of flags. Version 00 must end at the flags;
// higher versions may carry additional "-"-separated fields, which are
// ignored. The empty string parses as an error (no inbound context), not a
// malformed one — callers mint a fresh trace either way.
func ParseTraceparent(s string) (TraceContext, error) {
	fail := func(why string) (TraceContext, error) {
		return TraceContext{}, fmt.Errorf("%w: %s", ErrTraceparent, why)
	}
	if len(s) < 55 {
		return fail("shorter than the 55-char version-00 form")
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return fail("separators not at offsets 2, 35, 52")
	}
	version, traceID, spanID, flags := s[:2], s[3:35], s[36:52], s[53:55]
	if !isLowerHex(version) {
		return fail("non-hex version")
	}
	if version == "ff" {
		return fail("version ff is forbidden")
	}
	switch {
	case len(s) == 55:
		// exact version-00 shape, any version accepts it
	case version == "00":
		return fail("version 00 carries trailing data")
	case s[55] != '-':
		return fail("trailing data without a separator")
	}
	if !isLowerHex(flags) {
		return fail("non-hex flags")
	}
	if !isNonZeroLowerHex(traceID, 32) {
		return fail("trace ID must be 32 lowercase hex chars, not all zero")
	}
	if !isNonZeroLowerHex(spanID, 16) {
		return fail("span ID must be 16 lowercase hex chars, not all zero")
	}
	var fb byte
	_, _ = fmt.Sscanf(flags, "%02x", &fb)
	return TraceContext{TraceID: traceID, SpanID: spanID, Flags: fb}, nil
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func isNonZeroLowerHex(s string, n int) bool {
	if len(s) != n || !isLowerHex(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false
}

// randHex returns 2n lowercase hex chars of cryptographic randomness.
func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b) // never fails (Go 1.24 crypto/rand contract)
	return hex.EncodeToString(b)
}

// traceKey keys the trace context in a context.Context.
type traceKey struct{}

// ContextWithTrace returns ctx carrying tc.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

// TraceFrom extracts the trace context installed by ContextWithTrace.
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceKey{}).(TraceContext)
	return tc, ok
}
