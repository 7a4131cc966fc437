package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNewTraceValid(t *testing.T) {
	tc := NewTrace()
	if !tc.Valid() {
		t.Fatalf("NewTrace produced invalid context: %+v", tc)
	}
	if tc.Flags&FlagSampled == 0 {
		t.Fatalf("NewTrace should set the sampled flag, got %02x", tc.Flags)
	}
	rt, err := ParseTraceparent(tc.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", tc.String(), err)
	}
	if rt != tc {
		t.Fatalf("round trip changed context: %+v != %+v", rt, tc)
	}
}

func TestWithNewSpanKeepsTrace(t *testing.T) {
	tc := NewTrace()
	hop := tc.WithNewSpan()
	if hop.TraceID != tc.TraceID {
		t.Fatalf("WithNewSpan changed trace ID: %s -> %s", tc.TraceID, hop.TraceID)
	}
	if hop.SpanID == tc.SpanID {
		t.Fatalf("WithNewSpan kept span ID %s", tc.SpanID)
	}
	if !hop.Valid() {
		t.Fatalf("WithNewSpan produced invalid context: %+v", hop)
	}
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"canonical", valid, true},
		{"unsampled", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", true},
		{"future version with extra data", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true},
		{"future version exact length", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", true},
		{"empty", "", false},
		{"too short", valid[:54], false},
		{"version ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"uppercase hex", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false},
		{"zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
		{"bad separator", "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"version 00 trailing data", valid + "-extra", false},
		{"trailing junk no separator", valid + "x", false},
		{"non-hex flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", false},
		{"non-hex version", "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseTraceparent(tc.in)
			if tc.ok && err != nil {
				t.Fatalf("ParseTraceparent(%q) = %v, want ok", tc.in, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("ParseTraceparent(%q) = %+v, want error", tc.in, got)
			}
			if tc.ok && !got.Valid() {
				t.Fatalf("ParseTraceparent(%q) accepted but invalid: %+v", tc.in, got)
			}
		})
	}
}

func TestEnsureTrace(t *testing.T) {
	t.Run("mints when absent", func(t *testing.T) {
		r := httptest.NewRequest("GET", "/v1/healthz", nil)
		tc, r2 := EnsureTrace(r)
		if !tc.Valid() {
			t.Fatalf("minted context invalid: %+v", tc)
		}
		got, ok := TraceFrom(r2.Context())
		if !ok || got != tc {
			t.Fatalf("context not installed: %+v ok=%v", got, ok)
		}
	})
	t.Run("continues inbound trace", func(t *testing.T) {
		inbound := NewTrace()
		r := httptest.NewRequest("GET", "/v1/healthz", nil)
		r.Header.Set(TraceparentHeader, inbound.String())
		tc, _ := EnsureTrace(r)
		if tc.TraceID != inbound.TraceID {
			t.Fatalf("trace ID not continued: %s != %s", tc.TraceID, inbound.TraceID)
		}
		if tc.SpanID == inbound.SpanID {
			t.Fatalf("span ID should be re-minted per hop")
		}
	})
	t.Run("replaces malformed header", func(t *testing.T) {
		r := httptest.NewRequest("GET", "/v1/healthz", nil)
		r.Header.Set(TraceparentHeader, "garbage")
		tc, _ := EnsureTrace(r)
		if !tc.Valid() {
			t.Fatalf("should mint a fresh trace on garbage input, got %+v", tc)
		}
	})
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceFrom(ctx); ok {
		t.Fatal("empty context should have no trace")
	}
	tc := NewTrace()
	ctx = ContextWithTrace(ctx, tc)
	if got, ok := TraceFrom(ctx); !ok || got != tc {
		t.Fatalf("TraceFrom = %+v, %v", got, ok)
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("request IDs collide: %s", a)
	}
	if !strings.Contains(a, "-") {
		t.Fatalf("request ID %q missing prefix separator", a)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"": "INFO", "debug": "DEBUG", "INFO": "INFO", "warn": "WARN",
		"warning": "WARN", "error": "ERROR",
	} {
		lv, err := parseLevel(in)
		if err != nil {
			t.Fatalf("parseLevel(%q): %v", in, err)
		}
		if lv.String() != want {
			t.Fatalf("parseLevel(%q) = %s, want %s", in, lv, want)
		}
	}
	if _, err := parseLevel("loud"); err == nil {
		t.Fatal("parseLevel should reject unknown levels")
	}
}

func TestNewLogger(t *testing.T) {
	var sb strings.Builder
	log, err := NewLogger(&sb, "json", "info")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	log.Info("hello", KeyTraceID, "abc")
	if !strings.Contains(sb.String(), `"trace_id":"abc"`) {
		t.Fatalf("json log line missing trace_id attr: %s", sb.String())
	}
	if _, err := NewLogger(&sb, "xml", "info"); err == nil {
		t.Fatal("NewLogger should reject unknown formats")
	}
	if _, err := NewLogger(&sb, "text", "loud"); err == nil {
		t.Fatal("NewLogger should reject unknown levels")
	}
}

func TestSpecPrefix(t *testing.T) {
	if got := SpecPrefix("0123456789abcdef"); got != "0123456789ab" {
		t.Fatalf("SpecPrefix = %q", got)
	}
	if got := SpecPrefix("short"); got != "short" {
		t.Fatalf("SpecPrefix(short) = %q", got)
	}
}
