package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent asserts the parser's safety contract: no panics on
// arbitrary input, and anything accepted is a valid context that renders
// back to a header the parser accepts again (version normalized to 00).
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-state")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Add("garbage")
	f.Add(strings.Repeat("-", 60))
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")

	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted invalid context from %q: %+v", s, tc)
		}
		rt, err := ParseTraceparent(tc.String())
		if err != nil {
			t.Fatalf("re-parse of rendered %q failed: %v", tc.String(), err)
		}
		if rt != tc {
			t.Fatalf("render/parse not stable: %+v != %+v", rt, tc)
		}
	})
}

// shardScrapeSeed is an excerpt of a shard's /metrics: scalar families, a
// route/status histogram, a per-tenant family, and a runtime stat.
const shardScrapeSeed = `# HELP mrclone_submissions_total Matrix submissions accepted.
# TYPE mrclone_submissions_total counter
mrclone_submissions_total 3
# HELP mrclone_queue_depth Matrices waiting for a worker.
# TYPE mrclone_queue_depth gauge
mrclone_queue_depth 0
# HELP mrclone_http_request_seconds HTTP request duration by route and status.
# TYPE mrclone_http_request_seconds histogram
mrclone_http_request_seconds_bucket{route="POST /v1/matrices",status="202",le="0.001"} 1
mrclone_http_request_seconds_bucket{route="POST /v1/matrices",status="202",le="0.0025"} 3
mrclone_http_request_seconds_bucket{route="POST /v1/matrices",status="202",le="+Inf"} 3
mrclone_http_request_seconds_sum{route="POST /v1/matrices",status="202"} 0.0041
mrclone_http_request_seconds_count{route="POST /v1/matrices",status="202"} 3
# HELP mrclone_tenant_submitted_total Submissions accepted, by tenant.
# TYPE mrclone_tenant_submitted_total counter
mrclone_tenant_submitted_total{tenant="alpha"} 3
# HELP go_goroutines Number of live goroutines.
# TYPE go_goroutines gauge
go_goroutines 12
`

// mergeRender folds one scrape's families through a Merge and renders it,
// the way the gateway's /metrics does.
func mergeRender(fams []*Family) string {
	m := NewMerge()
	m.Add(fams)
	var sb strings.Builder
	m.WriteTo(NewExpoWriter(&sb))
	return sb.String()
}

// FuzzParseExposition holds the gateway's scrape path to a fixed point:
// anything ParseExposition accepts, folded through a Merge and rendered,
// parses back, and folding and rendering that reproduces the same bytes. A
// parser that accepts what the writer then renders differently would skew
// the pool aggregate on every scrape.
func FuzzParseExposition(f *testing.F) {
	f.Add(shardScrapeSeed)
	f.Add(`# HELP lat Latency.
# TYPE lat histogram
lat_bucket{shard="s1",le="0.5"} 2
lat_bucket{shard="s1",le="+Inf"} 4
lat_sum{shard="s1"} 3.25
lat_count{shard="s1"} 4
lat_bucket{shard="s0",le="0.5"} 1
lat_bucket{shard="s0",le="+Inf"} 1
lat_sum{shard="s0"} 0.25
lat_count{shard="s0"} 1
`)
	f.Add("# HELP esc A \\\\ help\\ntext.\n# TYPE esc counter\nesc{tenant=\"we\\\"ird\\\\te\\nnant\"} 7 1700000000000\n")

	f.Fuzz(func(t *testing.T, s string) {
		fams, err := ParseExposition(s)
		if err != nil {
			return
		}
		first := mergeRender(fams)
		again, err := ParseExposition(first)
		if err != nil {
			t.Fatalf("rendered merge does not parse: %v\n%s", err, first)
		}
		if second := mergeRender(again); second != first {
			t.Fatalf("merge render not stable:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}
