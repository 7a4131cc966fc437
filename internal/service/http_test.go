package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mrclone/internal/runner"
	"mrclone/internal/service/spec"
	"mrclone/internal/trace"
)

// e2eSpecJSON is the wire form submitted by the end-to-end test clients.
func e2eSpecJSON(t *testing.T) ([]byte, spec.Spec) {
	t.Helper()
	p := trace.GoogleParams()
	p.Jobs = 10
	p.Span = 300
	sp := spec.Spec{
		Workload: spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{
			{Name: "srptms+c"},
			{Name: "fair"},
		},
		Points:   []spec.Point{{X: 0, Machines: 30}},
		Runs:     2,
		BaseSeed: 9,
	}
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return canon, sp
}

type submitResponse struct {
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	State  State  `json:"state"`
	Cached bool   `json:"cached"`
}

func postSpec(t *testing.T, client *http.Client, base string, body []byte) (submitResponse, int) {
	t.Helper()
	resp, err := client.Post(base+"/v1/matrices", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return sr, resp.StatusCode
}

func getBody(t *testing.T, client *http.Client, url string, wantCode int) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: %d (want %d): %s", url, resp.StatusCode, wantCode, body)
	}
	return body
}

// waitDone polls the status endpoint until the job is done.
func waitDone(t *testing.T, client *http.Client, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		if err := json.Unmarshal(getBody(t, client, base+"/v1/matrices/"+id, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEnd is the acceptance test: the same spec submitted twice by 8
// concurrent clients each — the first wave shares one computation, the
// second wave is served from the cache — and every response body is
// byte-identical to a direct runner.Run of the same matrix. SSE events are
// observed from queued through done, and shutdown drains in-flight jobs.
func TestEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	body, sp := e2eSpecJSON(t)

	// Ground truth: the artifact bytes of a direct in-process run.
	rs, err := sp.Runner()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runner.Run(context.Background(), rs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := direct.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	wave := func(expectEveryCached bool) []submitResponse {
		var (
			wg  sync.WaitGroup
			mu  sync.Mutex
			out []submitResponse
		)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sr, code := postSpec(t, client, ts.URL, body)
				if code != http.StatusOK && code != http.StatusAccepted {
					t.Errorf("submit: HTTP %d", code)
					return
				}
				if expectEveryCached && (!sr.Cached || code != http.StatusOK) {
					t.Errorf("second-wave submit not cached: %+v (HTTP %d)", sr, code)
				}
				mu.Lock()
				out = append(out, sr)
				mu.Unlock()
			}()
		}
		wg.Wait()
		return out
	}

	// Wave 1: all 8 submissions collapse into one flight.
	first := wave(false)
	if len(first) != clients {
		t.Fatalf("wave 1 returned %d responses", len(first))
	}
	// Subscribe to SSE before the run finishes (it may already be done; the
	// stream replays history, so queued and done must both appear).
	sseResp, err := client.Get(ts.URL + "/v1/matrices/" + first[0].ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var sseEvents []string
	scanner := bufio.NewScanner(sseResp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") {
			sseEvents = append(sseEvents, strings.TrimPrefix(line, "event: "))
		}
	}
	if len(sseEvents) < 2 || sseEvents[0] != "queued" || sseEvents[len(sseEvents)-1] != "done" {
		t.Fatalf("SSE events %v: want queued ... done", sseEvents)
	}

	for _, sr := range first {
		waitDone(t, client, ts.URL, sr.ID)
	}
	m := svc.Metrics()
	if m.Flights != 1 {
		t.Fatalf("wave 1 ran %d flights, want 1 (dedup %d, cache %d)",
			m.Flights, m.DedupHits, m.CacheHits)
	}
	if m.DedupHits+m.CacheHits != clients-1 {
		t.Fatalf("wave 1: dedup %d + cache %d != %d", m.DedupHits, m.CacheHits, clients-1)
	}

	// Wave 2: every submission is a cache hit and the hit counter moves.
	hitsBefore := m.CacheHits
	second := wave(true)
	m = svc.Metrics()
	if m.CacheHits != hitsBefore+clients {
		t.Fatalf("cache hits %d, want %d", m.CacheHits, hitsBefore+clients)
	}
	if m.Flights != 1 {
		t.Fatalf("wave 2 started a flight (%d total)", m.Flights)
	}

	// Every response body — cached and uncached — is byte-identical to the
	// direct run.
	for _, sr := range append(first, second...) {
		gotJSON := getBody(t, client, ts.URL+"/v1/matrices/"+sr.ID+"/result", http.StatusOK)
		if !bytes.Equal(gotJSON, wantJSON.Bytes()) {
			t.Fatalf("job %s JSON artifact differs from direct run", sr.ID)
		}
		gotCSV := getBody(t, client, ts.URL+"/v1/matrices/"+sr.ID+"/result?format=csv", http.StatusOK)
		if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
			t.Fatalf("job %s CSV artifact differs from direct run", sr.ID)
		}
	}

	// Metrics endpoint exposes the counters in Prometheus text format.
	metricsBody := string(getBody(t, client, ts.URL+"/metrics", http.StatusOK))
	for _, want := range []string{
		// Wave 1 splits its 7 shared submissions between dedup and cache
		// hits depending on timing; the sum and the rest are exact.
		fmt.Sprintf("mrclone_cache_hits_total %d", m.CacheHits),
		fmt.Sprintf("mrclone_dedup_hits_total %d", m.DedupHits),
		"mrclone_flights_total 1",
		"mrclone_submissions_total 16",
		"mrclone_cells_done_total 4",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metricsBody)
		}
	}
	if !strings.Contains(string(getBody(t, client, ts.URL+"/healthz", http.StatusOK)), `"ok"`) {
		t.Fatal("healthz not ok")
	}

	// Graceful shutdown drains and further submissions are refused.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, code := postSpec(t, client, ts.URL, body); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: HTTP %d", code)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer closeService(t, svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	// Malformed and invalid specs are 400.
	for _, body := range []string{"{", `{"version":1}`, `{"version":1,"bogus":true}`} {
		resp, err := client.Post(ts.URL+"/v1/matrices", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown job IDs are 404 everywhere.
	for _, path := range []string{"/v1/matrices/nope", "/v1/matrices/nope/result", "/v1/matrices/nope/events"} {
		getBody(t, client, ts.URL+path, http.StatusNotFound)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/matrices/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: HTTP %d", resp.StatusCode)
	}

	// A finished job serves results in every format; bad formats are 400.
	body, _ := e2eSpecJSON(t)
	sr, _ := postSpec(t, client, ts.URL, body)
	waitDone(t, client, ts.URL, sr.ID)
	getBody(t, client, ts.URL+"/v1/matrices/"+sr.ID+"/result?format=aggregate", http.StatusOK)
	getBody(t, client, ts.URL+"/v1/matrices/"+sr.ID+"/result?format=yaml", http.StatusBadRequest)

	// Cancelled jobs report Gone for results and cancelled=false on repeat.
	req, err = http.NewRequest(http.MethodDelete, ts.URL+"/v1/matrices/"+sr.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelBody struct {
		Cancelled bool `json:"cancelled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cancelBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cancelBody.Cancelled {
		t.Fatal("cancelling a done job reported cancelled=true")
	}
}

// TestHTTPConcurrentLoad hammers the service with distinct and duplicate
// specs from many goroutines; under -race this doubles as the concurrency
// soundness check required by the acceptance criteria.
// oversizedSpec is a 422-byte spec asking for 2e9 runs of a 2e9-job
// generated trace: it parses, and computing it would allocate without limit.
const oversizedSpec = `{"version":1,"workload":{"trace":{"jobs":2000000000,"span":35032,` +
	`"mean_tasks_per_job":26.31,"max_tasks_per_job":500,"mean_task_duration":1179.7,` +
	`"min_task_duration":12.8,"max_task_duration":22919.3,"within_job_alpha":2.5,` +
	`"within_job_ratio":5,"duration_cv":2,"count_duration_exponent":0.8,` +
	`"reduce_fraction":0.3,"priority_bias":0.65,"seed":1}},` +
	`"schedulers":[{"name":"fair"}],"points":[{"x":1,"machines":1}],"runs":2000000000}`

// TestHTTPRejectsOversizedMatrix: a matrix past the cell or the job limit
// is a 400 naming the limit, answered before any flight, assembly or
// workload expansion, so the request allocates next to nothing.
func TestHTTPRejectsOversizedMatrix(t *testing.T) {
	svc := New(Config{Workers: 1, Store: openTestStore(t, t.TempDir()), GCInterval: -1})
	defer closeService(t, svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	jobsOnly := strings.Replace(oversizedSpec, `"runs":2000000000`, `"runs":1`, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for body, want := range map[string]string{
		oversizedSpec: "exceeds the 65536-cell limit",
		jobsOnly:      "workload of 2000000000 jobs exceeds the 131072-job limit",
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/matrices", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Errorf("oversized matrix: HTTP %d %s, want 400 naming %q", resp.StatusCode, msg, want)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("rejecting two oversized matrices allocated %d bytes", grew)
	}
	if m := svc.Metrics(); m.Submissions != 0 || m.Flights != 0 {
		t.Errorf("oversized matrices counted %d submissions and %d flights, want none", m.Submissions, m.Flights)
	}
}

// TestCheckMatrixSizeBounds pins both limits at their edges, and a cell
// count whose product would overflow.
func TestCheckMatrixSizeBounds(t *testing.T) {
	matrix := func(schedulers, points, runs, jobs int) spec.Spec {
		return spec.Spec{
			Workload:   spec.Workload{Trace: &trace.Params{Jobs: jobs}},
			Schedulers: make([]spec.Scheduler, schedulers),
			Points:     make([]spec.Point, points),
			Runs:       runs,
		}
	}
	for _, tc := range []struct {
		sp spec.Spec
		ok bool
	}{
		{matrix(1, 1, 65536, 1), true},
		{matrix(1, 1, 65537, 1), false},
		{matrix(16, 64, 64, 1), true},
		{matrix(16, 64, 65, 1), false},
		{matrix(256, 257, 1, 1), false},
		{matrix(10000, 100000, 2000000000, 1), false},
		{matrix(1, 1, 1, 131072), true},
		{matrix(1, 1, 1, 131073), false},
	} {
		err := checkMatrixSize(tc.sp)
		if (err == nil) != tc.ok {
			t.Errorf("%d×%d×%d cells, %d jobs: %v, want ok=%v", len(tc.sp.Schedulers), len(tc.sp.Points),
				tc.sp.Runs, tc.sp.WorkloadJobs(), err, tc.ok)
		}
	}
}

func TestHTTPConcurrentLoad(t *testing.T) {
	svc := New(Config{Workers: 4, QueueDepth: 64})
	defer closeService(t, svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	makeBody := func(seed int64) []byte {
		p := trace.GoogleParams()
		p.Jobs = 5
		p.Span = 100
		sp := spec.Spec{
			Workload:   spec.Workload{Trace: &p},
			Schedulers: []spec.Scheduler{{Name: "fair"}},
			Points:     []spec.Point{{X: 0, Machines: 15}},
			BaseSeed:   seed,
		}
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return canon
	}

	const goroutines = 16
	ids := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// 4 distinct specs, each submitted by 4 goroutines.
			sr, code := postSpec(t, client, ts.URL, makeBody(int64(g%4)))
			if code != http.StatusOK && code != http.StatusAccepted {
				t.Errorf("goroutine %d: HTTP %d", g, code)
				return
			}
			ids[g] = sr.ID
		}(g)
	}
	wg.Wait()

	byHash := map[string][]byte{}
	for g, id := range ids {
		if id == "" {
			continue
		}
		waitDone(t, client, ts.URL, id)
		var st JobStatus
		if err := json.Unmarshal(getBody(t, client, ts.URL+"/v1/matrices/"+id, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		res := getBody(t, client, ts.URL+"/v1/matrices/"+id+"/result", http.StatusOK)
		if prev, ok := byHash[st.Hash]; ok && !bytes.Equal(prev, res) {
			t.Fatalf("goroutine %d: same hash, different bytes", g)
		}
		byHash[st.Hash] = res
	}
	if len(byHash) != 4 {
		t.Fatalf("distinct results %d, want 4", len(byHash))
	}
	m := svc.Metrics()
	if m.Flights > 4 {
		t.Fatalf("%d flights for 4 distinct specs", m.Flights)
	}
	if got := fmt.Sprint(m.Submissions); got != "16" {
		t.Fatalf("submissions %s", got)
	}
}
