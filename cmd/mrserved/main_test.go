package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mrclone/internal/service"
	"mrclone/internal/service/spec"
	"mrclone/internal/tenant"
	"mrclone/internal/trace"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-parallel", "0"}, "-parallel"},
		{[]string{"-workers", "0"}, "-workers"},
		{[]string{"-queue", "0"}, "-queue"},
		{[]string{"-cache-bytes", "-1"}, "-cache-bytes"},
		{[]string{"-cache-bytes", "10potatoes"}, "-cache-bytes"},
		{[]string{"-cache-ttl", "-1s"}, "-cache-ttl"},
		{[]string{"-job-retention", "-1s"}, "-job-retention"},
		{[]string{"-gc-interval", "0s"}, "-gc-interval"},
		{[]string{"-drain-timeout", "0s"}, "-drain-timeout"},
		{[]string{"-log-format", "xml"}, "-log-format"},
		{[]string{"-log-level", "loud"}, "-log-level"},
	}
	for _, tc := range cases {
		err := run(context.Background(), tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error mentioning %s", tc.args, err, tc.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"123", 123, false},
		{"64KiB", 64 << 10, false},
		{"256mib", 256 << 20, false},
		{"1GiB", 1 << 30, false},
		{"2g", 2 << 30, false},
		{"5KB", 5000, false},
		{"1MB", 1000000, false},
		{" 8 MiB ", 8 << 20, false},
		{"-1", -1, false},
		{"", 0, true},
		{"MiB", 0, true},
		{"1.5GiB", 0, true},
		{"99999999999999999GiB", 0, true},
	}
	for _, tc := range cases {
		got, err := parseBytes(tc.in)
		if tc.err != (err != nil) || (!tc.err && got != tc.want) {
			t.Errorf("parseBytes(%q) = %d, %v; want %d (err %v)", tc.in, got, err, tc.want, tc.err)
		}
	}
}

// syncBuffer is a goroutine-safe log sink that signals the first write.
type syncBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	first chan struct{}
	once  sync.Once
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, err := b.buf.Write(p)
	b.once.Do(func() { close(b.first) })
	return n, err
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeJSONLogsAndDebug boots the daemon with -log-format json and a
// -debug-addr, finds both listen addresses in the structured log, hits
// /healthz, the pprof index, and /debug/vars, then drains cleanly.
func TestServeJSONLogsAndDebug(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logw := &syncBuffer{first: make(chan struct{})}

	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "10s",
			"-log-format", "json", "-log-level", "debug",
			"-debug-addr", "127.0.0.1:0", "-shard-name", "obs0"}, logw)
	}()

	// Both listeners log their address; the debug listener comes up first.
	addrRE := regexp.MustCompile(`"addr":"([0-9.:]+)"`)
	var addrs []string
	deadline := time.After(10 * time.Second)
	for len(addrs) < 2 {
		select {
		case err := <-errCh:
			t.Fatalf("run exited early: %v (log %q)", err, logw.String())
		case <-deadline:
			t.Fatalf("daemon never logged both listen addresses: %q", logw.String())
		case <-time.After(10 * time.Millisecond):
		}
		addrs = nil
		for _, m := range addrRE.FindAllStringSubmatch(logw.String(), -1) {
			addrs = append(addrs, m[1])
		}
	}
	debugBase, apiBase := "http://"+addrs[0], "http://"+addrs[1]

	for _, u := range []string{apiBase + "/healthz", debugBase + "/debug/pprof/", debugBase + "/debug/vars"} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", u, resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
	log := logw.String()
	for _, want := range []string{`"msg":"drained"`, `"shard":"obs0"`, `"msg":"http request"`, `"trace_id":`} {
		if !strings.Contains(log, want) {
			t.Errorf("JSON log missing %s:\n%s", want, log)
		}
	}
	// Structured mode replaces, not duplicates, the plain lifecycle lines.
	if strings.Contains(log, "mrserved: listening on") {
		t.Error("json mode still emits the plain-text lifecycle line")
	}
}

// TestServeAndDrain boots the daemon on an ephemeral port with a data
// directory, computes a small spec, then cancels the context (the SIGINT
// path) and expects a clean drain. Restarted on the same directory, the
// daemon must answer the resubmission from disk: HTTP 200 and "cached",
// result bytes equal to the first run's, one disk hit and no flight. The
// result is stored as one record file, with no directory under
// results/<hh>/.
func TestServeAndDrain(t *testing.T) {
	dataDir := t.TempDir()
	p := trace.GoogleParams()
	p.Jobs = 40
	body, err := json.Marshal(spec.Spec{
		Version:    spec.Version,
		Workload:   spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{{Name: "srptms+c"}, {Name: "mantri"}},
		Points:     []spec.Point{{X: 1000, Machines: 200}},
		Runs:       2,
		BaseSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// serve boots the daemon on dataDir and returns its base URL and a stop
	// function that cancels it and requires a clean drain.
	serve := func() (string, func()) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		logw := &syncBuffer{first: make(chan struct{})}
		errCh := make(chan error, 1)
		go func() {
			errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "10s",
				"-data-dir", dataDir}, logw)
		}()
		addrRE := regexp.MustCompile(`listening on ([0-9.:]+)`)
		deadline := time.After(10 * time.Second)
		m := addrRE.FindStringSubmatch(logw.String())
		for m == nil {
			select {
			case err := <-errCh:
				t.Fatalf("run exited early: %v (log %q)", err, logw.String())
			case <-deadline:
				t.Fatalf("daemon never logged its listen address: %q", logw.String())
			case <-time.After(10 * time.Millisecond):
			}
			m = addrRE.FindStringSubmatch(logw.String())
		}
		return "http://" + m[1], func() {
			t.Helper()
			cancel()
			select {
			case err := <-errCh:
				if err != nil {
					t.Fatalf("drain: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("daemon did not drain")
			}
			if !strings.Contains(logw.String(), "drained") {
				t.Fatalf("log missing drain marker: %q", logw.String())
			}
		}
	}
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
		}
		return b
	}
	submit := func(base string) (int, service.JobStatus) {
		t.Helper()
		resp, err := http.Post(base+"/v1/matrices", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st service.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	base, stop := serve()
	get(base + "/healthz")
	code, first := submit(base)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d, want 202", code)
	}
	for deadline := time.Now().Add(30 * time.Second); first.State != service.StateDone; {
		if first.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (err %q), want done", first.ID, first.State, first.Error)
		}
		time.Sleep(10 * time.Millisecond)
		if err := json.Unmarshal(get(base+"/v1/matrices/"+first.ID), &first); err != nil {
			t.Fatal(err)
		}
	}
	want := get(base + "/v1/matrices/" + first.ID + "/result")
	stop()

	base, stop = serve()
	code, again := submit(base)
	if code != http.StatusOK || !again.Cached || again.Hash != first.Hash {
		t.Fatalf("resubmit after restart: HTTP %d, cached %v, hash %s; want 200, cached, %s",
			code, again.Cached, again.Hash, first.Hash)
	}
	if got := get(base + "/v1/matrices/" + again.ID + "/result"); !bytes.Equal(got, want) {
		t.Fatalf("result after restart differs from the first run's (%d vs %d bytes)", len(got), len(want))
	}
	metrics := string(get(base + "/metrics"))
	for _, line := range []string{"mrclone_disk_hits_total 1", "mrclone_flights_total 0"} {
		if !regexp.MustCompile(`(?m)^` + line + `$`).MatchString(metrics) {
			t.Errorf("metrics after restart lack %q", line)
		}
	}
	stop()

	if fi, err := os.Stat(filepath.Join(dataDir, "results", first.Hash[:2], first.Hash)); err != nil || !fi.Mode().IsRegular() {
		t.Fatalf("result record: %v, %v; want a regular file", fi, err)
	}
	prefixes, err := os.ReadDir(filepath.Join(dataDir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pre := range prefixes {
		entries, err := os.ReadDir(filepath.Join(dataDir, "results", pre.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				t.Errorf("directory results/%s/%s: every entry must be one record file", pre.Name(), e.Name())
			}
		}
	}
}

// TestTenantHotReloadByPoll boots the daemon against a tenants file with a
// fast mtime poll, proves a not-yet-registered token is rejected, rewrites
// the file to add the tenant, and waits for the poller to admit it — no
// restart, no signal. 401 flipping to 404 is the admission proof: the token
// now authenticates and the probed job genuinely does not exist.
func TestTenantHotReloadByPoll(t *testing.T) {
	tenantsPath := filepath.Join(t.TempDir(), "tenants.json")
	writeTenants := func(body string) {
		t.Helper()
		if err := os.WriteFile(tenantsPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeTenants(`{"tenants":[{"name":"alpha","token":"tok-alpha"}]}`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logw := &syncBuffer{first: make(chan struct{})}
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "10s",
			"-tenants", tenantsPath, "-tenants-poll", "25ms"}, logw)
	}()
	select {
	case <-logw.first:
	case err := <-errCh:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never logged its listen address")
	}
	m := regexp.MustCompile(`listening on ([0-9.:]+)`).FindStringSubmatch(logw.String())
	if m == nil {
		t.Fatalf("no listen address in log: %q", logw.String())
	}
	base := "http://" + m[1]

	if got := authStatus(t, base, "tok-bravo"); got != http.StatusUnauthorized {
		t.Fatalf("unregistered token: HTTP %d, want 401", got)
	}

	writeTenants(`{"tenants":[{"name":"alpha","token":"tok-alpha"},{"name":"bravo","token":"tok-bravo"}]}`)
	deadline := time.Now().Add(10 * time.Second)
	for authStatus(t, base, "tok-bravo") != http.StatusNotFound {
		if time.Now().After(deadline) {
			t.Fatalf("token added after startup never admitted; log: %q", logw.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// authStatus probes a job that does not exist with token: 401 means the
// token is unknown, 404 that it authenticated.
func authStatus(t *testing.T, base, token string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/matrices/none", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// signalSelf sends sig to the test process. The caller must have a
// signal.Notify for sig in place, so the signal never ends the process.
func signalSelf(t *testing.T, sig os.Signal) {
	t.Helper()
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(sig); err != nil {
		t.Fatal(err)
	}
}

// TestWatchTenantsSIGHUP sends the daemon real SIGHUPs with polling off: a
// rewritten tenants file is swapped in on the signal, and a corrupt rewrite
// is logged and skipped while the previous registry keeps serving.
func TestWatchTenantsSIGHUP(t *testing.T) {
	caught := make(chan os.Signal, 4)
	signal.Notify(caught, syscall.SIGHUP)
	defer signal.Stop(caught)
	path := filepath.Join(t.TempDir(), "tenants.json")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"tenants":[{"name":"alpha","token":"tok-alpha"}]}`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logw := &syncBuffer{first: make(chan struct{})}
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "10s",
			"-tenants", path, "-tenants-poll", "0"}, logw)
	}()
	waitLog(t, logw, errCh, "listening on ")
	base := "http://" + regexp.MustCompile(`listening on ([0-9.:]+)`).FindStringSubmatch(logw.String())[1]
	if got := authStatus(t, base, "tok-bravo"); got != http.StatusUnauthorized {
		t.Fatalf("pre-reload bravo: HTTP %d, want 401", got)
	}

	write(`{"tenants":[{"name":"alpha","token":"tok-alpha"},{"name":"bravo","token":"tok-bravo"}]}`)
	signalSelf(t, syscall.SIGHUP)
	deadline := time.Now().Add(10 * time.Second)
	for authStatus(t, base, "tok-bravo") != http.StatusNotFound {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never admitted bravo; log: %q", logw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A corrupt rewrite is skipped: the failure is logged, bravo keeps
	// authenticating against the registry already in service.
	write(`{"tenants":`)
	signalSelf(t, syscall.SIGHUP)
	waitLog(t, logw, errCh, "mrserved: tenant reload (SIGHUP):")
	if got := authStatus(t, base, "tok-bravo"); got != http.StatusNotFound {
		t.Fatalf("corrupt reload wiped the serving registry: bravo HTTP %d", got)
	}

	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// waitLog waits until the daemon's log contains marker, failing the test
// when run returns first or the marker never comes.
func waitLog(t *testing.T, logw *syncBuffer, errCh <-chan error, marker string) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for !strings.Contains(logw.String(), marker) {
		select {
		case err := <-errCh:
			t.Fatalf("run exited before logging %q: %v (log %q)", marker, err, logw.String())
		case <-deadline:
			t.Fatalf("log never showed %q: %q", marker, logw.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// writeTenantsAt replaces the tenants file in one rename, stamped with its
// own mtime, so a poll sees either the old file or the whole new one and
// each rewrite reads as exactly one change.
func writeTenantsAt(t *testing.T, path, body string, mtime time.Time) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(tmp, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// jsonRecord is what the JSON lifecycle pin holds of one record: its msg,
// level and sorted attribute keys.
type jsonRecord struct {
	msg, level string
	keys       []string
}

// lifecycleRecords parses a JSON log and keeps the records whose msg is a
// lifecycle line, in order.
func lifecycleRecords(t *testing.T, log string) []jsonRecord {
	t.Helper()
	lifecycle := map[string]bool{
		"debug server listening": true, "listening": true, "draining": true, "drained": true,
		"drain timeout exceeded, aborted in-flight requests": true, "http shutdown": true,
		"tenant registry reloaded": true, "tenant reload failed": true,
	}
	var out []jsonRecord
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		if !lifecycle[msg] {
			continue
		}
		level, _ := rec["level"].(string)
		r := jsonRecord{msg: msg, level: level}
		for k := range rec {
			r.keys = append(r.keys, k)
		}
		sort.Strings(r.keys)
		out = append(out, r)
	}
	return out
}

// TestLifecycleLines pins the daemon's own log lines: in text mode each
// "mrserved: " line byte for byte (ADDR stands for a loopback address), in
// JSON mode each lifecycle record's msg, level and keys. It covers the
// debug listener, the listening line, a tenant reload that succeeds and one
// that fails, and a clean drain.
func TestLifecycleLines(t *testing.T) {
	const (
		alpha = `{"tenants":[{"name":"alpha","token":"tok-alpha"}]}`
		both  = `{"tenants":[{"name":"alpha","token":"tok-alpha"},{"name":"bravo","token":"tok-bravo"}]}`
		torn  = `{"tenants":`
	)
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeTenantsAt(t, path, torn, time.Unix(1e9, 0))
	_, tornErr := tenant.Load(path)
	if tornErr == nil {
		t.Fatal("a torn tenants file loads")
	}
	for _, tc := range []struct {
		format                      string
		listening, reloaded, failed string
		text                        []string
		records                     []jsonRecord
	}{{
		format:    "text",
		listening: "mrserved: listening on ",
		reloaded:  "mrserved: tenant registry reloaded (",
		failed:    "mrserved: tenant reload (",
		text: []string{
			"mrserved: debug server on ADDR",
			"mrserved: listening on ADDR (workers=1 parallel=2 queue=16 policy=fifo 1 tenants cache=256MiB ttl=0s in-memory)",
			"mrserved: tenant registry reloaded (mtime change): 2 tenants",
			"mrserved: tenant reload (mtime change): " + tornErr.Error(),
			"mrserved: signal received, draining (timeout 10s)",
			"mrserved: drained",
		},
	}, {
		format:    "json",
		listening: `"msg":"listening"`,
		reloaded:  `"reason":"mtime change","tenants":2`,
		failed:    `"msg":"tenant reload failed"`,
		records: []jsonRecord{
			{"debug server listening", "INFO", []string{"addr", "level", "msg", "time"}},
			{"listening", "INFO", []string{"addr", "auth", "cache", "level", "mode", "msg", "parallel", "policy", "queue", "time", "ttl", "workers"}},
			{"tenant registry reloaded", "INFO", []string{"level", "msg", "reason", "tenants", "time"}},
			{"tenant reload failed", "WARN", []string{"error", "level", "msg", "reason", "time"}},
			{"draining", "INFO", []string{"level", "msg", "time", "timeout"}},
			{"drained", "INFO", []string{"level", "msg", "time"}},
		},
	}} {
		t.Run(tc.format, func(t *testing.T) {
			mtime := time.Unix(1e9, 0)
			next := func(body string) {
				mtime = mtime.Add(time.Minute)
				writeTenantsAt(t, path, body, mtime)
			}
			next(alpha)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			logw := &syncBuffer{first: make(chan struct{})}
			errCh := make(chan error, 1)
			go func() {
				errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
					"-workers", "1", "-parallel", "2", "-drain-timeout", "10s",
					"-tenants", path, "-tenants-poll", "10ms", "-log-format", tc.format}, logw)
			}()
			waitLog(t, logw, errCh, tc.listening)
			next(both)
			waitLog(t, logw, errCh, tc.reloaded)
			next(torn)
			waitLog(t, logw, errCh, tc.failed)
			cancel()
			select {
			case err := <-errCh:
				if err != nil {
					t.Fatalf("drain: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("daemon did not drain")
			}

			checkLifecycle(t, logw.String(), tc.format, tc.text, tc.records)
		})
	}
}

// checkLifecycle compares a daemon log with the lifecycle lines it must
// hold: in text mode every "mrserved: " line byte for byte (ADDR in want
// stands for a loopback address), in JSON mode every lifecycle record's
// msg, level and keys.
func checkLifecycle(t *testing.T, log, format string, text []string, records []jsonRecord) {
	t.Helper()
	if format == "json" {
		if got := lifecycleRecords(t, log); !reflect.DeepEqual(got, records) {
			t.Fatalf("JSON lifecycle records:\n got %v\nwant %v", got, records)
		}
		return
	}
	var got []string
	for _, line := range strings.Split(log, "\n") {
		if strings.HasPrefix(line, "mrserved: ") {
			got = append(got, line)
		}
	}
	if len(got) != len(text) {
		t.Fatalf("lifecycle lines:\n got %q\nwant %q", got, text)
	}
	for i, want := range text {
		re := "^" + strings.ReplaceAll(regexp.QuoteMeta(want), "ADDR", `127\.0\.0\.1:[0-9]+`) + "$"
		if !regexp.MustCompile(re).MatchString(got[i]) {
			t.Errorf("line %d:\n got %q\nwant %q", i, got[i], want)
		}
	}
}

// TestDrainRule holds the event stream of a long matrix open through the
// drain. A second signal ends the drain long before -drain-timeout, and a
// deadline logs "drain timeout exceeded"; either way the matrix still
// running is cancelled, so run fails with the drain step's error and no
// "drained" line is written.
func TestDrainRule(t *testing.T) {
	caught := make(chan os.Signal, 4)
	signal.Notify(caught, syscall.SIGTERM)
	defer signal.Stop(caught)
	p := trace.GoogleParams()
	p.Jobs = 300
	body, err := json.Marshal(spec.Spec{
		Version:    spec.Version,
		Workload:   spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{{Name: "srptms+c"}},
		Points:     []spec.Point{{X: 1000, Machines: 600}},
		Runs:       20000, // minutes of work: only a cancel ends it
		BaseSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, timeout string
		signal        bool
		want          error
		line          string
	}{
		{"second-signal", "1m", true, context.Canceled, "mrserved: http shutdown: context canceled"},
		{"deadline", "200ms", false, context.DeadlineExceeded, "mrserved: drain timeout exceeded, aborted in-flight requests"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			logw := &syncBuffer{first: make(chan struct{})}
			errCh := make(chan error, 1)
			go func() {
				errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-parallel", "1",
					"-drain-timeout", tc.timeout}, logw)
			}()
			waitLog(t, logw, errCh, "listening on ")
			base := "http://" + regexp.MustCompile(`listening on ([0-9.:]+)`).FindStringSubmatch(logw.String())[1]
			resp, err := http.Post(base+"/v1/matrices", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var st service.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
			}
			events, err := http.Get(base + "/v1/matrices/" + st.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer events.Body.Close()

			began := time.Now()
			cancel()
			if tc.signal {
				waitLog(t, logw, errCh, "mrserved: signal received, draining")
				signalSelf(t, syscall.SIGTERM)
			}
			select {
			case err := <-errCh:
				if !errors.Is(err, tc.want) {
					t.Fatalf("run = %v, want the drain step's %v", err, tc.want)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("drain still running after %s; log: %q", time.Since(began), logw.String())
			}
			log := logw.String()
			if !strings.Contains(log, tc.line+"\n") {
				t.Errorf("log lacks %q:\n%s", tc.line, log)
			}
			if strings.Contains(log, "mrserved: drained") {
				t.Errorf("a cut drain logged drained:\n%s", log)
			}
		})
	}
}
