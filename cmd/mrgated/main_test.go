package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
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
	"mrclone/internal/trace"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "-shard"},
		{[]string{"-shard", "http://h:1", "-probe-timeout", "0s"}, "-probe-timeout"},
		{[]string{"-shard", "http://h:1", "-drain-timeout", "0s"}, "-drain-timeout"},
		{[]string{"-shard", "http://h:1", "-replicas", "-1"}, "-replicas"},
		{[]string{"-shard", "http://h:1?token=x"}, "query"},
		{[]string{"-shard", "://bad"}, "-shard"},
		{[]string{"-shard", "relative/path"}, "http(s)"},
		{[]string{"-shard", "a=http://h:1", "-shard", "a=http://h:2"}, "duplicate"},
		{[]string{"-shard", "http://h:1", "-log-format", "xml"}, "-log-format"},
		{[]string{"-shard", "http://h:1", "-log-level", "loud"}, "-log-level"},
	}
	for _, tc := range cases {
		err := run(context.Background(), tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error mentioning %s", tc.args, err, tc.want)
		}
	}
}

func TestParseShards(t *testing.T) {
	shards, err := parseShards([]string{
		"http://a:8080",
		"east=http://b:8080/base",
		"http://c:8080?x=y",
	})
	if err != nil {
		t.Fatal(err)
	}
	if shards[0].Name != "s0" || shards[0].URL.Host != "a:8080" {
		t.Errorf("shard 0 = %s %s", shards[0].Name, shards[0].URL)
	}
	if shards[1].Name != "east" || shards[1].URL.Host != "b:8080" || shards[1].URL.Path != "/base" {
		t.Errorf("shard 1 = %s %s", shards[1].Name, shards[1].URL)
	}
	// '=' inside a query string is not a name separator.
	if shards[2].Name != "s2" || shards[2].URL.Host != "c:8080" {
		t.Errorf("shard 2 = %s %s", shards[2].Name, shards[2].URL)
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

// TestServeAndDrain boots the gateway against one live in-process shard,
// checks the aggregated /healthz sees it, then cancels the context (the
// SIGINT path) and expects a clean drain.
func TestServeAndDrain(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	shard := httptest.NewServer(svc.Handler())
	defer shard.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logw := &syncBuffer{first: make(chan struct{})}
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-shard", shard.URL}, logw)
	}()

	select {
	case <-logw.first:
	case err := <-errCh:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gateway never logged its listen address")
	}
	m := regexp.MustCompile(`listening on ([0-9.:]+)`).FindStringSubmatch(logw.String())
	if m == nil {
		t.Fatalf("no listen address in log: %q", logw.String())
	}
	resp, err := http.Get("http://" + m[1] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Shards []struct {
			Name string `json:"name"`
			Up   bool   `json:"up"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Shards) != 1 || !health.Shards[0].Up || health.Shards[0].Name != "s0" {
		t.Fatalf("pool health = %+v, want ok with shard s0 up", health)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("gateway did not drain")
	}
	if !strings.Contains(logw.String(), "drained") {
		t.Fatalf("log missing drain marker: %q", logw.String())
	}
}

// newShard serves one in-process mrserved shard for the gateway under test.
func newShard(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{Workers: 1})
	shard := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		shard.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return shard
}

// start runs the gateway with args until ctx is cancelled and returns its
// log, its exit channel and its listen address, once the listening line is
// out.
func start(t *testing.T, ctx context.Context, args ...string) (*syncBuffer, <-chan error, string) {
	t.Helper()
	logw := &syncBuffer{first: make(chan struct{})}
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, args, logw) }()
	addrRE := regexp.MustCompile(`listening on ([0-9.:]+)|"msg":"listening","addr":"([0-9.:]+)"`)
	deadline := time.After(15 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(logw.String()); m != nil {
			return logw, errCh, m[1] + m[2]
		}
		select {
		case err := <-errCh:
			t.Fatalf("run exited early: %v (log %q)", err, logw.String())
		case <-deadline:
			t.Fatalf("gateway never logged its listen address: %q", logw.String())
		case <-time.After(5 * time.Millisecond):
		}
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

// holdSubmission opens a submission whose body never arrives. It sends the
// headers with "Expect: 100-continue" and returns once the server's
// "100 Continue" shows the handler is reading the body, so the request
// stays in flight until the connection closes.
func holdSubmission(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST /v1/matrices HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: 64\r\nExpect: 100-continue\r\n\r\n", addr)
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "HTTP/1.1 100 ") {
		t.Fatalf("held submission: %q, %v; want 100 Continue", line, err)
	}
}

// jsonRecord is what the JSON lifecycle pin holds of one record: its msg,
// level and sorted attribute keys.
type jsonRecord struct {
	msg, level string
	keys       []string
}

// checkLifecycle compares a daemon log with the lifecycle lines it must
// hold: in text mode every "mrgated: " line byte for byte (ADDR in want
// stands for a loopback address), in JSON mode every lifecycle record's
// msg, level and keys.
func checkLifecycle(t *testing.T, log, format string, text []string, records []jsonRecord) {
	t.Helper()
	if format == "json" {
		lifecycle := map[string]bool{
			"debug server listening": true, "listening": true, "draining": true, "drained": true,
			"drain timeout exceeded, aborted in-flight requests": true, "http shutdown": true,
			"tenant registry reloaded": true, "tenant reload failed": true,
		}
		var got []jsonRecord
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
			got = append(got, r)
		}
		if !reflect.DeepEqual(got, records) {
			t.Fatalf("JSON lifecycle records:\n got %v\nwant %v", got, records)
		}
		return
	}
	var got []string
	for _, line := range strings.Split(log, "\n") {
		if strings.HasPrefix(line, "mrgated: ") {
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

// TestLifecycleLines pins the gateway's own log lines in both formats: the
// debug listener, the listening line and a clean drain; and a drain whose
// deadline cuts a submission still in flight.
func TestLifecycleLines(t *testing.T) {
	shard := newShard(t)
	const listening = "mrgated: listening on ADDR (ring(s0; vnodes=128), replicas=0)"
	var (
		debugRec     = jsonRecord{"debug server listening", "INFO", []string{"addr", "level", "msg", "time"}}
		listeningRec = jsonRecord{"listening", "INFO", []string{"addr", "level", "msg", "replicas", "ring", "time"}}
		drainingRec  = jsonRecord{"draining", "INFO", []string{"level", "msg", "time", "timeout"}}
		drainedRec   = jsonRecord{"drained", "INFO", []string{"level", "msg", "time"}}
		timeoutRec   = jsonRecord{"drain timeout exceeded, aborted in-flight requests", "WARN", []string{"level", "msg", "time"}}
	)
	for _, tc := range []struct {
		name, format string
		args         []string
		hold         bool
		text         []string
		records      []jsonRecord
	}{{
		name: "drained", format: "text", args: []string{"-debug-addr", "127.0.0.1:0", "-drain-timeout", "10s"},
		text: []string{"mrgated: debug server on ADDR", listening,
			"mrgated: signal received, draining (timeout 10s)", "mrgated: drained"},
	}, {
		name: "timeout", format: "text", args: []string{"-drain-timeout", "100ms"}, hold: true,
		text: []string{listening, "mrgated: signal received, draining (timeout 100ms)",
			"mrgated: drain timeout exceeded, aborted in-flight requests"},
	}, {
		name: "drained", format: "json", args: []string{"-debug-addr", "127.0.0.1:0", "-drain-timeout", "10s"},
		records: []jsonRecord{debugRec, listeningRec, drainingRec, drainedRec},
	}, {
		name: "timeout", format: "json", args: []string{"-drain-timeout", "100ms"}, hold: true,
		records: []jsonRecord{listeningRec, drainingRec, timeoutRec},
	}} {
		t.Run(tc.format+"/"+tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0", "-shard", shard.URL, "-log-format", tc.format}, tc.args...)
			logw, errCh, addr := start(t, ctx, args...)
			if tc.hold {
				holdSubmission(t, addr)
			}
			cancel()
			select {
			case err := <-errCh:
				if err != nil {
					t.Fatalf("drain: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("gateway did not drain")
			}
			checkLifecycle(t, logw.String(), tc.format, tc.text, tc.records)
		})
	}
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

// TestDrainRule holds a submission open through the drain. A second signal
// ends the drain long before -drain-timeout, and a deadline logs "drain
// timeout exceeded"; the gateway has no drain step of its own, so it exits
// 0 either way, without a "drained" line.
func TestDrainRule(t *testing.T) {
	caught := make(chan os.Signal, 4)
	signal.Notify(caught, syscall.SIGTERM)
	defer signal.Stop(caught)
	shard := newShard(t)
	for _, tc := range []struct {
		name, timeout string
		signal        bool
		line          string
	}{
		{"second-signal", "1m", true, "mrgated: http shutdown: context canceled"},
		{"deadline", "100ms", false, "mrgated: drain timeout exceeded, aborted in-flight requests"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			logw, errCh, addr := start(t, ctx, "-addr", "127.0.0.1:0", "-shard", shard.URL, "-drain-timeout", tc.timeout)
			holdSubmission(t, addr)
			began := time.Now()
			cancel()
			if tc.signal {
				waitLog(t, logw, errCh, "mrgated: signal received, draining")
				signalSelf(t, syscall.SIGTERM)
			}
			select {
			case err := <-errCh:
				if err != nil {
					t.Fatalf("run = %v, want nil", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("drain still running after %s; log: %q", time.Since(began), logw.String())
			}
			log := logw.String()
			if !strings.Contains(log, tc.line+"\n") {
				t.Errorf("log lacks %q:\n%s", tc.line, log)
			}
			if strings.Contains(log, "mrgated: drained") {
				t.Errorf("a cut drain logged drained:\n%s", log)
			}
		})
	}
}

// TestTenantReload adds a token to the gateway's tenants file. Before the
// reload the edge answers 401 for it; after, the same submission is routed
// to the shard and answered there. The reload comes once from SIGHUP and
// once from the mtime poll.
func TestTenantReload(t *testing.T) {
	caught := make(chan os.Signal, 4)
	signal.Notify(caught, syscall.SIGHUP)
	defer signal.Stop(caught)
	shard := newShard(t)
	p := trace.GoogleParams()
	p.Jobs = 20
	body, err := json.Marshal(spec.Spec{
		Version:    spec.Version,
		Workload:   spec.Workload{Trace: &p},
		Schedulers: []spec.Scheduler{{Name: "srptms+c"}},
		Points:     []spec.Point{{X: 1000, Machines: 100}},
		Runs:       1,
		BaseSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		alpha = `{"tenants":[{"name":"alpha","token":"tok-alpha"}]}`
		both  = `{"tenants":[{"name":"alpha","token":"tok-alpha"},{"name":"bravo","token":"tok-bravo"}]}`
	)
	for _, reason := range []string{"SIGHUP", "mtime change"} {
		t.Run(reason, func(t *testing.T) {
			if reason == "mtime change" {
				defer func(poll time.Duration) { tenantsPoll = poll }(tenantsPoll)
				tenantsPoll = 10 * time.Millisecond
			}
			path := filepath.Join(t.TempDir(), "tenants.json")
			writeTenantsAt(t, path, alpha, time.Unix(1e9, 0))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			logw, errCh, addr := start(t, ctx, "-addr", "127.0.0.1:0", "-shard", shard.URL, "-tenants", path)
			submit := func() (*http.Response, service.JobStatus) {
				t.Helper()
				req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/matrices", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Authorization", "Bearer tok-bravo")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var st service.JobStatus
				_ = json.NewDecoder(resp.Body).Decode(&st)
				return resp, st
			}
			if resp, _ := submit(); resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("bravo before the reload: HTTP %d, want 401", resp.StatusCode)
			}

			writeTenantsAt(t, path, both, time.Unix(1e9+60, 0))
			if reason == "SIGHUP" {
				signalSelf(t, syscall.SIGHUP)
			}
			waitLog(t, logw, errCh, "mrgated: tenant registry reloaded ("+reason+"): 2 tenants\n")
			resp, st := submit()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Fatalf("bravo after the reload: HTTP %d, want the shard's 202 or 200", resp.StatusCode)
			}
			if got := resp.Header.Get("X-Mrclone-Shard"); got != "s0" || !strings.HasPrefix(st.ID, "s0.") {
				t.Fatalf("bravo after the reload: shard %q, job %q; want s0 and an s0. job", got, st.ID)
			}
			cancel()
			if err := <-errCh; err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}

// writeTenantsAt replaces the tenants file in one rename, stamped with its
// own mtime, so a poll sees either the old file or the whole new one.
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
