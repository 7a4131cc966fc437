package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
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

	status := func(token string) int {
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
	if got := status("tok-bravo"); got != http.StatusUnauthorized {
		t.Fatalf("unregistered token: HTTP %d, want 401", got)
	}

	writeTenants(`{"tenants":[{"name":"alpha","token":"tok-alpha"},{"name":"bravo","token":"tok-bravo"}]}`)
	deadline := time.Now().Add(10 * time.Second)
	for status("tok-bravo") != http.StatusNotFound {
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

// TestWatchTenantsSIGHUP drives the watcher's signal path with an injected
// channel: a rewritten file is swapped in on SIGHUP, and a corrupt rewrite
// is logged and skipped while the previous registry keeps serving.
func TestWatchTenantsSIGHUP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"tenants":[{"name":"alpha","token":"tok-alpha"}]}`)
	reg, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 1, Tenants: reg})
	defer func() {
		closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Close(closeCtx); err != nil {
			t.Error(err)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logw := &syncBuffer{first: make(chan struct{})}
	hup := make(chan os.Signal, 1)
	done := make(chan struct{})
	go func() {
		watchTenants(ctx, svc, path, 0, time.Time{}, hup, nil, logw, false)
		close(done)
	}()

	// SubmitToken with a zero spec separates the auth outcome from the spec
	// one: an unknown token fails authentication, a known one reaches (and
	// fails) spec validation.
	authErr := func(token string) error {
		_, err := svc.SubmitToken(token, spec.Spec{})
		return err
	}
	if err := authErr("tok-bravo"); !errors.Is(err, tenant.ErrUnknownToken) {
		t.Fatalf("pre-reload bravo: %v, want ErrUnknownToken", err)
	}

	write(`{"tenants":[{"name":"alpha","token":"tok-alpha"},{"name":"bravo","token":"tok-bravo"}]}`)
	hup <- syscall.SIGHUP
	deadline := time.Now().Add(10 * time.Second)
	for errors.Is(authErr("tok-bravo"), tenant.ErrUnknownToken) {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never admitted bravo; log: %q", logw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A corrupt rewrite is skipped: the failure is logged, bravo keeps
	// authenticating against the registry already in service.
	write(`{"tenants":`)
	hup <- syscall.SIGHUP
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(logw.String(), "tenant reload (SIGHUP):") {
		if time.Now().After(deadline) {
			t.Fatalf("corrupt reload never logged; log: %q", logw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := authErr("tok-bravo"); errors.Is(err, tenant.ErrUnknownToken) {
		t.Fatal("corrupt reload wiped the serving registry")
	}

	cancel()
	<-done
}
