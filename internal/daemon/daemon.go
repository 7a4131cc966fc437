// Package daemon is the process shell that mrserved and mrgated share: the
// flags every daemon takes (-addr, -drain-timeout, -log-format, -log-level,
// -debug-addr), the logger, the lifecycle lines, the debug listener, the
// tenants-file watcher and the drain. A daemon's main.go keeps only its own
// flags, its configuration, the fields of its listening line and its own
// drain step.
//
// A lifecycle line is "<daemon>: <text>" in text mode, the plain form
// scripts grep, and a log record with a fixed msg and fixed attribute keys
// in JSON mode; docs/OBSERVABILITY.md lists them.
//
// One drain rule holds for every daemon. The first SIGINT or SIGTERM closes
// the listener and waits up to -drain-timeout for the requests in flight,
// then runs the daemon's drain step under the same deadline. A second
// signal cuts both short. A deadline that cuts the HTTP shutdown logs
// "drain timeout exceeded, aborted in-flight requests", and "drained" is
// logged only when nothing was cut. The exit status is the drain step's.
package daemon

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mrclone/internal/obs"
	"mrclone/internal/tenant"
)

// TenantsPoll is how often a daemon checks the tenants file's mtime unless
// told otherwise: mrserved's -tenants-poll default and mrgated's period.
const TenantsPoll = 30 * time.Second

// Main runs a daemon until SIGINT or SIGTERM: run gets the process
// arguments and stderr for its log, and an error exits 1 as "<name>: <error>".
func Main(name string, run func(ctx context.Context, args []string, logw io.Writer) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// Shell is the part of a daemon process that every daemon shares. New
// registers its flags; once they are parsed, Start builds the logger,
// LoadTenants loads a tenants file, and Serve runs the daemon.
type Shell struct {
	// Logger is the structured logger Start builds from -log-format and
	// -log-level.
	Logger *slog.Logger

	name                                 string
	addr, logFormat, logLevel, debugAddr string
	drainTimeout                         time.Duration
	w                                    io.Writer
	json                                 bool

	tenantsPath string        // the tenants file; empty without one
	tenantsPoll time.Duration // its mtime poll period; 0 = SIGHUP only
	tenantsMod  time.Time     // its mtime at the last load
}

// New registers the shared flags on fs with this daemon's -addr and
// -drain-timeout defaults and its -drain-timeout help text. Lifecycle lines
// are prefixed with fs's name.
func New(fs *flag.FlagSet, addr string, drainTimeout time.Duration, drainHelp string) *Shell {
	s := &Shell{name: fs.Name()}
	fs.StringVar(&s.addr, "addr", addr, "listen address")
	fs.DurationVar(&s.drainTimeout, "drain-timeout", drainTimeout, drainHelp)
	fs.StringVar(&s.logFormat, "log-format", "text",
		"structured log format: text (logfmt-style) or json (one object per line)")
	fs.StringVar(&s.logLevel, "log-level", "info",
		"minimum log level: debug, info, warn, or error")
	fs.StringVar(&s.debugAddr, "debug-addr", "",
		"optional second listener serving /debug/pprof and /debug/vars (empty = disabled)")
	return s
}

// Start checks the shared flags and builds the logger on w.
func (s *Shell) Start(w io.Writer) error {
	logger, err := obs.NewLogger(w, s.logFormat, s.logLevel)
	if err != nil {
		return err
	}
	if s.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout %s: need > 0", s.drainTimeout)
	}
	s.Logger, s.w = logger, w
	s.json = strings.EqualFold(strings.TrimSpace(s.logFormat), "json")
	return nil
}

// line writes one lifecycle line: a record with msg and attrs in JSON mode,
// "<daemon>: text" in text mode, where -log-level does not apply.
func (s *Shell) line(level slog.Level, msg, text string, attrs ...any) {
	if s.json {
		s.Logger.Log(context.Background(), level, msg, attrs...)
	} else {
		fmt.Fprintf(s.w, "%s: %s\n", s.name, text)
	}
}

// LoadTenants loads the tenants file at path, or returns nil when path is
// empty. Serve then reloads it into the daemon on SIGHUP and, every poll
// (0 = never), when the file's mtime changed since the last load.
func (s *Shell) LoadTenants(path string, poll time.Duration) (*tenant.Registry, error) {
	if path == "" {
		return nil, nil
	}
	s.tenantsPath, s.tenantsPoll = path, poll
	reg, err := s.loadTenants()
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	return reg, nil
}

// loadTenants reads the tenants file after noting its mtime, so an edit
// that lands during the read shows as a change to the next poll.
func (s *Shell) loadTenants() (*tenant.Registry, error) {
	if fi, err := os.Stat(s.tenantsPath); err == nil {
		s.tenantsMod = fi.ModTime()
	}
	return tenant.Load(s.tenantsPath)
}

// Daemon is what one daemon hands the shell to serve.
type Daemon struct {
	// Handler serves the daemon's API on -addr.
	Handler http.Handler
	// Listening is the listening line's text in parentheses after the
	// address, and Attrs its JSON attributes after addr.
	Listening string
	Attrs     []any
	// Reload swaps a reloaded tenants file into the daemon. It is called
	// only after LoadTenants loaded one.
	Reload func(*tenant.Registry) error
	// Drain is the daemon's own drain step, run after the HTTP shutdown
	// under the drain deadline; its error is the exit status. It also runs,
	// with a second to finish, when a listener fails to open, so the daemon
	// releases what it holds. Nil means there is nothing to drain.
	Drain func(context.Context) error
}

// Serve runs the daemon: it opens the debug listener and the API listener,
// logs the listening line, and serves until ctx is done, reloading the
// tenants file meanwhile; then it drains.
func (s *Shell) Serve(ctx context.Context, d Daemon) error {
	// Without a tenants file, hup and tick stay nil and never fire. SIGHUP
	// is caught from here on, so one sent once the listening line is out
	// waits in hup for the loop below.
	var hup chan os.Signal
	var tick <-chan time.Time
	if s.tenantsPath != "" {
		hup = make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		if s.tenantsPoll > 0 {
			t := time.NewTicker(s.tenantsPoll)
			defer t.Stop()
			tick = t.C
		}
	}
	if s.debugAddr != "" {
		ln, err := net.Listen("tcp", s.debugAddr)
		if err != nil {
			abort(d.Drain)
			return fmt.Errorf("-debug-addr: %w", err)
		}
		srv := &http.Server{Handler: debugHandler()}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		addr := ln.Addr().String()
		s.line(slog.LevelInfo, "debug server listening", "debug server on "+addr, "addr", addr)
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		abort(d.Drain)
		return err
	}
	srv := &http.Server{Handler: d.Handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	s.line(slog.LevelInfo, "listening", fmt.Sprintf("listening on %s (%s)", addr, d.Listening),
		append([]any{"addr", addr}, d.Attrs...)...)

	for {
		reason := "SIGHUP"
		select {
		case err := <-serveErr:
			return err
		case <-ctx.Done():
			return s.drain(srv, d.Drain)
		case <-hup:
		case <-tick:
			if fi, err := os.Stat(s.tenantsPath); err != nil || fi.ModTime().Equal(s.tenantsMod) {
				continue
			}
			reason = "mtime change"
		}
		s.reloadTenants(reason, d.Reload)
	}
}

// abort runs a drain step with a second to finish.
func abort(drain func(context.Context) error) {
	if drain != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = drain(ctx)
	}
}

// drain applies the drain rule of the package comment to srv and step.
func (s *Shell) drain(srv *http.Server, step func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	s.line(slog.LevelInfo, "draining", fmt.Sprintf("signal received, draining (timeout %s)", s.drainTimeout),
		"timeout", s.drainTimeout.String())
	// Stop the listener first so no new work arrives, then drain the rest.
	cut := srv.Shutdown(ctx)
	switch {
	case errors.Is(cut, context.DeadlineExceeded):
		const msg = "drain timeout exceeded, aborted in-flight requests"
		s.line(slog.LevelWarn, msg, msg)
	case cut != nil:
		s.line(slog.LevelWarn, "http shutdown", "http shutdown: "+cut.Error(), "error", cut.Error())
	}
	if cut != nil {
		_ = srv.Close()
	}
	if step != nil {
		if err := step(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	if cut == nil {
		s.line(slog.LevelInfo, "drained", "drained")
	}
	return nil
}

// reloadTenants reloads the tenants file into reload. A file that fails to
// load, or a registry the daemon rejects, is logged and skipped: the
// registry in service stays, so a half-written edit locks no tenant out.
func (s *Shell) reloadTenants(reason string, reload func(*tenant.Registry) error) {
	reg, err := s.loadTenants()
	if err == nil {
		err = reload(reg)
	}
	if err != nil {
		s.line(slog.LevelWarn, "tenant reload failed", fmt.Sprintf("tenant reload (%s): %v", reason, err),
			"reason", reason, "error", err.Error())
		return
	}
	s.line(slog.LevelInfo, "tenant registry reloaded",
		fmt.Sprintf("tenant registry reloaded (%s): %d tenants", reason, reg.Len()),
		"reason", reason, "tenants", reg.Len())
}

// debugHandler serves the -debug-addr listener: net/http/pprof profiles
// (CPU, heap, goroutine, block, mutex, execution trace) and expvar under
// /debug/vars. It is never mounted on the API listener, so profiling stays
// reachable when the API is saturated and is easy to firewall off.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
