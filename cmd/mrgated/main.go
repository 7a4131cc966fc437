// Command mrgated fronts a pool of mrserved shards with consistent-hash
// routing: submissions are placed on the shard that owns their spec content
// hash (so identical specs from any client, through any gateway, meet in
// one shard's single-flight table and compute once cluster-wide), job routes
// follow the shard namespace baked into gateway job IDs, and /healthz and
// /metrics aggregate the whole pool. The gateway owns no compute and no
// durable state; run several for availability.
//
// Usage:
//
//	mrgated [-addr :8081] -shard URL [-shard URL ...]
//	        [-vnodes 128] [-replicas 0] [-tenants FILE]
//	        [-probe-timeout 2s] [-probe-interval 1s] [-drain-timeout 10s]
//	        [-breaker-failures 3] [-breaker-cooldown 5s] [-pool-admin]
//	        [-log-format text|json] [-log-level info] [-debug-addr ADDR]
//
// Each -shard is an mrserved base URL, optionally named ("name=URL"); unnamed
// shards are called s0, s1, … in flag order. Shard names are embedded in the
// job IDs the gateway hands out, and ring placement depends only on the set
// of names — keep names (or flag order) stable across gateway restarts and
// across a fleet of gateways, or job IDs and placement will not line up.
// See docs/OPERATIONS.md ("Sharded deployment") for topology guidance.
//
// -shard gives the initial pool; with -pool-admin the membership is elastic
// at runtime via POST /v1/pool/shards (unauthenticated — bind only to a
// trusted operator network). A background probe loop (-probe-interval) feeds
// per-shard circuit breakers (-breaker-failures consecutive failures open a
// breaker, -breaker-cooldown before a half-open retry), so a dead shard
// stops costing request-path dials; see docs/OPERATIONS.md ("Elastic pool").
//
// With -tenants the gateway authenticates and rate-limits submissions at
// the edge (same JSON registry file the shards take), rejecting a flooding
// tenant before it touches a shard; bearer tokens are always forwarded
// upstream either way. The file reloads as it does on the shards: SIGHUP
// reloads it at once, and every 30s its mtime is checked and a changed file
// reloaded (there is no -tenants-poll). A file that fails to parse is
// logged and skipped, and the gateway cannot switch between forwarding and
// admitting at runtime.
//
// Every request logs one structured line carrying the request ID, W3C
// trace ID, matched route, status, duration, and serving shard; the same
// trace ID is forwarded to the shard (traceparent header, fresh span), so
// one grep follows a request across tiers. -debug-addr opens a second
// listener serving /debug/pprof and /debug/vars. See docs/OBSERVABILITY.md.
//
// On SIGINT/SIGTERM the gateway drains: the listener closes and proxied
// requests in flight get -drain-timeout to finish. A second signal or the
// deadline cuts the drain short, and the gateway still exits 0. The flags,
// lifecycle lines, tenants watcher and drain are internal/daemon's, shared
// with mrserved.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"strings"
	"time"

	"mrclone/internal/daemon"
	"mrclone/internal/gateway"
)

func main() { daemon.Main("mrgated", run) }

// tenantsPoll is how often the -tenants file's mtime is checked. It is a
// variable so that tests can shorten it.
var tenantsPoll = daemon.TenantsPoll

// stringSlice is a repeatable string flag.
type stringSlice []string

func (s *stringSlice) String() string { return strings.Join(*s, ",") }

func (s *stringSlice) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// parseShards turns -shard values ("URL" or "name=URL") into the gateway's
// pool, auto-naming unnamed shards s0, s1, … in flag order.
func parseShards(vals []string) ([]gateway.Shard, error) {
	shards := make([]gateway.Shard, 0, len(vals))
	for i, v := range vals {
		name := fmt.Sprintf("s%d", i)
		raw := v
		// A name is present when '=' appears before any "://"; a bare URL
		// like http://host?a=b must not be split at its query '='.
		if eq := strings.Index(v, "="); eq >= 0 {
			if scheme := strings.Index(v, "://"); scheme < 0 || eq < scheme {
				name, raw = v[:eq], v[eq+1:]
			}
		}
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("-shard %q: %w", v, err)
		}
		shards = append(shards, gateway.Shard{Name: name, URL: u})
	}
	return shards, nil
}

func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("mrgated", flag.ContinueOnError)
	sh := daemon.New(fs, ":8081", 10*time.Second, "how long shutdown waits for in-flight proxied requests")
	var shardFlags stringSlice
	fs.Var(&shardFlags, "shard", "mrserved shard base URL, optionally named (\"name=URL\"); repeatable")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard on the placement ring (0 = default 128)")
	replicas := fs.Int("replicas", 0, "submission failover depth in ring order (0 = try every shard)")
	tenantsFile := fs.String("tenants", "",
		"JSON tenant registry for edge admission: authenticate and rate-limit submissions before routing (empty = pass credentials through)")
	probeTimeout := fs.Duration("probe-timeout", 2*time.Second,
		"per-shard /healthz and /metrics probe timeout")
	probeInterval := fs.Duration("probe-interval", time.Second,
		"background health-probe period feeding the circuit breakers (negative = disabled)")
	breakerFailures := fs.Int("breaker-failures", 0,
		"consecutive probe/dial failures that open a shard's circuit breaker (0 = default 3)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0,
		"how long an open breaker short-circuits before a half-open retry (0 = default 5s)")
	poolAdmin := fs.Bool("pool-admin", false,
		"register POST /v1/pool/shards for runtime membership changes (unauthenticated; trusted networks only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sh.Start(logw); err != nil {
		return err
	}
	if len(shardFlags) == 0 {
		return errors.New("-shard: need at least one mrserved shard URL")
	}
	if *probeTimeout <= 0 {
		return fmt.Errorf("-probe-timeout %s: need > 0", *probeTimeout)
	}
	if *replicas < 0 {
		return fmt.Errorf("-replicas %d: need >= 0", *replicas)
	}
	if *breakerFailures < 0 {
		return fmt.Errorf("-breaker-failures %d: need >= 0", *breakerFailures)
	}
	if *breakerCooldown < 0 {
		return fmt.Errorf("-breaker-cooldown %s: need >= 0", *breakerCooldown)
	}
	shards, err := parseShards(shardFlags)
	if err != nil {
		return err
	}
	registry, err := sh.LoadTenants(*tenantsFile, tenantsPoll)
	if err != nil {
		return err
	}
	gw, err := gateway.New(gateway.Config{
		Shards:          shards,
		VirtualNodes:    *vnodes,
		Replicas:        *replicas,
		ProbeTimeout:    *probeTimeout,
		ProbeInterval:   *probeInterval,
		BreakerFailures: *breakerFailures,
		BreakerCooldown: *breakerCooldown,
		EnableAdmin:     *poolAdmin,
		Tenants:         registry,
		Logger:          sh.Logger,
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	return sh.Serve(ctx, daemon.Daemon{
		Handler:   gw.Handler(),
		Listening: fmt.Sprintf("%s, replicas=%d", gw.Ring(), *replicas),
		Attrs:     []any{"ring", fmt.Sprint(gw.Ring()), "replicas", *replicas},
		Reload:    gw.ReloadTenants,
	})
}
