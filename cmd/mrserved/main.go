// Command mrserved serves cluster simulations over HTTP: clients POST
// canonical matrix specs (see internal/service/spec) to /v1/matrices, poll
// or stream job progress, and fetch deterministic JSON/CSV artifacts.
// Identical specs share one computation (single-flight) and completed
// matrices are served from a content-addressed result cache.
//
// Usage:
//
//	mrserved [-addr :8080] [-parallel NumCPU] [-workers 2] [-queue 16]
//	         [-data-dir DIR] [-cache-bytes 256MiB] [-cache-ttl 0]
//	         [-cell-cache-bytes 0]
//	         [-tenants FILE] [-tenants-poll 30s] [-queue-policy fifo|fair|srpt]
//	         [-job-retention 24h] [-gc-interval 1m] [-peer-timeout 5s]
//	         [-log-format text|json] [-log-level info]
//	         [-debug-addr ADDR] [-shard-name NAME]
//
// By default the service is in-memory: results and job history vanish with
// the process. With -data-dir it becomes durable — completed artifacts and
// the job table persist on disk, so a restart serves previously computed
// specs straight from the store and keeps terminal-job history visible.
// Durable mode also keeps the per-cell content-addressed cache: every
// simulated matrix cell persists under its cell hash, overlapping matrices
// recompute only the cells they don't share, and a matrix interrupted by a
// crash is requeued on restart and refills from its persisted cells. See
// docs/OPERATIONS.md for the data-dir layout and tuning guidance.
//
// Behind an mrgated pool with elastic membership, a submission relocated by
// a membership change arrives stamped with its previous owner's base URL;
// this shard then adopts the already-computed artifacts (or individual
// cells) from that peer instead of recomputing, verifying every byte
// against checksums it computes itself. -peer-timeout bounds each such
// fetch; a slow or dead peer degrades to recomputation. See
// docs/OPERATIONS.md ("Elastic pool").
//
// Without -tenants the service is anonymous and open, exactly as before.
// With a tenants file (see internal/tenant and docs/OPERATIONS.md,
// "Multi-tenant deployment") every API request must carry a known bearer
// token; submissions are rate-limited and quota-checked per tenant, and
// -queue-policy picks how queued matrices are dequeued: "fifo" (arrival
// order, the default), "fair" (weighted lottery across tenant queues), or
// "srpt" — shortest remaining work first, where a matrix's remaining work
// shrinks as the cell cache fills, dogfooding the SRPT scheduler the
// service exists to simulate.
//
// The tenants file is hot-reloadable: SIGHUP reloads it immediately, and
// every -tenants-poll interval (default 30s; 0 disables polling) the file's
// mtime is checked and a changed file is reloaded. The swap is atomic —
// in-flight requests finish against the registry they authenticated with,
// the next request sees the new one — and a file that fails to parse is
// logged and skipped, so a half-written edit never locks tenants out.
// Tenancy itself cannot be toggled at runtime: a daemon started with
// -tenants stays authenticated, one started without stays anonymous.
//
// Every request logs one structured line (log/slog) carrying the request
// ID, W3C trace ID (minted, or continued from an inbound traceparent
// header), matched route, status, and duration; -log-format json makes the
// stream machine-parseable and -shard-name stamps every line for fleets
// behind mrgated. -debug-addr opens a second listener serving
// /debug/pprof and /debug/vars for live profiling. See
// docs/OBSERVABILITY.md.
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes,
// requests in flight finish, then queued and running matrices finish, then
// the process exits. A second signal or the -drain-timeout deadline cuts
// the drain short and cancels the matrices still queued or running; the
// daemon exits 1 only when the drain cancelled work. The flags,
// lifecycle lines, tenants watcher and drain are internal/daemon's, shared
// with mrgated.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mrclone/internal/daemon"
	"mrclone/internal/service"
	"mrclone/internal/store"
	"mrclone/internal/tenant"
)

func main() { daemon.Main("mrserved", run) }

func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("mrserved", flag.ContinueOnError)
	sh := daemon.New(fs, ":8080", time.Minute,
		"how long shutdown waits for queued and running matrices before cancelling them")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"simulation cells run concurrently per matrix; >= 1 (results do not depend on it)")
	workers := fs.Int("workers", 2, "matrices executed concurrently; >= 1")
	queue := fs.Int("queue", 16, "bounded job-queue depth; >= 1 (submissions beyond it get 429)")
	dataDir := fs.String("data-dir", "",
		"directory for the durable artifact store and job log (empty = in-memory only)")
	cacheBytes := fs.String("cache-bytes", "256MiB",
		"in-memory result-cache budget in artifact bytes, e.g. 64MiB or 1GiB (0 disables caching)")
	cacheTTL := fs.Duration("cache-ttl", 0,
		"expire cached artifacts (memory and disk) this long after computation (0 = never)")
	cellCacheBytes := fs.String("cell-cache-bytes", "0",
		"disk budget for the per-cell tier; GC evicts oldest cells beyond it (0 = unbounded)")
	tenantsFile := fs.String("tenants", "",
		"JSON tenant registry; when set, every request must carry a known bearer token (empty = anonymous, open access)")
	tenantsPoll := fs.Duration("tenants-poll", daemon.TenantsPoll,
		"with -tenants, how often the file's mtime is checked for a hot reload (0 disables polling; SIGHUP always reloads)")
	queuePolicy := fs.String("queue-policy", "fifo",
		"dequeue order for queued matrices: fifo, fair (weighted across tenants), or srpt (shortest estimated job first)")
	jobRetention := fs.Duration("job-retention", 24*time.Hour,
		"age terminal jobs out of the job table after this long (0 = keep forever)")
	gcInterval := fs.Duration("gc-interval", time.Minute,
		"how often the retention/TTL garbage collector sweeps")
	peerTimeout := fs.Duration("peer-timeout", 5*time.Second,
		"timeout per peer artifact or cell fetch when a gateway relocates keys here (a slow peer degrades to recomputation)")
	shardName := fs.String("shard-name", "",
		"shard name stamped on every log line, for fleets behind mrgated (empty = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sh.Start(logw); err != nil {
		return err
	}
	cacheBudget, err := parseBytes(*cacheBytes)
	if err != nil {
		return fmt.Errorf("-cache-bytes %q: %w", *cacheBytes, err)
	}
	cellBudget, err := parseBytes(*cellCacheBytes)
	if err != nil {
		return fmt.Errorf("-cell-cache-bytes %q: %w", *cellCacheBytes, err)
	}
	switch {
	case *parallel < 1:
		return fmt.Errorf("-parallel %d: need at least one worker", *parallel)
	case *workers < 1:
		return fmt.Errorf("-workers %d: need at least one worker", *workers)
	case *queue < 1:
		return fmt.Errorf("-queue %d: need at least one slot", *queue)
	case cacheBudget < 0:
		return fmt.Errorf("-cache-bytes %q: need >= 0", *cacheBytes)
	case cellBudget < 0:
		return fmt.Errorf("-cell-cache-bytes %q: need >= 0", *cellCacheBytes)
	case *cacheTTL < 0:
		return fmt.Errorf("-cache-ttl %s: need >= 0", *cacheTTL)
	case *jobRetention < 0:
		return fmt.Errorf("-job-retention %s: need >= 0", *jobRetention)
	case *gcInterval <= 0:
		return fmt.Errorf("-gc-interval %s: need > 0", *gcInterval)
	case *peerTimeout <= 0:
		return fmt.Errorf("-peer-timeout %s: need > 0", *peerTimeout)
	case *tenantsPoll < 0:
		return fmt.Errorf("-tenants-poll %s: need >= 0", *tenantsPoll)
	}
	policy, err := tenant.ParsePolicy(*queuePolicy)
	if err != nil {
		return fmt.Errorf("-queue-policy: %w", err)
	}
	registry, err := sh.LoadTenants(*tenantsFile, *tenantsPoll)
	if err != nil {
		return err
	}

	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheBytes:      cacheBudget,
		CacheTTL:        *cacheTTL,
		CellParallelism: *parallel,
		CellCacheBytes:  cellBudget,
		JobRetention:    *jobRetention,
		GCInterval:      *gcInterval,
		PeerTimeout:     *peerTimeout,
		Tenants:         registry,
		QueuePolicy:     policy,
		Logger:          sh.Logger,
		ShardName:       *shardName,
	}
	if cacheBudget == 0 {
		cfg.CacheBytes = -1 // Config treats 0 as "default"; negative disables.
	}
	if *jobRetention == 0 {
		cfg.JobRetention = -1 // keep terminal jobs forever
	}
	mode := "in-memory"
	if *dataDir != "" {
		st, err := store.Open(*dataDir)
		if err != nil {
			return err
		}
		cfg.Store = st // the service owns the store and closes it on drain
		mode = "data-dir " + *dataDir
	}
	svc := service.New(cfg)
	auth := "anonymous"
	if registry != nil {
		auth = fmt.Sprintf("%d tenants", registry.Len())
	}
	return sh.Serve(ctx, daemon.Daemon{
		Handler: svc.Handler(),
		Listening: fmt.Sprintf("workers=%d parallel=%d queue=%d policy=%s %s cache=%s ttl=%s %s",
			*workers, *parallel, *queue, policy, auth, *cacheBytes, *cacheTTL, mode),
		Attrs: []any{"workers", *workers, "parallel", *parallel, "queue", *queue, "policy", fmt.Sprint(policy),
			"auth", auth, "cache", *cacheBytes, "ttl", cacheTTL.String(), "mode", mode},
		Reload: svc.ReloadTenants,
		Drain:  svc.Close,
	})
}

// parseBytes parses a human-friendly byte size: a plain integer counts
// bytes; KiB/MiB/GiB — and their bare K/M/G shorthands — are powers of
// 1024, while KB/MB/GB are powers of 1000. Case-insensitive.
func parseBytes(s string) (int64, error) {
	in := strings.TrimSpace(strings.ToLower(s))
	unit := int64(1)
	for _, u := range []struct {
		suffix string
		factor int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"kb", 1000}, {"mb", 1000 * 1000}, {"gb", 1000 * 1000 * 1000},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(in, u.suffix) {
			in = strings.TrimSpace(strings.TrimSuffix(in, u.suffix))
			unit = u.factor
			break
		}
	}
	n, err := strconv.ParseInt(in, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("want an integer with an optional KiB/MiB/GiB suffix: %w", err)
	}
	if n < 0 {
		return -1, nil
	}
	const maxBudget = int64(1) << 50
	if n > maxBudget/unit {
		return 0, fmt.Errorf("size overflows")
	}
	return n * unit, nil
}
