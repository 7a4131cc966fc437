package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"mrclone/internal/obs"
	"mrclone/internal/ring"
	"mrclone/internal/service"
)

// poolView is one immutable snapshot of the pool: the member set, the
// routing ring built over it, and the ring as it stood before the latest
// membership change. Readers load it atomically and never see a half-applied
// update; writers (ApplyPoolUpdate, serialized by poolMu) publish a fresh
// snapshot.
type poolView struct {
	shards map[string]Shard
	order  []Shard // display order: config order, updates appended
	ring   *ring.Ring
	// prev is the routing ring before the most recent membership change, nil
	// until one happens. It answers "who owned this hash before the pool
	// changed?" — the peer-fetch hint that lets a shard receiving relocated
	// keys pull already-computed artifacts instead of recomputing them.
	prev *ring.Ring
}

// peerHint resolves the previous ring owner of hash: the shard most likely
// to hold its artifacts from before the latest membership change. It returns
// the empty strings when there is no previous membership or the previous
// owner has left the pool (nothing to dial).
func (v *poolView) peerHint(hash string) (name, baseURL string) {
	if v.prev == nil {
		return "", ""
	}
	owner := v.prev.Lookup(hash)
	sh, ok := v.shards[owner]
	if !ok {
		return "", ""
	}
	return owner, sh.URL.String()
}

// currentView loads the pool snapshot requests route against.
func (g *Gateway) currentView() *poolView { return g.view.Load() }

// breakerFor returns the shard's circuit breaker, or nil for a shard that
// has left the pool (its breaker is dropped with it).
func (g *Gateway) breakerFor(name string) *breaker {
	g.brMu.Lock()
	defer g.brMu.Unlock()
	return g.breakers[name]
}

// newShardBreaker builds one shard's breaker, wired to log every transition
// through the gateway's structured logger.
func (g *Gateway) newShardBreaker(name string) *breaker {
	return newBreaker(g.breakerFailures, g.breakerCooldown, nil, func(from, to breakerState) {
		g.log.Info("breaker transition",
			obs.KeyShard, name, "from", from.String(), "to", to.String())
	})
}

// ShardConfig is the wire form of one pool member in admin requests and
// responses.
type ShardConfig struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// PoolUpdate is the body of POST /v1/pool/shards: members to add and member
// names to remove, applied as one atomic membership change.
type PoolUpdate struct {
	Add    []ShardConfig `json:"add,omitempty"`
	Remove []string      `json:"remove,omitempty"`
}

// PoolStatus describes the pool after an update: the member list in display
// order and the resulting routing ring.
type PoolStatus struct {
	Shards []ShardConfig `json:"shards"`
	Ring   string        `json:"ring"`
}

// ApplyPoolUpdate applies one membership change: adds are validated like
// New validates the initial pool and join the routing ring; removed shards
// leave it (their breakers are dropped; in-flight requests to them finish).
// The change is atomic — a request routes against the old snapshot or the
// new one, never a mix — and the pre-change ring is retained as the
// peer-fetch hint source, so submissions relocated by this change carry a
// pointer to their previous owner. Adding an existing name, removing an
// unknown one, or emptying the pool is an error and leaves the pool
// untouched.
func (g *Gateway) ApplyPoolUpdate(upd PoolUpdate) (PoolStatus, error) {
	g.poolMu.Lock()
	defer g.poolMu.Unlock()
	view := g.currentView()

	added := make([]Shard, 0, len(upd.Add))
	for _, sc := range upd.Add {
		u, err := url.Parse(sc.URL)
		if err != nil {
			return PoolStatus{}, fmt.Errorf("gateway: shard %s: %w", sc.Name, err)
		}
		sh := Shard{Name: sc.Name, URL: u}
		if err := validateShard(sh); err != nil {
			return PoolStatus{}, err
		}
		added = append(added, sh)
	}

	// The ring's own delta methods carry the rest of the validation:
	// duplicate adds, unknown removals, and emptying the pool all fail there
	// before anything is published. Adds apply first so a full replacement
	// (add the new generation, remove the old) is a single update.
	next := view.ring
	var err error
	if len(added) > 0 {
		names := make([]string, len(added))
		for i, sh := range added {
			names[i] = sh.Name
		}
		if next, err = next.With(names...); err != nil {
			return PoolStatus{}, err
		}
	}
	if len(upd.Remove) > 0 {
		if next, err = next.Without(upd.Remove...); err != nil {
			return PoolStatus{}, err
		}
	}

	removed := make(map[string]bool, len(upd.Remove))
	for _, name := range upd.Remove {
		removed[name] = true
	}
	shards := make(map[string]Shard, next.Len())
	order := make([]Shard, 0, next.Len())
	for _, sh := range view.order {
		if !removed[sh.Name] {
			shards[sh.Name] = sh
			order = append(order, sh)
		}
	}
	for _, sh := range added {
		shards[sh.Name] = sh
		order = append(order, sh)
	}

	g.brMu.Lock()
	for name := range removed {
		delete(g.breakers, name)
	}
	for _, sh := range added {
		g.breakers[sh.Name] = g.newShardBreaker(sh.Name)
	}
	g.brMu.Unlock()

	g.view.Store(&poolView{shards: shards, order: order, ring: next, prev: view.ring})
	g.log.Info("pool membership changed",
		"added", len(added), "removed", len(upd.Remove), "ring", next.String())
	return poolStatus(order, next), nil
}

func poolStatus(order []Shard, r *ring.Ring) PoolStatus {
	st := PoolStatus{Ring: r.String(), Shards: make([]ShardConfig, 0, len(order))}
	for _, sh := range order {
		st.Shards = append(st.Shards, ShardConfig{Name: sh.Name, URL: sh.URL.String()})
	}
	return st
}

// handlePoolUpdate is the admin route (POST /v1/pool/shards), registered
// only with Config.EnableAdmin. It carries no tenant authentication — the
// expectation is a trusted operator network, see docs/OPERATIONS.md.
func (g *Gateway) handlePoolUpdate(w http.ResponseWriter, r *http.Request) {
	var upd PoolUpdate
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&upd); err != nil {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("gateway: decode pool update: %w", err))
		return
	}
	if len(upd.Add) == 0 && len(upd.Remove) == 0 {
		service.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("gateway: pool update adds and removes nothing"))
		return
	}
	st, err := g.ApplyPoolUpdate(upd)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, st)
}

// probeLoop drives the background health probes: every interval, each pool
// member's /healthz is fetched concurrently (over the probe client, never
// the request client) and the outcome feeds its circuit breaker. This is
// what turns a dead shard from "one failed dial per routed request" into
// "zero request-path dials within a probe interval or a failure threshold,
// whichever trips first" — and what snaps a recovered shard's breaker
// closed without waiting out a cooldown.
func (g *Gateway) probeLoop(interval time.Duration) {
	defer close(g.probeDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stopCh:
			return
		case <-ticker.C:
			g.probePool(context.Background())
		}
	}
}

// probePool runs one concurrent probe round over the current membership.
func (g *Gateway) probePool(ctx context.Context) {
	eachShard(g.currentView().order, func(_ int, sh Shard) { g.probeHealth(ctx, sh) })
}

// Close stops the background probe loop and waits for it to exit. The
// gateway keeps serving requests (it owns no listener); Close exists so
// embedders and tests do not leak the prober. Safe to call more than once.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() { close(g.stopCh) })
	<-g.probeDone
}
