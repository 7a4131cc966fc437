package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"mrclone/internal/runner"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
)

// flightCellCache adapts the store's cells/ tier to runner.CellCache for one
// flight. Coordinates are translated to content addresses by the flight's
// CellHasher, so a cell computed by any earlier matrix — same workload,
// scheduler row, point, and derived seed — resolves here regardless of where
// it sat in that matrix. A flight carrying a peer hint (its hash was
// relocated by a pool membership change) also asks the previous ring owner
// for each cell the local store misses: the fetched record passes the
// store's own check (store.DecodeCell), is installed through the store's
// crash-atomic cell write path, and only then served as a hit. Lookup and
// Publish run on runner worker goroutines; the store is safe for concurrent
// use, and counter updates take Service.mu briefly per cell.
//
// Every path degrades to recomputation: a missing, corrupt, or undecodable
// record is a miss, so is any peer failure (transport, 404, verification),
// and a failed Publish only costs the next matrix a rerun of that cell.
// Neither can fail the flight.
type flightCellCache struct {
	svc    *Service
	hasher *spec.CellHasher
	peer   string          // previous ring owner's base URL; "" without a hint
	ctx    context.Context // flight context: cancelling the flight stops peer fetches
}

// Lookup resolves cell (si, pi, run) from the cells tier, then from the peer.
func (c *flightCellCache) Lookup(si, pi, run int) (runner.CellPayload, bool) {
	p, err := readCell(c.svc.storeHandle, c.hasher, si, pi, run)
	c.svc.mu.Lock()
	if err != nil {
		c.svc.m.CellMisses++
		c.svc.countStoreErr(err)
	} else {
		c.svc.m.CellHits++
	}
	c.svc.mu.Unlock()
	if err == nil || c.peer == "" {
		return p, err == nil
	}
	hash, err := c.hasher.Hash(si, pi, run)
	if err != nil {
		return runner.CellPayload{}, false
	}
	data, err := c.svc.fetchPeer(c.ctx, c.peer, "/v1/peer/cells/"+hash)
	var cell store.Cell
	if err == nil {
		cell, err = store.DecodeCell(hash, data)
	}
	// A fresh payload: readCell may have left p partly decoded from a
	// damaged local record.
	var fetched runner.CellPayload
	if err == nil {
		err = json.Unmarshal(cell.Payload, &fetched)
	}
	if err != nil {
		c.svc.countPeerFetch(false, 0)
		return runner.CellPayload{}, false
	}
	// Install locally so the next matrix sharing this cell finds it without
	// a network hop; a failed install only costs that future lookup.
	_ = c.svc.storeHandle.PutCell(store.Cell{Hash: hash, Payload: cell.Payload, CreatedAt: time.Now()})
	c.svc.countPeerFetch(true, int64(len(cell.Payload)))
	return fetched, true
}

// Publish stores a freshly computed cell payload under its content address.
func (c *flightCellCache) Publish(si, pi, run int, p runner.CellPayload) {
	hash, err := c.hasher.Hash(si, pi, run)
	if err != nil {
		return
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return
	}
	err = c.svc.storeHandle.PutCell(store.Cell{
		Hash:      hash,
		Payload:   payload,
		CreatedAt: time.Now(),
	})
	c.svc.mu.Lock()
	defer c.svc.mu.Unlock()
	if err != nil {
		c.svc.countStoreErr(err)
		return
	}
	c.svc.m.CellBytes += int64(len(payload))
}

// readCell loads and decodes cell (si, pi, run) from the cells tier. A
// coordinate that cannot be hashed (unreachable for a flight built from a
// validated spec) reads as a miss. A record whose envelope checksum held
// but whose payload is not a cell payload — a foreign or damaged write — is
// dropped so it cannot miss again, and reported as a store error.
func readCell(st *store.Store, h *spec.CellHasher, si, pi, run int) (runner.CellPayload, error) {
	var p runner.CellPayload
	hash, err := h.Hash(si, pi, run)
	if err != nil {
		return p, fmt.Errorf("%w: %v", store.ErrNotFound, err)
	}
	cell, err := st.GetCell(hash)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(cell.Payload, &p); err != nil {
		_ = st.DeleteCell(hash)
		return p, fmt.Errorf("service: cell %.12s: %w", hash, err)
	}
	return p, nil
}

// cellCacheFor builds the runner cell-cache hook for one flight, or nil
// without a store. A spec that cannot be hashed (unreachable for specs that
// passed Submit validation) runs uncached rather than failing.
func (s *Service) cellCacheFor(fl *flight) runner.CellCache {
	if s.storeHandle == nil {
		return nil
	}
	h, err := fl.sp.CellHasher()
	if err != nil {
		return nil
	}
	return &flightCellCache{svc: s, hasher: h, peer: fl.peer, ctx: fl.ctx}
}

// probeCellCache is the silent cousin of flightCellCache used by assemble:
// lookups leave the hit-rate counters alone (a probe that aborts on its
// first miss would otherwise skew them) and Publish is a no-op — every cell
// it reads is already persisted.
type probeCellCache struct {
	st     *store.Store
	hasher *spec.CellHasher
}

func (c *probeCellCache) Lookup(si, pi, run int) (runner.CellPayload, bool) {
	p, err := readCell(c.st, c.hasher, si, pi, run)
	return p, err == nil
}

func (c *probeCellCache) Publish(si, pi, run int, p runner.CellPayload) {}

// assemble builds a matrix's result from the cells tier when every one of
// its cells is persisted, and persists it before returning, by the rule
// runFlight follows: once a client sees done, a crash must not lose the
// artifact it was promised. A cell that is missing or unreadable, like a
// result that does not encode, is a miss (nil), and the matrix then runs
// as a flight. The write's error is returned for the store counters. Runs
// off the lock.
func (s *Service) assemble(hash string, norm spec.Spec) (*CachedResult, error) {
	h, err := norm.CellHasher()
	if err != nil {
		return nil, nil
	}
	axes, err := norm.Axes()
	if err != nil {
		return nil, nil
	}
	res, ok := runner.Assemble(axes, &probeCellCache{st: s.storeHandle, hasher: h})
	if !ok {
		return nil, nil
	}
	cached, err := encodeResult(hash, res)
	if err != nil {
		return nil, nil
	}
	return cached, s.storeHandle.PutArtifacts(*cached)
}
