package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"mrclone/internal/obs"
	"mrclone/internal/store"
)

// Peer fetch: when a gateway membership change relocates a spec hash to a
// new owner shard, the gateway stamps the submission with the previous
// owner's base URL (PeerHeader). A shard that misses its own disk store for
// such a submission first asks that peer for the already-computed artifacts
// — GET /v1/peer/artifacts/{hash}, and per cell /v1/peer/cells/{hash} for
// the cell tier. A peer answers with the store's own record of the entry
// (store.EncodeArtifacts, store.EncodeCell); the fetching shard checks it
// with the store's own reader (store.DecodeArtifacts, store.DecodeCell), the
// check the store runs on its disk, installs it through the store's
// crash-atomic write path, and only then completes the job as a cache hit.
// Any miss, transport failure, or verification mismatch falls back to
// recomputation: the deterministic runner makes recompute and fetch
// byte-equivalent, so peer fetch is purely an optimization and never a
// correctness dependency.
//
// The peer routes are an internal shard-to-shard surface: they bypass tenant
// authentication (shards hold no tenant tokens for each other) and serve
// only content-addressed reads, so the worst a caller can do is read bytes
// it could compute itself from the public API.

// PeerHeader names the request header carrying the previous ring owner's
// base URL on submissions relocated by a pool membership change. Exported
// for the gateway tier, which stamps it.
const PeerHeader = "X-Mrclone-Peer"

// maxPeerFetchBytes caps a peer response body. Artifacts of the largest
// accepted specs stay well under this; anything bigger is a broken or
// hostile peer.
const maxPeerFetchBytes = 256 << 20

type peerCtxKey struct{}

// ContextWithPeer attaches a peer base URL (the previous ring owner of the
// submission's spec hash) for submit to consult on a disk miss.
func ContextWithPeer(ctx context.Context, baseURL string) context.Context {
	return context.WithValue(ctx, peerCtxKey{}, baseURL)
}

// peerFrom returns the peer hint attached by ContextWithPeer, or "".
func peerFrom(ctx context.Context) string {
	s, _ := ctx.Value(peerCtxKey{}).(string)
	return s
}

// validPeerURL accepts only an absolute http(s) base URL — the same shape
// the gateway validates for shard URLs — so a forged header cannot steer
// fetches at arbitrary schemes.
func validPeerURL(raw string) bool {
	u, err := url.Parse(raw)
	return err == nil && (u.Scheme == "http" || u.Scheme == "https") && u.Host != ""
}

// peerRoute serves one stored record of a tier to a peer shard: get reads
// and verifies the entry and encode renders its record, which goes out
// verbatim as application/octet-stream (an artifact record is a manifest
// line followed by raw parts, not one JSON document). Misses, corrupt
// entries (already moved aside by the store) and I/O errors are all 404 —
// the fetching side falls back to recomputation either way — but the
// latter two are counted.
func peerRoute[T any](s *Service, get func(*store.Store, string) (T, error), encode func(T) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.storeHandle == nil {
			WriteError(w, http.StatusNotFound, errors.New("service: no artifact store"))
			return
		}
		entry, err := get(s.storeHandle, r.PathValue("hash"))
		var rec []byte
		if err == nil {
			rec, err = encode(entry)
		}
		if err != nil {
			s.mu.Lock()
			s.countStoreErr(err)
			s.mu.Unlock()
			WriteError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(rec)
	}
}

// fetchPeer fetches one peer route under the peer timeout and the response
// size cap. The body is unverified: the caller decodes it with the store's
// reader for its tier.
func (s *Service) fetchPeer(ctx context.Context, peer, path string) ([]byte, error) {
	if !validPeerURL(peer) {
		return nil, fmt.Errorf("invalid peer URL %q", peer)
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(peer, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer answered HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerFetchBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxPeerFetchBytes {
		return nil, fmt.Errorf("peer response exceeds %d bytes", maxPeerFetchBytes)
	}
	return data, nil
}

// peerArtifacts adopts the previous ring owner's result record for hash:
// the fetched record passes the store's own check (store.DecodeArtifacts)
// before the crash-atomic install, and only then is it returned. Any
// failure is counted and logged as a peer miss and returns nil.
func (s *Service) peerArtifacts(ctx context.Context, peer, hash string) *CachedResult {
	data, err := s.fetchPeer(ctx, peer, "/v1/peer/artifacts/"+hash)
	var art store.Artifacts
	if err == nil {
		art, err = store.DecodeArtifacts(hash, data)
	}
	if err == nil {
		err = s.storeHandle.PutArtifacts(art)
	}
	if err != nil {
		s.countPeerFetch(false, 0)
		s.obsv.log.Warn("peer fetch missed",
			obs.KeySpec, obs.SpecPrefix(hash), "peer", peer, "error", err.Error())
		return nil
	}
	s.countPeerFetch(true, int64(len(art.JSON)+len(art.CSV)+len(art.AggregateCSV)))
	return &art
}

// countPeerFetch records one peer fetch outcome: a verified install (with
// its payload bytes) or a miss/verification failure that fell back to
// recomputation.
func (s *Service) countPeerFetch(hit bool, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hit {
		s.m.PeerFetchHits++
		s.m.PeerFetchBytes += bytes
		return
	}
	s.m.PeerFetchMisses++
}
