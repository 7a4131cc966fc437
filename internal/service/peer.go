package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"mrclone/internal/store"
)

// Peer artifact fetch: when a gateway membership change relocates a spec
// hash to a new owner shard, the gateway stamps the submission with the
// previous owner's base URL (PeerHeader). A shard that misses its own disk
// store for such a submission first asks that peer for the already-computed
// artifacts — GET /v1/peer/artifacts/{hash}, and per cell
// /v1/peer/cells/{hash} for the cell tier — verifies every byte against the
// checksums it computes itself, installs the result through the store's
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

// peerArtifactsWire is the /v1/peer/artifacts/{hash} payload: the three
// artifact renderings (base64 over JSON) plus per-part SHA-256 sums. The
// receiver recomputes every sum over the bytes it actually received and
// compares — transport truncation or corruption is rejected before any disk
// write happens.
type peerArtifactsWire struct {
	Hash         string            `json:"hash"`
	Cells        int               `json:"cells"`
	CreatedAtMs  int64             `json:"created_at_ms"`
	JSON         []byte            `json:"json"`
	CSV          []byte            `json:"csv"`
	AggregateCSV []byte            `json:"aggregate_csv"`
	Sums         map[string]string `json:"sums"`
}

// peerCellWire is the /v1/peer/cells/{hash} payload, mirroring the store's
// cell record envelope: size and SHA-256 over the canonical cell payload.
type peerCellWire struct {
	Hash        string          `json:"hash"`
	CreatedAtMs int64           `json:"created_at_ms"`
	Size        int64           `json:"size"`
	SHA256      string          `json:"sha256"`
	Payload     json.RawMessage `json:"payload"`
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// handlePeerArtifacts serves one stored artifact entry to a peer shard.
func (s *Service) handlePeerArtifacts(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if s.storeHandle == nil {
		WriteError(w, http.StatusNotFound, errors.New("service: no artifact store"))
		return
	}
	art, err := s.storeHandle.GetArtifacts(hash)
	if err != nil {
		s.peerReadFailed(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, peerArtifactsWire{
		Hash:         art.Hash,
		Cells:        art.Cells,
		CreatedAtMs:  art.CreatedAt.UnixMilli(),
		JSON:         art.JSON,
		CSV:          art.CSV,
		AggregateCSV: art.AggregateCSV,
		Sums: map[string]string{
			"json":          sha256Hex(art.JSON),
			"csv":           sha256Hex(art.CSV),
			"aggregate_csv": sha256Hex(art.AggregateCSV),
		},
	})
}

// handlePeerCells serves one stored cell record to a peer shard. The
// envelope checksum must hold over the bytes as transmitted, so the payload
// is compacted first (JSON encoders are free to reflow embedded raw
// messages) and the declared size and SHA-256 are computed over that exact
// form, which writeJSONCompact then emits verbatim.
func (s *Service) handlePeerCells(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if s.storeHandle == nil {
		WriteError(w, http.StatusNotFound, errors.New("service: no artifact store"))
		return
	}
	cell, err := s.storeHandle.GetCell(hash)
	if err != nil {
		s.peerReadFailed(w, err)
		return
	}
	payload := cell.Payload
	var compacted bytes.Buffer
	if cerr := json.Compact(&compacted, cell.Payload); cerr == nil {
		payload = compacted.Bytes()
	}
	writeJSONCompact(w, http.StatusOK, peerCellWire{
		Hash:        cell.Hash,
		CreatedAtMs: cell.CreatedAt.UnixMilli(),
		Size:        int64(len(payload)),
		SHA256:      sha256Hex(payload),
		Payload:     json.RawMessage(payload),
	})
}

// peerReadFailed answers a peer route whose store read failed. Misses,
// corrupt entries (already moved aside by the store) and I/O errors are all
// 404 — the fetching side falls back to recomputation either way — but the
// latter two are counted.
func (s *Service) peerReadFailed(w http.ResponseWriter, err error) {
	s.mu.Lock()
	s.countStoreErr(err)
	s.mu.Unlock()
	WriteError(w, http.StatusNotFound, err)
}

// writeJSONCompact writes a peer response without re-indentation: embedded
// raw payloads must cross the wire byte-exact so the receiver's recomputed
// checksums can match the declared ones.
func writeJSONCompact(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// peerGet fetches one peer route under the peer timeout and the response
// size cap.
func (s *Service) peerGet(ctx context.Context, base, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(base, "/")+path, nil)
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

// fetchPeerArtifacts asks the peer for the artifacts of hash and verifies
// them. The returned entry is ready for store.PutArtifacts; any error means
// the caller should recompute.
func (s *Service) fetchPeerArtifacts(ctx context.Context, peer, hash string) (store.Artifacts, error) {
	if !validPeerURL(peer) {
		return store.Artifacts{}, fmt.Errorf("invalid peer URL %q", peer)
	}
	data, err := s.peerGet(ctx, peer, "/v1/peer/artifacts/"+hash)
	if err != nil {
		return store.Artifacts{}, err
	}
	return decodePeerArtifacts(hash, data)
}

// decodePeerArtifacts decodes and verifies one peer artifact response
// against the hash the caller asked for: the envelope must name that hash,
// and every part's SHA-256 — recomputed here over the received bytes — must
// match the declared sum. On success the entry is exactly what the peer's
// disk holds; any mismatch is an error and nothing is installed. Factored
// from the fetch path so it can be fuzzed directly against malformed
// payloads.
func decodePeerArtifacts(hash string, data []byte) (store.Artifacts, error) {
	var wire peerArtifactsWire
	if err := json.Unmarshal(data, &wire); err != nil {
		return store.Artifacts{}, fmt.Errorf("undecodable peer artifacts: %w", err)
	}
	if wire.Hash != hash {
		return store.Artifacts{}, fmt.Errorf("peer artifacts name hash %.12s…, want %.12s…", wire.Hash, hash)
	}
	if wire.Cells < 0 {
		return store.Artifacts{}, fmt.Errorf("peer artifacts carry negative cell count %d", wire.Cells)
	}
	for _, part := range []struct {
		name string
		data []byte
	}{
		{"json", wire.JSON},
		{"csv", wire.CSV},
		{"aggregate_csv", wire.AggregateCSV},
	} {
		want, ok := wire.Sums[part.name]
		if !ok {
			return store.Artifacts{}, fmt.Errorf("peer artifacts missing %s checksum", part.name)
		}
		if got := sha256Hex(part.data); got != want {
			return store.Artifacts{}, fmt.Errorf("peer artifacts %s checksum mismatch", part.name)
		}
	}
	return store.Artifacts{
		Hash:         hash,
		JSON:         wire.JSON,
		CSV:          wire.CSV,
		AggregateCSV: wire.AggregateCSV,
		Cells:        wire.Cells,
		CreatedAt:    time.UnixMilli(wire.CreatedAtMs),
	}, nil
}

// fetchPeerCell asks the peer for one cell payload and verifies it; the
// returned bytes are the canonical cell payload, ready for store.PutCell.
func (s *Service) fetchPeerCell(ctx context.Context, peer, hash string) ([]byte, error) {
	if !validPeerURL(peer) {
		return nil, fmt.Errorf("invalid peer URL %q", peer)
	}
	data, err := s.peerGet(ctx, peer, "/v1/peer/cells/"+hash)
	if err != nil {
		return nil, err
	}
	return decodePeerCell(hash, data)
}

// decodePeerCell decodes and verifies one peer cell response: the envelope
// must name the requested hash and the payload must match its declared size
// and SHA-256, recomputed over the received bytes.
func decodePeerCell(hash string, data []byte) ([]byte, error) {
	var wire peerCellWire
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("undecodable peer cell: %w", err)
	}
	if wire.Hash != hash {
		return nil, fmt.Errorf("peer cell names hash %.12s…, want %.12s…", wire.Hash, hash)
	}
	if int64(len(wire.Payload)) != wire.Size || sha256Hex(wire.Payload) != wire.SHA256 {
		return nil, errors.New("peer cell checksum mismatch")
	}
	return []byte(wire.Payload), nil
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
