package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mrclone/internal/service/spec"
	"mrclone/internal/store"
)

// assertQuarantineEmpty fails the test if the store's quarantine directory
// holds anything: peer verification must reject bad bytes before any disk
// write, so a hostile peer can never populate the local quarantine.
func assertQuarantineEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		if os.IsNotExist(err) {
			return
		}
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("quarantine holds %d entries after a rejected peer fetch, want none", len(entries))
	}
}

// peerCtx attaches a peer base URL the way the HTTP layer does for a
// relocated submission.
func peerCtx(base string) context.Context {
	return ContextWithPeer(context.Background(), base)
}

// TestPeerFetchAdoptsRelocatedArtifacts is the happy path: a shard that
// misses its disk for a peer-hinted submission pulls the verified artifacts
// from the previous owner, installs them, and completes the job as a cache
// hit — zero flights, byte-identical artifacts.
func TestPeerFetchAdoptsRelocatedArtifacts(t *testing.T) {
	sp := overlapSpec([]spec.Point{pointA})
	want := coldArtifacts(t, sp)

	owner := New(Config{Workers: 1, Store: openTestStore(t, t.TempDir()), GCInterval: -1})
	defer closeService(t, owner)
	st, err := owner.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, owner, st.ID, StateDone)
	peerSrv := httptest.NewServer(owner.Handler())
	defer peerSrv.Close()

	dirB := t.TempDir()
	adopter := New(Config{Workers: 1, Store: openTestStore(t, dirB), GCInterval: -1})
	defer closeService(t, adopter)
	st2, err := adopter.SubmitContext(peerCtx(peerSrv.URL), sp)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("peer-hinted submission = %+v, want done and cached on arrival", st2)
	}
	res, err := adopter.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, res, want, "peer-fetched matrix")

	m := adopter.Metrics()
	if m.Flights != 0 {
		t.Errorf("adopter ran %d flights, want 0 (peer fetch, not recompute)", m.Flights)
	}
	if m.PeerFetchHits != 1 || m.PeerFetchMisses != 0 {
		t.Errorf("peer fetch hits/misses = %d/%d, want 1/0", m.PeerFetchHits, m.PeerFetchMisses)
	}
	if m.PeerFetchBytes <= 0 {
		t.Errorf("peer fetch bytes = %d, want > 0", m.PeerFetchBytes)
	}
	if m.DiskHits != 0 {
		t.Errorf("peer adoption counted %d disk hits, want 0 (separate counters)", m.DiskHits)
	}
	// The install went through the normal write path: a plain resubmission
	// now completes from the local tier without touching the peer.
	peerSrv.Close()
	st3, err := adopter.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != StateDone || !st3.Cached {
		t.Fatalf("post-install resubmission = %+v, want done and cached locally", st3)
	}
}

// TestPeerCellFetchCoversOverlap: when the peer lacks the artifact itself
// (it never ran this exact matrix) the flight still executes, but the cell
// tier consults the peer per cell — the overlap arrives over the wire, only
// the disjoint cells simulate, and the artifact matches a cold run.
func TestPeerCellFetchCoversOverlap(t *testing.T) {
	owner := New(Config{Workers: 1, Store: openTestStore(t, t.TempDir()), GCInterval: -1})
	defer closeService(t, owner)
	stA, err := owner.Submit(overlapSpec([]spec.Point{pointA, pointB})) // 4 cells
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, owner, stA.ID, StateDone)
	peerSrv := httptest.NewServer(owner.Handler())
	defer peerSrv.Close()

	adopter := New(Config{Workers: 1, Store: openTestStore(t, t.TempDir()), GCInterval: -1})
	defer closeService(t, adopter)
	matrixB := overlapSpec([]spec.Point{pointB, pointC}) // 4 cells, 2 shared
	stB, err := adopter.SubmitContext(peerCtx(peerSrv.URL), matrixB)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, adopter, stB.ID, StateDone)
	if final.CachedCells != 2 {
		t.Errorf("peer-hinted matrix reports %d cached cells, want the overlap (2)", final.CachedCells)
	}
	res, err := adopter.Result(stB.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, res, coldArtifacts(t, matrixB), "peer-cell matrix")

	m := adopter.Metrics()
	if m.Flights != 1 {
		t.Errorf("adopter ran %d flights, want 1", m.Flights)
	}
	if m.PeerFetchHits != 2 {
		t.Errorf("peer cell hits = %d, want 2 (the overlap)", m.PeerFetchHits)
	}
	// The artifact probe missed on the peer (it never ran matrix B), and the
	// two disjoint cells missed too.
	if m.PeerFetchMisses < 1 {
		t.Errorf("peer fetch misses = %d, want >= 1 (the artifact probe)", m.PeerFetchMisses)
	}
}

// editRecord decodes a JSON object into its top-level fields, lets edit
// change them, and encodes it again: the way the corruption suites build a
// damaged or foreign peer answer from a good one.
func editRecord(t *testing.T, rec []byte, edit func(fields map[string]json.RawMessage)) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(rec, &fields); err != nil {
		t.Fatal(err)
	}
	edit(fields)
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPeerFetchRejectsCorruptArtifacts is the corruption satellite: a peer
// serving truncated, bit-flipped, or mislabeled artifact records, or the
// answer of an older build, must be rejected by the store's record check
// before anything touches disk — the local quarantine stays empty (nothing
// was installed to quarantine), the job falls back to recomputation, and
// the recomputed artifact is byte-identical to the ground truth.
func TestPeerFetchRejectsCorruptArtifacts(t *testing.T) {
	sp := overlapSpec([]spec.Point{pointA})
	want := coldArtifacts(t, sp)
	rec, err := store.EncodeArtifacts(*want)
	if err != nil {
		t.Fatal(err)
	}
	manifest, parts, _ := bytes.Cut(rec, []byte{'\n'})
	withManifest := func(line []byte) []byte {
		return append(append(line, '\n'), parts...)
	}
	for _, tc := range []struct {
		name string
		body func(t *testing.T) []byte
	}{
		{"truncated", func(t *testing.T) []byte {
			return rec[:len(rec)/2]
		}},
		{"bit-flipped-part", func(t *testing.T) []byte {
			// The good manifest over a flipped matrix.json byte: its
			// checksum no longer matches.
			b := bytes.Clone(rec)
			b[len(manifest)+1+len(want.JSON)/2] ^= 0x40
			return b
		}},
		{"foreign-hash", func(t *testing.T) []byte {
			return withManifest(editRecord(t, manifest, func(f map[string]json.RawMessage) {
				f["hash"] = json.RawMessage(`"deadbeefdeadbeefdeadbeefdeadbeef"`)
			}))
		}},
		{"missing-sum", func(t *testing.T) []byte {
			return withManifest(editRecord(t, manifest, func(f map[string]json.RawMessage) {
				f["files"] = editRecord(t, f["files"], func(files map[string]json.RawMessage) {
					delete(files, "cells.csv")
				})
			}))
		}},
		{"pre-change-wire", func(t *testing.T) []byte {
			// The answer of a build before peers exchanged store records:
			// the parts under their own names and a "sums" map of SHA-256s,
			// taken here from the manifest's checksums.
			var m struct {
				Files map[string]struct {
					SHA256 string `json:"sha256"`
				} `json:"files"`
			}
			if err := json.Unmarshal(manifest, &m); err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(map[string]any{
				"hash":          want.Hash,
				"cells":         want.Cells,
				"created_at_ms": want.CreatedAt.UnixMilli(),
				"json":          want.JSON,
				"csv":           want.CSV,
				"aggregate_csv": want.AggregateCSV,
				"sums": map[string]string{
					"json":          m.Files["matrix.json"].SHA256,
					"csv":           m.Files["cells.csv"].SHA256,
					"aggregate_csv": m.Files["aggregate.csv"].SHA256,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"previous-release-record", func(t *testing.T) []byte {
			// The record of the release before this layout: the manifest's
			// fields plus a "parts" map of the three files (base64), as
			// one JSON document.
			return editRecord(t, manifest, func(f map[string]json.RawMessage) {
				b, err := json.Marshal(map[string][]byte{
					"matrix.json": want.JSON, "cells.csv": want.CSV, "aggregate.csv": want.AggregateCSV,
				})
				if err != nil {
					t.Fatal(err)
				}
				f["parts"] = b
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.body(t)
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if bytes.Contains([]byte(r.URL.Path), []byte("/v1/peer/artifacts/")) {
					w.Header().Set("Content-Type", "application/octet-stream")
					_, _ = w.Write(body)
					return
				}
				http.NotFound(w, r)
			}))
			defer fake.Close()

			dir := t.TempDir()
			svc := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
			defer closeService(t, svc)
			st, err := svc.SubmitContext(peerCtx(fake.URL), sp)
			if err != nil {
				t.Fatal(err)
			}
			final := waitState(t, svc, st.ID, StateDone)
			if final.Cached {
				t.Error("corrupt peer bytes were served as a cache hit")
			}
			res, err := svc.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			sameArtifacts(t, res, want, "recomputed after corrupt peer")

			m := svc.Metrics()
			if m.Flights != 1 {
				t.Errorf("flights = %d, want 1 (fallback to recomputation)", m.Flights)
			}
			if m.PeerFetchHits != 0 {
				t.Errorf("peer fetch hits = %d, want 0 — corrupt bytes must never verify", m.PeerFetchHits)
			}
			if m.PeerFetchMisses < 1 {
				t.Errorf("peer fetch misses = %d, want >= 1", m.PeerFetchMisses)
			}
			assertQuarantineEmpty(t, dir)
		})
	}
}

// TestPeerCellFetchRejectsCorruptCells: the per-cell wire has the same
// verify-before-install rule — a peer serving cell records whose payload
// does not match its declared checksum contributes nothing, every cell
// recomputes, and the quarantine stays empty.
func TestPeerCellFetchRejectsCorruptCells(t *testing.T) {
	sp := overlapSpec([]spec.Point{pointA}) // 2 cells
	want := coldArtifacts(t, sp)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hash := filepath.Base(r.URL.Path)
		if !bytes.Contains([]byte(r.URL.Path), []byte("/v1/peer/cells/")) {
			http.NotFound(w, r) // no artifact entry: force the cell path
			return
		}
		rec, err := store.EncodeCell(store.Cell{Hash: hash, Payload: []byte(`{"looks":"plausible"}`)})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Same size, other bytes: the declared checksum no longer holds.
		rec = bytes.Replace(rec, []byte("plausible"), []byte("different"), 1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(rec)
	}))
	defer fake.Close()

	dir := t.TempDir()
	svc := New(Config{Workers: 1, Store: openTestStore(t, dir), GCInterval: -1})
	defer closeService(t, svc)
	st, err := svc.SubmitContext(peerCtx(fake.URL), sp)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, svc, st.ID, StateDone)
	if final.CachedCells != 0 {
		t.Errorf("corrupt peer cells counted as %d cached cells, want 0", final.CachedCells)
	}
	res, err := svc.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, res, want, "recomputed after corrupt peer cells")

	m := svc.Metrics()
	if m.PeerFetchHits != 0 {
		t.Errorf("peer fetch hits = %d, want 0", m.PeerFetchHits)
	}
	if m.PeerFetchMisses < 3 { // artifact probe + both cells
		t.Errorf("peer fetch misses = %d, want >= 3", m.PeerFetchMisses)
	}
	assertQuarantineEmpty(t, dir)
}

// TestPeerRoutesServeStoreRecords: both peer routes answer with the owner's
// record file byte for byte, labelled application/octet-stream.
func TestPeerRoutesServeStoreRecords(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	owner := New(Config{Workers: 1, Store: st, GCInterval: -1})
	defer closeService(t, owner)
	sp := overlapSpec([]spec.Point{pointA})
	js, err := owner.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, owner, js.ID, StateDone)
	cells, err := st.ListCells()
	if err != nil || len(cells) == 0 {
		t.Fatalf("owner holds %d cells (%v)", len(cells), err)
	}
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()
	for route, tier := range map[string]string{
		"/v1/peer/artifacts/" + js.Hash:   filepath.Join(dir, "results", js.Hash[:2], js.Hash),
		"/v1/peer/cells/" + cells[0].Hash: filepath.Join(dir, "cells", cells[0].Hash[:2], cells[0].Hash),
	} {
		resp, err := srv.Client().Get(srv.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d (%v)", route, resp.StatusCode, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Errorf("GET %s: Content-Type %q, want application/octet-stream", route, ct)
		}
		if disk, err := os.ReadFile(tier); err != nil || !bytes.Equal(body, disk) {
			t.Errorf("GET %s: body differs from the record file (%v)", route, err)
		}
	}
}
