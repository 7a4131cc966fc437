package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testHash returns a distinct valid-looking 64-hex hash per suffix byte.
func testHash(b byte) string {
	return strings.Repeat("ab", 31) + "0" + string("0123456789abcdef"[b%16])
}

func testArtifacts(b byte) Artifacts {
	return Artifacts{
		Hash:         testHash(b),
		JSON:         []byte(`{"cells":[` + string('0'+b%10) + `]}`),
		CSV:          []byte("scheduler,x\nfair,1\n"),
		AggregateCSV: []byte("scheduler,x,mean\nfair,1,2\n"),
		Cells:        int(b),
		CreatedAt:    time.UnixMilli(1700000000000 + int64(b)),
	}
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := openStore(t)
	want := testArtifacts(1)
	if err := s.PutArtifacts(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetArtifacts(want.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.JSON, want.JSON) || !bytes.Equal(got.CSV, want.CSV) ||
		!bytes.Equal(got.AggregateCSV, want.AggregateCSV) {
		t.Fatal("artifact bytes changed across the store")
	}
	if got.Cells != want.Cells || !got.CreatedAt.Equal(want.CreatedAt) {
		t.Fatalf("metadata %d/%v, want %d/%v", got.Cells, got.CreatedAt, want.Cells, want.CreatedAt)
	}

	// Replacement under the same hash succeeds (TTL refresh path).
	if err := s.PutArtifacts(want); err != nil {
		t.Fatalf("replace: %v", err)
	}

	if _, err := s.GetArtifacts(testHash(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing entry: %v, want ErrNotFound", err)
	}
	if _, err := s.GetArtifacts("../evil"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("traversal hash accepted: %v", err)
	}
}

func TestListAndDelete(t *testing.T) {
	s := openStore(t)
	for b := byte(1); b <= 3; b++ {
		if err := s.PutArtifacts(testArtifacts(b)); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := s.ListArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("listed %d entries, want 3", len(infos))
	}
	for _, info := range infos {
		if info.Bytes <= 0 || info.CreatedAt.IsZero() {
			t.Fatalf("info %+v not populated", info)
		}
	}
	if err := s.DeleteArtifacts(testHash(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteArtifacts(testHash(2)); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if infos, _ = s.ListArtifacts(); len(infos) != 2 {
		t.Fatalf("listed %d entries after delete, want 2", len(infos))
	}
	if _, err := s.GetArtifacts(testHash(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted entry: %v", err)
	}
}

// corruptionCase damages one stored entry's record with damage, which
// returns the damaged bytes given the stored record, the entry, and where
// its parts start. It expects quarantine + ErrCorrupt while a sibling entry
// keeps serving.
func corruptionCase(t *testing.T, damage func(rec []byte, a Artifacts, parts int) []byte) {
	t.Helper()
	s := openStore(t)
	victim, witness := testArtifacts(1), testArtifacts(2)
	for _, a := range []Artifacts{victim, witness} {
		if err := s.PutArtifacts(a); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(s.Dir(), "results", victim.Hash[:2], victim.Hash)
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(rec, victim, bytes.IndexByte(rec, '\n')+1), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.GetArtifacts(victim.Hash); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt entry: %v, want ErrCorrupt", err)
	}
	// The entry was moved aside: the next lookup is a plain miss and the
	// quarantine directory holds the damaged bytes for inspection.
	if _, err := s.GetArtifacts(victim.Hash); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after quarantine: %v, want ErrNotFound", err)
	}
	quarantined, err := os.ReadDir(filepath.Join(s.Dir(), "quarantine"))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantine holds %d entries (%v), want 1", len(quarantined), err)
	}
	// Unrelated lookups are unaffected.
	got, err := s.GetArtifacts(witness.Hash)
	if err != nil || !bytes.Equal(got.JSON, witness.JSON) {
		t.Fatalf("witness lookup after quarantine: %v", err)
	}
}

func TestCorruptTruncatedArtifact(t *testing.T) {
	corruptionCase(t, func(rec []byte, a Artifacts, parts int) []byte {
		return rec[:parts+3] // three bytes into matrix.json
	})
}

func TestCorruptBitFlip(t *testing.T) {
	corruptionCase(t, func(rec []byte, a Artifacts, parts int) []byte {
		rec[parts+len(a.JSON)] ^= 0xff // the first byte of cells.csv
		return rec
	})
}

func TestCorruptBadMetaJSON(t *testing.T) {
	corruptionCase(t, func(rec []byte, a Artifacts, parts int) []byte {
		return append([]byte("{not json\n"), rec[parts:]...)
	})
}

func TestCorruptMissingMeta(t *testing.T) {
	corruptionCase(t, func(rec []byte, a Artifacts, parts int) []byte {
		return rec[parts:] // the parts alone
	})
}

func TestCorruptMissingArtifactFile(t *testing.T) {
	corruptionCase(t, func(rec []byte, a Artifacts, parts int) []byte {
		return rec[:len(rec)-len(a.AggregateCSV)] // no aggregate.csv
	})
}

// TestPartialTempLeftoverSwept simulates a crash between staging and rename:
// the leftovers live under tmp/, are invisible to lookups, and Open removes
// them. One is a partial record; the other is a non-empty directory stage,
// which is what a build that staged an artifact entry as a directory left
// there, so Open must still sweep a data dir such a build crashed on.
func TestPartialTempLeftoverSwept(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testArtifacts(1)
	if err := s.PutArtifacts(good); err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(dir, "tmp", testHash(2)+".crash")
	if err := os.WriteFile(partial, []byte(`{"hash":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	stage := filepath.Join(dir, "tmp", testHash(3)+".crash")
	if err := os.MkdirAll(stage, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, "matrix.json"), []byte("part"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The partial writes never published, so their hashes are simply absent.
	for _, h := range []string{testHash(2), testHash(3)} {
		if _, err := s.GetArtifacts(h); !errors.Is(err, ErrNotFound) {
			t.Fatalf("partial entry %s visible: %v", h[:8], err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if leftovers, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(leftovers) != 0 {
		t.Fatalf("tmp/ holds %d leftovers after reopen", len(leftovers))
	}
	// The completed entry survived the "crash" and the sweep.
	got, err := s2.GetArtifacts(good.Hash)
	if err != nil || !bytes.Equal(got.JSON, good.JSON) {
		t.Fatalf("good entry after reopen: %v", err)
	}
}

func TestJobLogReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendRec := func(id, state string) {
		t.Helper()
		if err := s.AppendJob(JobRecord{ID: id, Hash: testHash(1), State: state, UpdatedAtMs: 7}, state != "queued" && state != "running"); err != nil {
			t.Fatal(err)
		}
	}
	appendRec("m000001", "queued")
	appendRec("m000001", "running")
	appendRec("m000001", "done")
	appendRec("m000002", "queued")
	appendRec("m000003", "queued")
	appendRec("m000003", "cancelled")

	recs, err := s.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d jobs, want 3: %+v", len(recs), recs)
	}
	// Latest state per job, in order of first appearance.
	for i, want := range []JobRecord{
		{ID: "m000001", State: "done"},
		{ID: "m000002", State: "queued"},
		{ID: "m000003", State: "cancelled"},
	} {
		if recs[i].ID != want.ID || recs[i].State != want.State {
			t.Fatalf("record %d = %+v, want %s/%s", i, recs[i], want.ID, want.State)
		}
	}

	if n := s.PendingAppends(); n != 6 {
		t.Fatalf("pending appends %d, want 6", n)
	}
	dropped, err := s.CompactJobs(func(r JobRecord) bool { return r.State != "cancelled" })
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
	if n := s.PendingAppends(); n != 0 {
		t.Fatalf("pending appends after compaction %d, want 0", n)
	}
	// Appends keep working on the reopened handle, and a fresh Open sees
	// the compacted log plus the new append.
	appendRec("m000004", "queued")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err = s2.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("after compaction + append: %d jobs, want 3: %+v", len(recs), recs)
	}
}

// TestJobLogTornWrite covers a crash mid-append: the partial trailing line
// is skipped and intact records replay.
func TestJobLogTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendJob(JobRecord{ID: "m000001", Hash: testHash(1), State: "done"}, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "jobs.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"m000002","state":"que`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "m000001" {
		t.Fatalf("replay after torn write: %+v", recs)
	}
	// Open healed the torn line with a newline terminator, so the next
	// append lands on a fresh line and is not swallowed by the damage.
	if err := s2.AppendJob(JobRecord{ID: "m000003", Hash: testHash(1), State: "queued"}, false); err != nil {
		t.Fatal(err)
	}
	recs, err = s2.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].ID != "m000003" {
		t.Fatalf("append after torn line: %+v", recs)
	}
}

func TestClosedStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := s.PutArtifacts(testArtifacts(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := s.GetArtifacts(testHash(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	if err := s.AppendJob(JobRecord{ID: "x"}, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if _, err := s.ReplayJobs(); !errors.Is(err, ErrClosed) {
		t.Fatalf("replay after close: %v", err)
	}
}

// writeDirEntry lays a out as earlier builds stored an entry: a directory
// at path holding the record's manifest as meta.json and each part as a
// file of its own.
func writeDirEntry(t *testing.T, path string, a Artifacts) {
	t.Helper()
	rec, err := EncodeArtifacts(a)
	if err != nil {
		t.Fatal(err)
	}
	manifest, _, _ := bytes.Cut(rec, []byte{'\n'})
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"meta.json": manifest}
	for _, p := range a.parts() {
		files[p.name] = *p.data
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(path, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPreShardingEntryInert: the artifacts/ tree of earlier builds, an
// entry directory flat under it (before hash-prefix sharding) or under its
// prefix, is not read. Open leaves it where it is, lookups miss and
// listings skip it, and nothing is quarantined: a recompute writes the
// record under results/.
func TestPreShardingEntryInert(t *testing.T) {
	for _, layout := range []string{"flat", "sharded"} {
		t.Run(layout, func(t *testing.T) {
			dir := t.TempDir()
			a := testArtifacts(1)
			old := filepath.Join(dir, "artifacts", a.Hash)
			if layout == "sharded" {
				old = filepath.Join(dir, "artifacts", a.Hash[:2], a.Hash)
			}
			writeDirEntry(t, old, a)
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.GetArtifacts(a.Hash); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s entry read: %v, want ErrNotFound", layout, err)
			}
			if infos, err := s.ListArtifacts(); err != nil || len(infos) != 0 {
				t.Fatalf("listing surfaced the %s entry: %+v (%v)", layout, infos, err)
			}
			if q, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(q) != 0 {
				t.Fatalf("quarantine holds %d entries (%v), want none", len(q), err)
			}
			if _, err := os.Stat(filepath.Join(old, "meta.json")); err != nil {
				t.Fatalf("%s entry moved: %v", layout, err)
			}
		})
	}
}

// TestCompactionLeavesNoStrayFiles: compaction stages the new log under tmp/
// like every other store write, so afterwards the data directory holds only
// the documented layout and tmp/ is empty.
func TestCompactionLeavesNoStrayFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, state := range []string{"queued", "running", "done"} {
		if err := s.AppendJob(JobRecord{ID: "m000001", Hash: testHash(1), State: state}, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CompactJobs(nil); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, " "), "cells jobs.log quarantine results specs tmp"; got != want {
		t.Fatalf("data dir holds %q, want %q", got, want)
	}
	if leftovers, err := os.ReadDir(filepath.Join(dir, "tmp")); err != nil || len(leftovers) != 0 {
		t.Fatalf("tmp/ holds %d entries after compaction (%v)", len(leftovers), err)
	}
	if recs, err := s.ReplayJobs(); err != nil || len(recs) != 1 || recs[0].State != "done" {
		t.Fatalf("compacted log replays %+v (%v)", recs, err)
	}
}

// TestPublishReplacesStrayEntries: a rename cannot replace a directory with
// a record file, so publish clears a stray directory at the destination and
// retries; a stray file is replaced by the rename itself. A stray directory
// at a cell's path and a stray file at an artifact's path are both
// replaced.
func TestPublishReplacesStrayEntries(t *testing.T) {
	s := openStore(t)
	c := testCell(1)
	cellPath := filepath.Join(s.cellDir, c.Hash[:2], c.Hash)
	if err := os.MkdirAll(filepath.Join(cellPath, "junk"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCell(c); err != nil {
		t.Fatalf("put cell over a stray directory: %v", err)
	}
	if got, err := s.GetCell(c.Hash); err != nil || !bytes.Equal(got.Payload, c.Payload) {
		t.Fatalf("cell after replacing a stray directory: %v", err)
	}
	a := testArtifacts(1)
	artPath := filepath.Join(s.resultDir, a.Hash[:2], a.Hash)
	if err := os.MkdirAll(filepath.Dir(artPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(artPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifacts(a); err != nil {
		t.Fatalf("put artifacts over a stray file: %v", err)
	}
	if got, err := s.GetArtifacts(a.Hash); err != nil || !bytes.Equal(got.JSON, a.JSON) {
		t.Fatalf("artifacts after replacing a stray file: %v", err)
	}
}

// TestUnreadableEntryNotQuarantined: a record that cannot be read is not
// corrupt. With a symlink to a directory at an artifact's and at a cell's
// record path, every read fails with EISDIR: the listings skip both
// entries, Get* report a plain store error (neither ErrCorrupt nor
// ErrNotFound), and nothing moves to quarantine/.
func TestUnreadableEntryNotQuarantined(t *testing.T) {
	s := openStore(t)
	a, c := testArtifacts(1), testCell(2)
	links := []string{
		filepath.Join(s.resultDir, a.Hash[:2], a.Hash),
		filepath.Join(s.cellDir, c.Hash[:2], c.Hash),
	}
	for _, link := range links {
		if err := os.MkdirAll(filepath.Dir(link), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink(t.TempDir(), link); err != nil {
			t.Fatal(err)
		}
	}
	for name, list := range map[string]func() ([]Info, error){"ListArtifacts": s.ListArtifacts, "ListCells": s.ListCells} {
		if infos, err := list(); err != nil || len(infos) != 0 {
			t.Errorf("%s = %+v, %v; want the unreadable entry skipped", name, infos, err)
		}
	}
	for name, get := range map[string]func() error{
		"GetArtifacts": func() error { _, err := s.GetArtifacts(a.Hash); return err },
		"GetCell":      func() error { _, err := s.GetCell(c.Hash); return err },
	} {
		if err := get(); err == nil || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound) {
			t.Errorf("%s = %v, want a plain store error", name, err)
		}
	}
	if q, err := os.ReadDir(s.quarDir); err != nil || len(q) != 0 {
		t.Fatalf("quarantine holds %d entries (%v), want none", len(q), err)
	}
	for _, link := range links {
		if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
			t.Fatalf("%s moved: %v", link, err)
		}
	}
}
