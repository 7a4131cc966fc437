package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMalformedKeysRejected sends keys that are empty, too short, a path
// traversal or upper-case hex to every hash-keyed method of all three
// tiers. Each must fail with the invalid-hash error — never panic, never
// report a plain miss — and nothing may reach the disk.
func TestMalformedKeysRejected(t *testing.T) {
	s := openStore(t)
	for _, hash := range []string{"", "a", "../evil", strings.ToUpper(testHash(1))} {
		art := testArtifacts(1)
		art.Hash = hash
		cell := testCell(1)
		cell.Hash = hash
		for name, op := range map[string]func() error{
			"PutArtifacts":    func() error { return s.PutArtifacts(art) },
			"GetArtifacts":    func() error { _, err := s.GetArtifacts(hash); return err },
			"DeleteArtifacts": func() error { return s.DeleteArtifacts(hash) },
			"PutCell":         func() error { return s.PutCell(cell) },
			"GetCell":         func() error { _, err := s.GetCell(hash); return err },
			"DeleteCell":      func() error { return s.DeleteCell(hash) },
			"PutSpec":         func() error { return s.PutSpec(hash, []byte("{}")) },
			"GetSpec":         func() error { _, err := s.GetSpec(hash); return err },
			"DeleteSpec":      func() error { return s.DeleteSpec(hash) },
		} {
			if err := op(); err == nil || !strings.Contains(err.Error(), "invalid hash") {
				t.Errorf("%s(%q) = %v, want an invalid-hash error", name, hash, err)
			}
		}
		if s.HasCell(hash) {
			t.Errorf("HasCell(%q) = true", hash)
		}
	}
	for _, d := range []string{s.resultDir, s.cellDir, s.specDir, s.tmpDir, s.quarDir} {
		if ents, err := os.ReadDir(d); err != nil || len(ents) != 0 {
			t.Errorf("%s holds %d entries (%v) after rejected keys", d, len(ents), err)
		}
	}
}

// FuzzStoreRead overwrites one stored record — an artifact entry, a cell or
// a spec — with fuzz bytes and reads the entry back. The reader may fail
// only with ErrCorrupt, and then the entry is quarantined: the next read
// misses and quarantine/ holds exactly one entry. Whatever it accepts names
// the requested hash, carries no negative cell count, and every part it
// returns is the part as first stored. Each execution writes the record
// with a plain write, not the fsync'ing Put path, so the fuzzer runs at
// file-write speed.
func FuzzStoreRead(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	art, cell := testArtifacts(1), testCell(2)
	spec := []byte(`{"version":1,"workload":{"rows":[]}}`)
	sum := sha256.Sum256(spec)
	specHash := hex.EncodeToString(sum[:])
	if err := s.PutArtifacts(art); err != nil {
		f.Fatal(err)
	}
	if err := s.PutCell(cell); err != nil {
		f.Fatal(err)
	}
	if err := s.PutSpec(specHash, spec); err != nil {
		f.Fatal(err)
	}

	// targets[i] is one stored record and good[i] its stored bytes.
	targets := []string{
		filepath.Join(s.resultDir, art.Hash[:2], art.Hash),
		filepath.Join(s.cellDir, cell.Hash[:2], cell.Hash),
		filepath.Join(s.specDir, specHash[:2], specHash),
	}
	good := make([][]byte, len(targets))
	for i, path := range targets {
		if good[i], err = os.ReadFile(path); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), good[i])
		f.Add(uint8(i), good[i][:len(good[i])/2])
	}
	manifest, parts, _ := bytes.Cut(good[0], []byte{'\n'})
	withManifest := func(line string) []byte { return append([]byte(line+"\n"), parts...) }
	flipped := bytes.Clone(good[0])
	flipped[len(manifest)+1+len(art.JSON)] ^= 0x40 // the first byte of cells.csv
	f.Add(uint8(0), bytes.Replace(good[0], []byte(art.Hash), []byte(testHash(3)), 1))
	f.Add(uint8(0), withManifest(`{"hash":"`+art.Hash+`","files":{}}`))
	f.Add(uint8(0), bytes.Replace(good[0], []byte(`"cells":1,`), []byte(`"cells":-1,`), 1))
	f.Add(uint8(0), withManifest(`{not json`))
	f.Add(uint8(0), parts)
	f.Add(uint8(0), good[0][:len(good[0])-len(art.AggregateCSV)])
	f.Add(uint8(0), flipped)
	f.Add(uint8(0), append(bytes.Clone(good[0]), 'x'))
	f.Add(uint8(0), bytes.Replace(good[0], []byte(`"size":13,`), []byte(`"size":-13,`), 1))
	f.Add(uint8(1), bytes.Replace(good[1], []byte(cell.Hash), []byte(testHash(3)), 1))
	f.Add(uint8(1), []byte(`{"hash":"`+cell.Hash+`","size":2,"sha256":"","payload":{}}`))

	// read reads the entry stored at targets[target] and returns what it
	// handed back: the artifact parts, the cell payload or the spec bytes.
	// Accepted artifacts never carry a negative cell count.
	read := func(t *testing.T, target int) ([][]byte, error) {
		switch target {
		case 0:
			a, err := s.GetArtifacts(art.Hash)
			if err == nil && a.Cells < 0 {
				t.Fatalf("accepted manifest with cell count %d", a.Cells)
			}
			return [][]byte{a.JSON, a.CSV, a.AggregateCSV}, err
		case 1:
			c, err := s.GetCell(cell.Hash)
			return [][]byte{c.Payload}, err
		default:
			b, err := s.GetSpec(specHash)
			return [][]byte{b}, err
		}
	}
	stored := [][][]byte{{art.JSON, art.CSV, art.AggregateCSV}, {cell.Payload}, {spec}}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		target := int(which) % len(targets)
		if err := os.RemoveAll(s.quarDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(s.quarDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(targets[target]), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(targets[target], data, 0o644); err != nil {
			t.Fatal(err)
		}

		got, err := read(t, target)
		if err == nil {
			// Only the stored bytes verify against their checksum or name, so
			// whatever comes back is what was stored.
			for i, b := range got {
				if !bytes.Equal(b, stored[target][i]) {
					t.Fatalf("accepted record %d returned %q for part %d, want %q", target, b, i, stored[target][i])
				}
			}
			// An accepted artifact manifest or cell record names the key it
			// was read under.
			if key := map[int]string{0: art.Hash, 1: cell.Hash}[target]; key != "" {
				var named struct {
					Hash string `json:"hash"`
				}
				line, _, _ := bytes.Cut(data, []byte{'\n'})
				if target == 1 {
					line = data
				}
				if json.Unmarshal(line, &named) != nil || named.Hash != key {
					t.Fatalf("accepted record names hash %q, want %s", named.Hash, key)
				}
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read of damaged record %d failed with %v, want ErrCorrupt", target, err)
		}
		if _, err := read(t, target); !errors.Is(err, ErrNotFound) {
			t.Fatalf("read after quarantine: %v, want ErrNotFound", err)
		}
		if q, err := os.ReadDir(s.quarDir); err != nil || len(q) != 1 {
			t.Fatalf("quarantine holds %d entries (%v), want 1", len(q), err)
		}
	})
}
