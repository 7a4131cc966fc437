package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sameEntry reports whether two artifact entries are equal field by field.
func sameEntry(a, b Artifacts) bool {
	return a.Hash == b.Hash && a.Cells == b.Cells && a.CreatedAt.Equal(b.CreatedAt) &&
		bytes.Equal(a.JSON, b.JSON) && bytes.Equal(a.CSV, b.CSV) &&
		bytes.Equal(a.AggregateCSV, b.AggregateCSV)
}

// goldenManifest is the manifest line of testArtifacts(1)'s record. It is
// byte-equal to the meta.json that builds storing each entry as a directory
// wrote for the same entry: the manifest kept its format when it moved into
// the record.
const goldenManifest = `{"hash":"ababababababababababababababababababababababababababababababab01","cells":1,"created_at_ms":1700000000001,"files":{"aggregate.csv":{"size":26,"sha256":"fe2c2a91bcbd05f54408bf2d229958ebe6bd98ddad43ebc50a888f39bbcc8350"},"cells.csv":{"size":19,"sha256":"f5b21b27b2fb73c459c141c8360881ab1332136f32600554b555d173c33fe792"},"matrix.json":{"size":13,"sha256":"b64b9e14d4a9007af72d62d6f2b2e6ace685bd51e5fb9570daf4d35b681164a0"}}}`

// artifactRecord lays out an artifact record from a manifest and the parts
// it names, in record order; a part missing from parts is left out.
func artifactRecord(t *testing.T, m meta, parts map[string][]byte) []byte {
	t.Helper()
	line, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	rec := append(line, '\n')
	for _, name := range []string{jsonFile, csvFile, aggregateFile} {
		rec = append(rec, parts[name]...)
	}
	return rec
}

// TestRecordRoundTrip pins the one record format: Decode* inverts Encode*,
// the encoded records are the store's own files (a cell record is the file
// PutCell writes, an artifact record the file PutArtifacts writes, whose
// manifest line is pinned), and Get* and Decode* reject the same damaged
// bytes with ErrCorrupt.
func TestRecordRoundTrip(t *testing.T) {
	s := openStore(t)
	art, cell := testArtifacts(1), testCell(2)
	if err := s.PutArtifacts(art); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCell(cell); err != nil {
		t.Fatal(err)
	}

	rec, err := EncodeArtifacts(art)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeArtifacts(art.Hash, rec); err != nil || !sameEntry(got, art) {
		t.Fatalf("DecodeArtifacts(EncodeArtifacts(x)) = %+v, %v; want %+v", got, err, art)
	}
	if want := goldenManifest + "\n" + string(art.JSON) + string(art.CSV) + string(art.AggregateCSV); string(rec) != want {
		t.Fatalf("artifact record\n%s\nwant\n%s", rec, want)
	}
	artPath := filepath.Join(s.resultDir, art.Hash[:2], art.Hash)
	if disk, err := os.ReadFile(artPath); err != nil || !bytes.Equal(rec, disk) {
		t.Fatalf("artifact record %s, file %s (%v)", rec, disk, err)
	}

	crec, err := EncodeCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCell(cell.Hash, crec)
	if err != nil || got.Hash != cell.Hash || !bytes.Equal(got.Payload, cell.Payload) ||
		!got.CreatedAt.Equal(cell.CreatedAt) {
		t.Fatalf("DecodeCell(EncodeCell(x)) = %+v, %v; want %+v", got, err, cell)
	}
	cellPath := filepath.Join(s.cellDir, cell.Hash[:2], cell.Hash)
	if disk, err := os.ReadFile(cellPath); err != nil || !bytes.Equal(crec, disk) {
		t.Fatalf("cell record %s, file %s (%v)", crec, disk, err)
	}

	// Each damage applies to one entry's manifest and parts, or to the
	// record laid out from them; the record is then decoded and written to
	// the entry's file.
	for _, tc := range []struct {
		name   string
		damage func(m *meta, parts map[string][]byte)
		record func(rec []byte) []byte
	}{
		{"bit-flipped-part", func(m *meta, parts map[string][]byte) { parts[csvFile][0] ^= 0x40 }, nil},
		{"truncated-part", func(m *meta, parts map[string][]byte) { parts[jsonFile] = parts[jsonFile][:3] }, nil},
		{"missing-part", func(m *meta, parts map[string][]byte) { delete(parts, aggregateFile) }, nil},
		{"foreign-hash", func(m *meta, parts map[string][]byte) { m.Hash = testHash(3) }, nil},
		{"missing-checksum", func(m *meta, parts map[string][]byte) { delete(m.Files, csvFile) }, nil},
		{"negative-cells", func(m *meta, parts map[string][]byte) { m.Cells = -1 }, nil},
		{"bad-manifest", nil, func(rec []byte) []byte {
			return append([]byte("{not json\n"), rec[bytes.IndexByte(rec, '\n')+1:]...)
		}},
		{"missing-manifest", nil, func(rec []byte) []byte { return rec[bytes.IndexByte(rec, '\n')+1:] }},
		{"trailing-bytes", nil, func(rec []byte) []byte { return append(rec, '\n') }},
	} {
		t.Run("artifacts/"+tc.name, func(t *testing.T) {
			a := testArtifacts(1)
			var m meta
			if err := json.Unmarshal([]byte(goldenManifest), &m); err != nil {
				t.Fatal(err)
			}
			parts := map[string][]byte{}
			for _, p := range a.parts() {
				parts[p.name] = bytes.Clone(*p.data)
			}
			if tc.damage != nil {
				tc.damage(&m, parts)
			}
			rec := artifactRecord(t, m, parts)
			if tc.record != nil {
				rec = tc.record(rec)
			}
			if _, err := DecodeArtifacts(a.Hash, rec); !errors.Is(err, ErrCorrupt) {
				t.Errorf("DecodeArtifacts: %v, want ErrCorrupt", err)
			}
			if err := os.MkdirAll(filepath.Dir(artPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(artPath, rec, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetArtifacts(a.Hash); !errors.Is(err, ErrCorrupt) {
				t.Errorf("GetArtifacts: %v, want ErrCorrupt", err)
			}
		})
	}

	for _, tc := range []struct {
		name   string
		damage func(rec []byte) []byte
	}{
		{"truncated", func(rec []byte) []byte { return rec[:len(rec)/2] }},
		{"foreign-hash", func(rec []byte) []byte {
			return bytes.Replace(rec, []byte(cell.Hash), []byte(testHash(3)), 1)
		}},
		{"bit-flipped-payload", func(rec []byte) []byte {
			return bytes.Replace(rec, []byte(`"fair"`), []byte(`"f!ir"`), 1) // 'a' ^ 0x40
		}},
		{"size-mismatch", func(rec []byte) []byte {
			return bytes.Replace(rec, []byte(`"fair"`), []byte(`"fairer"`), 1)
		}},
	} {
		t.Run("cell/"+tc.name, func(t *testing.T) {
			rec := tc.damage(append([]byte(nil), crec...))
			if _, err := DecodeCell(cell.Hash, rec); !errors.Is(err, ErrCorrupt) {
				t.Errorf("DecodeCell: %v, want ErrCorrupt", err)
			}
			if err := os.MkdirAll(filepath.Dir(cellPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cellPath, rec, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetCell(cell.Hash); !errors.Is(err, ErrCorrupt) {
				t.Errorf("GetCell: %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzPeerArtifactResponse hammers the record decoders with arbitrary bytes
// — the exact surface a compromised or corrupted peer shard controls. They
// must never panic, and a rejection reports ErrCorrupt. Whenever they
// accept a record the acceptance must be sound: it names the requested
// hash, carries no negative cell count, and every byte the caller will
// install matches the checksum the record itself declares. Re-encoding what
// was accepted decodes back to the same entry.
func FuzzPeerArtifactResponse(f *testing.F) {
	const hash = "a3f1c2d4e5b6978081726354453627184950a1b2c3d4e5f60718293a4b5c6d7e"
	a := Artifacts{
		Hash:         hash,
		Cells:        2,
		CreatedAt:    time.UnixMilli(1700000000000),
		JSON:         []byte(`{"cells":[1,2]}`),
		CSV:          []byte("a,b\n1,2\n"),
		AggregateCSV: []byte("x,y\n3,4\n"),
	}
	valid, err := EncodeArtifacts(a)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hash, valid)
	f.Add(hash, valid[:len(valid)/2])
	f.Add(hash, bytes.Replace(valid, []byte("cells"), []byte("cellz"), 1))
	f.Add("otherhash0123456", valid)
	f.Add(hash, []byte(`{"hash":"`+hash+`","files":{}}`+"\n"))
	f.Add(hash, []byte(`{"hash":"`+hash+`","cells":-1}`+"\n"))
	// The JSON record of an earlier release: the manifest's fields plus
	// the parts base64-encoded under "parts", on no line of their own.
	manifest, _, _ := bytes.Cut(valid, []byte{'\n'})
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(manifest, &fields); err != nil {
		f.Fatal(err)
	}
	if fields["parts"], err = json.Marshal(map[string][]byte{jsonFile: a.JSON, csvFile: a.CSV, aggregateFile: a.AggregateCSV}); err != nil {
		f.Fatal(err)
	}
	previous, err := json.Marshal(fields)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hash, previous)
	cellValid, err := EncodeCell(Cell{Hash: hash, Payload: []byte(`{"v":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hash, cellValid)
	f.Add(hash, []byte(`{"hash":"`+hash+`","size":7,"sha256":"00","payload":{"v":1}}`))
	// A payload with whitespace that its checksum covers: decoding accepts
	// it, and re-encoding carries it compacted.
	spaced := []byte(`{ "v": 1 }`)
	f.Add(hash, []byte(`{"hash":"`+hash+`","size":10,"sha256":"`+checksum(spaced).SHA256+`","payload":`+string(spaced)+`}`))

	f.Fuzz(func(t *testing.T, reqHash string, data []byte) {
		art, err := DecodeArtifacts(reqHash, data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("artifact record rejected with %v, want ErrCorrupt", err)
		}
		if err == nil {
			if art.Hash != reqHash {
				t.Fatalf("accepted artifacts named %q, requested %q", art.Hash, reqHash)
			}
			if art.Cells < 0 {
				t.Fatalf("accepted negative cell count %d", art.Cells)
			}
			var m meta
			line, _, _ := bytes.Cut(data, []byte{'\n'})
			if uerr := json.Unmarshal(line, &m); uerr != nil {
				t.Fatalf("decoder accepted a manifest json.Unmarshal rejects: %v", uerr)
			}
			for _, p := range art.parts() {
				if checksum(*p.data) != m.Files[p.name] {
					t.Fatalf("accepted %s part does not match its declared checksum", p.name)
				}
			}
			rec, err := EncodeArtifacts(art)
			if err != nil {
				t.Fatalf("re-encode of accepted artifacts: %v", err)
			}
			if back, err := DecodeArtifacts(reqHash, rec); err != nil || !sameEntry(back, art) {
				t.Fatalf("re-encoded artifacts decode to %+v, %v; want %+v", back, err, art)
			}
		}

		cell, err := DecodeCell(reqHash, data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cell record rejected with %v, want ErrCorrupt", err)
		}
		if err == nil {
			var rec cellRecord
			if uerr := json.Unmarshal(data, &rec); uerr != nil {
				t.Fatalf("cell decoder accepted bytes json.Unmarshal rejects: %v", uerr)
			}
			if rec.Hash != reqHash || cell.Hash != reqHash {
				t.Fatalf("accepted cell named %q, requested %q", rec.Hash, reqHash)
			}
			if checksum(cell.Payload) != rec.fileMeta {
				t.Fatal("accepted cell payload does not verify against its declared envelope")
			}
			enc, err := EncodeCell(cell)
			if err != nil {
				t.Fatalf("re-encode of accepted cell: %v", err)
			}
			back, err := DecodeCell(reqHash, enc)
			if err != nil || !back.CreatedAt.Equal(cell.CreatedAt) || !json.Valid(back.Payload) {
				t.Fatalf("re-encoded cell decodes to %+v, %v; want %+v", back, err, cell)
			}
			// The record carries the payload compacted, so the first
			// round may reflow it; from then on encoding is a fixed point.
			if again, err := EncodeCell(back); err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("second re-encode %s, want %s (%v)", again, enc, err)
			}
		}
	})
}
