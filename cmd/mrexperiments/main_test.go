package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "bogus"}, &buf); err == nil {
		t.Error("bogus scale accepted")
	}
	if err := run(context.Background(), []string{"-scale", "quick", "nonsense"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run(context.Background(), []string{"-parallel", "0", "table2"}, &buf); err == nil {
		t.Error("zero parallelism accepted")
	}
	if err := run(context.Background(), []string{"-parallel", "-2", "table2"}, &buf); err == nil {
		t.Error("negative parallelism accepted")
	}
}

func TestTable2AndTheorems(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "quick", "-runs", "1", "table2", "theorem1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "table2") || !strings.Contains(out, "theorem1") {
		t.Errorf("missing experiment sections:\n%s", out)
	}
	if !strings.Contains(out, "zero-variance competitive ratio") {
		t.Errorf("theorem1 output incomplete:\n%s", out)
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	// Tiny custom scale via quick + runs 1 on fig6 only; fig6 at quick scale
	// is the slowest acceptable in tests, so restrict to table2+fig1-less.
	if err := run(context.Background(), []string{"-scale", "quick", "-runs", "1", "-csv", dir, "fig6"}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "algorithm,") {
		t.Errorf("fig6.csv header: %.40s", data)
	}
	if !strings.Contains(buf.String(), "vs Mantri") {
		t.Errorf("fig6 text missing headline:\n%s", buf.String())
	}
}

// TestUnknownNameRunsNothing checks that every name is resolved before the
// CSV directory is created or any experiment runs.
func TestUnknownNameRunsNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-scale", "quick", "-runs", "1", "-csv", dir,
		"table2", "fig6", "nonsense"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "nonsense") {
		t.Errorf("err = %v, want one naming nonsense", err)
	}
	if buf.Len() != 0 {
		t.Errorf("output written before the name check:\n%s", buf.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("csv directory created before the name check (stat: %v)", err)
	}
}

// TestQuickOutputPinned pins the quick-scale output of every experiment:
// the SHA-256 of stdout and of each CSV. A change that alters results on
// purpose updates these hashes and says why.
func TestQuickOutputPinned(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "quick", "-runs", "1", "-csv", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	if got, want := hash(buf.Bytes()), "58e7e78397db4d5be1be2b4d766e66dd4113d1d033d16fdc5e28bb63b185e6e5"; got != want {
		t.Errorf("stdout sha256 %s, want %s; output:\n%s", got, want, buf.String())
	}
	for name, want := range map[string]string{
		"fig1": "06079491ab652da807a224094718128c470fda98653fb272eee72f3ed0a91118",
		"fig2": "de1884d3d54b76c67bd74a9e5f92d9092eaf5a136a129664e6d5b8c09b6bc494",
		"fig3": "3ce68b4590d719628e8a0c9b4c5a2e2886f22ef1aca481a9c84e459721b93996",
		"fig4": "1f7d9545785a02aca715cc09a7cf8a5ea81b177f255eb95d252e8d2445554320",
		"fig5": "bcded48e8c4fee64f1aaf3fc0391e8462f0d4044b56c913afd8b76640d5a1abd",
		"fig6": "b43f3502d24968798e045db82d1751d55f87ad20828df5f1f5c10e769a6c0b22",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := hash(data); got != want {
			t.Errorf("%s.csv sha256 %s, want %s; content:\n%s", name, got, want, data)
		}
	}
}
