package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}, &buf); err == nil {
		t.Error("bogus subcommand accepted")
	}
}

func TestGenAndStatsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	var buf bytes.Buffer
	if err := run([]string{"gen", "-jobs", "50", "-seed", "3", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "id,arrival") {
		t.Fatalf("unexpected CSV header: %.40s", data)
	}
	buf.Reset()
	if err := run([]string{"stats", "-i", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Total number of jobs") {
		t.Errorf("stats output missing table: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "50") {
		t.Errorf("stats should report 50 jobs: %s", buf.String())
	}
}

func TestGenToStdout(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"gen", "-jobs", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 6 { // header + 5 rows
		t.Errorf("lines = %d, want 6", lines)
	}
}

func TestStatsGenerated(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"stats", "-seed", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "6064") {
		t.Errorf("default stats should cover the full trace: %s", buf.String())
	}
}

// TestStatsRejectsInvalidRow: a row no simulation can build (ratio 1 gives
// an empty bounded-Pareto support) fails the read with its line number,
// instead of printing a NaN mean task duration.
func TestStatsRejectsInvalidRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.csv")
	csv := "id,arrival,priority,map_tasks,reduce_tasks,map_scale,reduce_scale,ratio,alpha\n" +
		"0,0,1,2,0,5,0,1,0\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"stats", "-i", path}, &buf)
	if err == nil {
		t.Fatalf("invalid row accepted; printed:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name line 2", err)
	}
	if buf.Len() != 0 {
		t.Errorf("stats printed output for a rejected trace:\n%s", buf.String())
	}
}

// TestStatsRejectsRepeatedID: two valid rows that share an id fail the read
// with both rows named, instead of printing a table for a trace no
// simulation accepts.
func TestStatsRejectsRepeatedID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.csv")
	csv := "id,arrival,priority,map_tasks,reduce_tasks,map_scale,reduce_scale,ratio,alpha\n" +
		"0,0,1,2,0,5,0,20,1.5\n" +
		"0,10,1,2,0,5,0,20,1.5\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"stats", "-i", path}, &buf)
	if err == nil {
		t.Fatalf("repeated id accepted; printed:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "rows 0 and 1 share id 0") {
		t.Errorf("error %q does not name both rows", err)
	}
	if buf.Len() != 0 {
		t.Errorf("stats printed output for a rejected trace:\n%s", buf.String())
	}
}

func TestStatsMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"stats", "-i", "/nonexistent/x.csv"}, &buf); err == nil {
		t.Error("missing file accepted")
	}
}
