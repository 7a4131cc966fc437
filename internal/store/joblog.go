package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// JobRecord is one line of the append-only job log: a snapshot of a job's
// client-visible state at a transition. The log holds every transition a job
// went through; replay collapses it to the latest record per job.
type JobRecord struct {
	ID          string `json:"id"`
	Hash        string `json:"hash"`
	State       string `json:"state"`
	Cached      bool   `json:"cached,omitempty"`
	Done        int    `json:"done,omitempty"`
	Total       int    `json:"total,omitempty"`
	Error       string `json:"error,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	UpdatedAtMs int64  `json:"updated_at_ms"`
	// Lifecycle timestamps (Unix milliseconds; 0 = not reached). They let a
	// recovered job keep reporting when it was submitted, started, and
	// finished across restarts, and omitempty keeps pre-timestamp log lines
	// decoding (and new lines for old jobs encoding) unchanged.
	SubmittedAtMs int64 `json:"submitted_at_ms,omitempty"`
	StartedAtMs   int64 `json:"started_at_ms,omitempty"`
	FinishedAtMs  int64 `json:"finished_at_ms,omitempty"`
}

// AppendJob appends one record to the job log. With durable set the record
// is fsync'd before returning (surviving power loss); without it the write
// still survives a process crash but a machine crash may lose it. Callers
// reserve durable for records worth that cost — terminal states — since an
// undelivered queued/running record just reads as a job that never arrived.
func (s *Store) AppendJob(rec JobRecord, durable bool) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode job record: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, err := s.logf.Write(line); err != nil {
		return fmt.Errorf("store: append job: %w", err)
	}
	s.appends++
	if durable {
		if err := s.logf.Sync(); err != nil {
			return fmt.Errorf("store: sync job log: %w", err)
		}
	}
	return nil
}

// PendingAppends reports how many records have been appended since the last
// compaction (or Open) — a cheap growth signal for compaction policy.
func (s *Store) PendingAppends() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appends
}

// ReplayJobs reads the job log and returns the latest record of every job,
// in order of first appearance. Undecodable lines — a partial final line
// from a crash mid-append, or damage — are skipped, never failing the
// replay of intact records.
func (s *Store) ReplayJobs() ([]JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	data, err := os.ReadFile(s.jobLogPath())
	if err != nil {
		return nil, fmt.Errorf("store: read job log: %w", err)
	}
	return collapseRecords(data), nil
}

// CompactJobs rewrites the log with only the latest record of each job for
// which keep returns true, and reports how many jobs were dropped. The
// rewrite goes through publishFile like every record write (staged under
// tmp/, fsync'd, renamed over the log), so a failed compaction keeps the
// old log, and the append handle is reopened on the new file.
func (s *Store) CompactJobs(keep func(JobRecord) bool) (dropped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	data, err := os.ReadFile(s.jobLogPath())
	if err != nil {
		return 0, fmt.Errorf("store: read job log: %w", err)
	}
	var out bytes.Buffer
	for _, rec := range collapseRecords(data) {
		if keep != nil && !keep(rec) {
			dropped++
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return 0, fmt.Errorf("store: encode job record: %w", err)
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	if err := s.publishFile(s.jobLogPath(), out.Bytes()); err != nil {
		return 0, err
	}
	// The old append handle points at the unlinked file; reopen on the new one.
	old := s.logf
	s.logf, err = os.OpenFile(s.jobLogPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.logf = old // keep appending to the unlinked file rather than crash
		return 0, fmt.Errorf("store: reopen job log: %w", err)
	}
	old.Close()
	s.appends = 0
	return dropped, nil
}

// collapseRecords scans JSONL bytes to the latest record per job ID, in
// order of first appearance, skipping undecodable lines.
func collapseRecords(data []byte) []JobRecord {
	latest := make(map[string]int)
	var recs []JobRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec JobRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
			continue
		}
		if i, ok := latest[rec.ID]; ok {
			recs[i] = rec
			continue
		}
		latest[rec.ID] = len(recs)
		recs = append(recs, rec)
	}
	return recs
}
