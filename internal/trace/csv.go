package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is the on-disk column layout of a trace file.
var csvHeader = []string{
	"id", "arrival", "priority",
	"map_tasks", "reduce_tasks",
	"map_scale", "reduce_scale",
	"ratio", "alpha",
}

// WriteCSV serializes the trace as CSV with a header row.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, r := range t.Rows {
		rec := []string{
			strconv.Itoa(r.ID),
			strconv.FormatInt(r.Arrival, 10),
			strconv.Itoa(r.Priority),
			strconv.Itoa(r.MapTasks),
			strconv.Itoa(r.ReduceTasks),
			strconv.FormatFloat(r.MapScale, 'g', -1, 64),
			strconv.FormatFloat(r.ReduceScale, 'g', -1, 64),
			strconv.FormatFloat(r.Ratio, 'g', -1, 64),
			strconv.FormatFloat(r.Alpha, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write row %d: %w", r.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. Every row must pass
// JobRow.Validate, and the trace must pass UniqueIDs.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], col)
		}
	}
	var rows []JobRow
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		row, err := parseRow(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		rows = append(rows, row)
	}
	if err := UniqueIDs(rows); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &Trace{Rows: rows}, nil
}

func parseRow(rec []string) (JobRow, error) {
	var (
		r   JobRow
		err error
	)
	if r.ID, err = strconv.Atoi(rec[0]); err != nil {
		return r, fmt.Errorf("id: %w", err)
	}
	if r.Arrival, err = strconv.ParseInt(rec[1], 10, 64); err != nil {
		return r, fmt.Errorf("arrival: %w", err)
	}
	if r.Priority, err = strconv.Atoi(rec[2]); err != nil {
		return r, fmt.Errorf("priority: %w", err)
	}
	if r.MapTasks, err = strconv.Atoi(rec[3]); err != nil {
		return r, fmt.Errorf("map_tasks: %w", err)
	}
	if r.ReduceTasks, err = strconv.Atoi(rec[4]); err != nil {
		return r, fmt.Errorf("reduce_tasks: %w", err)
	}
	if r.MapScale, err = strconv.ParseFloat(rec[5], 64); err != nil {
		return r, fmt.Errorf("map_scale: %w", err)
	}
	if r.ReduceScale, err = strconv.ParseFloat(rec[6], 64); err != nil {
		return r, fmt.Errorf("reduce_scale: %w", err)
	}
	if r.Ratio, err = strconv.ParseFloat(rec[7], 64); err != nil {
		return r, fmt.Errorf("ratio: %w", err)
	}
	if r.Alpha, err = strconv.ParseFloat(rec[8], 64); err != nil {
		return r, fmt.Errorf("alpha: %w", err)
	}
	return r, r.Validate()
}
