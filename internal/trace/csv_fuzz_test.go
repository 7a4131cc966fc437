package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV asserts four properties of the CSV parser on arbitrary
// input: it never panics; any input it accepts round-trips — writing the
// parsed trace and parsing it again yields identical rows (the parsed form
// is a fixed point); every trace it accepts builds its job specs, since
// the reader applies the same row rule as JobRow.Spec; and no two rows of
// an accepted trace share an id. Shortest round-trip float formatting
// (strconv 'g', -1) is what makes the second property hold exactly.
func FuzzReadCSV(f *testing.F) {
	// Seed with a real generated trace, the header alone, and assorted
	// near-miss corruptions.
	p := GoogleParams()
	p.Jobs = 5
	p.Span = 100
	tr, err := Generate(p)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := tr.WriteCSV(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(strings.Join(csvHeader, ",") + "\n")
	f.Add("")
	f.Add("id,arrival\n1,2\n")
	f.Add(strings.Join(csvHeader, ",") + "\n0,1,2,3,4,5,6,7,8\n")
	f.Add(strings.Join(csvHeader, ",") + "\n0,1,99,3,4,5,6,7,8\n") // bad priority
	f.Add(strings.Join(csvHeader, ",") + "\nx,1,2,3,4,5,6,7,8\n")  // bad int
	f.Add(strings.Join(csvHeader, ",") + "\n0,1,2,3,4,NaN,6,7,8\n")
	f.Add(strings.Join(csvHeader, ",") + "\n0,0,1,2,0,5,0,1,0\n") // ratio 1: no job spec builds
	// Two valid rows that share id 0.
	f.Add(strings.Join(csvHeader, ",") + "\n0,0,1,2,0,5,0,20,1.5\n0,10,1,2,0,5,0,20,1.5\n")

	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		if _, err := tr.Specs(); err != nil {
			t.Fatalf("accepted trace does not build job specs: %v\ninput: %q", err, data)
		}
		seen := make(map[int]bool, len(tr.Rows))
		for _, r := range tr.Rows {
			if seen[r.ID] {
				t.Fatalf("accepted trace repeats id %d\ninput: %q", r.ID, data)
			}
			seen[r.ID] = true
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatalf("WriteCSV of accepted trace: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-parse of written trace: %v\ninput: %q\nwritten: %q", err, data, out.String())
		}
		if len(back.Rows) != len(tr.Rows) {
			t.Fatalf("row count changed: %d -> %d", len(tr.Rows), len(back.Rows))
		}
		if len(tr.Rows) > 0 && !reflect.DeepEqual(tr.Rows, back.Rows) {
			t.Fatalf("rows not a fixed point:\nfirst:  %+v\nsecond: %+v", tr.Rows, back.Rows)
		}
	})
}
