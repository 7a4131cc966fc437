package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mrclone/internal/cluster"
)

// memCellCache is an in-memory CellCache that counts traffic.
type memCellCache struct {
	mu        sync.Mutex
	cells     map[[3]int]CellPayload
	lookups   int
	hits      int
	published int
}

func newMemCellCache() *memCellCache {
	return &memCellCache{cells: make(map[[3]int]CellPayload)}
}

func (c *memCellCache) Lookup(si, pi, run int) (CellPayload, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	p, ok := c.cells[[3]int{si, pi, run}]
	if ok {
		c.hits++
	}
	return p, ok
}

func (c *memCellCache) Publish(si, pi, run int, p CellPayload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.published++
	c.cells[[3]int{si, pi, run}] = p
}

// artifactBytes renders all three deterministic artifact encodings.
func artifactBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteAggregateCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCellCacheByteIdentical is the core reuse contract: artifacts must be
// byte-identical whether 0%, 50%, or 100% of cells resolve from the cache,
// at any parallelism.
func TestCellCacheByteIdentical(t *testing.T) {
	spec := testMatrix(t, 20)
	total := len(spec.Schedulers) * len(spec.Points) * spec.Runs

	cold, err := Run(context.Background(), spec, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := artifactBytes(t, cold)

	// Fill a cache from a cold run.
	full := newMemCellCache()
	if _, err := Run(context.Background(), spec, Options{Parallelism: 2, CellCache: full}); err != nil {
		t.Fatal(err)
	}
	if full.published != total {
		t.Fatalf("cold run published %d cells, want %d", full.published, total)
	}

	for _, tc := range []struct {
		name string
		keep func(i int) bool
	}{
		{"100pct", func(int) bool { return true }},
		{"50pct", func(i int) bool { return i%2 == 0 }},
		{"0pct", func(int) bool { return false }},
	} {
		for _, par := range []int{1, 4} {
			partial := newMemCellCache()
			i := 0
			for k, v := range full.cells {
				if tc.keep(i) {
					partial.cells[k] = v
				}
				i++
			}
			prefilled := len(partial.cells)
			var lastDone, lastCached int
			res, err := Run(context.Background(), spec, Options{
				Parallelism: par,
				CellCache:   partial,
				Progress: func(done, cached, total int) {
					lastDone, lastCached = done, cached
				},
			})
			if err != nil {
				t.Fatalf("%s par=%d: %v", tc.name, par, err)
			}
			if got := artifactBytes(t, res); !bytes.Equal(got, want) {
				t.Fatalf("%s par=%d: artifacts differ from cold run", tc.name, par)
			}
			if partial.hits != prefilled {
				t.Errorf("%s par=%d: %d cache hits, want %d", tc.name, par, partial.hits, prefilled)
			}
			if fresh := total - prefilled; partial.published != fresh {
				t.Errorf("%s par=%d: %d cells published, want %d", tc.name, par, partial.published, fresh)
			}
			if lastDone != total || lastCached != prefilled {
				t.Errorf("%s par=%d: final cell progress %d/%d cached, want %d/%d",
					tc.name, par, lastCached, lastDone, prefilled, total)
			}
		}
	}
}

// TestCellCacheRejectsMismatchedPayload: a payload whose identity fields
// contradict the cell (stale or miskeyed cache) must read as a miss, so a
// bad cache degrades to recomputation, never a wrong artifact.
func TestCellCacheRejectsMismatchedPayload(t *testing.T) {
	spec := testMatrix(t, 10)
	cold, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := artifactBytes(t, cold)

	cache := newMemCellCache()
	if _, err := Run(context.Background(), spec, Options{CellCache: cache}); err != nil {
		t.Fatal(err)
	}
	for k, p := range cache.cells {
		p.Seed++ // every entry now claims the wrong replicate seed
		cache.cells[k] = p
	}
	cache.published = 0
	res, err := Run(context.Background(), spec, Options{CellCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := artifactBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("mismatched cache payloads leaked into the artifact")
	}
	total := len(spec.Schedulers) * len(spec.Points) * spec.Runs
	if cache.published != total {
		t.Fatalf("recomputed %d cells, want all %d", cache.published, total)
	}
}

// TestCellCacheKeepRawSkipsLookup: a cached payload carries no raw engine
// result, so KeepRaw runs must bypass lookups while still publishing.
func TestCellCacheKeepRawSkipsLookup(t *testing.T) {
	spec := testMatrix(t, 10)
	cache := newMemCellCache()
	if _, err := Run(context.Background(), spec, Options{CellCache: cache}); err != nil {
		t.Fatal(err)
	}
	cache.lookups, cache.published = 0, 0
	res, err := Run(context.Background(), spec, Options{CellCache: cache, KeepRaw: true})
	if err != nil {
		t.Fatal(err)
	}
	if cache.lookups != 0 {
		t.Errorf("KeepRaw run performed %d cache lookups, want 0", cache.lookups)
	}
	if cache.published == 0 {
		t.Error("KeepRaw run published no cells")
	}
	for i := range res.Cells {
		if res.Cells[i].Raw == nil {
			t.Fatalf("cell %d lost its raw result", i)
		}
	}
}

// barrierCache is a CellCache whose lookups all block until n cells are in
// flight, then miss. It forces every cell of a matrix to be mid-execution
// simultaneously, making multi-cell failure deterministic.
type barrierCache struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
	n       int
}

func newBarrierCache(n int) *barrierCache {
	b := &barrierCache{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrierCache) Lookup(si, pi, run int) (CellPayload, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting++
	b.cond.Broadcast()
	for b.waiting < b.n {
		b.cond.Wait()
	}
	return CellPayload{}, false
}

func (b *barrierCache) Publish(si, pi, run int, p CellPayload) {}

// TestCellErrorsJoined: every failed cell is reported with its coordinates,
// joined in matrix order, not just the first error out of the pool.
func TestCellErrorsJoined(t *testing.T) {
	spec := testMatrix(t, 20)
	spec.MaxSlots = 3 // every cell overflows deterministically
	total := len(spec.Schedulers) * len(spec.Points) * spec.Runs
	// One worker per cell, all held at the barrier until the whole matrix is
	// in flight: the first failure cancels the feed, but every cell is
	// already executing and must drain into the report.
	_, err := Run(context.Background(), spec, Options{
		Parallelism: total,
		CellCache:   newBarrierCache(total),
	})
	if err == nil {
		t.Fatal("overflowing matrix succeeded")
	}
	if !errors.Is(err, cluster.ErrSlotOverflow) {
		t.Fatalf("want ErrSlotOverflow, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "(si=0,pi=0,run=0)") {
		t.Errorf("error does not name the first cell's coordinates: %v", msg)
	}
	if n := strings.Count(msg, "(si="); n != total {
		t.Errorf("%d cell errors joined, want all %d: %v", n, total, msg)
	}
	// Matrix order: coordinates appear sorted by flat index.
	prev := -1
	for _, line := range strings.Split(msg, "\n") {
		var si, pi, run int
		if _, err := fmt.Sscanf(line, "runner: cell (si=%d,pi=%d,run=%d)", &si, &pi, &run); err != nil {
			continue
		}
		idx := (si*len(spec.Points)+pi)*spec.Runs + run
		if idx <= prev {
			t.Fatalf("cell errors out of matrix order: %v", msg)
		}
		prev = idx
	}
}
