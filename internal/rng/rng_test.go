package rng

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Float64(), b.Float64(); got != want {
			t.Fatalf("draw %d: %v != %v", i, got, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	childA := Derive(7, "a")
	// Drawing from childA must not perturb a sibling derived later.
	for i := 0; i < 100; i++ {
		childA.Float64()
	}
	childB := Derive(7, "b")
	childB2 := Derive(7, "b")
	for i := 0; i < 100; i++ {
		if got, want := childB.Float64(), childB2.Float64(); got != want {
			t.Fatalf("sibling stream perturbed at draw %d: %v != %v", i, got, want)
		}
	}
}

func TestSplitDistinctLabels(t *testing.T) {
	a := Derive(1, "alpha")
	b := Derive(1, "beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for distinct labels look identical: %d/100 equal draws", same)
	}
}

func TestDeriveDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		seed := deriveSeed(3, "task#"+strconv.Itoa(i))
		if seen[seed] {
			t.Fatalf("duplicate derived seed for index %d", i)
		}
		seen[seed] = true
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanApproximatelyHalf(t *testing.T) {
	s := New(99)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}
