// Package rng provides deterministic, label-splittable pseudo-random number
// generation for reproducible simulations.
//
// Every experiment in this repository derives all of its randomness from a
// single root seed. Sub-streams are derived by hashing string labels and
// integer indexes into the parent seed, so that
//
//   - the same (seed, label-path) always yields the same stream, and
//   - independent components (trace generation, per-task duration sampling,
//     scheduler tie-breaking) consume independent streams and can be
//     re-ordered or parallelized without perturbing each other.
package rng

import (
	"hash/fnv"
	"math/rand"
	"strconv"
)

// Source is a deterministic random stream that can be split into
// independent child streams by label.
type Source struct {
	seed int64
	rnd  *rand.Rand
}

// New returns a Source rooted at the given seed.
func New(seed int64) *Source {
	return &Source{
		seed: seed,
		rnd:  rand.New(rand.NewSource(seed)),
	}
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Split derives an independent child stream from a string label. Splitting
// does not consume randomness from the parent, so the parent stream is
// unaffected by how many children are derived.
func (s *Source) Split(label string) *Source {
	return New(deriveSeed(s.seed, label))
}

// SplitN derives an independent child stream from a label and an index,
// convenient for per-item streams (for example, one stream per task).
func (s *Source) SplitN(label string, n int) *Source {
	return New(deriveSeed(s.seed, label+"#"+strconv.Itoa(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.rnd.Float64() }

// Intn returns a uniform int in [0, n). n must be > 0.
func (s *Source) Intn(n int) int { return s.rnd.Intn(n) }

// NormFloat64 returns a standard normal variate.
func (s *Source) NormFloat64() float64 { return s.rnd.NormFloat64() }

// deriveSeed mixes a parent seed and a label into a child seed using FNV-1a.
// FNV is not cryptographic but provides excellent avalanche behaviour for
// stream separation, which is all that simulation reproducibility requires.
func deriveSeed(parent int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(parent) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	return int64(h.Sum64())
}
