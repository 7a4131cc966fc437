// Package rng provides deterministic, label-derived pseudo-random number
// generation for reproducible simulations.
//
// Every experiment in this repository derives all of its randomness from a
// single root seed. Sub-streams are derived by hashing a path of string
// labels into the root seed, so that
//
//   - the same (seed, label-path) always yields the same stream, and
//   - independent components (trace generation, per-task duration sampling,
//     scheduler tie-breaking) consume independent streams and can be
//     re-ordered or parallelized without perturbing each other.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic random stream.
type Source struct {
	rnd *rand.Rand
}

// New returns a Source rooted at the given seed.
func New(seed int64) *Source {
	return &Source{rnd: rand.New(rand.NewSource(seed))}
}

// Derive returns the stream a label path names below seed: each label is
// hashed into the seed derived so far. No source is built along the way (a
// source is a few KB of state seeded in full), and deriving a stream draws
// nothing from any other.
func Derive(seed int64, path ...string) *Source {
	for _, label := range path {
		seed = deriveSeed(seed, label)
	}
	return New(seed)
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
