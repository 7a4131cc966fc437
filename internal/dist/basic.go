package dist

import (
	"fmt"
	"math"

	"mrclone/internal/rng"
)

// Deterministic is the point mass at Value: every task takes exactly the same
// time. It is the zero-variance limit the paper's Remark 2 analyzes.
type Deterministic struct {
	Value float64
}

var _ Distribution = Deterministic{}

// NewDeterministic returns the point mass at v. v must be finite and
// non-negative.
func NewDeterministic(v float64) (Distribution, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return nil, fmt.Errorf("%w: deterministic value %v", ErrBadParam, v)
	}
	return Deterministic{Value: v}, nil
}

// Sample implements Distribution.
func (d Deterministic) Sample(*rng.Source) float64 { return d.Value }

// SampleN implements BatchSampler.
func (d Deterministic) SampleN(dst []float64, _ *rng.Source) {
	for i := range dst {
		dst[i] = d.Value
	}
}

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.Value }

// StdDev implements Distribution.
func (d Deterministic) StdDev() float64 { return 0 }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

var _ Distribution = Uniform{}

// NewUniform returns the uniform distribution on [lo, hi). It requires
// 0 <= lo < hi, both finite.
func NewUniform(lo, hi float64) (Distribution, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("%w: uniform bounds [%v, %v)", ErrBadParam, lo, hi)
	}
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("%w: uniform bounds [%v, %v)", ErrBadParam, lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

// Sample implements Distribution.
func (u Uniform) Sample(src *rng.Source) float64 {
	return u.Lo + (u.Hi-u.Lo)*src.Float64()
}

// SampleN implements BatchSampler.
func (u Uniform) SampleN(dst []float64, src *rng.Source) {
	lo, span := u.Lo, u.Hi-u.Lo
	for i := range dst {
		dst[i] = lo + span*src.Float64()
	}
}

// Mean implements Distribution.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// StdDev implements Distribution.
func (u Uniform) StdDev() float64 { return (u.Hi - u.Lo) / math.Sqrt(12) }

// Scaled multiplies every draw of an inner distribution by Factor. The trace
// generator uses it to give each job its own duration scale on a shared
// within-job shape: Scaled(BoundedPareto(1, ratio, alpha), scale).
type Scaled struct {
	Inner  Distribution
	Factor float64
}

var _ Distribution = Scaled{}

// NewScaled wraps d so every sample and both moments are multiplied by
// factor > 0.
func NewScaled(d Distribution, factor float64) (Distribution, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: scaled nil distribution", ErrBadParam)
	}
	if math.IsNaN(factor) || math.IsInf(factor, 0) || factor <= 0 {
		return nil, fmt.Errorf("%w: scale factor %v", ErrBadParam, factor)
	}
	return Scaled{Inner: d, Factor: factor}, nil
}

// Sample implements Distribution.
func (s Scaled) Sample(src *rng.Source) float64 { return s.Factor * s.Inner.Sample(src) }

// SampleN implements BatchSampler: a batched inner draw scaled in place
// (multiplication commutes bit-exactly, so this matches per-draw Sample).
func (s Scaled) SampleN(dst []float64, src *rng.Source) {
	SampleN(s.Inner, dst, src)
	for i := range dst {
		dst[i] *= s.Factor
	}
}

// Mean implements Distribution.
func (s Scaled) Mean() float64 { return s.Factor * s.Inner.Mean() }

// StdDev implements Distribution.
func (s Scaled) StdDev() float64 { return s.Factor * s.Inner.StdDev() }
