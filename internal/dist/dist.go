// Package dist provides the statistical workload distributions the paper's
// schedulers and trace generator are built on: the heavy-tailed task-duration
// models of Section III (Pareto, bounded Pareto, lognormal), the point mass
// and uniform families of the theorem checks, and the scaling wrapper that
// gives each generated job its own duration scale.
//
// Every distribution exposes its first two moments analytically — the
// scheduler information model of the paper is exactly (E, sigma) per phase —
// and samples from a deterministic rng.Source stream — by inverse-CDF
// transformation where the quantile function has a closed form — so equal
// seeds give equal traces regardless of sampling order elsewhere. Heavy-tailed families report +Inf moments where the analytic
// moment diverges (Pareto with alpha <= 1 has no mean, alpha <= 2 no
// variance); consumers such as the analysis package treat an infinite sigma
// as a vacuous concentration bound.
//
// Constructors validate their parameters and return wrapped ErrBadParam
// errors; composite literals (used by the trace generator for serialized
// rows) bypass validation, mirroring the job.Spec convention.
package dist

import (
	"errors"

	"mrclone/internal/rng"
)

// Distribution is a non-negative workload distribution with analytically
// known first and second moments.
//
// Sample draws one variate from the given deterministic stream. Mean and
// StdDev are the analytic moments E[X] and sqrt(Var[X]); they return +Inf
// when the moment diverges (heavy tails), never NaN.
type Distribution interface {
	Sample(src *rng.Source) float64
	Mean() float64
	StdDev() float64
}

// ErrBadParam is wrapped by every constructor error in this package.
var ErrBadParam = errors.New("dist: invalid parameter")

// BatchSampler is implemented by distributions that can draw many variates
// in one call. SampleN must fill dst with exactly the values len(dst)
// successive Sample calls on the same stream would produce — bit-identical,
// consuming the stream identically — so callers may batch freely without
// perturbing seeded runs. The cluster engine draws one batch per launch
// call, which keeps the per-copy cost at the transcendental floor instead
// of an interface dispatch per draw.
type BatchSampler interface {
	SampleN(dst []float64, src *rng.Source)
}

// SampleN fills dst with successive draws from d, using the batched path
// when d implements BatchSampler and falling back to per-draw Sample calls
// otherwise. Both paths consume the stream identically.
func SampleN(d Distribution, dst []float64, src *rng.Source) {
	if b, ok := d.(BatchSampler); ok {
		b.SampleN(dst, src)
		return
	}
	for i := range dst {
		dst[i] = d.Sample(src)
	}
}
