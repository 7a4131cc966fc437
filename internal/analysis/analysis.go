// Package analysis provides numerical verification of the paper's theory:
// the Chebyshev machinery behind Lemma 1 and Theorem 1, Proposition 1's
// concavity ratio property, and the competitive-ratio accounting used in the
// offline (Remark 2) and online (Theorem 2) guarantees. The experiments and
// tests use it to check that measured behaviour stays inside the proven
// envelopes.
package analysis

import (
	"errors"
	"fmt"
	"math"

	"mrclone/internal/job"
)

// ErrBadArgument flags invalid analysis inputs.
var ErrBadArgument = errors.New("analysis: bad argument")

// ChebyshevTailBound returns the two-sided Chebyshev bound
// P(|X - mean| >= k*sigma) <= 1/k^2, clipped to [0, 1]. It is the inequality
// behind Lemma 1's r^2-1 / r^2 success probability.
func ChebyshevTailBound(k float64) float64 {
	if k <= 0 {
		return 1
	}
	b := 1 / (k * k)
	if b > 1 {
		return 1
	}
	return b
}

// CantelliUpperBound returns the one-sided (Cantelli) bound
// P(X - mean >= d) <= sigma^2 / (sigma^2 + d^2) for d > 0.
func CantelliUpperBound(sigma, d float64) float64 {
	if d <= 0 {
		return 1
	}
	if sigma == 0 {
		return 0
	}
	if math.IsInf(sigma, 1) {
		return 1
	}
	return sigma * sigma / (sigma*sigma + d*d)
}

// Theorem1SuccessProbability returns the probability floor of Theorem 1:
// the flowtime bound holds with probability at least 1 + 1/r^4 - 2/r^2
// (equivalently ((r^2-1)/r^2)^2).
func Theorem1SuccessProbability(r float64) float64 {
	if r <= 1 {
		return 0
	}
	q := (r*r - 1) / (r * r)
	return q * q
}

// Theorem1Bound returns the offline flowtime bound for spec i among specs:
// E^r_i + r*sigma^r_i + f^s_i / M, where the first two terms use the reduce
// phase when present and the map phase otherwise (a map-only job's last task
// is a map task).
func Theorem1Bound(specs []job.Spec, i, machines int, r float64) (float64, error) {
	if i < 0 || i >= len(specs) {
		return 0, fmt.Errorf("%w: index %d of %d specs", ErrBadArgument, i, len(specs))
	}
	if machines <= 0 {
		return 0, fmt.Errorf("%w: machines %d", ErrBadArgument, machines)
	}
	if r < 0 {
		return 0, fmt.Errorf("%w: deviation factor %v", ErrBadArgument, r)
	}
	stats := specs[i].PhaseStats(job.PhaseReduce)
	if specs[i].ReduceTask == 0 {
		stats = specs[i].PhaseStats(job.PhaseMap)
	}
	fs := job.AccumulatedHigherPriorityWorkload(specs, i, r)
	return stats.Mean + r*stats.StdDev + fs/float64(machines), nil
}

// SRPTLowerBound returns the single-machine SRPT lower bound on the weighted
// sum of flowtimes: sum_i w_i * f^s_i / M (Remark 2: "the performance of the
// optimal scheduler is no better than the SRPT scheduler with one machine...
// the flowtime of each job is just f^s_i / M").
func SRPTLowerBound(specs []job.Spec, machines int, r float64) (float64, error) {
	if machines <= 0 {
		return 0, fmt.Errorf("%w: machines %d", ErrBadArgument, machines)
	}
	var sum float64
	for i := range specs {
		fs := job.AccumulatedHigherPriorityWorkload(specs, i, r)
		sum += specs[i].Weight * fs / float64(machines)
	}
	return sum, nil
}

// CompetitiveRatio returns the ratio of a measured weighted flowtime to a
// lower bound on the optimum. Values <= c certify c-competitiveness on this
// instance (the converse does not hold: the bound may be loose).
func CompetitiveRatio(measured, lowerBound float64) (float64, error) {
	if lowerBound <= 0 {
		return 0, fmt.Errorf("%w: lower bound %v", ErrBadArgument, lowerBound)
	}
	if measured < 0 {
		return 0, fmt.Errorf("%w: measured %v", ErrBadArgument, measured)
	}
	return measured / lowerBound, nil
}

// Theorem2CompetitiveCeiling returns the o(1/eps^2)-style ceiling used in
// Theorem 2's statement, instantiated as (C + 1 + eps)/eps^2 with C the
// maximum copies per task (Equation 33 of the appendix).
func Theorem2CompetitiveCeiling(eps float64, maxCopies int) (float64, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("%w: eps %v outside (0,1)", ErrBadArgument, eps)
	}
	if maxCopies < 1 {
		return 0, fmt.Errorf("%w: max copies %d", ErrBadArgument, maxCopies)
	}
	return (float64(maxCopies) + 1 + eps) / (eps * eps), nil
}

// Proposition1Holds numerically checks f(a)/a >= f(b)/b for b >= a > 0 on a
// grid, for any concave speedup-like function f with f(0) >= 0.
func Proposition1Holds(f func(float64) float64, maxX float64, steps int) bool {
	if steps < 2 || maxX <= 0 {
		return false
	}
	type pt struct{ x, ratio float64 }
	prev := pt{}
	first := true
	for i := 1; i <= steps; i++ {
		x := maxX * float64(i) / float64(steps)
		ratio := f(x) / x
		if !first && ratio > prev.ratio+1e-9 {
			return false
		}
		prev = pt{x: x, ratio: ratio}
		first = false
	}
	return true
}
