package dist

import (
	"fmt"
	"math"

	"mrclone/internal/rng"
)

// Lognormal is the lognormal distribution: exp of a Normal(MuLog, SigmaLog)
// variate. The trace generator uses it for between-job duration skew — the
// multiplicative noise model matching production traces where per-job means
// spread over several orders of magnitude.
type Lognormal struct {
	MuLog, SigmaLog float64
}

var _ Distribution = Lognormal{}

// LognormalFromMoments returns the lognormal distribution with the given
// real-space mean > 0 and standard deviation >= 0, inverting
//
//	mean = exp(mu + sigma^2/2),  sd^2 = mean^2 (exp(sigma^2) - 1).
func LognormalFromMoments(mean, sd float64) (Distribution, error) {
	if math.IsNaN(mean) || math.IsInf(mean, 0) || mean <= 0 {
		return nil, fmt.Errorf("%w: lognormal mean %v", ErrBadParam, mean)
	}
	if math.IsNaN(sd) || math.IsInf(sd, 0) || sd < 0 {
		return nil, fmt.Errorf("%w: lognormal stddev %v", ErrBadParam, sd)
	}
	cv := sd / mean
	sigma2 := math.Log1p(cv * cv)
	return Lognormal{
		MuLog:    math.Log(mean) - sigma2/2,
		SigmaLog: math.Sqrt(sigma2),
	}, nil
}

// Sample implements Distribution.
func (l Lognormal) Sample(src *rng.Source) float64 {
	return math.Exp(l.MuLog + l.SigmaLog*src.NormFloat64())
}

// SampleN implements BatchSampler.
func (l Lognormal) SampleN(dst []float64, src *rng.Source) {
	for i := range dst {
		dst[i] = math.Exp(l.MuLog + l.SigmaLog*src.NormFloat64())
	}
}

// Mean implements Distribution.
func (l Lognormal) Mean() float64 {
	return math.Exp(l.MuLog + l.SigmaLog*l.SigmaLog/2)
}

// StdDev implements Distribution.
func (l Lognormal) StdDev() float64 {
	s2 := l.SigmaLog * l.SigmaLog
	return l.Mean() * math.Sqrt(math.Expm1(s2))
}
