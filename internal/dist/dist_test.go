package dist

import (
	"errors"
	"math"
	"testing"

	"mrclone/internal/rng"
)

// sampleMoments draws n variates and returns the empirical mean and
// (population) standard deviation.
func sampleMoments(t *testing.T, d Distribution, seed int64, n int) (mean, sd float64) {
	t.Helper()
	src := rng.New(seed)
	xs := make([]float64, n)
	var sum float64
	for i := range xs {
		xs[i] = d.Sample(src)
		sum += xs[i]
	}
	mean = sum / float64(n)
	var ss float64
	for _, x := range xs {
		dx := x - mean
		ss += dx * dx
	}
	return mean, math.Sqrt(ss / float64(n))
}

// TestAnalyticMomentsMatchEmpirical: for every finite-moment family, a large
// seeded sample must land within a few percent of the analytic moments.
func TestAnalyticMomentsMatchEmpirical(t *testing.T) {
	mk := func(d Distribution, err error) Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name string
		d    Distribution
		tol  float64 // relative tolerance on both moments
	}{
		{"deterministic", mk(NewDeterministic(7)), 1e-12},
		{"uniform", mk(NewUniform(5, 15)), 0.02},
		{"pareto-light", mk(NewPareto(5, 4)), 0.05},
		{"bounded-pareto", mk(NewBoundedPareto(1, 100, 1.5)), 0.05},
		{"bounded-pareto-sub1", mk(NewBoundedPareto(1, 500, 0.5)), 0.05},
		{"lognormal", Lognormal{MuLog: 2, SigmaLog: 0.5}, 0.03},
		{"lognormal-moments", mk(LognormalFromMoments(100, 50)), 0.03},
		{"scaled", mk(NewScaled(mk(NewUniform(1, 3)), 10)), 0.02},
	}
	const n = 200000
	for i, tc := range cases {
		mean, sd := sampleMoments(t, tc.d, int64(100+i), n)
		wantMean, wantSD := tc.d.Mean(), tc.d.StdDev()
		if math.IsInf(wantMean, 0) || math.IsInf(wantSD, 0) {
			t.Fatalf("%s: analytic moments must be finite here (mean=%v sd=%v)",
				tc.name, wantMean, wantSD)
		}
		if relErr(mean, wantMean) > tc.tol {
			t.Errorf("%s: empirical mean %v vs analytic %v", tc.name, mean, wantMean)
		}
		if relErr(sd, wantSD) > 3*tc.tol { // second moment converges slower
			t.Errorf("%s: empirical sd %v vs analytic %v", tc.name, sd, wantSD)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestHeavyTailInfiniteMoments: the Pareto moments must diverge exactly where
// theory says (mean at alpha <= 1, variance at alpha <= 2), never NaN.
func TestHeavyTailInfiniteMoments(t *testing.T) {
	cases := []struct {
		alpha          float64
		infMean, infSD bool
	}{
		{0.8, true, true},
		{1.0, true, true},
		{1.5, false, true},
		{2.0, false, true},
		{2.5, false, false},
	}
	for _, tc := range cases {
		p, err := NewPareto(5, tc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.IsInf(p.Mean(), 1); got != tc.infMean {
			t.Errorf("alpha=%v: mean inf=%v, want %v", tc.alpha, got, tc.infMean)
		}
		if got := math.IsInf(p.StdDev(), 1); got != tc.infSD {
			t.Errorf("alpha=%v: sd inf=%v, want %v", tc.alpha, got, tc.infSD)
		}
		if math.IsNaN(p.Mean()) || math.IsNaN(p.StdDev()) {
			t.Errorf("alpha=%v: NaN moment", tc.alpha)
		}
	}
}

// TestParetoFiniteMeanFormula pins the closed forms the speedup model and
// engine tests rely on: alpha=2, xm=10 has mean 20.
func TestParetoFiniteMeanFormula(t *testing.T) {
	p, err := NewPareto(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Mean(); math.Abs(got-20) > 1e-12 {
		t.Fatalf("Pareto(10,2) mean = %v, want 20", got)
	}
	p3, err := NewPareto(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p3.StdDev(); math.Abs(got-3*math.Sqrt(3)) > 1e-12 {
		t.Fatalf("Pareto(6,3) sd = %v, want 3*sqrt(3)", got)
	}
}

// TestSupportBounds: every draw must stay inside the distribution's support.
func TestSupportBounds(t *testing.T) {
	src := rng.New(11)
	bp, err := NewBoundedPareto(2, 50, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPareto(5, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUniform(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		if x := bp.Sample(src); x < 2 || x > 50 {
			t.Fatalf("bounded pareto draw %v outside [2, 50]", x)
		}
		if x := p.Sample(src); x < 5 {
			t.Fatalf("pareto draw %v below minimum 5", x)
		}
		if x := u.Sample(src); x < 3 || x >= 9 {
			t.Fatalf("uniform draw %v outside [3, 9)", x)
		}
	}
}

// TestBoundedParetoSpansSupport: the truncated sampler must actually reach
// both edges of its support, not just stay inside it.
func TestBoundedParetoSpansSupport(t *testing.T) {
	bp, err := NewBoundedPareto(1, 10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 100000; i++ {
		x := bp.Sample(src)
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if lo > 1.01 || hi < 9 {
		t.Fatalf("draws span [%v, %v], want nearly [1, 10]", lo, hi)
	}
}

// TestBoundedParetoMomentContinuity: the moment formula must be continuous
// across its alpha=k singularities (log branch vs power branch).
func TestBoundedParetoMomentContinuity(t *testing.T) {
	for _, k := range []float64{1, 2} {
		at := func(alpha float64) float64 {
			return BoundedPareto{Lo: 1, Hi: 100, Alpha: alpha}.moment(k)
		}
		exact, below, above := at(k), at(k-1e-7), at(k+1e-7)
		if relErr(below, exact) > 1e-4 || relErr(above, exact) > 1e-4 {
			t.Errorf("moment %v discontinuous at alpha=%v: %v / %v / %v",
				k, k, below, exact, above)
		}
	}
}

// TestDeterminism: equal seeds must give identical streams, distinct seeds
// distinct streams.
func TestDeterminism(t *testing.T) {
	ln, err := LognormalFromMoments(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []float64 {
		src := rng.New(seed)
		out := make([]float64, 50)
		for i := range out {
			out[i] = ln.Sample(src)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("distinct seeds produced identical streams")
	}
}

// TestConstructorErrorPaths: every invalid parameter must be rejected with an
// error wrapping ErrBadParam.
func TestConstructorErrorPaths(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	ok, err := NewDeterministic(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"det-negative", errOf(NewDeterministic(-1))},
		{"det-nan", errOf(NewDeterministic(nan))},
		{"det-inf", errOf(NewDeterministic(inf))},
		{"uniform-lo>=hi", errOf(NewUniform(5, 5))},
		{"uniform-inverted", errOf(NewUniform(9, 3))},
		{"uniform-negative", errOf(NewUniform(-1, 3))},
		{"pareto-zero-xm", errOf(NewPareto(0, 2))},
		{"pareto-negative-xm", errOf(NewPareto(-5, 2))},
		{"pareto-zero-alpha", errOf(NewPareto(5, 0))},
		{"pareto-negative-alpha", errOf(NewPareto(5, -1))},
		{"pareto-nan-alpha", errOf(NewPareto(5, nan))},
		{"bp-zero-lo", errOf(NewBoundedPareto(0, 10, 1))},
		{"bp-lo>=hi", errOf(NewBoundedPareto(10, 10, 1))},
		{"bp-alpha<=0", errOf(NewBoundedPareto(1, 10, 0))},
		{"lognormal-moments-zero-mean", errOf(LognormalFromMoments(0, 1))},
		{"lognormal-moments-negative-sd", errOf(LognormalFromMoments(1, -1))},
		{"scaled-nil", errOf(NewScaled(nil, 2))},
		{"scaled-zero", errOf(NewScaled(ok, 0))},
		{"scaled-negative", errOf(NewScaled(ok, -3))},
		{"scaled-nan", errOf(NewScaled(ok, nan))},
		{"speedup-alpha<=1", errOfS(NewParetoSpeedup(1))},
		{"speedup-nan", errOfS(NewParetoSpeedup(nan))},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(tc.err, ErrBadParam) {
			t.Errorf("%s: error %v does not wrap ErrBadParam", tc.name, tc.err)
		}
	}
}

func errOf(_ Distribution, err error) error { return err }
func errOfS(_ Speedup, err error) error     { return err }

// TestValidZeroCases: boundary parameters that must be accepted.
func TestValidZeroCases(t *testing.T) {
	if _, err := NewDeterministic(0); err != nil {
		t.Errorf("deterministic 0 rejected: %v", err)
	}
	if _, err := NewUniform(0, 1); err != nil {
		t.Errorf("uniform lo=0 rejected: %v", err)
	}
	d, err := LognormalFromMoments(10, 0)
	if err != nil {
		t.Fatalf("lognormal sd=0 rejected: %v", err)
	}
	if got := d.Sample(rng.New(1)); math.Abs(got-10) > 1e-9 {
		t.Errorf("degenerate lognormal draw %v, want 10", got)
	}
}

// TestSampleNMatchesSample holds every batched sampler to the BatchSampler
// contract the engine relies on when it draws a launch's workloads in one
// call: SampleN gives the values successive Sample calls give, bit for bit,
// and leaves the stream where they leave it.
func TestSampleNMatchesSample(t *testing.T) {
	mk := func(d Distribution, err error) Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	bp := mk(NewBoundedPareto(1, 40, 1.3))            // truncation term precomputed
	bpLit := BoundedPareto{Lo: 1, Hi: 40, Alpha: 1.3} // computed per call
	cases := []struct {
		name string
		d    Distribution
	}{
		{"deterministic", mk(NewDeterministic(7))},
		{"uniform", mk(NewUniform(5, 15))},
		{"pareto", mk(NewPareto(5, 1.5))},
		{"lognormal", mk(LognormalFromMoments(100, 50))},
		{"bounded-pareto", bp},
		{"bounded-pareto-literal", bpLit},
		{"scaled-bounded-pareto", mk(NewScaled(bp, 12.5))},
		{"scaled-bounded-pareto-literal", mk(NewScaled(bpLit, 12.5))},
	}
	for _, tc := range cases {
		if _, ok := tc.d.(BatchSampler); !ok {
			t.Fatalf("%s: no batched path to test", tc.name)
		}
		for _, n := range []int{1, 3, 8} {
			batch, single := rng.New(int64(n)), rng.New(int64(n))
			got := make([]float64, n)
			SampleN(tc.d, got, batch)
			for i, g := range got {
				if want := tc.d.Sample(single); math.Float64bits(g) != math.Float64bits(want) {
					t.Errorf("%s, batch of %d: draw %d is %v, Sample gives %v", tc.name, n, i, g, want)
				}
			}
			if a, b := batch.Float64(), single.Float64(); a != b {
				t.Errorf("%s, batch of %d: next draws %v and %v, streams out of step", tc.name, n, a, b)
			}
		}
	}
}
