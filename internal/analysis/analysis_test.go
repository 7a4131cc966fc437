package analysis

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/rng"
)

func TestChebyshevTailBound(t *testing.T) {
	cases := []struct{ k, want float64 }{
		{0, 1},
		{-1, 1},
		{0.5, 1}, // clipped
		{2, 0.25},
		{3, 1.0 / 9},
	}
	for _, tc := range cases {
		if got := ChebyshevTailBound(tc.k); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("k=%v: %v, want %v", tc.k, got, tc.want)
		}
	}
}

// The Chebyshev bound must hold empirically for an arbitrary finite-variance
// distribution.
func TestChebyshevEmpirically(t *testing.T) {
	d := dist.Lognormal{MuLog: 2, SigmaLog: 0.5}
	mean, sd := d.Mean(), d.StdDev()
	const n = 200000
	for _, k := range []float64{1.5, 2, 3} {
		exceed := 0
		src := rng.Derive(4, "cheb#"+strconv.Itoa(int(k*10)))
		for i := 0; i < n; i++ {
			if math.Abs(d.Sample(src)-mean) >= k*sd {
				exceed++
			}
		}
		rate := float64(exceed) / n
		if rate > ChebyshevTailBound(k) {
			t.Errorf("k=%v: empirical tail %v exceeds Chebyshev %v", k, rate, ChebyshevTailBound(k))
		}
	}
}

func TestCantelliUpperBound(t *testing.T) {
	if got := CantelliUpperBound(2, 0); got != 1 {
		t.Errorf("d=0: %v", got)
	}
	if got := CantelliUpperBound(0, 5); got != 0 {
		t.Errorf("sigma=0: %v", got)
	}
	if got := CantelliUpperBound(math.Inf(1), 5); got != 1 {
		t.Errorf("sigma=inf: %v", got)
	}
	if got := CantelliUpperBound(2, 2); got != 0.5 {
		t.Errorf("sigma=d=2: %v, want 0.5", got)
	}
}

func TestTheorem1SuccessProbability(t *testing.T) {
	if got := Theorem1SuccessProbability(1); got != 0 {
		t.Errorf("r=1: %v", got)
	}
	// r=3: ((9-1)/9)^2 = 64/81.
	if got, want := Theorem1SuccessProbability(3), 64.0/81; math.Abs(got-want) > 1e-12 {
		t.Errorf("r=3: %v, want %v", got, want)
	}
	// Monotone increasing toward 1.
	prev := 0.0
	for r := 1.1; r < 20; r += 0.7 {
		p := Theorem1SuccessProbability(r)
		if p <= prev || p >= 1 {
			t.Fatalf("success probability not in (prev, 1) at r=%v: %v", r, p)
		}
		prev = p
	}
}

func specsForBound(t *testing.T) []job.Spec {
	t.Helper()
	u, err := dist.NewUniform(5, 15)
	if err != nil {
		t.Fatal(err)
	}
	return []job.Spec{
		{ID: 0, Weight: 1, MapTasks: 2, MapDist: u, ReduceTask: 1, ReduceDist: u},
		{ID: 1, Weight: 2, MapTasks: 4, MapDist: u},
	}
}

func TestTheorem1Bound(t *testing.T) {
	specs := specsForBound(t)
	b, err := Theorem1Bound(specs, 0, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Reduce stats: mean 10, sd 10/sqrt(12).
	sd := 10 / math.Sqrt(12)
	fs := job.AccumulatedHigherPriorityWorkload(specs, 0, 2)
	want := 10 + 2*sd + fs/4
	if math.Abs(b-want) > 1e-9 {
		t.Errorf("bound = %v, want %v", b, want)
	}
	// Map-only job falls back to map stats.
	b1, err := Theorem1Bound(specs, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b1 <= 0 {
		t.Error("map-only bound should be positive")
	}
	// Errors.
	if _, err := Theorem1Bound(specs, -1, 4, 2); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := Theorem1Bound(specs, 0, 0, 2); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := Theorem1Bound(specs, 0, 4, -1); err == nil {
		t.Error("negative r accepted")
	}
}

func TestSRPTLowerBound(t *testing.T) {
	specs := specsForBound(t)
	lb, err := SRPTLowerBound(specs, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Fatal("lower bound must be positive")
	}
	// Doubling machines halves the bound.
	lb8, _ := SRPTLowerBound(specs, 8, 0)
	if math.Abs(lb8*2-lb) > 1e-9 {
		t.Errorf("bound should scale 1/M: %v vs %v", lb8, lb)
	}
	if _, err := SRPTLowerBound(specs, 0, 0); err == nil {
		t.Error("zero machines accepted")
	}
}

func TestCompetitiveRatio(t *testing.T) {
	ratio, err := CompetitiveRatio(50, 25)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 2 {
		t.Errorf("ratio = %v, want 2", ratio)
	}
	if _, err := CompetitiveRatio(1, 0); err == nil {
		t.Error("zero lower bound accepted")
	}
	if _, err := CompetitiveRatio(-1, 5); err == nil {
		t.Error("negative measured accepted")
	}
}

func TestTheorem2CompetitiveCeiling(t *testing.T) {
	// (C + 1 + eps)/eps^2 with C=2, eps=0.5: 3.5/0.25 = 14.
	got, err := Theorem2CompetitiveCeiling(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 14 {
		t.Errorf("ceiling = %v, want 14", got)
	}
	if _, err := Theorem2CompetitiveCeiling(0, 2); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Theorem2CompetitiveCeiling(1, 2); err == nil {
		t.Error("eps=1 accepted")
	}
	if _, err := Theorem2CompetitiveCeiling(0.5, 0); err == nil {
		t.Error("maxCopies=0 accepted")
	}
	// Smaller eps => larger ceiling (the o(1/eps^2) blow-up).
	c1, _ := Theorem2CompetitiveCeiling(0.2, 2)
	c2, _ := Theorem2CompetitiveCeiling(0.4, 2)
	if c1 <= c2 {
		t.Error("ceiling must grow as eps shrinks")
	}
}

func TestProposition1Holds(t *testing.T) {
	sqrtF := func(x float64) float64 { return math.Sqrt(x) }
	if !Proposition1Holds(sqrtF, 100, 200) {
		t.Error("sqrt rejected")
	}
	convex := func(x float64) float64 { return x * x }
	if Proposition1Holds(convex, 100, 200) {
		t.Error("x^2 accepted")
	}
	if Proposition1Holds(sqrtF, 0, 10) || Proposition1Holds(sqrtF, 10, 1) {
		t.Error("bad grid accepted")
	}
	// Property: any function a*x^b with 0<b<=1, a>0 passes.
	f := func(rawA, rawB float64) bool {
		a := math.Mod(math.Abs(rawA), 10) + 0.1
		b := math.Mod(math.Abs(rawB), 1)
		if b == 0 {
			b = 1
		}
		return Proposition1Holds(func(x float64) float64 { return a * math.Pow(x, b) }, 50, 100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
