package tenant

import (
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func mustRegistry(t *testing.T, tenants ...Tenant) *Registry {
	t.Helper()
	r, err := NewRegistry(tenants)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	return r
}

func TestParseValidConfig(t *testing.T) {
	r, err := Parse([]byte(`{
		"tenants": [
			{"name": "alpha", "token": "tok-a", "weight": 3, "max_queued": 4, "max_cells": 100, "rate": 10, "burst": 20},
			{"name": "beta", "token": "tok-b"},
			{"name": "gamma", "token": "tok-c", "disabled": true}
		]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got, want := r.Len(), 3; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := strings.Join(r.Names(), ","), "alpha,beta,gamma"; got != want {
		t.Fatalf("Names = %q, want %q", got, want)
	}
	a, ok := r.Lookup("alpha")
	if !ok || a.Weight != 3 || a.MaxQueued != 4 || a.MaxCells != 100 || a.Rate != 10 || a.Burst != 20 {
		t.Fatalf("alpha = %+v, ok=%v", a, ok)
	}
	b, _ := r.Lookup("beta")
	if b.Weight != 1 || b.Burst != 1 || b.Rate != 0 {
		t.Fatalf("beta defaults = %+v (want weight 1, burst 1, rate 0)", b)
	}
	if w := r.Weight("alpha"); w != 3 {
		t.Fatalf("Weight(alpha) = %v", w)
	}
	if w := r.Weight("nobody"); w != 1 {
		t.Fatalf("Weight(nobody) = %v, want default 1", w)
	}
}

func TestParseRejectsBadConfigs(t *testing.T) {
	cases := map[string]string{
		"empty object":    `{}`,
		"no tenants":      `{"tenants": []}`,
		"unknown field":   `{"tenants": [{"name": "a", "token": "t", "color": "red"}]}`,
		"trailing data":   `{"tenants": [{"name": "a", "token": "t"}]} {}`,
		"missing name":    `{"tenants": [{"token": "t"}]}`,
		"missing token":   `{"tenants": [{"name": "a"}]}`,
		"bad name chars":  `{"tenants": [{"name": "a b", "token": "t"}]}`,
		"space in token":  `{"tenants": [{"name": "a", "token": "t t"}]}`,
		"dup name":        `{"tenants": [{"name": "a", "token": "t1"}, {"name": "a", "token": "t2"}]}`,
		"dup token":       `{"tenants": [{"name": "a", "token": "t"}, {"name": "b", "token": "t"}]}`,
		"negative weight": `{"tenants": [{"name": "a", "token": "t", "weight": -1}]}`,
		"negative quota":  `{"tenants": [{"name": "a", "token": "t", "max_queued": -1}]}`,
		"negative cells":  `{"tenants": [{"name": "a", "token": "t", "max_cells": -1}]}`,
		"negative rate":   `{"tenants": [{"name": "a", "token": "t", "rate": -1}]}`,
		"negative burst":  `{"tenants": [{"name": "a", "token": "t", "burst": -1}]}`,
		"not json":        `tenants:`,
	}
	for label, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: Parse accepted %s", label, in)
		}
	}
}

func TestAuthenticate(t *testing.T) {
	r := mustRegistry(t,
		Tenant{Name: "a", Token: "tok-a"},
		Tenant{Name: "off", Token: "tok-off", Disabled: true},
	)
	if _, err := r.Authenticate(""); !errors.Is(err, ErrNoToken) {
		t.Fatalf("empty token: %v, want ErrNoToken", err)
	}
	if _, err := r.Authenticate("nope"); !errors.Is(err, ErrUnknownToken) {
		t.Fatalf("unknown token: %v, want ErrUnknownToken", err)
	}
	if _, err := r.Authenticate("tok-off"); !errors.Is(err, ErrDisabled) {
		t.Fatalf("disabled tenant: %v, want ErrDisabled", err)
	}
	tn, err := r.Authenticate("tok-a")
	if err != nil || tn.Name != "a" {
		t.Fatalf("Authenticate(tok-a) = %+v, %v", tn, err)
	}
}

func TestAdmitRateLimit(t *testing.T) {
	r := mustRegistry(t, Tenant{Name: "a", Token: "tok", Rate: 1, Burst: 2})
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if _, err := r.Admit("tok", now); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	_, err := r.Admit("tok", now)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over burst: %v, want ErrRateLimited", err)
	}
	var rl *RateLimitError
	if !errors.As(err, &rl) || rl.Tenant != "a" {
		t.Fatalf("error = %#v, want *RateLimitError for tenant a", err)
	}
	if rl.RetryAfter <= 0 || rl.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %s, want (0, 1s]", rl.RetryAfter)
	}
	// After the advertised wait, one token has accrued.
	if _, err := r.Admit("tok", now.Add(rl.RetryAfter)); err != nil {
		t.Fatalf("admit after RetryAfter: %v", err)
	}
	// Idle time never accumulates beyond burst.
	later := now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if _, err := r.Admit("tok", later); err != nil {
			t.Fatalf("post-idle admit %d: %v", i, err)
		}
	}
	if _, err := r.Admit("tok", later); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-idle over burst: %v, want ErrRateLimited", err)
	}
}

func TestAdmitUnlimitedWhenRateZero(t *testing.T) {
	r := mustRegistry(t, Tenant{Name: "a", Token: "tok"})
	now := time.Unix(1000, 0)
	for i := 0; i < 1000; i++ {
		if _, err := r.Admit("tok", now); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
}

func TestBearerToken(t *testing.T) {
	cases := []struct {
		header, want string
	}{
		{"", ""},
		{"Bearer abc", "abc"},
		{"bearer abc", "abc"},
		{"BEARER abc", "abc"},
		{"Bearer   abc  ", "abc"},
		{"Basic abc", ""},
		{"Bearer", ""},
		{"Bearer ", ""},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", "/", nil)
		if c.header != "" {
			req.Header.Set("Authorization", c.header)
		}
		if got := BearerToken(req); got != c.want {
			t.Errorf("BearerToken(%q) = %q, want %q", c.header, got, c.want)
		}
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](PolicyFIFO, nil, 1)
	q.Push("a", 9, 1)
	q.Push("b", 1, 2)
	q.Push("a", 5, 3)
	for want := 1; want <= 3; want++ {
		v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v want %d", v, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestQueueSRPT(t *testing.T) {
	q := NewQueue[int](PolicySRPT, nil, 1)
	q.Push("a", 30, 1)
	q.Push("b", 10, 2)
	q.Push("a", 10, 3) // ties with 2; 2 arrived first
	q.Push("b", 20, 4)
	var order []int
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, v)
	}
	want := []int{2, 3, 4, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("srpt order = %v, want %v", order, want)
		}
	}
}

func TestQueueFairConvergesToWeights(t *testing.T) {
	weights := map[string]float64{"a": 3, "b": 1}
	q := NewQueue[int](PolicyFair, func(n string) float64 { return weights[n] }, 42)
	// Sustained backlog: after each pop, refill the popped tenant so both
	// always have queued work.
	counts := map[string]int{}
	q.Push("a", 1, 1)
	q.Push("b", 1, 2)
	const draws = 4000
	for i := 0; i < draws; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue unexpectedly empty")
		}
		tn := "a"
		if v%2 == 0 {
			tn = "b"
		}
		counts[tn]++
		q.Push(tn, 1, v) // refill same parity → same tenant
	}
	share := float64(counts["a"]) / draws
	if math.Abs(share-0.75) > 0.03 {
		t.Fatalf("tenant a share = %.3f over %d draws, want ~0.75", share, draws)
	}
}

func TestQueueFairIdleTenantRedistributes(t *testing.T) {
	weights := map[string]float64{"a": 3, "b": 1}
	q := NewQueue[int](PolicyFair, func(n string) float64 { return weights[n] }, 7)
	// Only b has work: every draw must pick b even at weight 1.
	for i := 0; i < 50; i++ {
		q.Push("b", 1, i)
	}
	for i := 0; i < 50; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d (FIFO within tenant)", v, ok, i)
		}
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue[int](PolicyFIFO, nil, 1)
	q.Push("a", 1, 1)
	q.Push("a", 1, 2)
	q.Push("b", 1, 3)
	if !q.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if q.Remove(2) {
		t.Fatal("second Remove(2) = true")
	}
	for _, want := range []int{1, 3} {
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("Pop = %d,%v want %d", v, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue not empty after popping the remaining items")
	}
}

// TestQueueDropsPoppedItems pushes two items under each policy, pops both
// and checks the whole backing array: no slot may still reference either
// item, or the queue would keep finished work reachable.
func TestQueueDropsPoppedItems(t *testing.T) {
	for _, policy := range []Policy{PolicyFIFO, PolicyFair, PolicySRPT} {
		q := NewQueue[*int](policy, nil, 1)
		a, b := new(int), new(int)
		q.Push("a", 2, a)
		q.Push("b", 1, b)
		for range 2 {
			if _, ok := q.Pop(); !ok {
				t.Fatalf("%s: Pop on a queue of two reported empty", policy)
			}
		}
		for i, it := range q.items[:cap(q.items)] {
			if it.v != nil {
				t.Errorf("%s: slot %d of the drained queue still references a popped item", policy, i)
			}
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": PolicyFIFO, "fifo": PolicyFIFO, "fair": PolicyFair, "srpt": PolicySRPT,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %q, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Fatal("ParsePolicy(lifo) accepted")
	}
}
