package schedutil

import (
	"math"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/dist"
	"mrclone/internal/job"
)

type phaseKey struct {
	j *job.Job
	p job.Phase
}

// scanModel is a scheduler that launches first copies and then calls
// ScanCache.Scan with an arbitrary deterministic scan, checking every call
// against a map-based model: the phases scanned must be exactly the new,
// changed, due and again ones, each scan must get its phase's previous
// result, and the returned wake must be the minimum over all phases.
type scanModel struct {
	t     *testing.T
	cache ScanCache
	tasks []*job.Task

	changes map[*job.Job]uint64
	last    map[phaseKey]PhaseScan
	fresh   map[phaseKey]PhaseScan // results of the current call's scans
	skipped int                    // phases a call kept from the cache
}

func (m *scanModel) Name() string { return "scan-model" }

func (m *scanModel) Schedule(ctx *cluster.Context) {
	t := m.t
	alive := ctx.AliveJobs()
	m.tasks, _ = LaunchFirstCopies(ctx, alive, m.tasks)
	now := ctx.Now()
	clear(m.fresh)
	wake := m.cache.Scan(ctx, alive, func(_ *cluster.Context, j *job.Job, p job.Phase, last PhaseScan) PhaseScan {
		k := phaseKey{j, p}
		if want, ok := m.last[k]; !ok && last.At != -1 || ok && last != want {
			t.Errorf("slot %d, job %d %v: scan got last %+v, model has %+v", now, j.Spec.ID, p, last, want)
		}
		h := now + int64(j.Spec.ID) + int64(p)
		ps := PhaseScan{Wake: math.MaxInt64, Again: h%5 == 0}
		if h%3 != 0 {
			ps.Wake = now + h%3
		}
		m.fresh[k] = ps
		return ps
	})
	want := int64(math.MaxInt64)
	for i, j := range alive {
		if i >= len(m.cache.jobs) || m.cache.jobs[i].j != j {
			t.Fatalf("slot %d: cache entry %d is not alive job %d", now, i, j.Spec.ID)
		}
		prev, seen := m.changes[j]
		changed := !seen || prev != j.Changes()
		for _, p := range [...]job.Phase{job.PhaseMap, job.PhaseReduce} {
			k := phaseKey{j, p}
			last, ok := m.last[k]
			need := !ok || changed || last.Again || last.Wake <= now
			ps, scanned := m.fresh[k]
			if need != scanned {
				t.Fatalf("slot %d, job %d %v: scanned %v, want %v", now, j.Spec.ID, p, scanned, need)
			}
			if scanned {
				ps.At = now
				m.last[k] = ps
			} else {
				m.skipped++
			}
			want = min(want, m.last[k].Wake)
		}
		m.changes[j] = j.Changes()
	}
	if len(m.cache.jobs) != len(alive) {
		t.Fatalf("slot %d: cache holds %d jobs, %d alive", now, len(m.cache.jobs), len(alive))
	}
	if wake != want {
		t.Fatalf("slot %d: Scan returned wake %d, want %d", now, wake, want)
	}
}

// TestScanCacheRescansOnlyStalePhases runs the model over jobs that arrive
// while others run and finish out of arrival order, so the merge walk both
// drops retired jobs from the middle of the cache and appends new ones.
func TestScanCacheRescansOnlyStalePhases(t *testing.T) {
	var specs []job.Spec
	for i, c := range []struct {
		arrival        int64
		maps, reduces  int
		mapDur, redDur float64
	}{
		{0, 3, 2, 40, 30},
		{2, 2, 1, 5, 5},
		{4, 4, 0, 12, 0},
		{9, 1, 3, 7, 20},
		{30, 2, 2, 3, 9},
		{31, 5, 1, 25, 4},
	} {
		s := job.Spec{ID: i, Arrival: c.arrival, Weight: 1, MapTasks: c.maps, ReduceTask: c.reduces}
		var err error
		if s.MapDist, err = dist.NewDeterministic(c.mapDur); err != nil {
			t.Fatal(err)
		}
		if c.reduces > 0 {
			if s.ReduceDist, err = dist.NewDeterministic(c.redDur); err != nil {
				t.Fatal(err)
			}
		}
		specs = append(specs, s)
	}
	m := &scanModel{t: t, changes: map[*job.Job]uint64{}, last: map[phaseKey]PhaseScan{}, fresh: map[phaseKey]PhaseScan{}}
	eng, err := cluster.New(cluster.Config{Machines: 6, Seed: 1, Loop: cluster.LoopNaive}, m, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishedJobs != len(specs) {
		t.Fatalf("finished %d/%d jobs", res.FinishedJobs, len(specs))
	}
	if m.skipped == 0 {
		t.Fatal("every phase was rescanned on every call")
	}
}
