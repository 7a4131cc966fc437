// Package offline implements Algorithm 1 of Xu & Lau (ICDCS 2015): the
// SRPT-derived offline scheduler for the bulk-arrival case in which every
// job is present at time zero.
//
// Jobs are ranked once by the static priority w_i / phi_i, where
// phi_i = m_i(E^m_i + r sigma^m_i) + r_i(E^r_i + r sigma^r_i) is the
// effective workload (Equation 2). Whenever a machine frees up, it is given
// to an unscheduled task of the highest-ranked job that still has one, map
// tasks before reduce tasks; no clones are made (in the overloaded bulk
// regime cloning cannot help when s(x) <= x). Reduce tasks may occupy a
// machine before the job's map phase completes but make no progress until it
// does, matching the paper's analysis of the last-finishing reduce task.
//
// When task-duration variance is zero the algorithm is 2-competitive for the
// weighted sum of flowtimes (Remark 2); with variance, each job's flowtime
// is bounded by E^r_i + r sigma^r_i + f^s_i/M with probability at least
// 1 + 1/r^4 - 2/r^2 (Theorem 1).
package offline

import (
	"fmt"
	"math"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/sched/schedutil"
)

// Config parameterizes Algorithm 1.
type Config struct {
	// DeviationFactor is r in Equation 2. Zero is valid (ignore variance).
	DeviationFactor float64
	// GateReduces controls whether reduce tasks may be launched (gated)
	// before their job's map phase completes, as the paper's pseudo-code
	// allows. Disabling it holds reduce tasks back instead and never wastes
	// a machine on a stalled copy.
	GateReduces bool
}

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// and must not be shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	sorter schedutil.Sorter
	tasks  []*job.Task
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// New returns an offline bulk-arrival scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.DeviationFactor < 0 || math.IsNaN(cfg.DeviationFactor) {
		return nil, fmt.Errorf("offline: deviation factor %v negative", cfg.DeviationFactor)
	}
	return &Scheduler{cfg: cfg}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string {
	return fmt.Sprintf("Offline-SRPT(r=%g)", s.cfg.DeviationFactor)
}

// EventDriven implements cluster.EventDriven: the static phi_i priorities
// depend only on the specs and task states, so idle slots may be skipped.
func (s *Scheduler) EventDriven() bool { return true }

// LaunchesGatedCopies implements cluster.GatedLauncher: with GateReduces,
// Schedule launches reduce copies behind a closed map gate, so the event
// loop must keep invoking it while such tasks remain unscheduled.
func (s *Scheduler) LaunchesGatedCopies() bool { return s.cfg.GateReduces }

// Schedule implements cluster.Scheduler (Algorithm 1). The priority order is
// static — phi_i depends only on the spec — so re-sorting each slot yields
// the same ranking the one-shot sort in the pseudo-code produces.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	jobs := ctx.AliveJobs()
	s.sorter.ByOfflinePriorityDesc(jobs, s.cfg.DeviationFactor)
	for _, j := range jobs {
		var free bool
		if s.tasks, free = schedutil.LaunchSingles(ctx, j, math.MaxInt, s.cfg.GateReduces, s.tasks); !free {
			return
		}
	}
}
