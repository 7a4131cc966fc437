// Package srpt implements a pure SRPT scheduler on M machines without
// cloning: the epsilon -> 0 degenerate case of SRPTMS+C. Jobs are ordered
// by w_i / U_i(l) on remaining effective workload and greedily given one
// copy per unscheduled task, maps before reduces. It is the classical
// multi-machine SRPT baseline of Fox & Moseley (SODA 2011) extended with
// the paper's two-phase precedence, and serves as the optimal-scheduler
// proxy in the competitive-ratio experiments.
package srpt

import (
	"fmt"
	"math"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/sched/schedutil"
)

// Config parameterizes SRPT.
type Config struct {
	// DeviationFactor is r in the effective workload.
	DeviationFactor float64
}

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// and must not be shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	sorter schedutil.Sorter
	tasks  []*job.Task
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// New returns a pure SRPT scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.DeviationFactor < 0 || math.IsNaN(cfg.DeviationFactor) {
		return nil, fmt.Errorf("srpt: deviation factor %v negative", cfg.DeviationFactor)
	}
	return &Scheduler{cfg: cfg}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string {
	return fmt.Sprintf("SRPT(r=%g)", s.cfg.DeviationFactor)
}

// EventDriven implements cluster.EventDriven: priorities depend only on
// remaining effective workloads, so idle slots may be skipped.
func (s *Scheduler) EventDriven() bool { return true }

// Schedule implements cluster.Scheduler.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	psi := schedutil.WithUnscheduledTasks(ctx.AliveJobs())
	if len(psi) == 0 {
		return
	}
	s.sorter.ByPriorityDesc(psi, s.cfg.DeviationFactor)
	s.tasks, _ = schedutil.LaunchFirstCopies(ctx, psi, s.tasks)
}
