// Package fair implements a Hadoop-style weighted fair scheduler baseline:
// alive jobs share the cluster in proportion to their weights, with no
// cloning and no SRPT prioritization. It is the degenerate epsilon = 1 case
// of the machine-sharing principle in Section V-A ("when epsilon is set to
// 1, the scheduler just reduces to the fair scheduler in Hadoop"), minus
// speculative copies.
package fair

import (
	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/sched/schedutil"
)

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// and must not be shared by concurrently running engines.
type Scheduler struct {
	app    schedutil.Apportioner
	shares []float64
	tasks  []*job.Task
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// New returns a fair scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements cluster.Scheduler.
func (*Scheduler) Name() string { return "Fair" }

// EventDriven implements cluster.EventDriven: the weighted shares depend
// only on alive jobs' task states, so idle slots may be skipped.
func (*Scheduler) EventDriven() bool { return true }

// Schedule implements cluster.Scheduler: each job with unscheduled tasks is
// entitled to w_i*M/W machines; surplus entitlement beyond a job's demand is
// redistributed by a second greedy pass so the cluster does not idle.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	psi := schedutil.WithUnscheduledTasks(ctx.AliveJobs())
	if len(psi) == 0 {
		return
	}
	w := schedutil.TotalWeight(psi)
	if w <= 0 {
		return
	}
	m := float64(ctx.Machines())
	shares := s.shares[:0]
	for _, j := range psi {
		shares = append(shares, j.Spec.Weight*m/w)
	}
	s.shares = shares
	grant := s.app.LargestRemainder(shares, ctx.Machines())

	for i, j := range psi {
		x := grant[i] - j.RunningCopies
		if x <= 0 {
			continue
		}
		var free bool
		if s.tasks, free = schedutil.LaunchSingles(ctx, j, x, false, s.tasks); !free {
			return
		}
	}
	// Work-conserving second pass: hand leftover machines to any job with
	// unscheduled tasks, in arrival order.
	s.tasks, _ = schedutil.LaunchFirstCopies(ctx, psi, s.tasks)
}
