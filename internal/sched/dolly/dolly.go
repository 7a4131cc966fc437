// Package dolly implements a Dolly-style pure-cloning baseline
// (Ananthanarayanan et al., "Effective Straggler Mitigation: Attack of the
// Clones", NSDI 2013 — reference [2] of the paper): clone *every* task of
// sufficiently small jobs up-front within a cluster-wide cloning budget, and
// run everything else without speculation. Jobs are served FIFO.
//
// Dolly's insight is that small jobs dominate job counts while contributing
// little load, so cloning them wholesale is cheap insurance; the paper's
// critique is that this greedy heuristic carries no performance guarantee
// and does not prioritize jobs.
package dolly

import (
	"fmt"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
)

// Config parameterizes the Dolly baseline.
type Config struct {
	// SmallJobTasks is the maximum total task count for a job to be cloned
	// (Dolly clones jobs below a task-count threshold; default 10).
	SmallJobTasks int
	// Copies is the number of copies per task of a small job (default 3).
	Copies int
	// BudgetFraction caps machines spent on clone copies (beyond first
	// copies) as a fraction of the cluster (Dolly's ~5-10%; default 0.1).
	BudgetFraction float64
}

// Defaults for Config zero values.
const (
	DefaultSmallJobTasks  = 10
	DefaultCopies         = 3
	DefaultBudgetFraction = 0.1
)

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// and must not be shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	tasks []*job.Task
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// New returns a Dolly-style scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.SmallJobTasks == 0 {
		cfg.SmallJobTasks = DefaultSmallJobTasks
	}
	if cfg.SmallJobTasks < 1 {
		return nil, fmt.Errorf("dolly: small-job threshold %d", cfg.SmallJobTasks)
	}
	if cfg.Copies == 0 {
		cfg.Copies = DefaultCopies
	}
	if cfg.Copies < 1 {
		return nil, fmt.Errorf("dolly: copies %d", cfg.Copies)
	}
	if cfg.BudgetFraction == 0 {
		cfg.BudgetFraction = DefaultBudgetFraction
	}
	if cfg.BudgetFraction < 0 || cfg.BudgetFraction > 1 {
		return nil, fmt.Errorf("dolly: budget fraction %v outside [0, 1]", cfg.BudgetFraction)
	}
	return &Scheduler{cfg: cfg}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string {
	return fmt.Sprintf("Dolly(<=%d tasks x%d)", s.cfg.SmallJobTasks, s.cfg.Copies)
}

// EventDriven implements cluster.EventDriven: the clone budget and copy
// counts are recomputed from task states each slot, so idle slots may be
// skipped.
func (s *Scheduler) EventDriven() bool { return true }

// Schedule implements cluster.Scheduler.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	alive := ctx.AliveJobs() // FIFO

	// Current clone budget: machines running copies beyond one per task.
	cloneBudget := int(s.cfg.BudgetFraction*float64(ctx.Machines())) - ctx.SpeculativeCopies()

	for _, j := range alive {
		if ctx.FreeMachines() == 0 {
			return
		}
		copies := 1
		if j.Spec.TotalTasks() <= s.cfg.SmallJobTasks {
			copies = s.cfg.Copies
		}
		cloneBudget = s.fillPhase(ctx, j, job.PhaseMap, copies, cloneBudget)
		if !j.MapPhaseDone() {
			continue
		}
		cloneBudget = s.fillPhase(ctx, j, job.PhaseReduce, copies, cloneBudget)
	}
}

// fillPhase launches the unscheduled tasks of one phase with up to `copies`
// copies each, charging extra copies against the clone budget. It returns
// the remaining budget.
func (s *Scheduler) fillPhase(ctx *cluster.Context, j *job.Job, p job.Phase,
	copies, cloneBudget int) int {
	s.tasks = j.AppendUnscheduled(s.tasks[:0], p)
	for _, t := range s.tasks {
		if ctx.FreeMachines() == 0 {
			return cloneBudget
		}
		n := copies
		if extra := n - 1; extra > cloneBudget {
			n = 1 + cloneBudget
		}
		if n > ctx.FreeMachines() {
			n = ctx.FreeMachines()
		}
		if n < 1 {
			n = 1
		}
		launched, err := ctx.Launch(j, t, n, false)
		if err != nil {
			return cloneBudget
		}
		if launched > 1 {
			cloneBudget -= launched - 1
		}
	}
	return cloneBudget
}
