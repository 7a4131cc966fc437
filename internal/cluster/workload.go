package cluster

import (
	"fmt"
	"sort"

	"mrclone/internal/job"
)

// Workload is a job set prepared once for any number of runs: every spec
// validated, job IDs checked unique, specs sorted by arrival (stably), and
// each spec's phase moments and place in an engine's task records computed.
// It is read-only once NewWorkload returns, so engines on different
// goroutines may share one.
type Workload struct {
	jobs  []workloadJob // arrival order
	tasks int           // task count over every job
}

// workloadJob is one spec of a Workload with what every run derives from it.
type workloadJob struct {
	spec        job.Spec
	mapStats    job.Stats // spec.PhaseStats(job.PhaseMap)
	reduceStats job.Stats // spec.PhaseStats(job.PhaseReduce)
	firstTask   int       // index of the job's first task record in a run
}

// NewWorkload prepares specs for simulation. It copies them, so the caller
// may reuse the slice.
func NewWorkload(specs []job.Spec) (*Workload, error) {
	// Schedulers break ties by job ID, so IDs must be unique.
	first := make(map[int]int, len(specs))
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
		if prev, dup := first[specs[i].ID]; dup {
			return nil, fmt.Errorf("%w: job ID %d repeated at specs %d and %d",
				job.ErrBadSpec, specs[i].ID, prev, i)
		}
		first[specs[i].ID] = i
	}
	w := &Workload{jobs: make([]workloadJob, len(specs))}
	for i, s := range specs {
		w.jobs[i] = workloadJob{
			spec:        s,
			mapStats:    s.PhaseStats(job.PhaseMap),
			reduceStats: s.PhaseStats(job.PhaseReduce),
		}
	}
	sort.SliceStable(w.jobs, func(i, j int) bool {
		return w.jobs[i].spec.Arrival < w.jobs[j].spec.Arrival
	})
	for i := range w.jobs {
		w.jobs[i].firstTask = w.tasks
		w.tasks += w.jobs[i].spec.TotalTasks()
	}
	return w, nil
}

// Storage is the memory an engine runs in: its jobs, task records, task
// lists and progress views, the task runs with their copy records (a
// freelist, and the blocks new ones are carved from), the calendar, the
// alive set and scratch buffers. The zero value is ready to use.
//
// An engine built on a Storage takes that memory over, and the next engine
// built on it takes it back, so the earlier engine must not be used again:
// a Storage serves one goroutine, one engine at a time. It grows to the
// largest workload it has run and keeps nothing else from earlier runs, so
// a run's Result does not depend on what ran before on the same Storage,
// and a Result never references it.
type Storage struct {
	e Engine
}

// fit returns s resized to n elements, reusing its backing array when it is
// large enough. Reused elements keep stale values; callers overwrite them.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
