// Package sched implements a Flux-like workload manager (paper §4.3, §5.2):
// a queue manager (Q) feeding a resource-graph matcher (R) over a
// cluster.Machine, with the paper's two queueing/matching policy axes —
// exhaustive lowest-resource-ID matching versus greedy first-match, and
// synchronous versus asynchronous Q↔R communication. The synchronous +
// exhaustive configuration reproduces the 4000-node scheduling bottleneck of
// Fig. 6; the asynchronous + first-match configuration is the fix whose
// matcher-work improvement the paper measures at 670×.
//
// The scheduler runs on a vclock.Virtual: the campaign driver replays
// Summit-scale job streams in virtual time.
package sched

import (
	"fmt"
	"time"

	"mummi/internal/cluster"
	"mummi/internal/vclock"
)

// JobID identifies a submitted job.
type JobID int64

// State is a job's lifecycle state.
type State int

// Job lifecycle states.
const (
	Pending State = iota
	Running
	Completed
	Failed
	Canceled
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Request describes a job's resource needs. The paper's campaign uses four
// single-node job types (CG setup, CG sim, AA setup, AA sim) plus one
// multi-node continuum job; NodeCount > 1 expresses the latter.
type Request struct {
	// Name labels the job type ("cg-sim", "createsim", ...).
	Name string
	// NodeCount is the number of nodes required (min 1).
	NodeCount int
	// Cores is the CPU cores required on each node.
	Cores int
	// GPUs is the GPUs required on each node.
	GPUs int
	// Duration, when positive, auto-completes the job that long after it
	// starts. Zero means the job runs until Complete/Fail is called.
	Duration time.Duration
}

func (r Request) normalize() Request {
	if r.NodeCount < 1 {
		r.NodeCount = 1
	}
	return r
}

func (r Request) validate(t cluster.Topology) error {
	r = r.normalize()
	if r.Cores < 0 || r.GPUs < 0 || (r.Cores == 0 && r.GPUs == 0) {
		return fmt.Errorf("sched: request %q asks for no resources", r.Name)
	}
	if r.Cores > t.CoresPerNode() || r.GPUs > t.GPUsPerNode {
		return fmt.Errorf("sched: request %q exceeds node capacity (%d cores, %d gpus)",
			r.Name, r.Cores, r.GPUs)
	}
	if r.NodeCount > t.Nodes {
		return fmt.Errorf("sched: request %q wants %d nodes, machine has %d", r.Name, r.NodeCount, t.Nodes)
	}
	return nil
}

// Job is the scheduler's record of one submitted job. The scheduler holds
// it while the job is pending or running; the OnFinish callback receives it
// whole at the job's end, after which the scheduler keeps only its State.
type Job struct {
	ID    JobID
	Req   Request
	State State

	SubmitTime time.Time
	StartTime  time.Time
	EndTime    time.Time

	Alloc cluster.Alloc

	autoDone vclock.EventID // the armed auto-completion; zero when none is
	matching bool           // R is matching the job, so Cancel is refused
}

// Placement is one entry of the placement timeline (Fig. 6's x-axis).
type Placement struct {
	Time time.Time
	Job  JobID
}
