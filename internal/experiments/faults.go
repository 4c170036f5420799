package experiments

import (
	"fmt"
	"io"
	"time"

	"ktau/internal/analysis"
	"ktau/internal/faultsim"
	"ktau/internal/tcpsim"
)

// FaultStudy is the "Chiba with faults" experiment: the same monitored LU
// run executed clean, under a multi-fault degradation plan, and with the
// collector node crashing mid-run. It demonstrates that the monitoring
// pipeline keeps producing a truthful cluster view under faults — gaps and
// missed rounds are marked rather than silently absorbed, dead nodes show as
// DOWN rather than quiet, and the collector role fails over with the
// time-series store intact.
type FaultStudy struct {
	Ranks int
	// Clean is the fault-free baseline.
	Clean *LiveResult
	// Degraded runs under DegradedPlan: packet loss, extra latency, a brief
	// partition, a slowed node, a stalled monitoring agent and transient
	// procfs errors. The job still completes.
	Degraded *LiveResult
	// Crash runs under CrashPlan: the elected collector node dies mid-run,
	// forcing re-election.
	Crash *LiveResult
	// DegradedPlan / CrashPlan are the applied plans (defaults filled in).
	DegradedPlan, CrashPlan faultsim.Plan
}

// DegradedPlan is the multi-fault degradation schedule for a cluster of the
// given size (node names "ccn<i>"). It exercises six fault kinds at rates
// the job survives.
func DegradedPlan(nodes int, seed uint64) faultsim.Plan {
	name := func(i int) string { return fmt.Sprintf("ccn%d", i%nodes) }
	return faultsim.Plan{
		Seed: seed,
		// A fast-retransmit-style recovery rather than the full RTO, so the
		// chatty LU job degrades instead of grinding to a halt.
		RedeliverAfter: 20 * time.Millisecond,
		Faults: []faultsim.Fault{
			// 1% loss on all collection and application traffic, whole run.
			{Kind: faultsim.PacketLoss, Rate: 0.01},
			// One node's links get slower for a while.
			{Kind: faultsim.ExtraLatency, Node: name(1), At: 100 * time.Millisecond,
				For: 600 * time.Millisecond, Latency: 200 * time.Microsecond},
			// A brief partition: frames to/from the node are held back until
			// it heals.
			{Kind: faultsim.Partition, Node: name(3), At: 300 * time.Millisecond,
				For: 150 * time.Millisecond},
			// The last node computes at half speed for a window.
			{Kind: faultsim.CPUSlow, Node: name(nodes - 1), At: 200 * time.Millisecond,
				For: 500 * time.Millisecond, Factor: 2},
			// One monitoring agent is parked, creating missed rounds without
			// touching the job.
			{Kind: faultsim.DaemonStall, Node: name(2), Task: "kmond",
				At: 250 * time.Millisecond, For: 400 * time.Millisecond},
			// Reads of /proc/ktau fail transiently on one node; with the
			// agent's bounded retries most rounds recover, the rest ship gap
			// frames.
			{Kind: faultsim.ProcfsError, Node: name(1), Rate: 0.7,
				At: 400 * time.Millisecond, For: 300 * time.Millisecond},
		},
	}
}

// CrashPlan kills the collector node (uniform clusters elect index 0)
// mid-run.
func CrashPlan(seed uint64) faultsim.Plan {
	return faultsim.Plan{
		Seed: seed,
		Faults: []faultsim.Fault{
			{Kind: faultsim.NodeCrash, Node: "ccn0", At: 500 * time.Millisecond},
		},
	}
}

// RunFaultStudy executes the three configurations at one rank per node;
// parallel and workers select how the runs execute on the host, as the
// ChibaSpec fields of those names do.
func RunFaultStudy(ranks int, seed uint64, parallel bool, workers int) *FaultStudy {
	spec := DefaultChiba(ranks, 1)
	spec.Seed = seed
	spec.Parallel, spec.Workers = parallel, workers
	// A small send window so a broken link backs up — and is detected —
	// within a few collection rounds rather than tens.
	spec.TCP = tcpsim.DefaultParams()
	spec.TCP.SndBuf = 8 * 1024

	nodes := ranks / spec.PerNode
	study := &FaultStudy{
		Ranks:        ranks,
		DegradedPlan: DegradedPlan(nodes, seed).WithDefaults(),
		CrashPlan:    CrashPlan(seed).WithDefaults(),
	}

	study.Clean = RunChibaLive(spec, LiveOptions{})
	study.Degraded = RunChibaLive(spec, LiveOptions{Faults: &study.DegradedPlan})
	crashOpts := LiveOptions{Faults: &study.CrashPlan}
	boundCrash(&crashOpts)
	study.Crash = RunChibaLive(spec, crashOpts)
	return study
}

// boundCrash bounds a CrashPlan run. The crash leaves surviving ranks
// blocked on the dead peer forever, so the job deadline is tight and the
// pipeline runs a bounded number of rounds past the failover instead of
// waiting for the job.
func boundCrash(opts *LiveOptions) {
	opts.JobDeadline = 3 * time.Second
	opts.PerfMon.Rounds = 25
}

// Render prints the comparison.
func (s *FaultStudy) Render(w io.Writer) {
	fmt.Fprintf(w, "Chiba with faults: monitored LU, %d ranks, fault plans seeded independently\n", s.Ranks)
	row := func(r *LiveResult, label string) []string {
		st := r.Store
		var missed, gaps, down int
		for _, info := range st.Nodes() {
			missed += info.Missed
			gaps += info.Gaps
			if info.Down {
				down++
			}
		}
		completed := "yes"
		if !r.Completed {
			completed = "no"
		}
		return []string{
			label,
			fmt.Sprintf("%.3f", r.Exec.Seconds()),
			completed,
			fmt.Sprintf("%d", st.Frames()),
			fmt.Sprintf("%d", st.Drops()),
			fmt.Sprintf("%d", missed),
			fmt.Sprintf("%d", gaps),
			fmt.Sprintf("%d", r.Failovers),
			fmt.Sprintf("%d", down),
		}
	}
	analysis.Table(w, []string{"run", "exec(s)", "job done", "frames", "dropped",
		"missed", "gaps", "failovers", "down"},
		[][]string{
			row(s.Clean, "clean"),
			row(s.Degraded, "degraded"),
			row(s.Crash, "collector crash"),
		})

	if inj := s.Degraded.Injector; inj != nil {
		fmt.Fprintf(w, "degraded plan injected: %d losses, %d delayed, %d partitioned, %d slowdown transitions, %d stalls, %d procfs errors\n",
			inj.Stats.Losses, inj.Stats.Delays, inj.Stats.Partitioned,
			inj.Stats.Slowdowns, inj.Stats.Stalls, inj.Stats.ProcfsErrors)
	}
	if inj := s.Crash.Injector; inj != nil {
		fmt.Fprintf(w, "crash plan: %d node crashed; pipeline re-elected collector %d time(s), final collector node index %d\n",
			inj.Stats.Crashes, s.Crash.Failovers, s.Crash.Collector)
	}
	slow := s.Degraded.Exec.Seconds() / s.Clean.Exec.Seconds()
	fmt.Fprintf(w, "degradation slowed the job %.2fx while the pipeline stayed live on every node\n", slow)
	for _, nn := range s.Crash.Noise.Nodes {
		if nn.Down {
			fmt.Fprintf(w, "store after crash: node %s marked DOWN, pre-crash samples retained\n", nn.Node)
		}
	}
}
