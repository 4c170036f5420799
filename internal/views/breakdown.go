package views

import (
	"fmt"
	"sort"

	"ktau/internal/experiments"
	"ktau/internal/perfmon"
)

// BuildLive renders one live-monitored Chiba run as the paper's integrated
// view: the job summary, the per-rank kernel/user time breakdown, the
// per-node kernel activity by KTAU group (incl/excl, from the online
// collector), the OS-noise and daemon-occupancy overlay aligned to the rank
// rows, the collection pipeline's own health, and — when the trace pipeline
// ran — its per-node self-metrics.
func BuildLive(res *experiments.LiveResult) *Report {
	r := &Report{
		Title:    "KTAU integrated view: " + res.Spec.Name(),
		Subtitle: fmt.Sprintf("%s, %d ranks, seed %d", res.Spec.Work, res.Spec.Ranks, res.Spec.Seed),
	}
	liveSummary(r.AddSection("Run"), res)
	rankBreakdown(r.AddSection("Per-rank kernel/user breakdown"), res.Ranks)
	nodeGroups(r.AddSection("Per-node kernel activity by KTAU group"), res)
	noiseOverlay(r.AddSection("OS-noise and daemon-occupancy overlay"), res.Noise)
	pipelineHealth(r.AddSection("Collection pipeline"), res.Store)
	if res.Trace != nil {
		traceSection(r.AddSection("Trace pipeline"), res)
	}
	return r
}

func liveSummary(s *Section, res *experiments.LiveResult) {
	s.AddFact("configuration", res.Spec.Name())
	s.AddFactf("instrumentation", "%s", res.Spec.Instr)
	s.AddFact("execution time", FmtDur(res.Exec))
	s.AddFactf("completed", "%v", res.Completed)
	s.AddFactf("collector node", "%d (failovers %d, drained %v)",
		res.Collector, res.Failovers, res.Drained)
	s.AddFactf("frames", "%d ingested, %d dropped", res.Store.Frames(), res.Store.Drops())
	if res.Injector != nil {
		st := res.Injector.Stats
		s.AddFactf("fault plan", "%d losses, %d delays, %d partitioned, %d slowdowns, %d stalls, %d procfs errors, %d crashes",
			st.Losses, st.Delays, st.Partitioned, st.Slowdowns, st.Stalls, st.ProcfsErrors, st.Crashes)
	}
}

// rankBreakdown is the per-rank table: wall execution next to the KTAU
// kernel times (scheduling split voluntary/involuntary, interrupts) and the
// TAU user-level times (MPI_Recv, the LU rhs compute routine) — the
// user/kernel alignment the paper's Figs. 3-6 read off.
func rankBreakdown(s *Section, ranks []experiments.RankData) {
	t := &Table{
		Caption: "Per-rank times: wall, kernel (KTAU), user (TAU)",
		Head: []string{"rank", "node", "exec", "sched(vol)", "sched(invol)",
			"irq", "MPI_Recv excl", "rhs excl"},
	}
	execBars := &BarPanel{Caption: "Rank execution time"}
	for _, rk := range ranks {
		t.Rows = append(t.Rows, []string{
			FmtCount(rk.Rank), rk.Node, FmtDur(rk.Exec),
			FmtDur(rk.VolSched), FmtDur(rk.InvolSched), FmtDur(rk.IRQ),
			FmtDur(rk.MPIRecvExcl), FmtDur(rk.RhsExcl),
		})
		execBars.Bars = append(execBars.Bars, Bar{
			Label: fmt.Sprintf("rank %d (%s)", rk.Rank, rk.Node),
			Value: float64(rk.Exec),
			Text:  FmtDur(rk.Exec),
		})
	}
	s.Tables = append(s.Tables, t)
	s.Bars = append(s.Bars, execBars)

	// The kernel time inside MPI_Recv, split by group, is the mapping view
	// (Fig. 4): which kernel subsystems the receive path actually spent
	// its time in.
	groups := map[string]bool{}
	for _, rk := range ranks {
		for g := range rk.RecvKernelGroups {
			groups[g] = true
		}
	}
	if len(groups) == 0 {
		return
	}
	names := sortedKeys(groups)
	mt := &Table{
		Caption: "Kernel time inside MPI_Recv by KTAU group (event mapping)",
		Head:    append([]string{"rank"}, names...),
	}
	for _, rk := range ranks {
		row := []string{FmtCount(rk.Rank)}
		for _, g := range names {
			row = append(row, FmtDur(rk.RecvKernelGroups[g]))
		}
		mt.Rows = append(mt.Rows, row)
	}
	s.Tables = append(s.Tables, mt)
}

// nodeGroups renders each node's kernel activity split by KTAU group, with
// inclusive and exclusive cycles from the online collector store and the
// offline harvest's exclusive durations side by side.
func nodeGroups(s *Section, res *experiments.LiveResult) {
	type groupAgg struct {
		calls      uint64
		incl, excl int64
	}
	groups := map[string]bool{}
	perNode := map[string]map[string]*groupAgg{}
	for _, info := range res.Store.Nodes() {
		agg := map[string]*groupAgg{}
		for _, t := range res.Store.Totals(info.Name) {
			g := t.Group.String()
			groups[g] = true
			a := agg[g]
			if a == nil {
				a = &groupAgg{}
				agg[g] = a
			}
			a.calls += t.Calls
			a.incl += t.Incl
			a.excl += t.Excl
		}
		perNode[info.Name] = agg
	}
	names := sortedKeys(groups)
	t := &Table{
		Caption: "Online collector totals per node (cycles)",
		Head:    []string{"node", "group", "calls", "incl", "excl"},
	}
	for _, info := range res.Store.Nodes() {
		for _, g := range names {
			a := perNode[info.Name][g]
			if a == nil {
				continue
			}
			t.Rows = append(t.Rows, []string{
				info.Name, g, FmtCount(a.calls), FmtCount(a.incl), FmtCount(a.excl),
			})
		}
	}
	s.Tables = append(s.Tables, t)

	// The offline harvest's per-node exclusive durations cross-check the
	// online view in wall units.
	if len(res.LiveNodes) > 0 {
		lt := &Table{
			Caption: "Per-node exclusive time by group (online store, wall units)",
			Head:    append([]string{"node"}, names...),
		}
		schedBars := &BarPanel{Caption: "Kernel scheduling time per node"}
		for _, ln := range res.LiveNodes {
			row := []string{ln.Name}
			for _, g := range names {
				row = append(row, FmtDur(ln.GroupExcl[g]))
			}
			lt.Rows = append(lt.Rows, row)
			if d := ln.GroupExcl["SCHED"]; d > 0 {
				schedBars.Bars = append(schedBars.Bars, Bar{
					Label: ln.Name, Value: float64(d), Text: FmtDur(d),
				})
			}
		}
		s.Tables = append(s.Tables, lt)
		if len(schedBars.Bars) > 0 {
			s.Bars = append(s.Bars, schedBars)
		}
	}
}

// noiseOverlay renders the OS-noise report aligned to the rank rows: each
// node's capacity share lost to noise, and — for flagged nodes — which
// daemons stole the cycles and which application ranks absorbed the
// interference.
func noiseOverlay(s *Section, rep perfmon.NoiseReport) {
	s.AddFactf("cluster median noise share", "%s (flag threshold %s)",
		FmtPct(rep.MedianShare), FmtPct(rep.Threshold))
	t := &Table{
		Caption: "Per-node noise over the detection window",
		Head:    []string{"node", "cpus", "irq(kc)", "bh(kc)", "daemon(kc)", "noise share", "status"},
	}
	shareBars := &BarPanel{Caption: "Noise share of compute capacity"}
	for _, nn := range rep.Nodes {
		status := "ok"
		if nn.Flagged {
			status = "NOISY"
		}
		if nn.Down {
			status = "DOWN"
		}
		t.Rows = append(t.Rows, []string{
			nn.Node, FmtCount(nn.CPUs), FmtCount(nn.IRQ / 1000), FmtCount(nn.BH / 1000),
			FmtCount(nn.Daemon / 1000), FmtPct(nn.Share), status,
		})
		shareBars.Bars = append(shareBars.Bars, Bar{
			Label: nn.Node, Value: nn.Share, Text: FmtPct(nn.Share),
		})
	}
	s.Tables = append(s.Tables, t)
	s.Bars = append(s.Bars, shareBars)

	for _, nn := range rep.Nodes {
		if !nn.Flagged {
			continue
		}
		sub := s.AddSub("Attribution: " + nn.Node)
		if len(nn.TopDaemons) > 0 {
			dt := &Table{
				Caption: "Daemon occupancy (timer-tick sampling)",
				Head:    []string{"daemon", "pid", "ticks", "stolen cycles"},
			}
			for _, d := range nn.TopDaemons {
				dt.Rows = append(dt.Rows, []string{
					d.Name, FmtCount(d.PID), FmtCount(d.Ticks), FmtCount(d.Cycles),
				})
			}
			sub.Tables = append(sub.Tables, dt)
		}
		if len(nn.Ranks) > 0 {
			rt := &Table{
				Caption: "Rank interference (most perturbed first)",
				Head:    []string{"rank task", "pid", "irq+bh cycles", "sched cycles"},
			}
			for _, rk := range nn.Ranks {
				rt.Rows = append(rt.Rows, []string{
					rk.Name, FmtCount(rk.PID), FmtCount(rk.Interference), FmtCount(rk.Sched),
				})
			}
			sub.Tables = append(sub.Tables, rt)
		}
	}
}

// pipelineHealth is the collection pipeline's own accounting: frames,
// payload, and the loud failure markers (missed rounds, gaps, drops, DOWN).
func pipelineHealth(s *Section, st *perfmon.Store) {
	t := &Table{
		Caption: "Per-node collection state",
		Head:    []string{"node", "cpus", "rounds", "wire bytes", "missed", "gaps", "drops", "down"},
	}
	for _, info := range st.Nodes() {
		t.Rows = append(t.Rows, []string{
			info.Name, FmtCount(info.CPUs), FmtCount(info.Rounds), FmtCount(info.Bytes),
			FmtCount(info.Missed), FmtCount(info.Gaps), FmtCount(info.Drops),
			fmt.Sprintf("%v", info.Down),
		})
	}
	s.Tables = append(s.Tables, t)
	hotTable(s, st, 10)
}

// hotTable lists the cluster's top-K kernel routines. The cap is announced
// in the caption so a truncated list never reads as the whole story.
func hotTable(s *Section, st *perfmon.Store, k int) {
	hot := st.TopK(k, 0)
	if len(hot) == 0 {
		return
	}
	t := &Table{
		Caption: fmt.Sprintf("Top %d kernel routines cluster-wide (by exclusive cycles)", k),
		Head:    []string{"routine", "group", "calls", "incl", "excl", "nodes"},
	}
	for _, h := range hot {
		t.Rows = append(t.Rows, []string{
			h.Name, h.Group.String(), FmtCount(h.Calls), FmtCount(h.Incl),
			FmtCount(h.Excl), FmtCount(h.Nodes),
		})
	}
	s.Tables = append(s.Tables, t)
}

// traceSection renders the streaming trace pipeline's self-metrics for a
// live run that deployed it.
func traceSection(s *Section, res *experiments.LiveResult) {
	store := res.Trace.Store()
	recs, msgs := store.Totals()
	s.AddFactf("records", "%d ingested, %d MPI endpoint events, %d flows correlated, %d sampled out",
		recs, msgs, len(store.Flows()), store.SampledOut())
	s.AddFactf("collector node", "%d (failovers %d, drained %v)",
		res.Trace.CollectorNode(), res.Trace.Failovers(), res.TraceDrained)
	// Exact loss accounting (produced = ingested + ring lost + sampled out)
	// plus throttle depth and backlog peaks.
	t := &Table{
		Caption: "Per-node trace agent self-metrics",
		Head: []string{"node", "frames", "kern recs", "user recs", "ring lost",
			"sampled out", "throttle pk", "read errs", "drops a/s", "backlog pk",
			"wire bytes", "down"},
	}
	for _, st := range store.Stats() {
		t.Rows = append(t.Rows, []string{
			st.Node, FmtCount(st.Frames), FmtCount(st.KernRecords), FmtCount(st.UserRecords),
			FmtCount(st.KernRingLost + st.UserRingLost),
			FmtCount(st.KernSampledOut + st.UserSampledOut),
			FmtCount(st.ThrottlePeak), FmtCount(st.ReadErrs),
			fmt.Sprintf("%d/%d", st.AgentDroppedFrames, st.SinkDroppedFrames),
			FmtCount(st.BacklogPeak), FmtCount(st.WireBytes),
			fmt.Sprintf("%v", st.Down),
		})
	}
	s.Tables = append(s.Tables, t)
}

// sortedKeys returns a set's keys in sorted order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
