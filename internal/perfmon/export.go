package perfmon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"ktau/internal/promfmt"
)

// WritePrometheus renders the store's cumulative state in the Prometheus
// text exposition format: per (node, event) counters for calls and
// inclusive/exclusive cycles, plus pipeline meta-series. Label values are
// escaped exactly as the format defines (\\, \" and \n and nothing else —
// promfmt.EscapeLabel; Go's %q would emit \t and \xNN escapes real scrapers
// reject). Output is fully deterministic (nodes in first-seen order, events
// sorted by name).
func (st *Store) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	esc := promfmt.EscapeLabel
	fmt.Fprintln(bw, "# HELP ktau_kernel_event_calls_total Kernel event activations observed by perfmon.")
	fmt.Fprintln(bw, "# TYPE ktau_kernel_event_calls_total counter")
	for _, node := range st.NodeNames() {
		for _, t := range st.Totals(node) {
			fmt.Fprintf(bw, "ktau_kernel_event_calls_total{node=%s,event=%s,group=%s} %d\n",
				esc(node), esc(t.Name), esc(t.Group.String()), t.Calls)
		}
	}
	fmt.Fprintln(bw, "# HELP ktau_kernel_event_cycles_total Kernel event cycles observed by perfmon.")
	fmt.Fprintln(bw, "# TYPE ktau_kernel_event_cycles_total counter")
	for _, node := range st.NodeNames() {
		for _, t := range st.Totals(node) {
			fmt.Fprintf(bw, "ktau_kernel_event_cycles_total{node=%s,event=%s,group=%s,kind=\"incl\"} %d\n",
				esc(node), esc(t.Name), esc(t.Group.String()), t.Incl)
			fmt.Fprintf(bw, "ktau_kernel_event_cycles_total{node=%s,event=%s,group=%s,kind=\"excl\"} %d\n",
				esc(node), esc(t.Name), esc(t.Group.String()), t.Excl)
		}
	}
	fmt.Fprintln(bw, "# HELP ktau_perfmon_rounds_total Collection rounds ingested per node.")
	fmt.Fprintln(bw, "# TYPE ktau_perfmon_rounds_total counter")
	for _, info := range st.Nodes() {
		fmt.Fprintf(bw, "ktau_perfmon_rounds_total{node=%s} %d\n", esc(info.Name), info.Rounds)
	}
	fmt.Fprintln(bw, "# HELP ktau_perfmon_wire_bytes_total Collection payload bytes shipped per node.")
	fmt.Fprintln(bw, "# TYPE ktau_perfmon_wire_bytes_total counter")
	for _, info := range st.Nodes() {
		fmt.Fprintf(bw, "ktau_perfmon_wire_bytes_total{node=%s} %d\n", esc(info.Name), info.Bytes)
	}
	fmt.Fprintln(bw, "# HELP ktau_perfmon_frames_total Frames ingested by the collector.")
	fmt.Fprintln(bw, "# TYPE ktau_perfmon_frames_total counter")
	fmt.Fprintf(bw, "ktau_perfmon_frames_total %d\n", st.Frames())
	fmt.Fprintln(bw, "# HELP ktau_perfmon_dropped_frames_total Frames received but discarded (undecodable, corrupt or desynced).")
	fmt.Fprintln(bw, "# TYPE ktau_perfmon_dropped_frames_total counter")
	fmt.Fprintf(bw, "ktau_perfmon_dropped_frames_total %d\n", st.Drops())
	fmt.Fprintln(bw, "# HELP ktau_perfmon_missed_rounds_total Collection rounds whose frames never arrived, per node.")
	fmt.Fprintln(bw, "# TYPE ktau_perfmon_missed_rounds_total counter")
	for _, info := range st.Nodes() {
		fmt.Fprintf(bw, "ktau_perfmon_missed_rounds_total{node=%s} %d\n", esc(info.Name), info.Missed)
	}
	fmt.Fprintln(bw, "# HELP ktau_perfmon_gap_rounds_total Rounds the agent reported unreadable, per node.")
	fmt.Fprintln(bw, "# TYPE ktau_perfmon_gap_rounds_total counter")
	for _, info := range st.Nodes() {
		fmt.Fprintf(bw, "ktau_perfmon_gap_rounds_total{node=%s} %d\n", esc(info.Name), info.Gaps)
	}
	return bw.Flush()
}

// WriteJSONLines renders the retained time-series as one JSON object per
// line: a (node, round, event) activity delta per record, events sorted by
// name within a node, samples in chronological order. window limits the
// slice (0 = everything retained). A record reads
//
//	{"node":N,"round":R,"event":E,"group":G,"dcalls":C,"dincl":I,"dexcl":X}
//
// with each string escaped as encoding/json escapes it. The strings are
// escaped once per series and every line is built in one reused buffer
// straight from the store's rings, so the export allocates per series, not
// per record.
func (st *Store) WriteJSONLines(w io.Writer, window int) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, name := range st.order {
		ns := st.nodes[name]
		node := jsonString(name)
		floor := ns.windowFloor(window)
		for _, t := range st.Totals(name) { // sorted by event name
			event, group := jsonString(t.Name), jsonString(t.Group.String())
			r := ns.events[t.Name].ring
			for i := 0; i < r.len(); i++ {
				smp := r.at(i)
				if smp.Round < floor {
					continue
				}
				line = append(append(line[:0], `{"node":`...), node...)
				line = strconv.AppendInt(append(line, `,"round":`...), int64(smp.Round), 10)
				line = append(append(line, `,"event":`...), event...)
				line = append(append(line, `,"group":`...), group...)
				line = strconv.AppendUint(append(line, `,"dcalls":`...), smp.DCalls, 10)
				line = strconv.AppendInt(append(line, `,"dincl":`...), smp.DIncl, 10)
				line = strconv.AppendInt(append(line, `,"dexcl":`...), smp.DExcl, 10)
				line = append(line, "}\n"...)
				if _, err := bw.Write(line); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// jsonString returns s as encoding/json writes a string value.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// WriteClusterView renders the live human view: per-node collection state
// and noise assessment, the cluster's hottest kernel routines, and — when a
// noise report flags nodes — the per-rank interference attribution, in the
// spirit of libktau's ASCII renderers.
func (st *Store) WriteClusterView(w io.Writer, rep NoiseReport, topK int) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "== perfmon cluster view: %d nodes, %d frames ==\n", len(st.NodeNames()), st.Frames())
	fmt.Fprintf(bw, "%-8s %4s %7s %10s %9s %9s %9s  %s\n",
		"node", "cpus", "rounds", "wire(B)", "irq(kc)", "bh(kc)", "noise", "status")
	byName := map[string]NodeNoise{}
	for _, nn := range rep.Nodes {
		byName[nn.Node] = nn
	}
	for _, info := range st.Nodes() {
		nn := byName[info.Name]
		status := "ok"
		if nn.Flagged {
			status = "NOISY"
		}
		if info.Down {
			status = "DOWN"
		}
		if info.Missed > 0 || info.Gaps > 0 {
			status += fmt.Sprintf(" (missed %d, gaps %d)", info.Missed, info.Gaps)
		}
		fmt.Fprintf(bw, "%-8s %4d %7d %10d %9d %9d %8.3f%%  %s\n",
			info.Name, info.CPUs, info.Rounds, info.Bytes,
			nn.IRQ/1000, nn.BH/1000, nn.Share*100, status)
	}
	fmt.Fprintf(bw, "cluster median noise share %.3f%%, flag threshold %.3f%%\n",
		rep.MedianShare*100, rep.Threshold*100)

	if topK > 0 {
		fmt.Fprintf(bw, "-- top %d kernel routines cluster-wide (window excl cycles) --\n", topK)
		for i, h := range st.TopK(topK, rep.Window) {
			fmt.Fprintf(bw, "%2d. %-24s %-9s calls=%-8d excl=%d\n",
				i+1, h.Name, h.Group.String(), h.Calls, h.Excl)
		}
	}

	for _, nn := range rep.Nodes {
		if !nn.Flagged {
			continue
		}
		fmt.Fprintf(bw, "-- %s: noise attribution --\n", nn.Node)
		for i, d := range nn.TopDaemons {
			if i >= 3 {
				break
			}
			fmt.Fprintf(bw, "   daemon %-14s pid=%-6d cycles=%d\n", d.Name, d.PID, d.Cycles)
		}
		for i, r := range nn.Ranks {
			if i >= 4 {
				break
			}
			fmt.Fprintf(bw, "   rank   %-14s pid=%-6d interference=%d sched=%d\n",
				r.Name, r.PID, r.Interference, r.Sched)
		}
	}
}
