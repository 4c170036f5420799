package servesim

import (
	"fmt"
	"sort"
	"strings"

	"ktau/internal/ktau"
	"ktau/internal/perfmon"
	"ktau/internal/sim"
)

// GroupShare is one KTAU event group's share of kernel activity inside the
// attributed windows.
type GroupShare struct {
	Group ktau.Group
	Excl  int64
	// Share is the fraction of all kernel exclusive cycles in the windows.
	Share float64
}

// DaemonShare is one non-rank process's estimated CPU theft inside the
// attributed windows (timer-tick occupancy sampling, like the detectors).
type DaemonShare struct {
	PID    int
	Name   string
	Ticks  uint64
	Cycles int64
	// CapacityShare is the fraction of the node's total compute capacity
	// (wall × CPUs) the daemon held during the windows.
	CapacityShare float64
}

// Attribution explains what the kernel was doing on one node during a set
// of tail-latency excursion windows: which event groups burned the cycles,
// and which competing processes occupied the CPUs.
type Attribution struct {
	Node    string
	Tenant  int
	Windows int   // tail windows examined
	Rounds  []int // stored perfmon rounds overlapping them
	// Wall is the total monitored span of those rounds (cycles); TotalExcl
	// is all kernel exclusive cycles inside them.
	Wall      int64
	TotalExcl int64
	Groups    []GroupShare // share-sorted, largest first
	Events    []perfmon.HotEvent
	Daemons   []DaemonShare // capacity-sorted, largest first
}

// Attribute correlates a tenant's slowest requests on one node with the
// perfmon collector's kernel time-series: each tail record's admit→done
// span becomes a TSC window, the stored rounds overlapping any window are
// selected, and the kernel's per-group activity plus per-process occupancy
// over exactly those rounds is summed. hz converts the virtual clock to the
// node's TSC; rankPrefix separates the serving tasks from interlopers.
func Attribute(st *perfmon.Store, node string, tenant int, tails []TailRec, hz int64, rankPrefix string) Attribution {
	a := Attribution{Node: node, Tenant: tenant}
	wins := make([][2]int64, 0, len(tails))
	for _, r := range tails {
		from, to := r.Admit, r.Done
		if from == 0 && to == 0 {
			continue
		}
		wins = append(wins, [2]int64{
			sim.CyclesAt(from.Duration(), hz),
			sim.CyclesAt(to.Duration(), hz),
		})
	}
	a.Windows = len(wins)
	if len(wins) == 0 {
		return a
	}
	a.Rounds = st.RoundsOverlapping(node, wins)
	if len(a.Rounds) == 0 {
		return a
	}
	a.Wall = st.WallCyclesRounds(node, a.Rounds)
	a.Events = st.NodeWindowRounds(node, a.Rounds)

	var nodeTicks uint64
	byGroup := map[ktau.Group]int64{}
	for _, h := range a.Events {
		byGroup[h.Group] += h.Excl
		a.TotalExcl += h.Excl
		if h.Name == perfmon.TimerTickEvent {
			nodeTicks = h.Calls
		}
	}
	for g, excl := range byGroup {
		gs := GroupShare{Group: g, Excl: excl}
		if a.TotalExcl > 0 {
			gs.Share = float64(excl) / float64(a.TotalExcl)
		}
		a.Groups = append(a.Groups, gs)
	}
	sort.Slice(a.Groups, func(i, j int) bool {
		if a.Groups[i].Excl != a.Groups[j].Excl {
			return a.Groups[i].Excl > a.Groups[j].Excl
		}
		return a.Groups[i].Group < a.Groups[j].Group
	})

	cpus := 1
	for _, info := range st.Nodes() {
		if info.Name == node && info.CPUs > 0 {
			cpus = info.CPUs
		}
	}
	// Each timer tick samples one CPU's occupant: the windows hold
	// Wall×CPUs capacity cycles spread across nodeTicks samples.
	var cyclesPerTick float64
	if nodeTicks > 0 {
		cyclesPerTick = float64(a.Wall) * float64(cpus) / float64(nodeTicks)
	}
	capacity := float64(a.Wall) * float64(cpus)
	for _, p := range st.ProcWindowRounds(node, a.Rounds) {
		if strings.HasPrefix(p.Name, "swapper/") {
			continue // idle tasks are never noise
		}
		if rankPrefix != "" && strings.HasPrefix(p.Name, rankPrefix) {
			continue // the serving workload itself
		}
		if p.DTicks == 0 {
			continue
		}
		d := DaemonShare{
			PID: p.PID, Name: p.Name, Ticks: p.DTicks,
			Cycles: int64(float64(p.DTicks) * cyclesPerTick),
		}
		if capacity > 0 {
			d.CapacityShare = float64(d.Cycles) / capacity
		}
		a.Daemons = append(a.Daemons, d)
	}
	sort.Slice(a.Daemons, func(i, j int) bool {
		if a.Daemons[i].Cycles != a.Daemons[j].Cycles {
			return a.Daemons[i].Cycles > a.Daemons[j].Cycles
		}
		return a.Daemons[i].PID < a.Daemons[j].PID
	})
	return a
}

// TopDaemon returns the heaviest competing process, or nil.
func (a *Attribution) TopDaemon() *DaemonShare {
	if len(a.Daemons) == 0 {
		return nil
	}
	return &a.Daemons[0]
}

// String renders the attribution as one explanatory sentence, e.g.
// "82% BH + 11% TCP + 4% SCHED; daemon api-batchd held 31% of node
// capacity (42 ticks)".
func (a *Attribution) String() string {
	if len(a.Rounds) == 0 {
		return "no kernel samples overlap the tail windows"
	}
	var b strings.Builder
	n := 0
	for _, g := range a.Groups {
		if g.Share < 0.01 || n == 4 {
			break
		}
		if n > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%.0f%% %s", g.Share*100, g.Group)
		n++
	}
	if n == 0 {
		b.WriteString("negligible kernel activity")
	}
	if d := a.TopDaemon(); d != nil && d.CapacityShare >= 0.01 {
		fmt.Fprintf(&b, "; daemon %s held %.0f%% of node capacity (%d ticks)",
			d.Name, d.CapacityShare*100, d.Ticks)
	}
	return b.String()
}
