// Package faultsim injects faults into a simulated cluster from a seeded,
// declarative plan: network impairments (packet loss, duplication,
// corruption, extra latency, link partition), node faults (crash, CPU
// slowdown, daemon stall) and procfs read errors. Every fault is realised as
// ordinary events on the cluster's discrete-event engine plus deterministic
// per-frame/per-read draws from the plan's own RNG streams, so two runs with
// the same seed and plan produce byte-identical results — the property the
// perfmon hardening tests rely on.
//
// The plan's randomness is independent of the cluster's: a Plan carries its
// own Seed and draws from streams named under "faultsim/", so adding or
// removing faults never perturbs workload timing except through the faults
// themselves.
package faultsim

import (
	"fmt"
	"sync/atomic"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/netsim"
	"ktau/internal/procfs"
	"ktau/internal/sim"
)

// Kind classifies a fault.
type Kind int

const (
	// PacketLoss drops matching frames with probability Rate during the
	// window; each loss is redelivered after the plan's RedeliverAfter
	// (TCP retransmission collapsed into latency).
	PacketLoss Kind = iota + 1
	// PacketDup delivers a second, flagged copy of matching frames with
	// probability Rate during the window.
	PacketDup
	// PacketCorrupt damages matching frames' payloads with probability Rate
	// during the window; the transport discards the affected message.
	PacketCorrupt
	// ExtraLatency adds Latency to every matching frame during the window.
	ExtraLatency
	// Partition isolates Node for the window: every frame to or from it is
	// held back until the partition heals (plus the retransmission delay).
	Partition
	// NodeCrash halts Node at virtual time At, irreversibly.
	NodeCrash
	// CPUSlow stretches all CPU work on Node by Factor during the window
	// (For == 0 slows it for the rest of the run).
	CPUSlow
	// DaemonStall parks the wakeups of Node's tasks named Task (all daemons
	// when Task is empty) for the window.
	DaemonStall
	// ProcfsError fails reads of Node's /proc/ktau with procfs.ErrTransient
	// with probability Rate during the window.
	ProcfsError
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case PacketLoss:
		return "packet-loss"
	case PacketDup:
		return "packet-dup"
	case PacketCorrupt:
		return "packet-corrupt"
	case ExtraLatency:
		return "extra-latency"
	case Partition:
		return "partition"
	case NodeCrash:
		return "node-crash"
	case CPUSlow:
		return "cpu-slow"
	case DaemonStall:
		return "daemon-stall"
	case ProcfsError:
		return "procfs-error"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one entry in a plan.
type Fault struct {
	Kind Kind
	// Node names the target. Network faults treat it as "frames to or from
	// this node"; empty targets every node (not valid for node-local kinds).
	Node string
	// At is the fault's start, in virtual time after Apply.
	At time.Duration
	// For is the window length. Zero means "until the end of the run" for
	// windowed kinds; NodeCrash ignores it.
	For time.Duration
	// Rate is the per-frame / per-read probability for probabilistic kinds.
	Rate float64
	// Factor is the CPUSlow stretch factor (>= 1).
	Factor float64
	// Latency is the ExtraLatency per-frame delay.
	Latency time.Duration
	// Task restricts DaemonStall to tasks with this name (empty = all
	// daemon-kind tasks on the node).
	Task string
}

// windowed reports whether the kind acts over [At, At+For).
func (f Fault) windowed() bool {
	switch f.Kind {
	case NodeCrash:
		return false
	default:
		return true
	}
}

// probabilistic reports whether the kind needs a Rate.
func (f Fault) probabilistic() bool {
	switch f.Kind {
	case PacketLoss, PacketDup, PacketCorrupt, ProcfsError:
		return true
	default:
		return false
	}
}

// nodeLocal reports whether the kind requires a named node.
func (f Fault) nodeLocal() bool {
	switch f.Kind {
	case Partition, NodeCrash, CPUSlow, DaemonStall, ProcfsError:
		return true
	default:
		return false
	}
}

// Plan is a complete, seeded fault schedule.
type Plan struct {
	// Seed drives all of the plan's probabilistic draws, independently of the
	// cluster's own seed.
	Seed uint64
	// RedeliverAfter is the modelled retransmission delay for lost frames
	// (default 200ms, a classic TCP RTO).
	RedeliverAfter time.Duration
	// Faults lists the schedule.
	Faults []Fault
}

// DefaultRedeliverAfter is the retransmission delay used when the plan does
// not set one.
const DefaultRedeliverAfter = 200 * time.Millisecond

// WithDefaults returns the plan as Apply runs it: a RedeliverAfter left at
// zero or below reads DefaultRedeliverAfter.
func (p Plan) WithDefaults() Plan {
	if p.RedeliverAfter <= 0 {
		p.RedeliverAfter = DefaultRedeliverAfter
	}
	return p
}

// Validate checks the plan against a cluster.
func (p Plan) Validate(c *cluster.Cluster) error {
	for i, f := range p.Faults {
		if f.Kind.String() == fmt.Sprintf("kind(%d)", int(f.Kind)) {
			return fmt.Errorf("faultsim: fault %d: unknown kind %d", i, int(f.Kind))
		}
		if f.Node != "" && c.NodeByName(f.Node) == nil {
			return fmt.Errorf("faultsim: fault %d (%s): unknown node %q", i, f.Kind, f.Node)
		}
		if f.nodeLocal() && f.Node == "" {
			return fmt.Errorf("faultsim: fault %d (%s): node required", i, f.Kind)
		}
		if f.probabilistic() && (f.Rate <= 0 || f.Rate > 1) {
			return fmt.Errorf("faultsim: fault %d (%s): rate %v outside (0,1]", i, f.Kind, f.Rate)
		}
		if f.Kind == CPUSlow && f.Factor < 1 {
			return fmt.Errorf("faultsim: fault %d (cpu-slow): factor %v < 1", i, f.Factor)
		}
		if f.Kind == ExtraLatency && f.Latency <= 0 {
			return fmt.Errorf("faultsim: fault %d (extra-latency): latency must be positive", i)
		}
		if f.Kind == DaemonStall && f.For <= 0 {
			return fmt.Errorf("faultsim: fault %d (daemon-stall): window required", i)
		}
		if f.At < 0 || f.For < 0 {
			return fmt.Errorf("faultsim: fault %d (%s): negative time", i, f.Kind)
		}
	}
	return nil
}

// netFault is one network fault with its window resolved to absolute time.
type netFault struct {
	Fault
	start, end sim.Time // end == 0 means open-ended
}

func (nf netFault) activeAt(t sim.Time) bool {
	if t < nf.start {
		return false
	}
	return nf.end == 0 || t < nf.end
}

// matches reports whether the frame touches the fault's target node.
func (nf netFault) matches(f netsim.Frame) bool {
	return nf.Node == "" || f.Src == nf.Node || f.Dst == nf.Node
}

// Injector is an applied plan. Its counters are deterministic for a given
// seed and cluster run.
type Injector struct {
	c    *cluster.Cluster
	plan Plan

	netFaults []netFault
	// rngNet holds one frame-verdict stream per sending node. The impair
	// hook runs in the sender's engine context, and under parallel execution
	// several senders' windows run concurrently: a single shared stream
	// would make draw order depend on worker interleaving. Per-sender
	// streams are each consumed sequentially by their own engine, so every
	// draw is deterministic.
	rngNet map[string]*sim.RNG

	// Stats counts what the injector actually did. Network-frame effects are
	// additionally visible in the cluster's netsim.Network.Stats. Under
	// parallel execution the counters are updated atomically from several
	// node windows; read them only when the simulation is quiescent.
	Stats struct {
		Losses       uint64 // frames dropped by PacketLoss
		Dups         uint64 // duplicates injected
		Corruptions  uint64 // frames corrupted
		Delays       uint64 // frames given extra latency
		Partitioned  uint64 // frames held back by Partition
		Crashes      uint64 // nodes crashed
		Slowdowns    uint64 // CPUSlow transitions applied
		Stalls       uint64 // tasks stalled
		ProcfsErrors uint64 // reads failed with ErrTransient
	}
}

// Apply validates the plan and arms every fault on the cluster's engine.
// Call it before driving the engine; fault times are relative to the moment
// of application.
func Apply(c *cluster.Cluster, p Plan) (*Injector, error) {
	if err := p.Validate(c); err != nil {
		return nil, err
	}
	p = p.WithDefaults()
	rng := sim.NewRNG(p.Seed)
	inj := &Injector{
		c:      c,
		plan:   p,
		rngNet: make(map[string]*sim.RNG, len(c.Nodes)),
	}
	for _, n := range c.Nodes {
		inj.rngNet[n.Name] = rng.Stream("faultsim/net/" + n.Name)
	}
	base := c.Now()
	window := func(f Fault) (sim.Time, sim.Time) {
		start := base.Add(f.At)
		if f.windowed() && f.For > 0 {
			return start, start.Add(f.For)
		}
		return start, 0
	}

	procfsFaults := map[string][]netFault{} // node -> active procfs faults
	for _, f := range p.Faults {
		start, end := window(f)
		switch f.Kind {
		case PacketLoss, PacketDup, PacketCorrupt, ExtraLatency, Partition:
			inj.netFaults = append(inj.netFaults, netFault{Fault: f, start: start, end: end})
		case NodeCrash:
			n := c.NodeByName(f.Node)
			n.Eng.At(start, func() {
				if !n.K.Crashed() {
					atomic.AddUint64(&inj.Stats.Crashes, 1)
					n.K.Crash()
				}
			})
		case CPUSlow:
			n := c.NodeByName(f.Node)
			factor := f.Factor
			n.Eng.At(start, func() {
				atomic.AddUint64(&inj.Stats.Slowdowns, 1)
				n.K.SetSlowdown(factor)
			})
			if end != 0 {
				n.Eng.At(end, func() {
					atomic.AddUint64(&inj.Stats.Slowdowns, 1)
					n.K.SetSlowdown(1)
				})
			}
		case DaemonStall:
			n := c.NodeByName(f.Node)
			name := f.Task
			until := end
			n.Eng.At(start, func() {
				for _, t := range n.K.Tasks() {
					if name != "" && t.Name() != name {
						continue
					}
					if name == "" && t.Kind() != kernel.KindDaemon {
						continue
					}
					atomic.AddUint64(&inj.Stats.Stalls, 1)
					t.StallUntil(until)
				}
			})
		case ProcfsError:
			procfsFaults[f.Node] = append(procfsFaults[f.Node],
				netFault{Fault: f, start: start, end: end})
		}
	}

	if len(inj.netFaults) > 0 {
		c.Net.SetImpair(inj.impair)
	}
	for node, faults := range procfsFaults {
		n := c.NodeByName(node)
		faults := faults
		rngFS := rng.Stream("faultsim/procfs/" + node)
		n.FS.SetFaultHook(func(op string) error {
			// Reads come from on-node clients, in the node's own engine
			// context; the node clock is the right notion of "now".
			now := n.Eng.Now()
			for _, pf := range faults {
				if pf.activeAt(now) && rngFS.Float64() < pf.Rate {
					atomic.AddUint64(&inj.Stats.ProcfsErrors, 1)
					return procfs.ErrTransient
				}
			}
			return nil
		})
	}
	return inj, nil
}

// impair is the per-frame fault verdict: all active matching network faults
// compound onto one Impairment. It runs in the sending node's engine context
// (now is that node's clock) and draws only from the sender's own stream, so
// it is safe and deterministic under parallel windows.
func (inj *Injector) impair(now sim.Time, f netsim.Frame) netsim.Impairment {
	var imp netsim.Impairment
	rng := inj.rngNet[f.Src]
	for i := range inj.netFaults {
		nf := &inj.netFaults[i]
		if !nf.activeAt(now) || !nf.matches(f) {
			continue
		}
		switch nf.Kind {
		case Partition:
			// Hold the frame back until the partition heals; open-ended
			// partitions black-hole it entirely.
			imp.Drop = true
			atomic.AddUint64(&inj.Stats.Partitioned, 1)
			if nf.end == 0 {
				imp.RedeliverAfter = 0
			} else if d := nf.end.Sub(now) + inj.plan.RedeliverAfter; d > imp.RedeliverAfter {
				imp.RedeliverAfter = d
			}
		case PacketLoss:
			if rng.Float64() < nf.Rate {
				atomic.AddUint64(&inj.Stats.Losses, 1)
				imp.Drop = true
				if imp.RedeliverAfter < inj.plan.RedeliverAfter {
					imp.RedeliverAfter = inj.plan.RedeliverAfter
				}
			}
		case PacketDup:
			if rng.Float64() < nf.Rate {
				atomic.AddUint64(&inj.Stats.Dups, 1)
				imp.Duplicate = true
			}
		case PacketCorrupt:
			if rng.Float64() < nf.Rate {
				atomic.AddUint64(&inj.Stats.Corruptions, 1)
				imp.Corrupt = true
			}
		case ExtraLatency:
			atomic.AddUint64(&inj.Stats.Delays, 1)
			imp.Extra += nf.Latency
		}
	}
	return imp
}

// Plan returns the applied plan (defaults filled in).
func (inj *Injector) Plan() Plan { return inj.plan }
