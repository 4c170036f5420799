// Package netsim models the cluster interconnect: one NIC per node attached
// to a switched Ethernet with finite link bandwidth and fixed latency.
// Frames transmitted by a node serialize through its NIC (which is what
// makes two MPI ranks sharing a node's single interface contend, one of the
// effects the paper's 64x2 Chiba experiments expose); delivery at the
// destination NIC raises the node's receive path via a callback.
package netsim

import (
	"sync"
	"sync/atomic"
	"time"

	"ktau/internal/sim"
)

// LinkSpec describes the interconnect.
type LinkSpec struct {
	// BandwidthBps is the per-node link bandwidth in bits per second.
	BandwidthBps int64
	// Latency is the one-way propagation plus switch latency.
	Latency time.Duration
	// FrameOverheadBytes is the per-frame header overhead on the wire
	// (Ethernet + IP + TCP).
	FrameOverheadBytes int
	// MTU is the maximum payload bytes per frame.
	MTU int
	// LoopbackLatency is the software loopback delay for same-node traffic
	// (which never touches the wire).
	LoopbackLatency time.Duration
	// LoopbackBps is the effective loopback copy bandwidth.
	LoopbackBps int64
}

// DefaultLinkSpec models the Chiba-City 100 Mb/s switched Ethernet.
func DefaultLinkSpec() LinkSpec {
	return LinkSpec{
		BandwidthBps:       100_000_000,
		Latency:            60 * time.Microsecond,
		FrameOverheadBytes: 66,
		MTU:                1448,
		LoopbackLatency:    10 * time.Microsecond,
		LoopbackBps:        2_000_000_000,
	}
}

// Frame is one on-wire unit. Payload and Count are opaque to the network.
// The TCP layer describes a segment with them without boxing: Payload holds
// the endpoint the segment is for, as a pointer whose type names the
// segment kind, and Count its byte count.
type Frame struct {
	Src, Dst string // node names
	Bytes    int    // wire size including overhead
	Payload  any
	Count    uint64
	// Dup marks a duplicated copy injected by the fault layer. The receiving
	// protocol charges receive-path cost for it but discards the payload
	// (TCP's sequence-number check).
	Dup bool
	// Corrupt marks a frame whose payload was damaged in flight. The
	// receiving protocol delivers it but taints the stream so the
	// application-level consumer can discard the affected message.
	Corrupt bool
}

// Impairment is the fault layer's verdict on one transmitted frame. The zero
// value means "deliver normally".
type Impairment struct {
	// Drop loses the frame. Unless RedeliverAfter is positive the frame is
	// gone for good; with RedeliverAfter the sender's retransmission is
	// modelled as the same frame arriving that much later than it otherwise
	// would have (TCP reliability collapsed into added latency).
	Drop bool
	// RedeliverAfter is the retransmission delay applied to dropped frames.
	RedeliverAfter time.Duration
	// Duplicate delivers a second copy of the frame (flagged Frame.Dup)
	// immediately after the original.
	Duplicate bool
	// Corrupt flags the frame's payload as damaged in flight.
	Corrupt bool
	// Extra is additional one-way latency for this frame.
	Extra time.Duration
}

// ImpairFunc inspects a frame about to be transmitted (Src/Dst already set)
// and returns the fault verdict. It runs in the sending node's engine
// context — now is that engine's clock — and must be deterministic for
// reproducible runs. Under parallel execution it may be called from several
// nodes' windows concurrently, so any shared state it touches must be both
// synchronised and interleaving-insensitive (e.g. per-source RNG streams).
type ImpairFunc func(now sim.Time, f Frame) Impairment

// CrossDeliverFunc hands a cross-node delivery to the execution layer: run
// fn(arg) at virtual time at on the destination NIC's engine, on behalf of
// the source NIC's engine. fn is static and arg is the NIC's pooled
// delivery carrier, so a hook that posts them as they are (the cluster
// wires this to sim.Runner.PostCall, the runner's deterministic merge)
// delivers without allocating. When unset, deliveries are scheduled
// directly on the destination engine (valid only when all NICs share one
// engine).
type CrossDeliverFunc func(src, dst *NIC, at sim.Time, fn func(any), arg any)

// PairLatencyFunc returns the one-way wire latency between two distinct
// nodes, identified by their NIC engine indices. It lets a topology-aware
// cluster give different node pairs different latencies (intra-rack vs
// inter-rack); the value returned for a pair must never be below the
// lookahead the execution layer assumes for that pair. It must be
// deterministic, and safe to call concurrently from several nodes' windows.
type PairLatencyFunc func(srcIdx, dstIdx int) time.Duration

// Network is the switched interconnect joining all node NICs.
type Network struct {
	eng     *sim.Engine // default engine for Attach (single-engine setups)
	spec    LinkSpec
	nics    map[string]*NIC
	impair  ImpairFunc
	deliver CrossDeliverFunc
	pairLat PairLatencyFunc

	// Stats counts delivered traffic and fault-layer activity. Under
	// parallel execution the counters are updated atomically from several
	// node windows; read them only when the simulation is quiescent.
	Stats struct {
		Frames uint64
		Bytes  uint64
		// Dropped counts frames lost by the fault layer (including those
		// later redelivered as retransmissions).
		Dropped uint64
		// Retransmits counts dropped frames that were redelivered.
		Retransmits uint64
		// Duplicated counts injected duplicate copies.
		Duplicated uint64
		// Corrupted counts frames flagged corrupt in flight.
		Corrupted uint64
		// Delayed counts frames given extra latency.
		Delayed uint64
	}
}

// New creates a network whose NICs all live on the given engine. Multi-engine
// setups attach each NIC to its own engine with AttachOn instead.
func New(eng *sim.Engine, spec LinkSpec) *Network {
	if spec.BandwidthBps <= 0 || spec.MTU <= 0 {
		panic("netsim: LinkSpec must set BandwidthBps and MTU")
	}
	if spec.LoopbackBps <= 0 {
		spec.LoopbackBps = 2_000_000_000
	}
	return &Network{eng: eng, spec: spec, nics: make(map[string]*NIC)}
}

// Spec returns the link parameters.
func (n *Network) Spec() LinkSpec { return n.spec }

// SetImpair installs (or clears, with nil) the fault layer's per-frame hook.
func (n *Network) SetImpair(fn ImpairFunc) { n.impair = fn }

// SetCrossDeliver installs the cross-engine delivery hook.
func (n *Network) SetCrossDeliver(fn CrossDeliverFunc) { n.deliver = fn }

// SetPairLatency installs (or clears, with nil) the per-pair wire latency
// hook. When unset every cross-node pair uses Spec().Latency.
func (n *Network) SetPairLatency(fn PairLatencyFunc) { n.pairLat = fn }

// pairLatency returns the one-way wire latency from src to dst.
func (n *Network) pairLatency(src, dst *NIC) time.Duration {
	if n.pairLat != nil {
		return n.pairLat(src.idx, dst.idx)
	}
	return n.spec.Latency
}

// Attach creates (or returns) the NIC for a node on the network's default
// engine.
func (n *Network) Attach(node string) *NIC {
	return n.AttachOn(node, n.eng, len(n.nics))
}

// AttachOn creates (or returns) the NIC for a node on the given engine.
// idx is the engine's index in the runner driving the cluster; it is the
// source/destination key of the deterministic cross-engine merge.
func (n *Network) AttachOn(node string, eng *sim.Engine, idx int) *NIC {
	if nic, ok := n.nics[node]; ok {
		return nic
	}
	if eng == nil {
		panic("netsim: attach with nil engine")
	}
	nic := &NIC{net: n, Node: node, eng: eng, idx: idx}
	n.nics[node] = nic
	return nic
}

// NIC is one node's network interface.
type NIC struct {
	net  *Network
	Node string
	eng  *sim.Engine
	idx  int

	txFreeAt sim.Time
	rxq      []Frame

	// freeDel pools the delivery carriers this NIC allocated for its own
	// sends; drainBuf is the scratch slice Drain hands out (valid until the
	// next Drain). Both are only touched from this NIC's engine goroutine.
	// A carrier that lands on another engine comes back through retDel,
	// which other engines' goroutines append to under retMu; the NIC swaps
	// it in when freeDel runs dry.
	freeDel  []*delivery
	drainBuf []Frame
	retMu    sync.Mutex
	retDel   []*delivery

	// OnRx is invoked (in engine context) whenever a frame lands in the
	// receive ring; the TCP layer uses it to raise the device IRQ.
	OnRx func()

	// Stats counts per-NIC traffic.
	Stats struct {
		TxFrames, RxFrames uint64
		TxBytes, RxBytes   uint64
	}
}

// txTime returns the wire serialization time of a frame.
func (n *Network) txTime(bytes int) time.Duration {
	return time.Duration(int64(bytes) * 8 * int64(time.Second) / n.spec.BandwidthBps)
}

// delivery carries one in-flight frame to its destination NIC. The sending
// NIC owns the carrier: it takes one from its own pool for every scheduled
// frame, and the carrier goes back to that pool when the frame lands, on
// whichever engine that is. A steady flow in either direction therefore
// schedules without allocating, however unevenly the traffic between two
// nodes runs.
type delivery struct {
	owner *NIC
	dst   *NIC
	f     Frame
}

// carrier takes a delivery carrier from the NIC's pool, swapping in the
// carriers returned from other engines when the pool is empty, and
// allocates only when both are.
func (nic *NIC) carrier() *delivery {
	if len(nic.freeDel) == 0 {
		nic.retMu.Lock()
		nic.freeDel, nic.retDel = nic.retDel, nic.freeDel
		nic.retMu.Unlock()
	}
	n := len(nic.freeDel)
	if n == 0 {
		return &delivery{owner: nic}
	}
	d := nic.freeDel[n-1]
	nic.freeDel[n-1] = nil
	nic.freeDel = nic.freeDel[:n-1]
	return d
}

// deliverCB lands a pooled delivery. The carrier is emptied and handed back
// to its owner first, so the receive path's own transmissions can reuse it:
// straight onto the owner's pool when the owner runs on this engine, else
// onto its return list.
func deliverCB(arg any) {
	d := arg.(*delivery)
	dst, f, owner := d.dst, d.f, d.owner
	d.dst, d.f = nil, Frame{}
	if owner.eng == dst.eng {
		owner.freeDel = append(owner.freeDel, d)
	} else {
		owner.retMu.Lock()
		owner.retDel = append(owner.retDel, d)
		owner.retMu.Unlock()
	}
	dst.deliver(f)
}

// schedule routes one delivery to the destination, crossing engines through
// the deterministic merge when one is installed.
func (nic *NIC) schedule(dst *NIC, at sim.Time, f Frame) {
	d := nic.carrier()
	d.dst, d.f = dst, f
	if dst == nic || nic.net.deliver == nil {
		dst.eng.AtCall(at, deliverCB, d)
		return
	}
	nic.net.deliver(nic, dst, at, deliverCB, d)
}

// Send transmits a frame. Same-node frames take the loopback path; others
// serialize through this NIC's link and arrive after the pair's wire
// latency. Cross-node arrivals are always at least that pair latency in the
// future, which is the per-pair lookahead guarantee the windowed runner
// relies on (uniform networks degenerate to LinkSpec.Latency everywhere).
func (nic *NIC) Send(f Frame) {
	n := nic.net
	f.Src = nic.Node
	dst, ok := n.nics[f.Dst]
	if !ok {
		panic("netsim: send to unattached node " + f.Dst)
	}
	nic.Stats.TxFrames++
	nic.Stats.TxBytes += uint64(f.Bytes)

	var arrival sim.Time
	if f.Dst == nic.Node {
		copyT := time.Duration(int64(f.Bytes) * 8 * int64(time.Second) / n.spec.LoopbackBps)
		arrival = nic.eng.Now().Add(n.spec.LoopbackLatency + copyT)
	} else {
		start := nic.eng.Now()
		if nic.txFreeAt > start {
			start = nic.txFreeAt
		}
		tx := n.txTime(f.Bytes)
		nic.txFreeAt = start.Add(tx)
		arrival = nic.txFreeAt.Add(n.pairLatency(nic, dst))
	}

	// Fault layer: loopback traffic never touches the wire and is exempt.
	if n.impair != nil && f.Dst != nic.Node {
		imp := n.impair(nic.eng.Now(), f)
		if imp.Extra > 0 {
			arrival = arrival.Add(imp.Extra)
			atomic.AddUint64(&n.Stats.Delayed, 1)
		}
		if imp.Corrupt {
			f.Corrupt = true
			atomic.AddUint64(&n.Stats.Corrupted, 1)
		}
		if imp.Drop {
			atomic.AddUint64(&n.Stats.Dropped, 1)
			if imp.RedeliverAfter <= 0 {
				return // lost for good
			}
			atomic.AddUint64(&n.Stats.Retransmits, 1)
			arrival = arrival.Add(imp.RedeliverAfter)
		}
		if imp.Duplicate {
			atomic.AddUint64(&n.Stats.Duplicated, 1)
			dup := f
			dup.Dup = true
			nic.schedule(dst, arrival, dup)
		}
	}
	nic.schedule(dst, arrival, f)
}

func (nic *NIC) deliver(f Frame) {
	nic.rxq = append(nic.rxq, f)
	nic.Stats.RxFrames++
	nic.Stats.RxBytes += uint64(f.Bytes)
	atomic.AddUint64(&nic.net.Stats.Frames, 1)
	atomic.AddUint64(&nic.net.Stats.Bytes, uint64(f.Bytes))
	if nic.OnRx != nil {
		nic.OnRx()
	}
}

// Engine returns the engine this NIC (and its node) runs on.
func (nic *NIC) Engine() *sim.Engine { return nic.eng }

// Idx returns the NIC's engine index in the cluster runner.
func (nic *NIC) Idx() int { return nic.idx }

// Spec returns the link parameters of the network this NIC is attached to.
func (nic *NIC) Spec() LinkSpec { return nic.net.spec }

// RxPending reports how many frames await processing.
func (nic *NIC) RxPending() int { return len(nic.rxq) }

// Drain removes and returns up to max frames from the receive ring (the
// softirq's polling budget). The returned slice is the NIC's reused scratch
// buffer: it is only valid until the next Drain call.
func (nic *NIC) Drain(max int) []Frame {
	if max <= 0 || max > len(nic.rxq) {
		max = len(nic.rxq)
	}
	out := append(nic.drainBuf[:0], nic.rxq[:max]...)
	n := copy(nic.rxq, nic.rxq[max:])
	for i := n; i < len(nic.rxq); i++ {
		nic.rxq[i] = Frame{}
	}
	nic.rxq = nic.rxq[:n]
	nic.drainBuf = out
	return out
}

// TxBacklog reports how far in the future this NIC's transmit link is
// committed (0 if idle) — a congestion signal for tests.
func (nic *NIC) TxBacklog() time.Duration {
	now := nic.eng.Now()
	if nic.txFreeAt <= now {
		return 0
	}
	return nic.txFreeAt.Sub(now)
}
