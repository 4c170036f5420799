// Package mpisim provides a blocking message-passing layer (an MPI subset)
// over the simulated TCP stacks: rank-addressed Send/Recv with tags, plus
// binomial-tree Barrier / Reduce / Bcast collectives — enough to express the
// NPB LU and ASCI Sweep3D communication patterns the paper measures.
//
// Every MPI call is wrapped in TAU user-level events (MPI_Send(), MPI_Recv()
// ...), so the user profile, the kernel profile, and KTAU's event mapping of
// kernel activity to the current MPI routine all line up as in the paper.
package mpisim

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/sim"
	"ktau/internal/tau"
	"ktau/internal/tcpsim"
)

// internal collective tags (user tags must be >= 0).
const (
	tagReduce = -101
	tagBcast  = -102
)

// msgHeaderBytes models the MPI envelope on the wire.
const msgHeaderBytes = 16

// RankSpec places one rank: the node stack it runs on and its CPU affinity.
type RankSpec struct {
	Stack *tcpsim.Stack
	// Affinity is the task's CPU mask on its node (0 = any; the paper's
	// "Pinned" configurations use kernel.AffinityCPU).
	Affinity uint64
}

type msgMeta struct {
	tag int
	n   int
}

// metaQ is the metadata side-channel of one flow direction. The sender
// pushes from its node's window, the receiver pops from its own, and under
// parallel execution the two can run concurrently — hence the lock. The
// *values* popped are nevertheless deterministic: a message's metadata is
// pushed at send time, at least one src→dst pair wire latency (= one
// synchronisation span of the partitioned runner — a window inside a group,
// an epoch across groups) before the receiver can have consumed the
// matching header bytes, so every pop returns an entry whose position in
// the FIFO was fixed before the receiver's span began.
type metaQ struct {
	mu sync.Mutex
	q  sim.Queue[msgMeta]
}

func (m *metaQ) push(v msgMeta) {
	m.mu.Lock()
	m.q.Push(v)
	m.mu.Unlock()
}

func (m *metaQ) pop() (msgMeta, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.q.Pop()
}

type flow struct {
	conn *tcpsim.Conn // local endpoint
	meta *metaQ       // metadata queue for messages flowing *into* this endpoint
}

type pair struct {
	lo, hi   *tcpsim.Conn
	metaToLo metaQ
	metaToHi metaQ
}

// MsgEvent is one endpoint-side record of a point-to-point message, logged
// when message logging is enabled. The sender logs its k-th send to
// (Dst,Tag) with Seq=k; the receiver logs its k-th receive from (Src,Tag)
// with Seq=k. Because each flow direction delivers in order and tags must
// match in order, (Src,Dst,Tag,Seq) identifies one message across both
// endpoints — the correlation key for cross-node flow arrows.
type MsgEvent struct {
	Src, Dst int // ranks
	Tag      int
	Bytes    int
	Seq      uint64
	Send     bool
	// StartTSC/EndTSC bracket the transport call in virtual TSC cycles.
	StartTSC int64
	EndTSC   int64
}

// World is an MPI job: a set of ranks with lazily established connections.
type World struct {
	specs   []RankSpec
	ranks   []*Rank
	pairs   map[[2]int]*pair
	tau     tau.Options
	logMsgs bool
}

// NewWorld creates a world from rank placements. tauOpts configures each
// rank's user-level profiler.
func NewWorld(specs []RankSpec, tauOpts tau.Options) *World {
	w := &World{specs: specs, pairs: make(map[[2]int]*pair), tau: tauOpts}
	for i := range specs {
		w.ranks = append(w.ranks, &Rank{w: w, id: i})
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.specs) }

// Rank returns rank i's handle (valid after Launch has started it).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// EnableMsgLog turns on per-endpoint message event logging on every rank.
// Call after NewWorld and before any traffic flows (mid-run enabling would
// desynchronise the sequence counters between sender and receiver).
func (w *World) EnableMsgLog() {
	w.logMsgs = true
	for _, r := range w.ranks {
		if r.sendSeq == nil {
			r.sendSeq = make(map[[2]int]uint64)
			r.recvSeq = make(map[[2]int]uint64)
		}
	}
}

// pairFor returns (creating lazily) the connection pair between ranks i and j.
func (w *World) pairFor(i, j int) *pair {
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	key := [2]int{lo, hi}
	if p, ok := w.pairs[key]; ok {
		return p
	}
	cl, ch := tcpsim.Connect(w.specs[lo].Stack, w.specs[hi].Stack)
	p := &pair{lo: cl, hi: ch}
	w.pairs[key] = p
	return p
}

// flowTo returns rank self's endpoint for traffic with peer, and the
// metadata queue for messages arriving at self from peer.
func (w *World) flowTo(self, peer int) flow {
	p := w.pairFor(self, peer)
	if self < peer {
		return flow{conn: p.lo, meta: &p.metaToLo}
	}
	return flow{conn: p.hi, meta: &p.metaToHi}
}

// Launch spawns one task per rank running body and returns the tasks. Task
// names are prefix.rankN.
func (w *World) Launch(prefix string, body func(r *Rank)) []*kernel.Task {
	// Establish the full connection mesh up front: connection setup carries
	// no simulated cost, and creating pairs lazily would mutate the shared
	// pair map from concurrently running node windows.
	for i := 0; i < len(w.specs); i++ {
		for j := i + 1; j < len(w.specs); j++ {
			w.pairFor(i, j)
		}
	}
	tasks := make([]*kernel.Task, len(w.specs))
	for i, spec := range w.specs {
		r := w.ranks[i]
		k := spec.Stack.Kernel()
		tasks[i] = k.Spawn(fmt.Sprintf("%s.rank%d", prefix, i), func(u *kernel.UCtx) {
			r.u = u
			r.Tau = tau.New(u, w.tau)
			body(r)
			r.Profile = r.Tau.Snapshot(u.Task().Name(), r.id)
		}, kernel.SpawnOpts{Kind: kernel.KindUser, Affinity: spec.Affinity})
		r.Task = tasks[i]
	}
	return tasks
}

// Rank is one MPI process.
type Rank struct {
	w  *World
	id int
	u  *kernel.UCtx

	// Tau is the rank's user-level profiler (valid once running).
	Tau *tau.Profiler
	// Task is the rank's kernel task.
	Task *kernel.Task
	// Profile is the final user-level profile, set when the rank finishes.
	Profile tau.Profile

	// Stats counts MPI traffic.
	Stats struct {
		Sends, Recvs uint64
		BytesSent    uint64
		BytesRcvd    uint64
	}

	// Message event log (enabled via World.EnableMsgLog). Only the rank's
	// own task appends; the node's trace agent drains between appends — both
	// run on the same node engine, so no locking is needed.
	msgLog  []MsgEvent
	msgPrev []MsgEvent // storage the previous DrainMsgs returned
	sendSeq map[[2]int]uint64
	recvSeq map[[2]int]uint64
}

// DrainMsgs returns and clears the rank's buffered message events. Empty
// unless World.EnableMsgLog was called. The rank alternates between two
// buffers of its own: the returned slice is valid until the next DrainMsgs,
// after which new events are written into its storage.
func (r *Rank) DrainMsgs() []MsgEvent {
	out := r.msgLog
	r.msgLog, r.msgPrev = r.msgPrev[:0], out
	return out
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the job size.
func (r *Rank) Size() int { return r.w.Size() }

// U returns the rank's user execution context.
func (r *Rank) U() *kernel.UCtx { return r.u }

// Compute burns d of user CPU inside a TAU-timed region.
func (r *Rank) Compute(name string, d time.Duration) {
	r.Tau.Start(name)
	r.u.Compute(d)
	r.Tau.Stop(name)
}

// Send transmits n payload bytes to rank `to` with the given tag, blocking
// until the data is handed to the transport (eager TCP semantics).
func (r *Rank) Send(to, n, tag int) {
	if to == r.id {
		panic("mpisim: send to self")
	}
	r.Tau.Start("MPI_Send()")
	var start int64
	if r.w.logMsgs {
		start = r.u.Cycles()
	}
	f := r.w.flowTo(to, r.id) // peer's inbound flow: meta arrives with data
	f.meta.push(msgMeta{tag: tag, n: n})
	self := r.w.flowTo(r.id, to)
	self.conn.Send(r.u, msgHeaderBytes+n)
	r.Stats.Sends++
	r.Stats.BytesSent += uint64(n)
	if r.w.logMsgs {
		k := [2]int{to, tag}
		seq := r.sendSeq[k]
		r.sendSeq[k] = seq + 1
		r.msgLog = append(r.msgLog, MsgEvent{
			Src: r.id, Dst: to, Tag: tag, Bytes: n, Seq: seq, Send: true,
			StartTSC: start, EndTSC: r.u.Cycles(),
		})
	}
	r.Tau.Stop("MPI_Send()")
}

// Recv blocks until the next message from rank `from` arrives; the message's
// tag must equal the expected tag (the deterministic workloads here always
// match; a mismatch is a workload bug and panics). Returns payload bytes.
func (r *Rank) Recv(from, tag int) int {
	r.Tau.Start("MPI_Recv()")
	var start int64
	if r.w.logMsgs {
		start = r.u.Cycles()
	}
	f := r.w.flowTo(r.id, from)
	f.conn.Recv(r.u, msgHeaderBytes)
	m, ok := f.meta.pop()
	if !ok {
		panic("mpisim: header arrived with no metadata (framing bug)")
	}
	if m.tag != tag {
		panic(fmt.Sprintf("mpisim: rank %d expected tag %d from %d, got %d",
			r.id, tag, from, m.tag))
	}
	if m.n > 0 {
		f.conn.Recv(r.u, m.n)
	}
	r.Stats.Recvs++
	r.Stats.BytesRcvd += uint64(m.n)
	if r.w.logMsgs {
		k := [2]int{from, tag}
		seq := r.recvSeq[k]
		r.recvSeq[k] = seq + 1
		r.msgLog = append(r.msgLog, MsgEvent{
			Src: from, Dst: r.id, Tag: tag, Bytes: m.n, Seq: seq, Send: false,
			StartTSC: start, EndTSC: r.u.Cycles(),
		})
	}
	r.Tau.Stop("MPI_Recv()")
	return m.n
}

// Reduce performs a binomial-tree reduction of n bytes to rank 0.
func (r *Rank) Reduce(n int) {
	size := r.Size()
	for mask := 1; mask < size; mask <<= 1 {
		if r.id&mask != 0 {
			r.Send(r.id-mask, n, tagReduce)
			return
		}
		if src := r.id + mask; src < size {
			r.Recv(src, tagReduce)
		}
	}
}

// Bcast distributes n bytes from rank 0 over a binomial tree.
func (r *Rank) Bcast(n int) {
	if r.id != 0 {
		k := 1 << (bits.Len(uint(r.id)) - 1) // highest set bit
		r.Recv(r.id-k, tagBcast)
	}
	start := 1
	if r.id != 0 {
		start = 1 << bits.Len(uint(r.id))
	}
	for mask := start; mask < nextPow2(r.Size()); mask <<= 1 {
		if dst := r.id + mask; dst < r.Size() {
			r.Send(dst, n, tagBcast)
		}
	}
}

// Allreduce is Reduce followed by Bcast (n bytes each way).
func (r *Rank) Allreduce(n int) {
	r.Tau.Start("MPI_Allreduce()")
	r.Reduce(n)
	r.Bcast(n)
	r.Tau.Stop("MPI_Allreduce()")
}

// Barrier synchronises all ranks (zero-byte Allreduce).
func (r *Rank) Barrier() {
	r.Tau.Start("MPI_Barrier()")
	r.Reduce(0)
	r.Bcast(0)
	r.Tau.Stop("MPI_Barrier()")
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
