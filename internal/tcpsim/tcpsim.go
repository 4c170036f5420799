// Package tcpsim models the Linux TCP path over the simulated Ethernet,
// instrumented with KTAU exactly where the paper instruments it: the send
// side runs sys_writev → sock_sendmsg → tcp_sendmsg in the caller's process
// context; the receive side runs in interrupt context — a device IRQ
// followed by do_softirq / net_rx_action / tcp_v4_rcv charged to whatever
// process was interrupted — and tcp_recvmsg in the reader's context
// (Fig. 2-E of the paper shows precisely this event structure).
//
// Flow control is a simplified fixed window with per-segment acks: a sender
// blocks (voluntary switch) when the window is exhausted, and window credit
// returns with acks processed by the sender node's softirq. Receive
// processing pays a cache penalty when the softirq runs on a different CPU
// from the socket's consumer, reproducing the SMP TCP effect of paper §5.2
// (Fig. 10).
package tcpsim

import (
	"sync/atomic"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/netsim"
	"ktau/internal/sim"
)

// Params are the TCP path cost parameters, calibrated to a ~450 MHz-era
// node where one kernel TCP operation costs on the order of 25-35 us
// (Fig. 10's x-axis).
type Params struct {
	// SockSendCost is the sock_sendmsg dispatch cost per sendmsg.
	SockSendCost time.Duration
	// SendPerSeg and SendPerByte are tcp_sendmsg segmentation+checksum+copy
	// costs.
	SendPerSeg  time.Duration
	SendPerByte time.Duration
	// RcvPerPkt and RcvPerByte are tcp_v4_rcv costs per data packet.
	RcvPerPkt  time.Duration
	RcvPerByte time.Duration
	// AckCost is the tcp_v4_rcv cost of processing a pure ack.
	AckCost time.Duration
	// RecvMsgCost and RecvCopyPerByte are tcp_recvmsg costs in the reader's
	// context.
	RecvMsgCost     time.Duration
	RecvCopyPerByte time.Duration
	// NetRxCost is the net_rx_action dispatch overhead per softirq.
	NetRxCost time.Duration
	// CacheMissFactor multiplies tcp_v4_rcv cost when the softirq CPU
	// differs from the CPU the consuming task last ran on.
	CacheMissFactor float64
	// NetRxBudget is the frame-processing budget per softirq invocation.
	NetRxBudget int
	// SndBuf is the per-connection send window in bytes.
	SndBuf int
}

// DefaultParams returns the calibrated cost model.
func DefaultParams() Params {
	return Params{
		SockSendCost:    4 * time.Microsecond,
		SendPerSeg:      22 * time.Microsecond,
		SendPerByte:     3 * time.Nanosecond,
		RcvPerPkt:       30 * time.Microsecond,
		RcvPerByte:      3 * time.Nanosecond,
		AckCost:         7 * time.Microsecond,
		RecvMsgCost:     5 * time.Microsecond,
		RecvCopyPerByte: 2 * time.Nanosecond,
		NetRxCost:       2 * time.Microsecond,
		CacheMissFactor: 1.25,
		NetRxBudget:     64,
		SndBuf:          64 * 1024,
	}
}

// Stack is one node's network stack, binding the kernel to its NIC.
type Stack struct {
	k   *kernel.Kernel
	nic *netsim.NIC
	p   Params

	evSockSendmsg ktau.EventID
	evTcpSendmsg  ktau.EventID
	evTcpV4Rcv    ktau.EventID
	evTcpRecvmsg  ktau.EventID
	evNetRxAction ktau.EventID
	evPktSize     ktau.EventID

	irqPending bool
	// rxAction and raiseRx are netRxAction and rxInterrupt bound once, so
	// raising the device IRQ and deferring a re-raise allocate nothing.
	rxAction func(*kernel.BHCtx)
	raiseRx  func()

	// open is the number of this stack's endpoints not yet closed. Connect
	// runs on the opening end's engine and counts both ends, so under the
	// partitioned runner two workers can open connections to one stack at
	// once: open and Stats.ConnsOpened are only written atomically.
	open atomic.Int64

	// Stats counts stack activity.
	Stats struct {
		SegsSent, SegsRcvd uint64
		AcksSent, AcksRcvd uint64
		Softirqs           uint64
		// DupSegs counts duplicate data segments discarded by the
		// sequence-number check (receive cost still charged).
		DupSegs uint64
		// CorruptSegs counts data segments delivered with damaged payloads.
		CorruptSegs uint64
		// ConnsOpened/ConnsClosed count endpoint lifecycle on this stack;
		// their difference is the live-socket gauge (see OpenConns).
		ConnsOpened, ConnsClosed uint64
		// FinsSent/FinsRcvd count teardown notices on the wire.
		FinsSent, FinsRcvd uint64
		// IdleCloses counts endpoints reaped by the idle-timeout watchdog.
		IdleCloses uint64
	}
}

// NewStack attaches a TCP stack to a node's kernel and NIC.
func NewStack(k *kernel.Kernel, nic *netsim.NIC, p Params) *Stack {
	if p.NetRxBudget <= 0 {
		p.NetRxBudget = 64
	}
	if p.SndBuf <= 0 {
		p.SndBuf = 64 * 1024
	}
	if p.CacheMissFactor < 1 {
		p.CacheMissFactor = 1
	}
	m := k.Ktau()
	s := &Stack{
		k: k, nic: nic, p: p,
		evSockSendmsg: m.Event("sock_sendmsg", ktau.GroupTCP),
		evTcpSendmsg:  m.Event("tcp_sendmsg", ktau.GroupTCP),
		evTcpV4Rcv:    m.Event("tcp_v4_rcv", ktau.GroupTCP),
		evTcpRecvmsg:  m.Event("tcp_recvmsg", ktau.GroupTCP),
		evNetRxAction: m.Event("net_rx_action", ktau.GroupBH),
		evPktSize:     m.Event("tcp_pkt_bytes", ktau.GroupTCP),
	}
	s.rxAction = s.netRxAction
	s.raiseRx = s.rxInterrupt
	nic.OnRx = s.raiseRx
	return s
}

// Kernel returns the owning kernel.
func (s *Stack) Kernel() *kernel.Kernel { return s.k }

// OpenConns reports how many of this stack's endpoints are still open: a
// leak detector for long-lived connection populations (serving fleets must
// drain to zero).
func (s *Stack) OpenConns() int { return int(s.open.Load()) }

// Params returns the stack's cost model.
func (s *Stack) Params() Params { return s.p }

// A segment in flight is described by its frame's Payload, the endpoint it
// is for as a pointer whose type names the segment kind, and its Count.
// Converting a *Conn to one of these types and back copies the pointer, so
// describing a segment allocates nothing.
type (
	// segFor marks a data segment for the receiving endpoint; Count is the
	// payload bytes.
	segFor Conn
	// ackFor marks a window-credit ack for the sending endpoint; Count is
	// the credited bytes.
	ackFor Conn
	// finFor marks a teardown notice: the peer closed its end after sending
	// Count payload bytes. The byte count is the stand-in for TCP's FIN
	// sequence number: readers only observe end-of-stream once every byte
	// the peer sent has been delivered, so a FIN that overtakes data in
	// flight (fault-injected latency jitter can reorder frames) does not
	// truncate the stream.
	finFor Conn
)

// Conn is one direction-agnostic endpoint of an established connection.
type Conn struct {
	stack *Stack
	peer  *Conn

	rcvBytes  int // bytes delivered by softirq, not yet read
	sndWnd    int
	unackedRx int  // bytes received but not yet acknowledged (delayed acks)
	corrupt   bool // a corrupt segment landed since the last TakeCorrupt
	rcvWQ     *kernel.WaitQueue
	sndWQ     *kernel.WaitQueue
	owner     *kernel.Task // last task to read from this endpoint

	closed     bool   // local end closed (FIN sent)
	peerClosed bool   // peer's FIN processed by the softirq
	finTotal   uint64 // payload bytes the peer had sent when it closed
	delivered  uint64 // payload bytes delivered into rcvBytes (dups excluded)
	sentTotal  uint64 // payload bytes this end has sent
	idleTO     time.Duration
	lastActive sim.Time

	// Stats counts endpoint traffic.
	Stats struct {
		BytesSent, BytesRcvd uint64
	}
}

// Connect establishes a connection between two stacks and returns the two
// endpoints (a-side, b-side). Handshake latency is not modelled; MPI jobs
// establish their mesh before timing starts.
func Connect(a, b *Stack) (*Conn, *Conn) {
	ca := &Conn{
		stack: a, sndWnd: a.p.SndBuf,
		rcvWQ: kernel.NewWaitQueue("tcp-rcv"),
		sndWQ: kernel.NewWaitQueue("tcp-snd"),
	}
	cb := &Conn{
		stack: b, sndWnd: b.p.SndBuf,
		rcvWQ: kernel.NewWaitQueue("tcp-rcv"),
		sndWQ: kernel.NewWaitQueue("tcp-snd"),
	}
	ca.peer = cb
	cb.peer = ca
	for _, s := range [2]*Stack{a, b} {
		s.open.Add(1)
		atomic.AddUint64(&s.Stats.ConnsOpened, 1)
	}
	return ca, cb
}

// Available reports bytes ready for reading (for tests and polling).
func (c *Conn) Available() int { return c.rcvBytes }

// Window reports the current send window (for tests).
func (c *Conn) Window() int { return c.sndWnd }

// Send writes n bytes to the connection through the full syscall + TCP send
// path, blocking (voluntarily) whenever the send window is exhausted. It
// must be called from the task goroutine that owns u.
func (c *Conn) Send(u *kernel.UCtx, n int) {
	if n <= 0 {
		return
	}
	if c.closed {
		panic("tcpsim: Send on closed connection")
	}
	s := c.stack
	u.Syscall("sys_writev", func(kc *kernel.KCtx) {
		c.lastActive = kc.Now()
		kc.Entry(s.evSockSendmsg)
		kc.Use(s.p.SockSendCost)
		kc.Entry(s.evTcpSendmsg)
		spec := s.netSpec()
		remaining := n
		for remaining > 0 {
			chunk := remaining
			if chunk > spec.MTU {
				chunk = spec.MTU
			}
			for c.sndWnd < chunk {
				kc.Wait(c.sndWQ)
			}
			c.sndWnd -= chunk
			kc.Use(s.p.SendPerSeg + time.Duration(chunk)*s.p.SendPerByte)
			s.nic.Send(netsim.Frame{
				Dst:     c.peer.stack.k.Node,
				Bytes:   chunk + spec.FrameOverheadBytes,
				Payload: (*segFor)(c.peer),
				Count:   uint64(chunk),
			})
			s.Stats.SegsSent++
			c.Stats.BytesSent += uint64(chunk)
			c.sentTotal += uint64(chunk)
			remaining -= chunk
		}
		kc.Exit(s.evTcpSendmsg)
		kc.Exit(s.evSockSendmsg)
	})
}

// eof reports end-of-stream: the local end is closed, or the peer closed and
// every byte it ever sent has already been delivered into the receive
// buffer (so nothing more can arrive).
func (c *Conn) eof() bool {
	return c.closed || (c.peerClosed && c.delivered >= c.finTotal)
}

// Recv reads exactly n bytes from the connection through the syscall +
// tcp_recvmsg path, blocking (voluntarily) until data arrives. It reports
// whether the full amount was read: false means end-of-stream — the local
// end was closed, or the peer closed with fewer than n bytes left. Any
// buffered remainder short of n has been consumed by then, so framed
// protocols should only see EOF on a frame boundary. It must be called from
// the task goroutine that owns u.
func (c *Conn) Recv(u *kernel.UCtx, n int) bool {
	if n <= 0 {
		return true
	}
	s := c.stack
	c.owner = u.Task()
	ok := true
	u.Syscall("sys_read", func(kc *kernel.KCtx) {
		kc.Entry(s.evTcpRecvmsg)
		kc.Use(s.p.RecvMsgCost)
		remaining := n
		for remaining > 0 {
			for c.rcvBytes == 0 {
				if c.eof() {
					ok = false
					break
				}
				kc.Wait(c.rcvWQ)
			}
			if !ok {
				break
			}
			take := c.rcvBytes
			if take > remaining {
				take = remaining
			}
			c.rcvBytes -= take
			remaining -= take
			kc.Use(time.Duration(take) * s.p.RecvCopyPerByte)
			c.Stats.BytesRcvd += uint64(take)
			c.lastActive = kc.Now()
		}
		kc.Exit(s.evTcpRecvmsg)
	})
	return ok
}

// TakeCorrupt reports and clears the endpoint's corruption taint: whether a
// damaged segment landed on this connection since the last call. Consumers
// use it after receiving one framed message to decide whether the payload
// just read can be trusted.
func (c *Conn) TakeCorrupt() bool {
	v := c.corrupt
	c.corrupt = false
	return v
}

// RecvTimeout reads exactly n bytes like Recv, but gives up once the
// deadline d passes without the full amount being available, or immediately
// on end-of-stream. Nothing is consumed on either failure, so a retry sees
// the byte stream intact. It reports whether the read completed; d <= 0
// means no deadline.
func (c *Conn) RecvTimeout(u *kernel.UCtx, n int, d time.Duration) bool {
	if n <= 0 {
		return true
	}
	if d <= 0 {
		return c.Recv(u, n)
	}
	s := c.stack
	c.owner = u.Task()
	ok := true
	u.Syscall("sys_read", func(kc *kernel.KCtx) {
		kc.Entry(s.evTcpRecvmsg)
		kc.Use(s.p.RecvMsgCost)
		deadline := kc.Now().Add(d)
		// The deadline is a timer wake: it releases the blocked reader like
		// a signal would, and the condition re-check loop observes the time.
		// It is cancelled on completion so the stale wake cannot cut short an
		// unrelated later sleep.
		ev := kc.WakeAt(deadline)
		for c.rcvBytes < n {
			if kc.Now() >= deadline || (c.eof() && c.rcvBytes < n) {
				ok = false
				break
			}
			kc.Wait(c.rcvWQ)
		}
		s.k.Engine().Cancel(ev)
		if ok {
			c.rcvBytes -= n
			kc.Use(time.Duration(n) * s.p.RecvCopyPerByte)
			c.Stats.BytesRcvd += uint64(n)
			c.lastActive = kc.Now()
		}
		kc.Exit(s.evTcpRecvmsg)
	})
	return ok
}

// SendTimeout writes n bytes like Send, but abandons the write once the
// deadline d passes with the send window exhausted (an unresponsive peer
// stops acknowledging, credit never returns). It reports whether the full
// amount was sent; already-transmitted segments are not recalled, so a
// false return generally leaves a partial message in the stream — callers
// must treat the connection as broken. d <= 0 means no deadline.
func (c *Conn) SendTimeout(u *kernel.UCtx, n int, d time.Duration) bool {
	if n <= 0 {
		return true
	}
	if c.closed {
		panic("tcpsim: SendTimeout on closed connection")
	}
	if d <= 0 {
		c.Send(u, n)
		return true
	}
	s := c.stack
	ok := true
	u.Syscall("sys_writev", func(kc *kernel.KCtx) {
		c.lastActive = kc.Now()
		kc.Entry(s.evSockSendmsg)
		kc.Use(s.p.SockSendCost)
		kc.Entry(s.evTcpSendmsg)
		deadline := kc.Now().Add(d)
		ev := kc.WakeAt(deadline)
		defer s.k.Engine().Cancel(ev)
		spec := s.netSpec()
		remaining := n
		for remaining > 0 && ok {
			chunk := remaining
			if chunk > spec.MTU {
				chunk = spec.MTU
			}
			for c.sndWnd < chunk {
				if kc.Now() >= deadline {
					ok = false
					break
				}
				kc.Wait(c.sndWQ)
			}
			if !ok {
				break
			}
			c.sndWnd -= chunk
			kc.Use(s.p.SendPerSeg + time.Duration(chunk)*s.p.SendPerByte)
			s.nic.Send(netsim.Frame{
				Dst:     c.peer.stack.k.Node,
				Bytes:   chunk + spec.FrameOverheadBytes,
				Payload: (*segFor)(c.peer),
				Count:   uint64(chunk),
			})
			s.Stats.SegsSent++
			c.Stats.BytesSent += uint64(chunk)
			c.sentTotal += uint64(chunk)
			remaining -= chunk
		}
		kc.Exit(s.evTcpSendmsg)
		kc.Exit(s.evSockSendmsg)
	})
	return ok
}

// Close gracefully closes this endpoint: a FIN carrying the final payload
// byte count goes to the peer, blocked local readers are released (they
// observe EOF), and the simulated socket is released from the stack's open
// count. Close is idempotent and does not recall in-flight data — the peer
// reads everything sent before the close, then sees end-of-stream. It must
// be called from the task goroutine that owns u.
func (c *Conn) Close(u *kernel.UCtx) {
	if c.closed {
		return
	}
	s := c.stack
	u.Syscall("sys_close", func(kc *kernel.KCtx) {
		kc.Use(s.p.SockSendCost)
		c.closeLocal(false)
	})
}

// closeLocal performs the shared teardown. It runs either inside a task's
// sys_close or directly from the idle-timeout engine event; the idle path is
// an asynchronous kernel-side reap (like a keepalive timer) whose cost is
// charged to no process.
func (c *Conn) closeLocal(idle bool) {
	if c.closed {
		return
	}
	c.closed = true
	s := c.stack
	spec := s.netSpec()
	s.nic.Send(netsim.Frame{
		Dst:     c.peer.stack.k.Node,
		Bytes:   spec.FrameOverheadBytes,
		Payload: (*finFor)(c.peer),
		Count:   c.sentTotal,
	})
	s.Stats.FinsSent++
	if idle {
		s.Stats.IdleCloses++
	}
	s.open.Add(-1)
	s.Stats.ConnsClosed++
	// Release blocked readers on the dead endpoint so they observe EOF.
	c.rcvWQ.WakeAll(s.k)
	c.sndWQ.WakeAll(s.k)
}

// Closed reports whether the local end has been closed.
func (c *Conn) Closed() bool { return c.closed }

// PeerClosed reports whether the peer's FIN has been processed.
func (c *Conn) PeerClosed() bool { return c.peerClosed }

// EOF reports whether reads can no longer make progress (see eof).
func (c *Conn) EOF() bool { return c.eof() }

// SetIdleTimeout arms a watchdog that reaps the endpoint after d of
// inactivity (no send, no delivery, no read, and an empty receive buffer).
// It is the backstop that keeps long-lived open-loop client connections from
// leaking simulated sockets when their owner wanders off; the reap is a
// kernel-side close, so the peer still sees an orderly FIN. d <= 0 disables
// the watchdog for this endpoint.
func (c *Conn) SetIdleTimeout(d time.Duration) {
	c.idleTO = d
	if d <= 0 || c.closed {
		return
	}
	c.lastActive = c.stack.k.Engine().Now()
	c.armIdle()
}

// armIdle schedules the next watchdog check at the earliest instant the
// endpoint could have been idle for the full timeout. Stale checks re-arm
// rather than cancel, so no timer handles need tracking.
func (c *Conn) armIdle() {
	c.stack.k.Engine().AtCall(c.lastActive.Add(c.idleTO), idleCheckCB, c)
}

// idleCheckCB is the idle watchdog's static timer callback (the endpoint
// rides in the event's argument slot).
func idleCheckCB(arg any) {
	c := arg.(*Conn)
	if c.closed || c.idleTO <= 0 || c.stack.k.Crashed() {
		return
	}
	now := c.stack.k.Engine().Now()
	if now >= c.lastActive.Add(c.idleTO) {
		if c.rcvBytes == 0 {
			c.closeLocal(true)
			return
		}
		// Data is buffered but unread: treat the delivery as the last
		// activity and give the reader one more full timeout.
		c.lastActive = now
	}
	c.armIdle()
}

// rxInterrupt raises the device IRQ for pending frames, coalescing while an
// interrupt is already outstanding (NAPI-style).
func (s *Stack) rxInterrupt() {
	if s.irqPending {
		return
	}
	s.irqPending = true
	s.k.RaiseDevIRQ("eth0", s.rxAction)
}

// netRxAction is the NET_RX softirq handler: it drains the NIC ring within
// its budget, charging tcp_v4_rcv per packet to the interrupted process's
// profile, applies flow-control credit, and wakes blocked readers/senders
// when the softirq's processing time has elapsed.
func (s *Stack) netRxAction(b *kernel.BHCtx) {
	s.irqPending = false
	s.Stats.Softirqs++
	b.Span(s.evNetRxAction, s.p.NetRxCost)
	frames := s.nic.Drain(s.p.NetRxBudget)
	spec := s.netSpec()
	for _, f := range frames {
		switch pl := f.Payload.(type) {
		case *segFor:
			c, n := (*Conn)(pl), int(f.Count)
			cost := s.p.RcvPerPkt + time.Duration(n)*s.p.RcvPerByte
			if c.owner != nil && c.owner.LastCPU() != b.CPU().ID {
				cost = time.Duration(float64(cost) * s.p.CacheMissFactor)
			}
			b.Span(s.evTcpV4Rcv, cost)
			b.Atomic(s.evPktSize, float64(n))
			if f.Dup {
				// Sequence-number check: the duplicate burned wire bandwidth
				// and receive-path CPU but contributes no payload or credit.
				s.Stats.DupSegs++
				continue
			}
			if f.Corrupt {
				// The damage survives the checksum (fault-injection premise):
				// bytes flow, but the stream is tainted so the application
				// layer can discard the affected message.
				s.Stats.CorruptSegs++
				c.corrupt = true
			}
			c.rcvBytes += n
			c.delivered += uint64(n)
			c.lastActive = s.k.Engine().Now()
			s.Stats.SegsRcvd++
			// Delayed acks: a window-credit ack returns once roughly two
			// segments' worth of data has accumulated. (The residual below
			// the threshold stays unacknowledged; it is bounded by 2*MTU per
			// flow, far below the send window, so senders never stall on it.)
			c.unackedRx += n
			if c.unackedRx >= 2*spec.MTU {
				s.nic.Send(netsim.Frame{
					Dst:     c.peer.stack.k.Node,
					Bytes:   spec.FrameOverheadBytes,
					Payload: (*ackFor)(c.peer),
					Count:   uint64(c.unackedRx),
				})
				c.unackedRx = 0
				s.Stats.AcksSent++
			}
			b.DeferWakeAll(c.rcvWQ)
		case *ackFor:
			b.Span(s.evTcpV4Rcv, s.p.AckCost)
			c := (*Conn)(pl)
			c.sndWnd += int(f.Count)
			s.Stats.AcksRcvd++
			b.DeferWakeAll(c.sndWQ)
		case *finFor:
			b.Span(s.evTcpV4Rcv, s.p.AckCost)
			c := (*Conn)(pl)
			if f.Dup {
				s.Stats.DupSegs++
				continue
			}
			if !c.peerClosed {
				c.peerClosed = true
				c.finTotal = f.Count
				s.Stats.FinsRcvd++
			}
			// Wake blocked readers: if the stream is fully delivered they
			// observe EOF; otherwise they go back to waiting for the tail.
			b.DeferWakeAll(c.rcvWQ)
		}
	}
	// Budget exhausted with frames remaining: re-raise the interrupt.
	if s.nic.RxPending() > 0 {
		b.Defer(s.raiseRx)
	}
}

func (s *Stack) netSpec() netsim.LinkSpec { return s.nic.Spec() }
