package servesim

import (
	"fmt"
	"sync"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/sim"
	"ktau/internal/tcpsim"
)

// rpcHeaderBytes is the framing overhead of one RPC message on the wire.
const rpcHeaderBytes = 32

// TenantSpec describes one tenant's client population and traffic shape.
type TenantSpec struct {
	Name string
	// Clients is the number of independent logical clients.
	Clients int
	// Arrival is each client's open-loop arrival process.
	Arrival ArrivalSpec
	// ReqBytes/RespBytes are mean payload sizes; SizeJitter is the ± uniform
	// fraction applied per request.
	ReqBytes   int
	RespBytes  int
	SizeJitter float64
	// Service is the mean per-request CPU demand on the server;
	// ServiceFloor is its minimum (the remainder is exponential).
	Service      time.Duration
	ServiceFloor time.Duration
}

func (t TenantSpec) withDefaults() TenantSpec {
	if t.Clients <= 0 {
		t.Clients = 1
	}
	if t.ReqBytes <= 0 {
		t.ReqBytes = 512
	}
	if t.RespBytes <= 0 {
		t.RespBytes = 2048
	}
	if t.SizeJitter <= 0 {
		t.SizeJitter = 0.5
	}
	if t.Service <= 0 {
		t.Service = 500 * time.Microsecond
	}
	if t.ServiceFloor <= 0 || t.ServiceFloor > t.Service {
		t.ServiceFloor = t.Service / 4
	}
	return t
}

// Spec describes a serving deployment on an existing cluster.
type Spec struct {
	// ClientNodes host the load generators; ServerNodes host the serving
	// processes. Both are cluster node indices.
	ClientNodes []int
	ServerNodes []int
	// Tenants share the server nodes; every tenant runs on every server
	// node (the multi-tenant contention this workload exists to expose).
	Tenants []TenantSpec
	// Workers is the number of worker tasks per (server node, tenant)
	// serving process (default 2, matching the era's 2-CPU nodes).
	Workers int
	// QueueCap bounds each serving process's admission queue; requests
	// arriving beyond it are rejected with an error reply (default 64).
	QueueCap int
	// FanOut is how many server nodes each (client node, tenant) pair
	// connects to (default min(8, servers)); connections stride across the
	// server list so all servers are covered.
	FanOut int
	// Duration is the open-loop load window from deployment (default 1s).
	Duration time.Duration
	// TailK is how many slowest requests to keep per (tenant, server node)
	// for attribution (default 32).
	TailK int
	// DrainTimeout paces the client receiver's poll for replies; after
	// LostPatience consecutive empty polls with the sender idle, remaining
	// replies are declared lost (faults can eat them). Defaults 50ms / 10.
	DrainTimeout time.Duration
	LostPatience int
	// IdleTimeout, when > 0, arms tcpsim's idle watchdog on every
	// connection as a leak backstop.
	IdleTimeout time.Duration
}

func (s Spec) withDefaults() Spec {
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.QueueCap <= 0 {
		s.QueueCap = 64
	}
	if s.FanOut <= 0 {
		s.FanOut = 8
	}
	if s.FanOut > len(s.ServerNodes) {
		s.FanOut = len(s.ServerNodes)
	}
	if s.Duration <= 0 {
		s.Duration = time.Second
	}
	if s.TailK <= 0 {
		s.TailK = 32
	}
	if s.DrainTimeout <= 0 {
		s.DrainTimeout = 50 * time.Millisecond
	}
	if s.LostPatience <= 0 {
		s.LostPatience = 10
	}
	for i := range s.Tenants {
		s.Tenants[i] = s.Tenants[i].withDefaults()
	}
	return s
}

// Request is one RPC in flight, carrying its lifecycle timestamps. The
// pointer crosses from client node to server node and back alongside the
// simulated byte stream. Once the client node has recorded its completion
// or rejection, the request goes onto that node's free list for a later
// arrival there.
type Request struct {
	Tenant  int
	Client  int
	Seq     uint64
	Server  int // cluster node index
	Req     int // request payload bytes
	Resp    int // reply payload bytes
	Service time.Duration
	Dropped bool // rejected by the admission queue

	Arrival      sim.Time
	SendStart    sim.Time
	Admit        sim.Time
	ServiceStart sim.Time
	ReplySent    sim.Time
	Done         sim.Time

	conn *rpcConn
}

// metaQ carries request metadata alongside tcpsim's byte-count-only
// streams. It is locked because producer and consumer live on different
// node engines, but determinism holds by construction: an entry is pushed
// before its first byte is sent and popped only after the last byte is
// received, at least one wire latency — one runner window barrier — later,
// so a push and its pop can never fall in the same window. (The same
// argument justifies mpisim's and perfmon's message queues.)
type metaQ struct {
	mu sync.Mutex
	q  []*Request
	h  int
}

func (m *metaQ) push(r *Request) {
	m.mu.Lock()
	m.q = append(m.q, r)
	m.mu.Unlock()
}

func (m *metaQ) pop() *Request {
	m.mu.Lock()
	r := m.q[m.h]
	m.h++
	if m.h == len(m.q) {
		m.q = m.q[:0]
		m.h = 0
	}
	m.mu.Unlock()
	return r
}

// serverGroup is one tenant's serving process on one server node: a bounded
// admission queue drained by Workers worker tasks. All state is touched
// only from the server node's engine.
type serverGroup struct {
	node      int // cluster node index
	tenant    int
	q         []*Request // ring buffer, capacity = QueueCap
	qh, qn    int
	qWQ       *kernel.WaitQueue
	liveConns int
}

func (g *serverGroup) push(r *Request) {
	g.q[(g.qh+g.qn)%len(g.q)] = r
	g.qn++
}

func (g *serverGroup) pop() *Request {
	r := g.q[g.qh]
	g.qh = (g.qh + 1) % len(g.q)
	g.qn--
	return r
}

// rpcConn is one (client node, tenant, server node) connection pair and the
// per-connection protocol state on both ends.
type rpcConn struct {
	tenant   int
	clientNI int // index into Spec.ClientNodes
	server   int // cluster node index
	tc, sc   *tcpsim.Conn

	// Client-side state (client node engine only).
	sendQ       []*Request
	sendH       int
	sendWQ      *kernel.WaitQueue
	doneWQ      *kernel.WaitQueue
	outstanding int
	loadDone    bool // no further arrivals will be queued
	flushed     bool // sender drained its queue
	reqMeta     metaQ
	respMeta    metaQ

	// Server-side state (server node engine only).
	group    *serverGroup
	replyQ   []*Request
	replyH   int
	replyWQ  *kernel.WaitQueue
	inflight int
	rxEOF    bool
}

func (c *rpcConn) sendLen() int { return len(c.sendQ) - c.sendH }

func (c *rpcConn) pushSend(r *Request) {
	c.sendQ = append(c.sendQ, r)
}

func (c *rpcConn) popSend() *Request {
	r := c.sendQ[c.sendH]
	c.sendH++
	if c.sendH == len(c.sendQ) {
		c.sendQ = c.sendQ[:0]
		c.sendH = 0
	}
	return r
}

func (c *rpcConn) replyLen() int { return len(c.replyQ) - c.replyH }

func (c *rpcConn) pushReply(k *kernel.Kernel, r *Request) {
	c.replyQ = append(c.replyQ, r)
	c.replyWQ.WakeOne(k)
}

func (c *rpcConn) popReply() *Request {
	r := c.replyQ[c.replyH]
	c.replyH++
	if c.replyH == len(c.replyQ) {
		c.replyQ = c.replyQ[:0]
		c.replyH = 0
	}
	return r
}

// clientState is one logical open-loop client: a self-rescheduling arrival
// event on its home node's engine, not a task (thousands of clients would
// otherwise mean thousands of goroutines per node).
type clientState struct {
	f      *Fleet
	tenant int
	id     int
	homeNI int
	rng    *sim.RNG
	proc   *arrivalProc
	seq    uint64
}

// fireClient is a logical client's arrival event, scheduled with AtCall so
// that no arrival allocates a closure.
func fireClient(arg any) { arg.(*clientState).fire() }

func (cs *clientState) fire() {
	f := cs.f
	node := f.c.Nodes[f.spec.ClientNodes[cs.homeNI]]
	now := node.Eng.Now()
	ts := &f.spec.Tenants[cs.tenant]
	conns := f.clientConns[cs.homeNI][cs.tenant]
	c := conns[cs.rng.Intn(len(conns))]
	req := f.newRequest(cs.homeNI)
	*req = Request{
		Tenant:  cs.tenant,
		Client:  cs.id,
		Seq:     cs.seq,
		Server:  c.server,
		Req:     int(cs.rng.Jitter(int64(ts.ReqBytes), ts.SizeJitter)),
		Resp:    int(cs.rng.Jitter(int64(ts.RespBytes), ts.SizeJitter)),
		Service: ts.ServiceFloor + time.Duration(float64(ts.Service-ts.ServiceFloor)*cs.rng.ExpFloat64()),
		Arrival: now,
		conn:    c,
	}
	if req.Req < 1 {
		req.Req = 1
	}
	if req.Resp < 1 {
		req.Resp = 1
	}
	cs.seq++
	f.shards[cs.homeNI].RecordArrival(cs.tenant, c.server)
	c.pushSend(req)
	c.sendWQ.WakeOne(node.K)
	at := now.Add(cs.proc.next())
	if at < f.loadEnd {
		node.Eng.AtCall(at, fireClient, cs)
	} else {
		f.retireClient(cs.homeNI, cs.tenant)
	}
}

// Fleet is a deployed serving workload: connections, serving processes,
// load generators, and per-client-node latency shards.
type Fleet struct {
	c       *cluster.Cluster
	spec    Spec
	loadEnd sim.Time

	tasks       []*kernel.Task
	conns       []*rpcConn
	groups      []*serverGroup
	clientConns [][][]*rpcConn // [clientNodeIdx][tenant][]*rpcConn
	pending     [][]int        // [clientNodeIdx][tenant] live logical clients
	shards      []*Store       // one per client node
	// free holds each client node's recorded requests for reuse. Arrivals
	// and the receivers that record them both run on the client node's
	// engine, so a node's list needs no lock.
	free [][]*Request // [clientNodeIdx]
}

// newRequest takes a request off client node ni's free list, or allocates
// one when the list is empty. The caller overwrites every field.
func (f *Fleet) newRequest(ni int) *Request {
	fl := f.free[ni]
	if n := len(fl); n > 0 {
		f.free[ni] = fl[:n-1]
		return fl[n-1]
	}
	return new(Request)
}

// Deploy wires a serving workload onto a booted cluster: connections are
// established, serving processes and load generators spawned, and the first
// arrival of every logical client scheduled. The load runs for
// spec.Duration of virtual time from the cluster's current instant; drive
// the cluster with RunUntilDone(fleet.Tasks(), ...) until every task exits.
func Deploy(c *cluster.Cluster, spec Spec) (*Fleet, error) {
	spec = spec.withDefaults()
	if len(spec.ClientNodes) == 0 || len(spec.ServerNodes) == 0 {
		return nil, fmt.Errorf("servesim: need at least one client node and one server node")
	}
	if len(spec.Tenants) == 0 {
		return nil, fmt.Errorf("servesim: need at least one tenant")
	}
	for _, ni := range append(append([]int{}, spec.ClientNodes...), spec.ServerNodes...) {
		if ni < 0 || ni >= len(c.Nodes) {
			return nil, fmt.Errorf("servesim: node index %d out of range", ni)
		}
	}

	f := &Fleet{c: c, spec: spec, loadEnd: c.Now().Add(spec.Duration)}
	nT := len(spec.Tenants)

	// Serving processes: one group per (server node, tenant).
	groupAt := make(map[[2]int]*serverGroup)
	for _, sn := range spec.ServerNodes {
		for t := range spec.Tenants {
			g := &serverGroup{
				node:   sn,
				tenant: t,
				q:      make([]*Request, spec.QueueCap),
				qWQ:    kernel.NewWaitQueue("serve-admit"),
			}
			f.groups = append(f.groups, g)
			groupAt[[2]int{sn, t}] = g
		}
	}

	// Connections: each (client node, tenant) strides FanOut servers.
	f.clientConns = make([][][]*rpcConn, len(spec.ClientNodes))
	for ci, cn := range spec.ClientNodes {
		f.clientConns[ci] = make([][]*rpcConn, nT)
		for t := range spec.Tenants {
			for j := 0; j < spec.FanOut; j++ {
				sn := spec.ServerNodes[(ci*spec.FanOut+j)%len(spec.ServerNodes)]
				tc, sc := tcpsim.Connect(c.Nodes[cn].Stack, c.Nodes[sn].Stack)
				if spec.IdleTimeout > 0 {
					tc.SetIdleTimeout(spec.IdleTimeout)
					sc.SetIdleTimeout(spec.IdleTimeout)
				}
				conn := &rpcConn{
					tenant:   t,
					clientNI: ci,
					server:   sn,
					tc:       tc,
					sc:       sc,
					sendWQ:   kernel.NewWaitQueue("serve-send"),
					doneWQ:   kernel.NewWaitQueue("serve-done"),
					replyWQ:  kernel.NewWaitQueue("serve-reply"),
					group:    groupAt[[2]int{sn, t}],
				}
				conn.group.liveConns++
				f.conns = append(f.conns, conn)
				f.clientConns[ci][t] = append(f.clientConns[ci][t], conn)
			}
		}
	}

	// Latency shards and request free lists: one per client node,
	// engine-local.
	f.shards = make([]*Store, len(spec.ClientNodes))
	for i := range f.shards {
		f.shards[i] = NewStore(nT, len(c.Nodes), spec.TailK)
	}
	f.free = make([][]*Request, len(spec.ClientNodes))

	// Server tasks.
	for _, g := range f.groups {
		for w := 0; w < spec.Workers; w++ {
			f.tasks = append(f.tasks, f.spawnWorker(g, w))
		}
	}
	for _, conn := range f.conns {
		f.tasks = append(f.tasks,
			f.spawnServerRx(conn),
			f.spawnServerTx(conn),
			f.spawnClientSender(conn),
			f.spawnClientReceiver(conn),
		)
	}

	// Logical clients: seeded arrival processes on their home engines.
	f.pending = make([][]int, len(spec.ClientNodes))
	for i := range f.pending {
		f.pending[i] = make([]int, nT)
	}
	for t, ts := range spec.Tenants {
		for i := 0; i < ts.Clients; i++ {
			ni := i % len(spec.ClientNodes)
			rng := c.RNG.Stream(fmt.Sprintf("servesim/t%d/c%d", t, i))
			cs := &clientState{
				f: f, tenant: t, id: i, homeNI: ni,
				rng:  rng,
				proc: newArrivalProc(ts.Arrival, rng),
			}
			first := c.Now().Add(cs.proc.next())
			if first < f.loadEnd {
				f.pending[ni][t]++
				c.Nodes[spec.ClientNodes[ni]].Eng.AtCall(first, fireClient, cs)
			}
		}
		// Groups whose every client retired before the first arrival are
		// done from the start.
	}
	for ci := range f.pending {
		for t, n := range f.pending[ci] {
			if n == 0 {
				f.finishGroup(ci, t)
			}
		}
	}
	return f, nil
}

// retireClient runs on the client node's engine when a logical client's
// next arrival would land past the load window.
func (f *Fleet) retireClient(ni, tenant int) {
	f.pending[ni][tenant]--
	if f.pending[ni][tenant] == 0 {
		f.finishGroup(ni, tenant)
	}
}

// finishGroup marks every connection of a (client node, tenant) group as
// load-complete and nudges its senders into the drain phase.
func (f *Fleet) finishGroup(ni, tenant int) {
	k := f.c.Nodes[f.spec.ClientNodes[ni]].K
	for _, conn := range f.clientConns[ni][tenant] {
		conn.loadDone = true
		conn.sendWQ.WakeAll(k)
	}
}

// Tasks returns every task of the fleet, for RunUntilDone.
func (f *Fleet) Tasks() []*kernel.Task { return f.tasks }

// Stats merges the per-client-node shards (in node order, deterministic)
// into one latency store.
func (f *Fleet) Stats() *Store {
	out := NewStore(len(f.spec.Tenants), len(f.c.Nodes), f.spec.TailK)
	for _, sh := range f.shards {
		out.Merge(sh)
	}
	return out
}

// OpenConns counts fleet connection endpoints not yet closed; a drained
// fleet reports zero (the socket-leak check).
func (f *Fleet) OpenConns() int {
	n := 0
	for _, conn := range f.conns {
		if !conn.tc.Closed() {
			n++
		}
		if !conn.sc.Closed() {
			n++
		}
	}
	return n
}

// TenantName returns the tenant's display name.
func (f *Fleet) TenantName(t int) string { return f.spec.Tenants[t].Name }

// Spec returns the deployed (defaulted) spec.
func (f *Fleet) Spec() Spec { return f.spec }

// ---- tasks ----

// spawnClientSender drains a connection's send queue through the TCP path,
// then — once the load window is over and all replies are in — closes the
// client end.
func (f *Fleet) spawnClientSender(c *rpcConn) *kernel.Task {
	node := f.c.Nodes[f.spec.ClientNodes[c.clientNI]]
	name := fmt.Sprintf("serve.lg.%s.tx%d>%d", f.spec.Tenants[c.tenant].Name, node.Idx, c.server)
	return node.K.Spawn(name, func(u *kernel.UCtx) {
		for {
			u.Syscall("sys_futex", func(kc *kernel.KCtx) {
				for c.sendLen() == 0 && !c.loadDone {
					kc.Wait(c.sendWQ)
				}
			})
			if c.sendLen() == 0 {
				break // load done and drained
			}
			req := c.popSend()
			req.SendStart = u.Now()
			c.outstanding++
			c.reqMeta.push(req)
			c.tc.Send(u, rpcHeaderBytes+req.Req)
		}
		c.flushed = true
		u.Syscall("sys_futex", func(kc *kernel.KCtx) {
			for c.outstanding > 0 {
				kc.Wait(c.doneWQ)
			}
		})
		c.tc.Close(u)
	}, kernel.SpawnOpts{})
}

// spawnClientReceiver reads replies, matches them to requests via the
// metadata stream, records completed lifecycles and rejections into the
// node's shard and returns those requests to the node's free list.
// Requests declared lost stay out of it: they may still sit in a queue on
// the server side.
func (f *Fleet) spawnClientReceiver(c *rpcConn) *kernel.Task {
	node := f.c.Nodes[f.spec.ClientNodes[c.clientNI]]
	shard := f.shards[c.clientNI]
	name := fmt.Sprintf("serve.lg.%s.rx%d<%d", f.spec.Tenants[c.tenant].Name, node.Idx, c.server)
	return node.K.Spawn(name, func(u *kernel.UCtx) {
		misses := 0
		for {
			if c.flushed && c.outstanding == 0 && c.sendLen() == 0 {
				break
			}
			if !c.tc.RecvTimeout(u, rpcHeaderBytes, f.spec.DrainTimeout) {
				misses++
				if c.flushed && c.outstanding > 0 && misses >= f.spec.LostPatience {
					// Replies presumed lost (fault injection can eat them):
					// give up so the fleet still drains deterministically.
					shard.RecordLost(c.tenant, c.server, uint64(c.outstanding))
					c.outstanding = 0
					c.doneWQ.WakeAll(node.K)
					break
				}
				continue
			}
			misses = 0
			req := c.respMeta.pop()
			if !req.Dropped && req.Resp > 0 {
				c.tc.Recv(u, req.Resp)
			}
			req.Done = u.Now()
			c.outstanding--
			if req.Dropped {
				shard.RecordDrop(c.tenant, c.server)
			} else {
				shard.RecordOK(TailRec{
					Tenant:       req.Tenant,
					Node:         req.Server,
					Client:       req.Client,
					Seq:          req.Seq,
					Arrival:      req.Arrival,
					SendStart:    req.SendStart,
					Admit:        req.Admit,
					ServiceStart: req.ServiceStart,
					ReplySent:    req.ReplySent,
					Done:         req.Done,
					Lat:          (req.Done - req.Arrival).Duration(),
					Queue:        (req.ServiceStart - req.Admit).Duration(),
					Service:      (req.ReplySent - req.ServiceStart).Duration(),
				})
			}
			f.free[c.clientNI] = append(f.free[c.clientNI], req)
			if c.outstanding == 0 {
				c.doneWQ.WakeAll(node.K)
			}
		}
	}, kernel.SpawnOpts{})
}

// spawnServerRx reads requests off the wire into the tenant's admission
// queue, rejecting when it is full, until the client's FIN.
func (f *Fleet) spawnServerRx(c *rpcConn) *kernel.Task {
	node := f.c.Nodes[c.server]
	name := fmt.Sprintf("serve.s.%s.rx%d", f.spec.Tenants[c.tenant].Name, c.clientNI)
	return node.K.Spawn(name, func(u *kernel.UCtx) {
		g := c.group
		for {
			if !c.sc.Recv(u, rpcHeaderBytes) {
				break // EOF: client closed
			}
			req := c.reqMeta.pop()
			if req.Req > 0 {
				c.sc.Recv(u, req.Req)
			}
			req.Admit = u.Now()
			c.inflight++
			if g.qn == len(g.q) {
				// Admission queue full: reject with an error reply.
				req.Dropped = true
				req.ServiceStart = req.Admit
				req.ReplySent = req.Admit
				c.pushReply(node.K, req)
				continue
			}
			g.push(req)
			g.qWQ.WakeOne(node.K)
		}
		c.rxEOF = true
		g.liveConns--
		if g.liveConns == 0 {
			g.qWQ.WakeAll(node.K)
		}
		c.replyWQ.WakeAll(node.K)
	}, kernel.SpawnOpts{})
}

// spawnServerTx sends replies (and rejections) back to the client, then
// closes the server end once the connection is drained.
func (f *Fleet) spawnServerTx(c *rpcConn) *kernel.Task {
	node := f.c.Nodes[c.server]
	name := fmt.Sprintf("serve.s.%s.tx%d", f.spec.Tenants[c.tenant].Name, c.clientNI)
	return node.K.Spawn(name, func(u *kernel.UCtx) {
		for {
			exit := false
			u.Syscall("sys_futex", func(kc *kernel.KCtx) {
				for c.replyLen() == 0 {
					if c.rxEOF && c.inflight == 0 {
						exit = true
						return
					}
					kc.Wait(c.replyWQ)
				}
			})
			if exit {
				break
			}
			// Read the request before handing it back: once the client
			// has recorded it, the client node may reuse it.
			req := c.popReply()
			n := rpcHeaderBytes
			if !req.Dropped {
				n += req.Resp
			}
			c.respMeta.push(req)
			c.sc.Send(u, n)
			c.inflight--
		}
		c.sc.Close(u)
	}, kernel.SpawnOpts{})
}

// spawnWorker is one worker task of a serving process: dequeue, compute the
// request's service demand, hand the reply to the connection's sender.
func (f *Fleet) spawnWorker(g *serverGroup, w int) *kernel.Task {
	node := f.c.Nodes[g.node]
	name := fmt.Sprintf("serve.s.%s.w%d", f.spec.Tenants[g.tenant].Name, w)
	return node.K.Spawn(name, func(u *kernel.UCtx) {
		for {
			var req *Request
			exit := false
			u.Syscall("sys_futex", func(kc *kernel.KCtx) {
				for g.qn == 0 {
					if g.liveConns == 0 {
						exit = true
						return
					}
					kc.Wait(g.qWQ)
				}
				req = g.pop()
			})
			if exit {
				break
			}
			req.ServiceStart = u.Now()
			u.Compute(req.Service)
			req.ReplySent = u.Now()
			req.conn.pushReply(node.K, req)
		}
	}, kernel.SpawnOpts{})
}
