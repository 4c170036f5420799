package servesim

import (
	"encoding/binary"
	"time"

	"ktau/internal/sim"
)

// TailRec is the full lifecycle of one request, kept for the slowest
// requests per (tenant, server node) so tail excursions can be correlated
// with kernel activity in their exact windows.
type TailRec struct {
	Tenant int
	Node   int // server's cluster node index
	Client int // global client index within the tenant
	Seq    uint64

	// Lifecycle instants on the shared virtual clock.
	Arrival      sim.Time // request generated at the client
	SendStart    sim.Time // client sender picked it up (gap = send queueing)
	Admit        sim.Time // server read it off the wire
	ServiceStart sim.Time // a worker dequeued it
	ReplySent    sim.Time // worker finished computing, reply enqueued
	Done         sim.Time // client finished reading the reply

	// Derived durations.
	Lat     time.Duration // Done - Arrival: the client-observed latency
	Queue   time.Duration // ServiceStart - Admit: admission-queue delay
	Service time.Duration // ReplySent - ServiceStart: compute time
}

// less orders tail records slowest-first with a total, deterministic order.
func (r TailRec) less(o TailRec) bool {
	if r.Lat != o.Lat {
		return r.Lat > o.Lat
	}
	if r.Arrival != o.Arrival {
		return r.Arrival < o.Arrival
	}
	if r.Client != o.Client {
		return r.Client < o.Client
	}
	return r.Seq < o.Seq
}

// cell is one (tenant, node) accumulation slot.
type cell struct {
	hist  Hist
	arr   uint64 // requests generated (arrivals)
	ok    uint64 // completed requests
	drops uint64 // admission-queue rejections
	lost  uint64 // replies never seen (faults); latency unknown
	// tails holds the slowest records, slowest first; nil until the first
	// completed request.
	tails []TailRec
}

// emptyCell is what an unwritten cell reads as. Nothing writes to it.
var emptyCell cell

// addTail keeps the k slowest records in sorted order. The k slots are
// allocated at the first record; after that insertion is a bounded shift.
func (c *cell) addTail(r TailRec, k int) {
	if k == 0 {
		return
	}
	if c.tails == nil {
		c.tails = make([]TailRec, 0, k)
	}
	n := len(c.tails)
	if n == k && !r.less(c.tails[n-1]) {
		return
	}
	pos := n
	for pos > 0 && r.less(c.tails[pos-1]) {
		pos--
	}
	if n < k {
		c.tails = c.tails[:n+1]
	}
	copy(c.tails[pos+1:], c.tails[pos:])
	c.tails[pos] = r
}

// Store accumulates per-(tenant, server-node) latency histograms, counters,
// and slowest-request records. Each load-generator node owns a private
// shard (all writes are engine-local, no locks); shards merge
// deterministically at harvest. A store holds a cell only for a (tenant,
// node) pair that was written to, and a cell holds its tail list only once
// a request completed there: the first write to a cell allocates it, the
// first completed request its TailK tail slots, and every later record
// allocates nothing. Reads treat an unwritten cell as empty.
type Store struct {
	Tenants int
	Nodes   int
	TailK   int
	cells   []*cell // tenant-major; nil until first written
}

// NewStore returns an empty store covering tenants x nodes cells, keeping
// the tailK slowest requests per cell.
func NewStore(tenants, nodes, tailK int) *Store {
	if tailK < 0 {
		tailK = 0
	}
	return &Store{Tenants: tenants, Nodes: nodes, TailK: tailK, cells: make([]*cell, tenants*nodes)}
}

// at returns the (tenant, node) cell for writing, allocating it on first
// use.
func (s *Store) at(tenant, node int) *cell { return s.atIndex(tenant*s.Nodes + node) }

func (s *Store) atIndex(i int) *cell {
	c := s.cells[i]
	if c == nil {
		c = new(cell)
		s.cells[i] = c
	}
	return c
}

// read returns the (tenant, node) cell for reading; an unwritten cell
// reads as emptyCell.
func (s *Store) read(tenant, node int) *cell {
	if c := s.cells[tenant*s.Nodes+node]; c != nil {
		return c
	}
	return &emptyCell
}

// RecordArrival counts a generated request; every arrival ends up exactly
// once in ok, drops, or lost (the conservation invariant tests check).
func (s *Store) RecordArrival(tenant, node int) { s.at(tenant, node).arr++ }

// RecordOK folds one completed request into the store.
func (s *Store) RecordOK(r TailRec) {
	c := s.at(r.Tenant, r.Node)
	c.ok++
	c.hist.Record(r.Lat)
	c.addTail(r, s.TailK)
}

// RecordDrop counts an admission-queue rejection.
func (s *Store) RecordDrop(tenant, node int) { s.at(tenant, node).drops++ }

// RecordLost counts n requests whose replies never arrived.
func (s *Store) RecordLost(tenant, node int, n uint64) { s.at(tenant, node).lost += n }

// Hist returns the (tenant, node) latency histogram; for an unwritten cell
// it is a new empty histogram that the store does not keep.
func (s *Store) Hist(tenant, node int) *Hist {
	if c := s.cells[tenant*s.Nodes+node]; c != nil {
		return &c.hist
	}
	return new(Hist)
}

// TenantHist merges one tenant's per-node histograms into out.
func (s *Store) TenantHist(tenant int, out *Hist) {
	for n := 0; n < s.Nodes; n++ {
		out.Merge(&s.read(tenant, n).hist)
	}
}

// Counts returns a (tenant, node) cell's arrival/completed/dropped/lost
// totals.
func (s *Store) Counts(tenant, node int) (arr, ok, drops, lost uint64) {
	c := s.read(tenant, node)
	return c.arr, c.ok, c.drops, c.lost
}

// TenantCounts sums a tenant's totals across nodes.
func (s *Store) TenantCounts(tenant int) (arr, ok, drops, lost uint64) {
	for n := 0; n < s.Nodes; n++ {
		c := s.read(tenant, n)
		arr += c.arr
		ok += c.ok
		drops += c.drops
		lost += c.lost
	}
	return
}

// Tails returns the slowest records of a (tenant, node) cell, slowest
// first. The returned slice aliases the store.
func (s *Store) Tails(tenant, node int) []TailRec { return s.read(tenant, node).tails }

// Merge folds another store of identical shape into this one, skipping
// the other store's unwritten cells. Merging is associative: shards
// combined in any grouping yield the same store.
func (s *Store) Merge(o *Store) {
	if o.Tenants != s.Tenants || o.Nodes != s.Nodes {
		panic("servesim: merging stores of different shapes")
	}
	for i, oc := range o.cells {
		if oc == nil {
			continue
		}
		sc := s.atIndex(i)
		sc.hist.Merge(&oc.hist)
		sc.arr += oc.arr
		sc.ok += oc.ok
		sc.drops += oc.drops
		sc.lost += oc.lost
		for _, r := range oc.tails {
			sc.addTail(r, s.TailK)
		}
	}
}

// AppendBinary appends a canonical encoding of every cell in order
// (histogram, counters, tail records), an unwritten cell encoded as an
// empty one, used to prove serial and parallel runs produce byte-identical
// latency stores. It grows dst once, to the encoding's exact length.
func (s *Store) AppendBinary(dst []byte) []byte {
	if n := s.binarySize(); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	u64 := func(v uint64) { dst = binary.LittleEndian.AppendUint64(dst, v) }
	u64(uint64(s.Tenants))
	u64(uint64(s.Nodes))
	for _, c := range s.cells {
		if c == nil {
			c = &emptyCell
		}
		dst = c.hist.AppendBinary(dst)
		u64(c.arr)
		u64(c.ok)
		u64(c.drops)
		u64(c.lost)
		u64(uint64(len(c.tails)))
		for _, r := range c.tails {
			u64(uint64(r.Tenant))
			u64(uint64(r.Node))
			u64(uint64(r.Client))
			u64(r.Seq)
			u64(uint64(r.Arrival))
			u64(uint64(r.SendStart))
			u64(uint64(r.Admit))
			u64(uint64(r.ServiceStart))
			u64(uint64(r.ReplySent))
			u64(uint64(r.Done))
			u64(uint64(r.Lat))
			u64(uint64(r.Queue))
			u64(uint64(r.Service))
		}
	}
	return dst
}

// binarySize is the length of AppendBinary's encoding: two header words,
// then per cell its histogram, five counter words and 13 words per tail
// record.
func (s *Store) binarySize() int {
	n := 2 * 8
	for _, c := range s.cells {
		if c == nil {
			c = &emptyCell
		}
		n += c.hist.binarySize() + 5*8 + 13*8*len(c.tails)
	}
	return n
}
