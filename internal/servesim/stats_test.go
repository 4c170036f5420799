package servesim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"ktau/internal/sim"
)

// refStore is the eager latency store the lazy Store replaced, kept as a
// reference: every (tenant, node) cell and all of its tail slots exist from
// construction.
type refStore struct {
	Tenants, Nodes, TailK int
	cells                 []refCell
}

type refCell struct {
	hist                 Hist
	arr, ok, drops, lost uint64
	tails                refTailList
}

type refTailList struct {
	recs []TailRec
	k    int
}

func (tl *refTailList) add(r TailRec) {
	if tl.k == 0 {
		return
	}
	if len(tl.recs) == tl.k && !r.less(tl.recs[len(tl.recs)-1]) {
		return
	}
	pos := len(tl.recs)
	for pos > 0 && r.less(tl.recs[pos-1]) {
		pos--
	}
	if len(tl.recs) < tl.k {
		tl.recs = tl.recs[:len(tl.recs)+1]
	}
	copy(tl.recs[pos+1:], tl.recs[pos:])
	tl.recs[pos] = r
}

func newRefStore(tenants, nodes, tailK int) *refStore {
	s := &refStore{Tenants: tenants, Nodes: nodes, TailK: tailK, cells: make([]refCell, tenants*nodes)}
	for i := range s.cells {
		s.cells[i].tails = refTailList{recs: make([]TailRec, 0, tailK), k: tailK}
	}
	return s
}

func (s *refStore) at(tenant, node int) *refCell { return &s.cells[tenant*s.Nodes+node] }

func (s *refStore) RecordArrival(tenant, node int) { s.at(tenant, node).arr++ }

func (s *refStore) RecordOK(r TailRec) {
	c := s.at(r.Tenant, r.Node)
	c.ok++
	c.hist.Record(r.Lat)
	c.tails.add(r)
}

func (s *refStore) RecordDrop(tenant, node int) { s.at(tenant, node).drops++ }

func (s *refStore) RecordLost(tenant, node int, n uint64) { s.at(tenant, node).lost += n }

func (s *refStore) TenantHist(tenant int, out *Hist) {
	for n := 0; n < s.Nodes; n++ {
		out.Merge(&s.at(tenant, n).hist)
	}
}

func (s *refStore) Counts(tenant, node int) (arr, ok, drops, lost uint64) {
	c := s.at(tenant, node)
	return c.arr, c.ok, c.drops, c.lost
}

func (s *refStore) TenantCounts(tenant int) (arr, ok, drops, lost uint64) {
	for n := 0; n < s.Nodes; n++ {
		c := s.at(tenant, n)
		arr += c.arr
		ok += c.ok
		drops += c.drops
		lost += c.lost
	}
	return
}

func (s *refStore) Merge(o *refStore) {
	for i := range s.cells {
		sc, oc := &s.cells[i], &o.cells[i]
		sc.hist.Merge(&oc.hist)
		sc.arr += oc.arr
		sc.ok += oc.ok
		sc.drops += oc.drops
		sc.lost += oc.lost
		for _, r := range oc.tails.recs {
			sc.tails.add(r)
		}
	}
}

func (s *refStore) AppendBinary(dst []byte) []byte {
	u64 := func(v uint64) { dst = binary.LittleEndian.AppendUint64(dst, v) }
	u64(uint64(s.Tenants))
	u64(uint64(s.Nodes))
	for i := range s.cells {
		c := &s.cells[i]
		dst = c.hist.AppendBinary(dst)
		u64(c.arr)
		u64(c.ok)
		u64(c.drops)
		u64(c.lost)
		u64(uint64(len(c.tails.recs)))
		for _, r := range c.tails.recs {
			for _, v := range []uint64{uint64(r.Tenant), uint64(r.Node), uint64(r.Client), r.Seq,
				uint64(r.Arrival), uint64(r.SendStart), uint64(r.Admit), uint64(r.ServiceStart),
				uint64(r.ReplySent), uint64(r.Done), uint64(r.Lat), uint64(r.Queue), uint64(r.Service)} {
				u64(v)
			}
		}
	}
	return dst
}

// Both stores are driven with the same operations on a small grid whose
// tail lists overflow.
const (
	refTenants = 2
	refNodes   = 8
	refTailK   = 4
)

// driveStores applies n random operations to both stores, each on one of
// the given cells (tenant*refNodes + node). Latencies are drawn from a few
// milliseconds so that equal latencies exercise the tail order's ties.
func driveStores(lazy *Store, ref *refStore, seed uint64, n int, cells []int) {
	rng := sim.NewStream(seed, "store-ops")
	for i := 0; i < n; i++ {
		ci := cells[rng.Intn(len(cells))]
		tenant, node := ci/refNodes, ci%refNodes
		switch rng.Intn(8) {
		case 0:
			lazy.RecordDrop(tenant, node)
			ref.RecordDrop(tenant, node)
		case 1:
			k := uint64(rng.Intn(3))
			lazy.RecordLost(tenant, node, k)
			ref.RecordLost(tenant, node, k)
		case 2, 3:
			lazy.RecordArrival(tenant, node)
			ref.RecordArrival(tenant, node)
		default:
			arrival := sim.Time(rng.Int63n(int64(time.Second)))
			lat := time.Duration(1+rng.Intn(5)) * time.Millisecond
			r := TailRec{Tenant: tenant, Node: node, Client: rng.Intn(3), Seq: uint64(i),
				Arrival: arrival, Done: arrival.Add(lat), Lat: lat}
			lazy.RecordOK(r)
			ref.RecordOK(r)
		}
	}
}

// requireSameStore checks every reader of the lazy store against the
// reference.
func requireSameStore(t *testing.T, label string, lazy *Store, ref *refStore) {
	t.Helper()
	if !bytes.Equal(lazy.AppendBinary(nil), ref.AppendBinary(nil)) {
		t.Fatalf("%s: AppendBinary differs from the eager reference", label)
	}
	for tenant := 0; tenant < refTenants; tenant++ {
		a1, o1, d1, l1 := lazy.TenantCounts(tenant)
		a2, o2, d2, l2 := ref.TenantCounts(tenant)
		if [4]uint64{a1, o1, d1, l1} != [4]uint64{a2, o2, d2, l2} {
			t.Fatalf("%s: tenant %d counts %v, reference %v", label, tenant,
				[4]uint64{a1, o1, d1, l1}, [4]uint64{a2, o2, d2, l2})
		}
		var h1, h2 Hist
		lazy.TenantHist(tenant, &h1)
		ref.TenantHist(tenant, &h2)
		if !bytes.Equal(h1.AppendBinary(nil), h2.AppendBinary(nil)) {
			t.Fatalf("%s: tenant %d histogram differs from the reference", label, tenant)
		}
		for node := 0; node < refNodes; node++ {
			a1, o1, d1, l1 := lazy.Counts(tenant, node)
			a2, o2, d2, l2 := ref.Counts(tenant, node)
			if [4]uint64{a1, o1, d1, l1} != [4]uint64{a2, o2, d2, l2} {
				t.Fatalf("%s: cell (%d, %d) counts differ from the reference", label, tenant, node)
			}
			if !bytes.Equal(lazy.Hist(tenant, node).AppendBinary(nil), ref.at(tenant, node).hist.AppendBinary(nil)) {
				t.Fatalf("%s: cell (%d, %d) histogram differs from the reference", label, tenant, node)
			}
			if !slices.Equal(lazy.Tails(tenant, node), ref.at(tenant, node).tails.recs) {
				t.Fatalf("%s: cell (%d, %d) tails %v, reference %v", label, tenant, node,
					lazy.Tails(tenant, node), ref.at(tenant, node).tails.recs)
			}
		}
	}
}

// touchedCells returns the cells of a random half of the nodes, so that
// the other nodes are never written.
func touchedCells(seed uint64) []int {
	rng := sim.NewStream(seed, "store-cells")
	var cells []int
	for node := 0; node < refNodes; node++ {
		if rng.Intn(2) == 0 {
			continue
		}
		for tenant := 0; tenant < refTenants; tenant++ {
			cells = append(cells, tenant*refNodes+node)
		}
	}
	if cells == nil {
		cells = []int{refNodes + 1}
	}
	return cells
}

func TestStoreMatchesEagerReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		lazy := NewStore(refTenants, refNodes, refTailK)
		ref := newRefStore(refTenants, refNodes, refTailK)
		driveStores(lazy, ref, seed, int(seed)*25, touchedCells(seed))
		requireSameStore(t, fmt.Sprintf("seed %d", seed), lazy, ref)
	}
}

// TestStoreMergeMatchesEagerReference merges three shards that wrote
// disjoint cells, in both groupings, and requires the eager reference's
// result each time; merging them again must change only the target.
func TestStoreMergeMatchesEagerReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewStream(seed, "store-split")
		var parts [3][]int
		for _, ci := range touchedCells(seed) {
			k := rng.Intn(3)
			parts[k] = append(parts[k], ci)
		}
		var lazy [3]*Store
		var ref [3]*refStore
		for i := range parts {
			lazy[i] = NewStore(refTenants, refNodes, refTailK)
			ref[i] = newRefStore(refTenants, refNodes, refTailK)
			if len(parts[i]) > 0 {
				driveStores(lazy[i], ref[i], seed*10+uint64(i), 200, parts[i])
			}
		}

		// ((a+b)+c)
		left, leftRef := NewStore(refTenants, refNodes, refTailK), newRefStore(refTenants, refNodes, refTailK)
		for i := range lazy {
			left.Merge(lazy[i])
			leftRef.Merge(ref[i])
		}
		// (a+(b+c))
		bc, bcRef := NewStore(refTenants, refNodes, refTailK), newRefStore(refTenants, refNodes, refTailK)
		bc.Merge(lazy[1])
		bc.Merge(lazy[2])
		bcRef.Merge(ref[1])
		bcRef.Merge(ref[2])
		right, rightRef := NewStore(refTenants, refNodes, refTailK), newRefStore(refTenants, refNodes, refTailK)
		right.Merge(lazy[0])
		right.Merge(bc)
		rightRef.Merge(ref[0])
		rightRef.Merge(bcRef)

		requireSameStore(t, fmt.Sprintf("seed %d ((a+b)+c)", seed), left, leftRef)
		requireSameStore(t, fmt.Sprintf("seed %d (a+(b+c))", seed), right, rightRef)

		// Merging into cells that already hold records must leave the
		// merged shards as they were: no store shares tail storage.
		for i := range lazy {
			left.Merge(lazy[i])
			leftRef.Merge(ref[i])
		}
		requireSameStore(t, fmt.Sprintf("seed %d ((a+b)+c)+a+b+c", seed), left, leftRef)
		for i := range lazy {
			requireSameStore(t, fmt.Sprintf("seed %d shard %d after merges", seed, i), lazy[i], ref[i])
		}
	}
}

// footprint counts a store's allocated cells and tail lists.
func (s *Store) footprint() (cells, tails int) {
	for _, c := range s.cells {
		if c == nil {
			continue
		}
		cells++
		if c.tails != nil {
			tails++
		}
	}
	return
}

func TestStoreFootprint(t *testing.T) {
	const n = 100
	stores := make([]*Store, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range stores {
		stores[i] = NewStore(2, 64, 64)
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / n; per > 2048 {
		t.Errorf("NewStore(2, 64, 64) allocates %d bytes, want at most 2 KiB", per)
	}

	s := stores[0]
	written := [][2]int{{0, 3}, {0, 17}, {1, 3}, {1, 63}, {0, 40}}
	for i, w := range written {
		for j := 0; j < 3; j++ {
			s.RecordArrival(w[0], w[1])
			s.RecordOK(TailRec{Tenant: w[0], Node: w[1], Seq: uint64(i*3 + j), Lat: time.Duration(j+1) * time.Millisecond})
		}
	}
	if cells, tails := s.footprint(); cells != len(written) || tails != len(written) {
		t.Errorf("store written in %d cells holds %d cells and %d tail lists", len(written), cells, tails)
	}
	// Cells that only counted arrivals, drops or losses hold no tail list.
	s.RecordArrival(1, 10)
	s.RecordDrop(1, 10)
	s.RecordLost(0, 11, 2)
	if cells, tails := s.footprint(); cells != len(written)+2 || tails != len(written) {
		t.Errorf("after two counter-only cells: %d cells and %d tail lists, want %d and %d",
			cells, tails, len(written)+2, len(written))
	}
	for _, c := range s.cells {
		if c != nil && c.tails != nil && cap(c.tails) != s.TailK {
			t.Errorf("tail list of capacity %d, want TailK %d", cap(c.tails), s.TailK)
		}
	}
}

// TestAppendBinaryGrowsOnce requires the encoding to allocate its exact
// length once, whatever the store holds, and to keep what dst already held.
func TestAppendBinaryGrowsOnce(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		s := NewStore(refTenants, refNodes, refTailK)
		ref := newRefStore(refTenants, refNodes, refTailK)
		driveStores(s, ref, seed, int(seed)*25, touchedCells(seed))
		want := ref.AppendBinary(nil)
		if got := s.AppendBinary(nil); !bytes.Equal(got, want) || len(got) != s.binarySize() {
			t.Fatalf("seed %d: %d bytes encoded, %d sized, reference %d", seed, len(got), s.binarySize(), len(want))
		}
		if got := s.AppendBinary([]byte("hdr")); string(got[:3]) != "hdr" || !bytes.Equal(got[3:], want) {
			t.Fatalf("seed %d: appending after a prefix changed the prefix or the encoding", seed)
		}
		if allocs := testing.AllocsPerRun(20, func() { s.AppendBinary(nil) }); allocs != 1 {
			t.Fatalf("seed %d: AppendBinary(nil) made %.1f allocations, want 1", seed, allocs)
		}
	}
}
