package ktau

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRingBasicOrder(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 3; i++ {
		r.Put(Record{TSC: int64(i)})
	}
	recs := r.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("len = %d", len(recs))
	}
	for i, rec := range recs {
		if rec.TSC != int64(i+1) {
			t.Fatalf("order wrong: %v", recs)
		}
	}
	if r.Lost() != 0 {
		t.Error("no loss expected")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Put(Record{TSC: int64(i)})
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("len = %d, want 4", len(recs))
	}
	want := []int64{7, 8, 9, 10}
	for i, rec := range recs {
		if rec.TSC != want[i] {
			t.Fatalf("records = %v, want TSCs %v", recs, want)
		}
	}
	if r.Lost() != 6 {
		t.Errorf("lost = %d, want 6", r.Lost())
	}
	if r.Total() != 10 {
		t.Errorf("total = %d, want 10", r.Total())
	}
}

// drain is what a /proc/ktau/trace read does to a ring: take the records
// through the chronological two-part view, then empty the ring.
func drain(r *Ring) []Record {
	a, b := r.Parts()
	var out []Record
	out = append(append(out, a...), b...)
	r.Clear()
	return out
}

func TestRingDrain(t *testing.T) {
	r := NewRing(4)
	r.Put(Record{TSC: 1})
	r.Put(Record{TSC: 2})
	got := drain(r)
	if len(got) != 2 {
		t.Fatalf("drain len = %d", len(got))
	}
	if r.Len() != 0 {
		t.Error("drain did not empty ring")
	}
	// Writing after drain restarts cleanly.
	r.Put(Record{TSC: 3})
	if recs := r.Snapshot(); len(recs) != 1 || recs[0].TSC != 3 {
		t.Errorf("post-drain state wrong: %v", recs)
	}
}

func TestNilRingSafe(t *testing.T) {
	var r *Ring
	r.Put(Record{}) // must not panic
	if r.Len() != 0 || r.Cap() != 0 || r.Lost() != 0 || r.Total() != 0 {
		t.Error("nil ring accessors must be zero")
	}
	if a, b := r.Parts(); r.Snapshot() != nil || a != nil || b != nil {
		t.Error("nil ring snapshot must be nil")
	}
	r.Clear() // must not panic
	if NewRing(0) != nil {
		t.Error("NewRing(0) must be nil (tracing disabled)")
	}
}

func TestRingProperty(t *testing.T) {
	// Property: after writing n records to a ring of capacity c, the ring
	// holds min(n, c) records, they are the n-min(n,c)+1 .. n most recent in
	// order, and lost == max(0, n-c).
	f := func(capRaw, nRaw uint8) bool {
		c := int(capRaw%32) + 1
		n := int(nRaw)
		r := NewRing(c)
		for i := 1; i <= n; i++ {
			r.Put(Record{TSC: int64(i)})
		}
		want := n
		if want > c {
			want = c
		}
		recs := r.Snapshot()
		if len(recs) != want {
			return false
		}
		for i, rec := range recs {
			if rec.TSC != int64(n-want+1+i) {
				return false
			}
		}
		lost := n - c
		if lost < 0 {
			lost = 0
		}
		return r.Lost() == uint64(lost) && r.Total() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// eagerRing is the ring as it was before its storage grew on demand: the
// whole capacity allocated up front, records placed modulo the capacity.
// TestRingGrowthMatchesEagerRing holds the grown ring to it.
type eagerRing struct {
	buf         []Record
	head, size  int
	lost, total uint64
}

func (r *eagerRing) put(rec Record) {
	r.total++
	if r.size < len(r.buf) {
		r.buf[(r.head+r.size)%len(r.buf)] = rec
		r.size++
		return
	}
	r.buf[r.head] = rec
	r.head = (r.head + 1) % len(r.buf)
	r.lost++
}

func (r *eagerRing) parts() (a, b []Record) {
	if r.size == 0 {
		return nil, nil
	}
	end := r.head + r.size
	if end <= len(r.buf) {
		return r.buf[r.head:end], nil
	}
	return r.buf[r.head:], r.buf[:end-len(r.buf)]
}

// TestRingGrowthMatchesEagerRing drives rings whose storage grows on demand
// and eagerly allocated reference rings through the same random puts, up to
// three times the capacity, and Clears at random points, at capacities on
// both sides of the first storage size (64) and at the traced runs' 4096.
// After every put the two hold the same Len, Lost and Total, and at every
// eighth of the capacity and after the last put the same Parts and
// Snapshot; Cap is the configured capacity from the start, before any
// storage exists; and the storage never exceeds the capacity.
func TestRingGrowthMatchesEagerRing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []int{1, 63, 64, 65, 200, 4096} {
		for trial := 0; trial < 8; trial++ {
			r, ref := NewRing(c), &eagerRing{buf: make([]Record, c)}
			if r.Cap() != c || cap(r.buf) != 0 {
				t.Fatalf("cap %d: new ring reports Cap %d with %d records of storage, want %d and none", c, r.Cap(), cap(r.buf), c)
			}
			puts := rng.Intn(3*c + 1)
			clearP := 1 / float64(1+rng.Intn(2*c))
			for i := 1; i <= puts; i++ {
				if rng.Float64() < clearP {
					r.Clear()
					ref.head, ref.size = 0, 0
				}
				rec := Record{TSC: int64(i), Ev: EventID(i % 7), Kind: RecordKind(1 + i%3), Val: int64(-i)}
				r.Put(rec)
				ref.put(rec)
				if r.Len() != ref.size || r.Lost() != ref.lost || r.Total() != ref.total || r.Cap() != c {
					t.Fatalf("cap %d, put %d: len/lost/total/cap = %d/%d/%d/%d, reference %d/%d/%d/%d",
						c, i, r.Len(), r.Lost(), r.Total(), r.Cap(), ref.size, ref.lost, ref.total, c)
				}
				if cap(r.buf) > c {
					t.Fatalf("cap %d, put %d: %d records of storage", c, i, cap(r.buf))
				}
				if i%max(1, c/8) != 0 && i != puts {
					continue // compare the records at a sample of steps
				}
				a, b := r.Parts()
				ra, rb := ref.parts()
				if !slices.Equal(a, ra) || !slices.Equal(b, rb) {
					t.Fatalf("cap %d, put %d: parts hold %d+%d records, reference %d+%d", c, i, len(a), len(b), len(ra), len(rb))
				}
				if want := append(append([]Record(nil), ra...), rb...); !slices.Equal(r.Snapshot(), want) {
					t.Fatalf("cap %d, put %d: snapshot differs from the reference's", c, i)
				}
			}
		}
	}
}

// TestRingPartsAliasStorage pins the two-part view a trace read packs from:
// for every capacity, fill level and head position, a then b is the
// chronological record sequence, b is empty unless the live region wraps,
// both alias the ring's own storage, and Clear empties the ring while the
// lost and total counters keep counting.
func TestRingPartsAliasStorage(t *testing.T) {
	for c := 1; c <= 6; c++ {
		for n := 0; n <= 3*c; n++ {
			r := NewRing(c)
			for i := 1; i <= n; i++ {
				r.Put(Record{TSC: int64(i)})
			}
			a, b := r.Parts()
			want := r.Snapshot()
			if len(a)+len(b) != len(want) {
				t.Fatalf("cap %d, %d puts: parts hold %d+%d records, want %d", c, n, len(a), len(b), len(want))
			}
			for i, rec := range append(append([]Record(nil), a...), b...) {
				if rec != want[i] {
					t.Fatalf("cap %d, %d puts: record %d = %v, want %v", c, n, i, rec, want[i])
				}
			}
			if len(b) > 0 && r.head == 0 {
				t.Fatalf("cap %d, %d puts: b is non-empty for an unwrapped ring", c, n)
			}
			if len(a) > 0 && &a[0] != &r.buf[r.head] {
				t.Fatalf("cap %d, %d puts: a does not alias the ring", c, n)
			}
			if len(b) > 0 && &b[0] != &r.buf[0] {
				t.Fatalf("cap %d, %d puts: b does not alias the ring", c, n)
			}
			lost, total := r.Lost(), r.Total()
			r.Clear()
			if a, b := r.Parts(); r.Len() != 0 || a != nil || b != nil {
				t.Fatalf("cap %d, %d puts: Clear left %d records", c, n, r.Len())
			}
			if r.Lost() != lost || r.Total() != total {
				t.Fatalf("cap %d, %d puts: Clear changed lost/total to %d/%d, want %d/%d", c, n, r.Lost(), r.Total(), lost, total)
			}
		}
	}
}

func TestRecordKindString(t *testing.T) {
	if KindEntry.String() != "ENTRY" || KindExit.String() != "EXIT" ||
		KindAtomic.String() != "ATOMIC" || RecordKind(99).String() != "?" {
		t.Error("RecordKind.String wrong")
	}
}

func TestGroupParseRoundTrip(t *testing.T) {
	for _, g := range Groups() {
		parsed, err := ParseGroup(g.String())
		if err != nil || parsed != g {
			t.Errorf("round trip %v failed: %v %v", g, parsed, err)
		}
	}
	all, err := ParseGroup("all")
	if err != nil || all != GroupAll {
		t.Errorf("parse all = %v, %v", all, err)
	}
	multi, err := ParseGroup("SCHED,TCP")
	if err != nil || multi != GroupSched|GroupTCP {
		t.Errorf("parse multi = %v, %v", multi, err)
	}
	if _, err := ParseGroup("BOGUS"); err == nil {
		t.Error("expected error for unknown group")
	}
	if _, err := ParseGroup(""); err == nil {
		t.Error("expected error for empty spec")
	}
	if GroupNone.String() != "NONE" {
		t.Error("GroupNone string wrong")
	}
}

func TestRegistryAssignsStableIDs(t *testing.T) {
	r := NewRegistry()
	a := r.Register("schedule", GroupSched)
	b := r.Register("do_IRQ[timer]", GroupIRQ)
	a2 := r.Register("schedule", GroupSched)
	if a != a2 {
		t.Error("re-registration changed id")
	}
	if a == b {
		t.Error("distinct events share id")
	}
	if r.Name(a) != "schedule" || r.GroupOf(b) != GroupIRQ {
		t.Error("metadata lookup wrong")
	}
	if r.Lookup("schedule") != a || r.Lookup("nope") != NoEvent {
		t.Error("Lookup wrong")
	}
	if len(r.Events()) != 2 {
		t.Error("Events() wrong length")
	}
	if r.Name(NoEvent) != "" || r.Name(EventID(99)) != "" {
		t.Error("out-of-range Name must be empty")
	}
}

func TestRegistryGroupConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Register("x", GroupSched)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on group mismatch")
		}
	}()
	r.Register("x", GroupTCP)
}
