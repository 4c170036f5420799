package ktau

import (
	"testing"
	"testing/quick"
)

// TestRingDrainPutInterleave pins the streaming-consumer contract: draining
// a ring whose head sits mid-buffer (after wraparound) yields the surviving
// records in chronological order, and subsequent Puts land cleanly in the
// emptied ring.
func TestRingDrainPutInterleave(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ { // overwrites 1 and 2; head is mid-buffer
		r.Put(Record{TSC: int64(i)})
	}
	got := drain(r)
	if len(got) != 3 || got[0].TSC != 3 || got[1].TSC != 4 || got[2].TSC != 5 {
		t.Fatalf("first drain = %v, want TSCs 3,4,5", got)
	}
	if r.Lost() != 2 {
		t.Fatalf("lost after first cycle = %d, want 2", r.Lost())
	}
	// Interleave: write fewer than capacity, drain, write again.
	r.Put(Record{TSC: 6})
	r.Put(Record{TSC: 7})
	if got := drain(r); len(got) != 2 || got[0].TSC != 6 || got[1].TSC != 7 {
		t.Fatalf("interleaved drain = %v, want TSCs 6,7", got)
	}
	// Second overflow cycle: losses accumulate on top of the first cycle's.
	for i := 8; i <= 12; i++ { // 5 records into capacity 3: 2 more lost
		r.Put(Record{TSC: int64(i)})
	}
	if got := drain(r); len(got) != 3 || got[0].TSC != 10 || got[2].TSC != 12 {
		t.Fatalf("second overflow drain = %v, want TSCs 10,11,12", got)
	}
	if r.Lost() != 4 {
		t.Fatalf("cumulative lost = %d, want 4 (2 per overflow cycle)", r.Lost())
	}
	if r.Total() != 12 {
		t.Fatalf("total = %d, want 12", r.Total())
	}
	if r.Len() != 0 {
		t.Fatalf("len after drain = %d, want 0", r.Len())
	}
}

// TestRingDrainAtExactCapacity exercises the boundary where the ring is
// exactly full but nothing has been overwritten yet.
func TestRingDrainAtExactCapacity(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 4; i++ {
		r.Put(Record{TSC: int64(i)})
	}
	if r.Lost() != 0 {
		t.Fatalf("lost = %d at exact capacity, want 0", r.Lost())
	}
	got := drain(r)
	if len(got) != 4 || got[0].TSC != 1 || got[3].TSC != 4 {
		t.Fatalf("drain = %v, want TSCs 1..4", got)
	}
	// One more Put after the exactly-full drain must not report loss.
	r.Put(Record{TSC: 5})
	if r.Lost() != 0 || r.Len() != 1 {
		t.Fatalf("post-drain put: lost=%d len=%d, want 0,1", r.Lost(), r.Len())
	}
}

// TestRingInterleaveProperty drives random Put/Drain interleavings and
// checks the invariants a streaming reader depends on: every drained batch
// is chronologically ordered and contiguous at its tail (records survive
// oldest-first eviction), drains never double-deliver, and
// delivered + lost == total written.
func TestRingInterleaveProperty(t *testing.T) {
	f := func(capRaw uint8, ops []uint8) bool {
		c := int(capRaw%16) + 1
		r := NewRing(c)
		next := int64(1)
		var delivered uint64
		lastSeen := int64(0)
		for _, op := range ops {
			if op%4 == 0 { // every 4th op drains
				batch := drain(r)
				for i, rec := range batch {
					if rec.TSC <= lastSeen {
						return false // out of order or double-delivered
					}
					if i > 0 && rec.TSC != batch[i-1].TSC+1 {
						return false // gap inside one batch
					}
					lastSeen = rec.TSC
				}
				delivered += uint64(len(batch))
				continue
			}
			r.Put(Record{TSC: next})
			next++
		}
		delivered += uint64(len(drain(r)))
		return delivered+r.Lost() == r.Total() && r.Total() == uint64(next-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
