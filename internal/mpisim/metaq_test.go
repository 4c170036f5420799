package mpisim

import "testing"

// TestMetaQPushPopAllocatesNothing: the metadata side-channel pops by head
// index and reuses its storage, so a push/pop cycle allocates nothing once
// the queue has held its working size, and entries pop in push order.
func TestMetaQPushPopAllocatesNothing(t *testing.T) {
	var q metaQ
	tag := 0
	cycle := func() {
		q.push(msgMeta{tag: tag, n: 8192})
		q.push(msgMeta{tag: tag + 1, n: 64})
		for want := tag; want < tag+2; want++ {
			if v, ok := q.pop(); !ok || v.tag != want {
				t.Fatalf("pop = %+v, %v; want tag %d", v, ok, want)
			}
		}
		tag += 2
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("metaQ push/pop allocates %v/op, want 0", allocs)
	}
	if _, ok := q.pop(); ok {
		t.Error("drained metaQ popped an entry")
	}
}
