package mpisim

import "fmt"

// Non-blocking operations. The transport is eager: sends buffer into the
// TCP window immediately, and incoming data is deposited into the socket by
// the receive softirq regardless of whether a receive is posted. An
// MPI_Irecv therefore genuinely overlaps with computation — the kernel
// receives and acknowledges the data while the rank computes — and MPI_Wait
// merely drains the already-delivered bytes (or blocks until they land).
// This matches how eager-protocol MPICH behaved over TCP on Chiba-era
// clusters.

// Request is a handle for a pending non-blocking receive.
type Request struct {
	r    *Rank
	from int
	tag  int
	n    int // received size once complete
	done bool
}

// Irecv posts a non-blocking receive for the next message from `from` with
// the given tag. The kernel keeps delivering data meanwhile; Wait completes
// the operation.
func (r *Rank) Irecv(from, tag int) *Request {
	r.Tau.Start("MPI_Irecv()")
	r.Tau.Stop("MPI_Irecv()")
	return &Request{r: r, from: from, tag: tag}
}

// Wait completes a non-blocking receive, blocking if its data has not yet
// arrived, and returns the payload size.
func (r *Rank) Wait(req *Request) int {
	if req.r != r {
		panic("mpisim: waiting on another rank's request")
	}
	if req.done {
		return req.n
	}
	r.Tau.Start("MPI_Wait()")
	f := r.w.flowTo(r.id, req.from)
	f.conn.Recv(r.u, msgHeaderBytes)
	m, ok := f.meta.pop()
	if !ok {
		panic("mpisim: header arrived with no metadata (framing bug)")
	}
	if m.tag != req.tag {
		panic(fmt.Sprintf("mpisim: rank %d expected tag %d from %d, got %d",
			r.id, req.tag, req.from, m.tag))
	}
	if m.n > 0 {
		f.conn.Recv(r.u, m.n)
	}
	req.n = m.n
	req.done = true
	r.Stats.Recvs++
	r.Stats.BytesRcvd += uint64(m.n)
	r.Tau.Stop("MPI_Wait()")
	return m.n
}

// Sendrecv performs a simultaneous exchange with one partner, deadlock-free
// regardless of ordering (eager send first, then receive).
func (r *Rank) Sendrecv(to, sendN, sendTag, from, recvTag int) int {
	r.Send(to, sendN, sendTag)
	return r.Recv(from, recvTag)
}

const tagAlltoall = -103

// Alltoall exchanges n bytes between every pair of ranks using an XOR
// schedule: in round k each rank exchanges with rank id^k, which pairs the
// whole communicator without head-of-line contention.
func (r *Rank) Alltoall(n int) {
	r.Tau.Start("MPI_Alltoall()")
	size := r.Size()
	p2 := nextPow2(size)
	for k := 1; k < p2; k++ {
		partner := r.id ^ k
		if partner >= size || partner == r.id {
			continue
		}
		if r.id < partner {
			r.Send(partner, n, tagAlltoall)
			r.Recv(partner, tagAlltoall)
		} else {
			r.Recv(partner, tagAlltoall)
			r.Send(partner, n, tagAlltoall)
		}
	}
	r.Tau.Stop("MPI_Alltoall()")
}
