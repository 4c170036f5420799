package perfmon

import (
	"errors"
	"fmt"
	"slices"

	"ktau/internal/ktau"
	"ktau/internal/ship"
)

// Wire protocol constants. Every collection round an agent ships one frame:
// a fixed preamble (magic, version, payload length — what the sink reads
// first to learn how much more to receive) followed by the delta payload.
const (
	// FrameMagic identifies a perfmon frame ("KMON").
	FrameMagic = 0x4b4d4f4e
	// FrameVersion is the wire format version (2 added the Gap flag).
	FrameVersion = 2
)

// TimerTickEvent is the kernel's periodic timer interrupt event. Its calls
// are a uniform sampling clock over CPU occupancy: whichever context a tick
// lands in was occupying that CPU, so per-process tick counts estimate CPU
// time without trusting cycle sums (which, per KTAU semantics, include
// switched-out time for blocking events like schedule_vol).
const TimerTickEvent = "do_IRQ[timer]"

// ProcDelta is one process's window summary: the compact per-process record
// shipped alongside the kernel-wide delta so detectors can attribute noise
// to specific daemons and interference to specific ranks.
type ProcDelta struct {
	PID  int
	Name string
	// DTotal is the window's exclusive-cycle delta summed over all the
	// process's kernel events. Cycle sums include blocked time for
	// scheduling events, so this is an upper bound on active kernel work.
	DTotal int64
	// Per-group window deltas for the groups the detectors consume.
	DIRQ   int64
	DBH    int64
	DSched int64
	DTCP   int64
	// DTicks counts TimerTickEvent activations in the process's context this
	// window — the occupancy sampling clock the noise detector uses.
	DTicks uint64
}

// Frame is one collection round's shipment from a monitored node: the node's
// kernel-wide profile delta (round N vs N−1) plus per-process summaries.
type Frame struct {
	Node    string
	NodeIdx int
	Round   int
	CPUs    int
	// FromTSC/ToTSC bound the window on the node's clock (FromTSC is 0 on
	// the first round: the window covers everything since boot).
	FromTSC int64
	ToTSC   int64
	// Last marks the agent's final round; the sink exits after ingesting it.
	Last bool
	// Gap marks a round whose data could not be read (persistent procfs
	// failure): the frame carries no deltas and an empty window (FromTSC ==
	// ToTSC), and the agent's delta baseline is left untouched so the next
	// successful round's deltas cover the gap.
	Gap bool
	// Kernel is the kernel-wide profile delta for the window.
	Kernel []ktau.EventDelta
	// Procs summarises every process that had kernel activity in the window.
	Procs []ProcDelta
}

// EncodeFrame serialises a frame payload (the bytes following the on-wire
// preamble, ship.HeaderBytes long).
func EncodeFrame(f Frame) []byte { return AppendFrame(nil, f) }

// AppendFrame serialises a frame payload, appending to dst and returning the
// extended buffer. Callers on a hot path reuse dst's capacity across rounds;
// the result aliases dst, so retainers (queues, sinks) must copy it out.
func AppendFrame(dst []byte, f Frame) []byte {
	w := ship.Writer{B: dst}
	w.U32(FrameMagic)
	w.U32(FrameVersion)
	w.Str(f.Node)
	w.U32(uint32(f.NodeIdx))
	w.U32(uint32(f.Round))
	w.U32(uint32(f.CPUs))
	w.I64(f.FromTSC)
	w.I64(f.ToTSC)
	w.Bit(f.Last)
	w.Bit(f.Gap)
	w.U32(uint32(len(f.Kernel)))
	for _, e := range f.Kernel {
		w.Str(e.Name)
		w.U32(uint32(e.Group))
		w.Bit(e.Absolute)
		w.U64(e.DCalls)
		w.I64(e.DIncl)
		w.I64(e.DExcl)
	}
	w.U32(uint32(len(f.Procs)))
	for _, p := range f.Procs {
		w.I64(int64(p.PID))
		w.Str(p.Name)
		w.I64(p.DTotal)
		w.I64(p.DIRQ)
		w.I64(p.DBH)
		w.I64(p.DSched)
		w.I64(p.DTCP)
		w.U64(p.DTicks)
	}
	return w.B
}

// Smallest wire size of each frame element (all strings empty): a decoded
// count of such elements is bounded by the bytes left divided by it.
const (
	minKernelBytes = 2 + 4 + 1 + 8 + 8 + 8 // name, group, absolute, dcalls, dincl, dexcl
	minProcBytes   = 8 + 2 + 6*8           // pid, name, six deltas
)

// DecodeFrame parses a frame payload produced by EncodeFrame. The result
// aliases nothing.
func DecodeFrame(blob []byte) (Frame, error) {
	var f Frame
	err := DecodeFrameInto(&f, blob)
	return f, err
}

// DecodeFrameInto is DecodeFrame decoding into *f, reusing the storage of
// its Kernel and Procs slices and each name equal to the one already in its
// slot: a sink that decodes every frame into one Frame allocates only for
// names it has not seen in that position. Every field is reset, including
// those the wire does not carry.
func DecodeFrameInto(f *Frame, blob []byte) error {
	r := ship.NewReader(blob)
	if r.U32() != FrameMagic {
		return errors.New("perfmon: bad frame magic")
	}
	if v := r.U32(); v != FrameVersion {
		return fmt.Errorf("perfmon: unsupported frame version %d", v)
	}
	f.Node = r.StrReuse(f.Node)
	f.NodeIdx = int(r.U32())
	f.Round = int(r.U32())
	f.CPUs = int(r.U32())
	f.FromTSC = r.I64()
	f.ToTSC = r.I64()
	f.Last = r.U8() == 1
	f.Gap = r.U8() == 1
	n := r.CountOf(uint64(r.U32()), minKernelBytes)
	f.Kernel = slices.Grow(f.Kernel[:0], n)[:n]
	for i := 0; i < len(f.Kernel) && r.Err() == nil; i++ {
		e := &f.Kernel[i]
		*e = ktau.EventDelta{Name: r.StrReuse(e.Name)}
		e.Group = ktau.Group(r.U32())
		e.Absolute = r.U8() == 1
		e.DCalls = r.U64()
		e.DIncl = r.I64()
		e.DExcl = r.I64()
	}
	n = r.CountOf(uint64(r.U32()), minProcBytes)
	f.Procs = slices.Grow(f.Procs[:0], n)[:n]
	for i := 0; i < len(f.Procs) && r.Err() == nil; i++ {
		p := &f.Procs[i]
		p.PID = int(r.I64())
		p.Name = r.StrReuse(p.Name)
		p.DTotal = r.I64()
		p.DIRQ = r.I64()
		p.DBH = r.I64()
		p.DSched = r.I64()
		p.DTCP = r.I64()
		p.DTicks = r.U64()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("perfmon: %w", err)
	}
	return nil
}
