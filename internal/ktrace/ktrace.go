// Package ktrace merges user-level (TAU) and kernel-level (KTAU) event logs
// on their shared virtual-TSC timebase into one timeline — the data behind
// the paper's Fig. 2-E, where Vampir displays kernel activity (sys_writev,
// sock_sendmsg, tcp_sendmsg, do_softirq, tcp receive routines) nested inside
// a user-space MPI_Send region.
package ktrace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ktau/internal/ktau"
	"ktau/internal/tau"
)

// Event is one record of the merged timeline.
type Event struct {
	TSC    int64
	Name   string
	Kernel bool
	Kind   ktau.RecordKind
	Val    int64 // atomic value, when Kind == KindAtomic
}

// Merge combines a user trace and a kernel trace into one chronologically
// ordered timeline. nameOf resolves kernel event IDs (use the measurement
// registry's Name method).
func Merge(user []tau.Record, kern []ktau.Record, nameOf func(ktau.EventID) string) []Event {
	out := make([]Event, 0, len(user)+len(kern))
	for _, r := range user {
		kind := ktau.KindExit
		if r.Entry {
			kind = ktau.KindEntry
		}
		out = append(out, Event{TSC: r.TSC, Name: r.Name, Kind: kind})
	}
	for _, r := range kern {
		out = append(out, Event{
			TSC: r.TSC, Name: nameOf(r.Ev), Kernel: true, Kind: r.Kind, Val: r.Val,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TSC < out[j].TSC })
	return out
}

// Window returns the sub-timeline between the outermost entry and exit of
// the named user routine (occurrence occ, 0-based), inclusive. It returns
// nil if the routine does not appear that many times.
func Window(tl []Event, routine string, occ int) []Event {
	depth := 0
	start := -1
	seen := 0
	for i, e := range tl {
		if e.Kernel || e.Name != routine {
			continue
		}
		switch e.Kind {
		case ktau.KindEntry:
			if depth == 0 {
				if seen == occ {
					start = i
				}
			}
			depth++
		case ktau.KindExit:
			depth--
			if depth == 0 {
				if start >= 0 {
					return tl[start : i+1]
				}
				seen++
			}
		}
	}
	return nil
}

// Render writes a Vampir-like indented text timeline. Times are shown in
// microseconds relative to the first event; kernel events are tagged [K].
func Render(w io.Writer, tl []Event, hz int64) {
	if len(tl) == 0 {
		fmt.Fprintln(w, "(empty timeline)")
		return
	}
	base := tl[0].TSC
	toUS := func(c int64) float64 {
		if hz <= 0 {
			return 0
		}
		return float64(c-base) / float64(hz) * 1e6
	}
	depth := 0
	for _, e := range tl {
		tag := "   "
		if e.Kernel {
			tag = "[K]"
		}
		switch e.Kind {
		case ktau.KindEntry:
			fmt.Fprintf(w, "%12.1fus %s %s> %s\n", toUS(e.TSC), tag, strings.Repeat("  ", depth), e.Name)
			depth++
		case ktau.KindExit:
			if depth > 0 {
				depth--
			}
			fmt.Fprintf(w, "%12.1fus %s %s< %s\n", toUS(e.TSC), tag, strings.Repeat("  ", depth), e.Name)
		case ktau.KindAtomic:
			fmt.Fprintf(w, "%12.1fus %s %s* %s = %d\n", toUS(e.TSC), tag, strings.Repeat("  ", depth), e.Name, e.Val)
		}
	}
}
