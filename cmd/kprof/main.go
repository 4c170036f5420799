// Command kprof is a ParaProf-like text viewer for KTAU profiles in
// libKtau's ASCII format (as emitted by ktaud or WriteProfileASCII):
//
//	kprof profile.txt              # formatted listing
//	kprof -hz 450000000 p.txt      # convert cycles at a specific clock
//	kprof -diff before.txt after.txt   # what changed between two snapshots
//	kprof -groups profile.txt      # exclusive time per instrumentation group
//
// Files may contain multiple concatenated profiles (a ktaud dump); each is
// rendered in turn.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ktau"
	iktau "ktau/internal/ktau"
	"ktau/internal/libktau"
)

func main() {
	hz := flag.Int64("hz", 450_000_000, "CPU clock for cycle->time conversion")
	diff := flag.Bool("diff", false, "diff two profile files (before after)")
	groups := flag.Bool("groups", false, "summarise exclusive time per instrumentation group")
	flag.Parse()

	args := flag.Args()
	if *diff {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "kprof -diff needs exactly two files")
			os.Exit(2)
		}
		a := loadOne(args[0])
		b := loadOne(args[1])
		fmt.Printf("diff %s -> %s (pid %d %s)\n", args[0], args[1], b.PID, b.Name)
		libktau.FormatDiff(os.Stdout, libktau.Diff(a, b), *hz)
		return
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: kprof [-hz N] [-diff|-groups] file...")
		os.Exit(2)
	}
	for _, path := range args {
		for _, snap := range loadAll(path) {
			if *groups {
				renderGroups(os.Stdout, snap, *hz)
			} else {
				libktau.FormatProfile(os.Stdout, snap, *hz)
			}
			fmt.Println()
		}
	}
}

// loadAll reads every ASCII profile in a file.
func loadAll(path string) []iktauSnap {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kprof:", err)
		os.Exit(1)
	}
	defer f.Close()
	snaps, err := libktau.ParseASCII(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kprof: %s: %v\n", path, err)
		os.Exit(1)
	}
	return snaps
}

type iktauSnap = iktau.Snapshot

func loadOne(path string) iktauSnap {
	snaps := loadAll(path)
	if len(snaps) != 1 {
		fmt.Fprintf(os.Stderr, "kprof: %s holds %d profiles, want 1 for diff\n", path, len(snaps))
		os.Exit(1)
	}
	return snaps[0]
}

// renderGroups charts a profile's exclusive time per instrumentation group,
// largest first; groups with equal time appear in name order.
func renderGroups(w io.Writer, s iktauSnap, hz int64) {
	totals := map[string]int64{}
	for _, e := range s.Events {
		totals[e.Group.String()] += e.Excl
	}
	names := make([]string, 0, len(totals))
	for g := range totals {
		names = append(names, g)
	}
	sort.Slice(names, func(i, j int) bool {
		if ti, tj := totals[names[i]], totals[names[j]]; ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "pid %d %s — exclusive time per instrumentation group\n", s.PID, s.Name)
	var labels []string
	var values []float64
	for _, g := range names {
		labels = append(labels, g)
		values = append(values, float64(totals[g])/float64(hz)*1e3)
	}
	ktau.BarChart(w, "", labels, values, "ms", 44)
}
