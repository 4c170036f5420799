package libktau

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ktau/internal/ktau"
)

// WriteASCII renders a snapshot in libKtau's line-oriented text format
// (binary-to-ASCII conversion, §4.4). The format round-trips via ParseASCII.
func WriteASCII(w io.Writer, s ktau.Snapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#KTAU-PROFILE v3\n")
	fmt.Fprintf(bw, "pid %d name %q tsc %d created %d exited %d exitedat %d tracelost %d\n",
		s.PID, s.Name, s.TSC, s.Created, boolInt(s.Exited), s.ExitedAt, s.TraceLost)
	fmt.Fprintf(bw, "counters %d", len(s.CounterNames))
	for _, n := range s.CounterNames {
		fmt.Fprintf(bw, " %q", n)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "events %d\n", len(s.Events))
	for _, e := range s.Events {
		fmt.Fprintf(bw, "ev %d %q %d %d %d %d %d",
			e.ID, e.Name, uint32(e.Group), e.Calls, e.Subrs, e.Incl, e.Excl)
		for ci := 0; ci < len(s.CounterNames); ci++ {
			fmt.Fprintf(bw, " %d", e.Ctr[ci])
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "atomics %d\n", len(s.Atomics))
	for _, a := range s.Atomics {
		fmt.Fprintf(bw, "at %d %q %d %d %g %g %g %g %g\n",
			a.ID, a.Name, uint32(a.Group), a.Count, a.Sum, a.Min, a.Max, a.Mean, a.Std)
	}
	fmt.Fprintf(bw, "mapped %d\n", len(s.Mapped))
	for _, m := range s.Mapped {
		fmt.Fprintf(bw, "map %d %q %d %q %d %d %d %d\n",
			m.Ctx, m.CtxName, m.Ev, m.EvName, uint32(m.Group), m.Calls, m.Incl, m.Excl)
	}
	fmt.Fprintf(bw, "#END\n")
	return bw.Flush()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ParseASCII reads every profile in a stream of the text format WriteASCII
// produces, such as a ktaud dump or several concatenated WriteASCII
// outputs. Each #KTAU-PROFILE … #END block becomes one snapshot, in stream
// order; lines outside the blocks (a dump's round headers) are skipped. A
// stream without a block is an error, as is a malformed or unterminated
// block.
func ParseASCII(r io.Reader) ([]ktau.Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	var out []ktau.Snapshot
	for {
		l, err := nextLine(sc)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(l, "#KTAU-PROFILE") {
			continue
		}
		s, err := parseProfile(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, errors.New("libktau: no #KTAU-PROFILE block in ascii stream")
	}
	return out, nil
}

// nextLine returns the next non-blank line, trimmed, or io.EOF at the end
// of the stream.
func nextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			return l, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("libktau: reading ascii profiles: %w", err)
	}
	return "", io.EOF
}

// parseProfile reads the body of one block, after its #KTAU-PROFILE line,
// up to and including #END.
func parseProfile(sc *bufio.Scanner) (ktau.Snapshot, error) {
	var s ktau.Snapshot
	line := func() (string, error) {
		l, err := nextLine(sc)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return l, err
	}
	meta, err := line()
	if err != nil {
		return s, err
	}
	var exited int
	if _, err := fmt.Sscanf(meta, "pid %d name %q tsc %d created %d exited %d exitedat %d tracelost %d",
		&s.PID, &s.Name, &s.TSC, &s.Created, &exited, &s.ExitedAt, &s.TraceLost); err != nil {
		return s, fmt.Errorf("libktau: bad meta line: %v", err)
	}
	s.Exited = exited == 1

	cline, err := line()
	if err != nil {
		return s, err
	}
	if s.CounterNames, err = parseCounterNames(cline); err != nil {
		return s, err
	}

	readCount := func(word string) (int, error) {
		l, err := line()
		if err != nil {
			return 0, err
		}
		fields := strings.Fields(l)
		if len(fields) != 2 || fields[0] != word {
			return 0, fmt.Errorf("libktau: expected %q count line, got %q", word, l)
		}
		return strconv.Atoi(fields[1])
	}

	nev, err := readCount("events")
	if err != nil {
		return s, err
	}
	for i := 0; i < nev; i++ {
		l, err := line()
		if err != nil {
			return s, err
		}
		var e ktau.EventSnap
		var g uint32
		rd := strings.NewReader(l)
		if _, err := fmt.Fscanf(rd, "ev %d %q %d %d %d %d %d",
			&e.ID, &e.Name, &g, &e.Calls, &e.Subrs, &e.Incl, &e.Excl); err != nil {
			return s, fmt.Errorf("libktau: bad ev line %q: %v", l, err)
		}
		// Counter values are the fields after the last verb, one per name.
		ctrs := strings.Fields(l[len(l)-rd.Len():])
		if len(ctrs) != len(s.CounterNames) {
			return s, fmt.Errorf("libktau: ev line %q has %d counter values, want %d", l, len(ctrs), len(s.CounterNames))
		}
		for ci, f := range ctrs {
			if e.Ctr[ci], err = strconv.ParseInt(f, 10, 64); err != nil {
				return s, fmt.Errorf("libktau: bad counter value in %q", l)
			}
		}
		e.Group = ktau.Group(g)
		s.Events = append(s.Events, e)
	}
	nat, err := readCount("atomics")
	if err != nil {
		return s, err
	}
	for i := 0; i < nat; i++ {
		l, err := line()
		if err != nil {
			return s, err
		}
		var a ktau.AtomicSnap
		var g uint32
		if _, err := fmt.Sscanf(l, "at %d %q %d %d %g %g %g %g %g",
			&a.ID, &a.Name, &g, &a.Count, &a.Sum, &a.Min, &a.Max, &a.Mean, &a.Std); err != nil {
			return s, fmt.Errorf("libktau: bad at line %q: %v", l, err)
		}
		a.Group = ktau.Group(g)
		s.Atomics = append(s.Atomics, a)
	}
	nmap, err := readCount("mapped")
	if err != nil {
		return s, err
	}
	for i := 0; i < nmap; i++ {
		l, err := line()
		if err != nil {
			return s, err
		}
		var m ktau.MappedSnap
		var g uint32
		if _, err := fmt.Sscanf(l, "map %d %q %d %q %d %d %d %d",
			&m.Ctx, &m.CtxName, &m.Ev, &m.EvName, &g, &m.Calls, &m.Incl, &m.Excl); err != nil {
			return s, fmt.Errorf("libktau: bad map line %q: %v", l, err)
		}
		m.Group = ktau.Group(g)
		s.Mapped = append(s.Mapped, m)
	}
	end, err := line()
	if err != nil {
		return s, err
	}
	if end != "#END" {
		return s, fmt.Errorf("libktau: expected #END, got %q", end)
	}
	return s, nil
}

// parseCounterNames reads a `counters N "name"...` line. N is bounded by
// MaxCounters, and each of the N names must be a quoted string on the line.
func parseCounterNames(l string) ([]string, error) {
	rest, ok := strings.CutPrefix(l, "counters ")
	if !ok {
		return nil, fmt.Errorf("libktau: expected counters line, got %q", l)
	}
	num, rest, _ := strings.Cut(rest, " ")
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("libktau: bad counter count in %q", l)
	}
	if n > ktau.MaxCounters {
		return nil, fmt.Errorf("%w: counters line claims %d", errCounters, n)
	}
	var names []string
	for i := 0; i < n; i++ {
		rest = strings.TrimLeft(rest, " \t")
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("libktau: counters line %q has fewer than %d quoted names", l, n)
		}
		name, _ := strconv.Unquote(q) // a quoted prefix always unquotes
		names = append(names, name)
		rest = rest[len(q):]
	}
	if strings.TrimSpace(rest) != "" {
		return nil, fmt.Errorf("libktau: trailing text in counters line %q", l)
	}
	return names, nil
}

// FormatProfile renders a human-readable profile listing, events sorted as
// stored (by ID), with times converted to milliseconds at the given clock.
func FormatProfile(w io.Writer, s ktau.Snapshot, hz int64) {
	toMS := func(cyc int64) float64 {
		if hz <= 0 {
			return 0
		}
		return float64(cyc) / float64(hz) * 1e3
	}
	fmt.Fprintf(w, "KTAU profile: pid=%d name=%s\n", s.PID, s.Name)
	fmt.Fprintf(w, "%-28s %10s %10s %14s %14s", "event", "calls", "subrs", "incl(ms)", "excl(ms)")
	for _, n := range s.CounterNames {
		fmt.Fprintf(w, " %14s", n)
	}
	fmt.Fprintln(w)
	for _, e := range s.Events {
		fmt.Fprintf(w, "%-28s %10d %10d %14.3f %14.3f",
			e.Name, e.Calls, e.Subrs, toMS(e.Incl), toMS(e.Excl))
		for ci := range s.CounterNames {
			fmt.Fprintf(w, " %14d", e.Ctr[ci])
		}
		fmt.Fprintln(w)
	}
	for _, a := range s.Atomics {
		fmt.Fprintf(w, "%-28s count=%d sum=%.0f min=%.0f max=%.0f mean=%.1f\n",
			a.Name+" [atomic]", a.Count, a.Sum, a.Min, a.Max, a.Mean)
	}
	if len(s.Mapped) > 0 {
		fmt.Fprintf(w, "-- mapped to user context --\n")
		for _, m := range s.Mapped {
			fmt.Fprintf(w, "%-24s <- %-20s calls=%d excl(ms)=%.3f\n",
				m.EvName, m.CtxName, m.Calls, toMS(m.Excl))
		}
	}
}
