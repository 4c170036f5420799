// Package ktau implements the KTAU kernel measurement system described in
// "Kernel-Level Measurement for Integrated Parallel Performance Views: the
// KTAU Project" (CLUSTER 2006): instrumentation macros (entry/exit events,
// atomic events and event mapping), per-process profile and trace data
// structures hung off the process control block, instrumentation groups with
// compile-time / boot-time / runtime control, and kernel-wide as well as
// process-centric aggregation.
//
// The package is independent of the kernel simulator: it talks to its host
// through the small Env interface (a cycle clock plus an overhead sink), so
// it can be unit-tested in isolation and reused by any substrate that can
// supply timestamps.
package ktau

import (
	"fmt"
	"strings"
)

// Group is a bitmask classifying instrumentation points by kernel subsystem
// or execution context, mirroring KTAU's compile-time instrumentation groups
// (paper §4.1). Measurement can be enabled or disabled per group at
// compile-time, boot-time and runtime.
type Group uint32

const (
	// GroupSched covers the scheduling subsystem: schedule(), voluntary and
	// involuntary context-switch accounting.
	GroupSched Group = 1 << iota
	// GroupIRQ covers hardware interrupt handlers (do_IRQ and friends).
	GroupIRQ
	// GroupBH covers bottom-half / softirq processing (do_softirq,
	// net_rx_action).
	GroupBH
	// GroupSyscall covers system call entry points (sys_read, sys_writev...).
	GroupSyscall
	// GroupTCP covers the network subsystem's TCP routines (tcp_sendmsg,
	// tcp_v4_rcv, tcp_recvmsg, sock_sendmsg).
	GroupTCP
	// GroupExc covers exception handlers (page faults and the like).
	GroupExc
	// GroupSignal covers signal delivery paths.
	GroupSignal
	// GroupVFS covers the filesystem and block-I/O paths (generic_file_write,
	// submit_bio, end_request).
	GroupVFS
	// GroupUser tags user-level events that the TAU integration pushes into
	// the shared registry when building merged views.
	GroupUser

	groupSentinel
)

// GroupAll enables every kernel instrumentation group.
const GroupAll = groupSentinel - 1

// GroupNone disables all instrumentation groups.
const GroupNone Group = 0

var groupNames = map[Group]string{
	GroupSched:   "SCHED",
	GroupIRQ:     "IRQ",
	GroupBH:      "BH",
	GroupSyscall: "SYSCALL",
	GroupTCP:     "TCP",
	GroupExc:     "EXCEPTION",
	GroupSignal:  "SIGNAL",
	GroupVFS:     "VFS",
	GroupUser:    "USER",
}

// String renders a group mask as a '|'-separated list of group names.
func (g Group) String() string {
	if g == 0 {
		return "NONE"
	}
	var parts []string
	for bit := Group(1); bit < groupSentinel; bit <<= 1 {
		if g&bit != 0 {
			parts = append(parts, groupNames[bit])
		}
	}
	if len(parts) == 0 {
		return fmt.Sprintf("Group(%#x)", uint32(g))
	}
	return strings.Join(parts, "|")
}

// ParseGroup parses a '|' or ','-separated list of group names ("SCHED,TCP",
// "ALL", "NONE"); it is case-insensitive.
func ParseGroup(s string) (Group, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("ktau: empty group spec")
	}
	var g Group
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == '|' || r == ',' })
	for _, f := range fields {
		name := strings.ToUpper(strings.TrimSpace(f))
		switch name {
		case "ALL":
			g |= GroupAll
			continue
		case "NONE", "":
			continue
		}
		found := false
		for bit, n := range groupNames {
			if n == name {
				g |= bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("ktau: unknown instrumentation group %q", f)
		}
	}
	return g, nil
}

// Groups lists all individual groups in ascending bit order.
func Groups() []Group {
	var out []Group
	for bit := Group(1); bit < groupSentinel; bit <<= 1 {
		out = append(out, bit)
	}
	return out
}
