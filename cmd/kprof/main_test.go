package main

import (
	"bytes"
	"strings"
	"testing"

	"ktau/internal/libktau"
)

// fourGroups is one profile with four 100-cycle events in four groups:
// every group ties on exclusive time.
const fourGroups = `#KTAU-PROFILE v3
pid 7 name "app" tsc 1000 created 0 exited 0 exitedat 0 tracelost 0
counters 0
events 4
ev 1 "schedule" 1 1 0 100 100
ev 2 "do_IRQ[timer]" 2 1 0 100 100
ev 3 "sys_read" 8 1 0 100 100
ev 4 "tcp_sendmsg" 16 1 0 100 100
atomics 0
mapped 0
#END
`

// TestRenderGroupsBreaksTiesByName pins -groups output for tied groups.
// Tied groups once came out in map order, which changed from run to run.
func TestRenderGroupsBreaksTiesByName(t *testing.T) {
	snaps, err := libktau.ParseASCII(strings.NewReader(fourGroups))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("ParseASCII = %d profiles, %v; want 1, nil", len(snaps), err)
	}
	const want = `pid 7 app — exclusive time per instrumentation group

  IRQ     |############################################| 0.100 ms
  SCHED   |############################################| 0.100 ms
  SYSCALL |############################################| 0.100 ms
  TCP     |############################################| 0.100 ms
`
	for i := 0; i < 20; i++ {
		var out bytes.Buffer
		renderGroups(&out, snaps[0], 1_000_000)
		if got := out.String(); got != want {
			t.Fatalf("run %d: renderGroups wrote\n%s\nwant\n%s", i, got, want)
		}
	}
}
