package ktau_test

import (
	"fmt"
	"time"

	"ktau"
)

// ExampleNewCluster boots a node, runs a program, and reads its kernel
// profile through libKtau — the minimal KTAU workflow.
func ExampleNewCluster() {
	c := ktau.NewCluster(ktau.ClusterConfig{
		Nodes:  ktau.UniformNodes("node", 1),
		Kernel: ktau.DefaultKernelParams(),
		Ktau: ktau.MeasurementOptions{Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
			RetainExited: true},
		Seed: 42,
	})
	defer c.Shutdown()

	task := c.Node(0).K.Spawn("app", func(u *ktau.UCtx) {
		for i := 0; i < 3; i++ {
			u.Compute(time.Millisecond)
			u.Syscall("sys_getpid", nil)
		}
	}, ktau.SpawnOpts{Kind: ktau.KindUser})
	c.RunUntilDone([]*ktau.Task{task}, time.Minute)

	h := ktau.OpenKtau(ktau.NewProcFS(c.Node(0).K.Ktau()))
	snap, _ := h.GetProfile(ktau.ScopeOther, task.PID())
	ev := snap.FindEvent("sys_getpid")
	fmt.Printf("sys_getpid calls: %d\n", ev.Calls)
	// Output:
	// sys_getpid calls: 3
}

// ExampleMerge shows the integrated user/kernel profile: the user-level
// view of a routine is corrected by the kernel time that occurred inside it.
func ExampleMerge() {
	c := ktau.NewCluster(ktau.ClusterConfig{
		Nodes:  ktau.UniformNodes("node", 1),
		Kernel: ktau.DefaultKernelParams(),
		Ktau: ktau.MeasurementOptions{Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
			Mapping: true, RetainExited: true},
		Seed: 7,
	})
	defer c.Shutdown()

	var prof ktau.TauProfile
	task := c.Node(0).K.Spawn("app", func(u *ktau.UCtx) {
		tp := ktau.NewTau(u, ktau.DefaultTauOptions())
		tp.Timed("io_routine", func() {
			u.Syscall("sys_write", func(kc *ktau.KCtx) {
				kc.Use(10 * time.Millisecond) // all the routine's time is kernel time
			})
		})
		prof = tp.Snapshot("app", 0)
	}, ktau.SpawnOpts{Kind: ktau.KindUser})
	c.RunUntilDone([]*ktau.Task{task}, time.Minute)

	kern, _ := ktau.OpenKtau(ktau.NewProcFS(c.Node(0).K.Ktau())).
		GetProfile(ktau.ScopeOther, task.PID())
	merged := ktau.Merge(prof, kern)
	e := merged.Find("io_routine", false)
	fmt.Printf("kernel time inside io_routine dominates: %v\n",
		e.KernelWithin > 9*e.Excl)
	// Output:
	// kernel time inside io_routine dominates: true
}

// ExampleMeasurementOptions demonstrates the three-level instrumentation
// control of paper §4.1: compiled-in, boot-enabled, runtime-toggled.
func ExampleMeasurementOptions() {
	c := ktau.NewCluster(ktau.ClusterConfig{
		Nodes:  ktau.UniformNodes("node", 1),
		Kernel: ktau.DefaultKernelParams(),
		Ktau: ktau.MeasurementOptions{
			Compiled: ktau.GroupAll,                  // make menuconfig: everything in
			Boot:     ktau.GroupAll &^ ktau.GroupTCP, // boot with TCP off
		},
		Seed: 1,
	})
	defer c.Shutdown()
	m := c.Node(0).K.Ktau()
	fmt.Println("TCP enabled at boot:", m.Enabled(ktau.GroupTCP))
	m.EnableRuntime(ktau.GroupTCP) // has no effect: boot mask gates it
	fmt.Println("TCP after runtime enable (boot-gated):", m.Enabled(ktau.GroupTCP))
	fmt.Println("SCHED enabled:", m.Enabled(ktau.GroupSched))
	m.DisableRuntime(ktau.GroupSched)
	fmt.Println("SCHED after runtime disable:", m.Enabled(ktau.GroupSched))
	// Output:
	// TCP enabled at boot: false
	// TCP after runtime enable (boot-gated): false
	// SCHED enabled: true
	// SCHED after runtime disable: false
}

// ExampleApplyFaults arms a seeded fault plan before the cluster runs: 1%
// packet loss on every frame for the whole run and a crash of node0 at
// 500 ms, while node1 streams 200 × 8 KiB to node2. inj.Stats counts every
// fault that fired.
func ExampleApplyFaults() {
	c := ktau.NewCluster(ktau.ClusterConfig{Nodes: ktau.UniformNodes("node", 4), Seed: 1})
	defer c.Shutdown()
	inj, err := ktau.ApplyFaults(c, ktau.FaultPlan{
		Seed: 7,
		Faults: []ktau.Fault{
			{Kind: ktau.FaultPacketLoss, Rate: 0.01}, // whole run, all nodes
			{Kind: ktau.FaultNodeCrash, Node: "node0", At: 500 * time.Millisecond},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	tx, rx := ktau.Connect(c.Node(1).Stack, c.Node(2).Stack)
	send := c.Node(1).K.Spawn("send", func(u *ktau.UCtx) {
		for i := 0; i < 200; i++ {
			tx.Send(u, 8<<10)
		}
	}, ktau.SpawnOpts{Kind: ktau.KindUser})
	recv := c.Node(2).K.Spawn("recv", func(u *ktau.UCtx) {
		for i := 0; i < 200; i++ {
			rx.Recv(u, 8<<10)
		}
	}, ktau.SpawnOpts{Kind: ktau.KindUser})
	done := c.RunUntilDone([]*ktau.Task{send, recv}, time.Minute)
	c.Settle(time.Second) // run on past the crash
	fmt.Printf("transfer done %v, crashes %d, frames lost %v\n",
		done, inj.Stats.Crashes, inj.Stats.Losses > 0)
	// Output:
	// transfer done true, crashes 1, frames lost true
}
