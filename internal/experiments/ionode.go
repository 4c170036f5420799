package experiments

import (
	"fmt"
	"io"
	"time"

	"ktau/internal/analysis"
	"ktau/internal/blockio"
	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/tau"
	"ktau/internal/tcpsim"
	"ktau/internal/workload"
)

// The I/O-node characterization experiment: the paper's §6 names evaluating
// BG/L I/O-node performance as KTAU's next application ("We will be
// evaluating I/O node performance of the BG/L system... I/O performance
// characterization ... [is] equally of interest on any cluster platform
// running Linux"). This experiment runs N compute clients streaming
// checkpoints to one I/O node that fsyncs them to disk, and uses KTAU's
// kernel-wide view to decompose where the I/O node's time goes — under two
// storage configurations (slow seek-bound disk vs striped-fast disk).

// IONodeConfig parameterises the study.
type IONodeConfig struct {
	Clients    int
	ChunkBytes int
	Chunks     int
	Disk       blockio.DiskSpec
	Seed       uint64
}

// DefaultIONodeConfig returns the standard setup: 8 clients, 256KB chunks.
func DefaultIONodeConfig() IONodeConfig {
	return IONodeConfig{
		Clients:    8,
		ChunkBytes: 256 * 1024,
		Chunks:     4,
		Disk:       blockio.DefaultDiskSpec(),
		Seed:       1,
	}
}

// IONodeResult is the decomposed outcome of one configuration.
type IONodeResult struct {
	Config IONodeConfig
	// Exec is the time until all checkpoints are durable.
	Exec time.Duration
	// Component kernel-wide exclusive times on the I/O node.
	DiskWait   time.Duration // schedule_vol of the ionoded workers
	VFS        time.Duration // generic_file_write, submit_bio, end_request, fsync
	TCP        time.Duration // tcp_v4_rcv etc.
	IRQ        time.Duration
	DiskBusy   time.Duration // derived from request count x service time
	Seeks      uint64
	PagesWrite uint64
	// ClientVolWait is the mean client-side blocked time: what the compute
	// nodes pay for the I/O node's storage performance.
	ClientVolWait time.Duration
}

// RunIONode executes the study for one disk configuration.
func RunIONode(cfg IONodeConfig) *IONodeResult {
	nodes := cluster.UniformNodes("cn", cfg.Clients)
	nodes = append(nodes, cluster.NodeSpec{Name: "ionode"})
	c := cluster.New(cluster.Config{
		Nodes:  nodes,
		Kernel: kernel.DefaultParams(),
		Ktau: ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
			Mapping: true, RetainExited: true},
		Seed: cfg.Seed,
	})
	defer c.Shutdown()

	ion := c.NodeByName("ionode")
	disk := blockio.NewDisk(ion.K, "hda", cfg.Disk)
	file := disk.Open("ckpt", 0)
	workload.StartSystemDaemons(ion.K)

	var tasks []*kernel.Task
	var clients []*kernel.Task
	var offset int64
	for i := 0; i < cfg.Clients; i++ {
		cn := c.Node(i)
		toIon, fromCN := tcpsim.Connect(cn.Stack, ion.Stack)
		n := cfg.Chunks
		chunk := cfg.ChunkBytes

		ct := cn.K.Spawn(fmt.Sprintf("compute%d", i), func(u *kernel.UCtx) {
			tp := tau.New(u, tau.DefaultOptions())
			for j := 0; j < n; j++ {
				tp.Timed("compute", func() { u.Compute(15 * time.Millisecond) })
				tp.Timed("checkpoint_write", func() {
					toIon.Send(u, chunk)
					toIon.Recv(u, 16)
				})
			}
		}, kernel.SpawnOpts{Kind: kernel.KindUser})
		clients = append(clients, ct)
		tasks = append(tasks, ct)

		base := offset
		offset += int64(n * chunk)
		tasks = append(tasks, ion.K.Spawn(fmt.Sprintf("ionoded%d", i), func(u *kernel.UCtx) {
			for j := 0; j < n; j++ {
				fromCN.Recv(u, chunk)
				file.Write(u, base+int64(j*chunk), chunk)
				file.Fsync(u)
				fromCN.Send(u, 16)
			}
		}, kernel.SpawnOpts{Kind: kernel.KindDaemon}))
	}

	completed := c.RunUntilDone(tasks, 30*time.Minute)
	c.Settle(5 * time.Millisecond)

	res := &IONodeResult{Config: cfg, Exec: c.Now().Duration()}
	if !completed {
		return res
	}
	k := ion.K
	kw := k.Ktau().KernelWide()
	sum := func(names ...string) time.Duration {
		var t time.Duration
		for _, n := range names {
			if ev := kw.FindEvent(n); ev != nil {
				t += k.DurationOf(ev.Excl)
			}
		}
		return t
	}
	res.VFS = sum("generic_file_write", "submit_bio",
		"end_request", "sys_fsync", "pdflush_writeback")
	res.TCP = sum("tcp_v4_rcv", "tcp_recvmsg", "tcp_sendmsg", "sock_sendmsg")
	res.IRQ = sum("do_IRQ[timer]", "do_IRQ[eth0]", "do_IRQ[hda]")
	res.Seeks = disk.Stats.Seeks
	res.PagesWrite = disk.Stats.PagesWrite
	res.DiskBusy = time.Duration(disk.Stats.Seeks)*cfg.Disk.Seek +
		time.Duration(disk.Stats.PagesWrite)*cfg.Disk.PerPage

	// Disk wait: the ionoded workers' voluntary scheduling time.
	var workerVol time.Duration
	for _, t := range k.AllTasks() {
		if t.Kind() == kernel.KindDaemon && len(t.Name()) > 7 && t.Name()[:7] == "ionoded" {
			workerVol += t.VolWait
		}
	}
	res.DiskWait = workerVol
	var cv time.Duration
	for _, t := range clients {
		cv += t.VolWait
	}
	res.ClientVolWait = cv / time.Duration(len(clients))
	return res
}

// IONodeStudy compares the default seek-bound disk against a fast striped
// array, showing KTAU attributing the clients' wait to storage.
type IONodeStudy struct {
	Slow *IONodeResult
	Fast *IONodeResult
}

// RunIONodeStudy executes both configurations.
func RunIONodeStudy(seed uint64) *IONodeStudy {
	slow := DefaultIONodeConfig()
	slow.Seed = seed
	fast := slow
	fast.Disk.Seek = 1 * time.Millisecond
	fast.Disk.PerPage = 35 * time.Microsecond // ~115 MB/s array
	return &IONodeStudy{Slow: RunIONode(slow), Fast: RunIONode(fast)}
}

// Render prints the comparison.
func (s *IONodeStudy) Render(w io.Writer) {
	fmt.Fprintln(w, "I/O-node characterization (paper §6 target): kernel-wide decomposition")
	row := func(r *IONodeResult, label string) []string {
		return []string{
			label,
			fmt.Sprintf("%.3f", r.Exec.Seconds()),
			fmt.Sprintf("%.1f", r.DiskBusy.Seconds()*1e3),
			fmt.Sprintf("%.1f", r.DiskWait.Seconds()*1e3),
			fmt.Sprintf("%.1f", r.VFS.Seconds()*1e3),
			fmt.Sprintf("%.1f", r.TCP.Seconds()*1e3),
			fmt.Sprintf("%d", r.Seeks),
			fmt.Sprintf("%.1f", r.ClientVolWait.Seconds()*1e3),
		}
	}
	analysis.Table(w, []string{"disk", "exec(s)", "disk-busy(ms)", "worker-wait(ms)",
		"VFS(ms)", "TCP(ms)", "seeks", "client-wait(ms)"},
		[][]string{row(s.Slow, "IDE (8ms seek)"), row(s.Fast, "striped (1ms seek)")})
	sp := 100 * (s.Slow.Exec.Seconds() - s.Fast.Exec.Seconds()) / s.Fast.Exec.Seconds()
	fmt.Fprintf(w, "storage accounts for %.1f%% of the slow configuration's runtime\n", sp)
}
