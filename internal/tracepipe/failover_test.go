package tracepipe

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/netsim"
	"ktau/internal/sim"
	"ktau/internal/tcpsim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// bootFaultCluster boots a small traced cluster with a deliberately tiny TCP
// send window, so a broken agent→collector link backs up (and the send times
// out) within a couple of collection rounds instead of tens. It mirrors the
// perfmon fault fixture so both pipelines are exercised the same way.
func bootFaultCluster(t *testing.T, nodes int, seed uint64, rounds int) (*cluster.Cluster, *Pipeline) {
	t.Helper()
	// The window must stay above the delayed-ack threshold (2×MTU = 3000
	// bytes) or every healthy flow deadlocks waiting for an ack that is never
	// owed; 4 KiB is the smallest round figure above it.
	tcp := tcpsim.DefaultParams()
	tcp.SndBuf = 4 * 1024
	c := cluster.New(cluster.Config{
		Nodes: cluster.UniformNodes("node", nodes),
		Ktau: ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
			Mapping: true, RetainExited: true, TraceCapacity: 1024},
		TCP:  tcp,
		Seed: seed,
	})
	t.Cleanup(c.Shutdown)
	for i, n := range c.Nodes {
		n.K.Spawn(fmt.Sprintf("app.rank%d", i), func(u *kernel.UCtx) {
			for {
				u.Compute(2 * time.Millisecond)
				u.Sleep(1 * time.Millisecond)
			}
		}, kernel.SpawnOpts{})
	}
	tp, err := Deploy(c, Config{Interval: 20 * time.Millisecond, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	return c, tp
}

// drain drives the pipeline to completion, re-querying Tasks because
// failover spawns replacement sinks mid-run.
func drain(t *testing.T, c *cluster.Cluster, tp *Pipeline) {
	t.Helper()
	for i := 0; i < 5; i++ {
		done := c.RunUntilDone(tp.Tasks(), time.Minute)
		settled := true
		for _, task := range tp.Tasks() {
			if !task.Exited() && !task.Kernel().Crashed() {
				settled = false
			}
		}
		if done && settled {
			return
		}
	}
	for _, task := range tp.Tasks() {
		if !task.Exited() && !task.Kernel().Crashed() {
			t.Fatalf("pipeline task %s (pid %d) never finished", task.Name(), task.PID())
		}
	}
}

// runCollectorCrash boots the cluster, kills the collector node mid-run and
// drains the pipeline.
func runCollectorCrash(t *testing.T, seed uint64) *Pipeline {
	t.Helper()
	c, tp := bootFaultCluster(t, 4, seed, 25)
	crashAt := c.Now().Add(150 * time.Millisecond)
	c.Node(0).Eng.At(crashAt, func() { c.Node(0).K.Crash() })
	drain(t, c, tp)
	return tp
}

func TestCollectorCrashFailsOver(t *testing.T) {
	tp := runCollectorCrash(t, 7)

	if tp.Failovers() != 1 {
		t.Fatalf("Failovers = %d, want 1", tp.Failovers())
	}
	if tp.CollectorNode() != 1 {
		t.Fatalf("CollectorNode after failover = %d, want 1", tp.CollectorNode())
	}
	stats := tp.Store().Stats()
	dead := stats[0]
	if !dead.Down {
		t.Fatal("dead collector node0 not marked down")
	}
	// The collector store lives on the Pipeline, not the dead node: every
	// record ingested before the crash must still be there.
	if dead.Frames == 0 || dead.KernRecords == 0 {
		t.Fatalf("store lost node0's pre-crash records: %+v", dead)
	}
	for _, s := range stats[1:] {
		if s.Down {
			t.Errorf("survivor %s marked down", s.Node)
		}
		if s.Frames <= dead.Frames {
			t.Errorf("survivor %s ingested %d frames, not more than the dead node's %d",
				s.Node, s.Frames, dead.Frames)
		}
	}

	// Pin the run's exports: the failover path (send timeout, retire,
	// re-election, replacement sinks) is deterministic end to end.
	var prom, jsonl, chrome bytes.Buffer
	if err := tp.Store().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := tp.Store().WriteJSONLines(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := tp.Store().WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "crash.prom", prom.Bytes())
	checkGolden(t, "crash.jsonl", jsonl.Bytes())
	// The merged trace is ~650 KB, so it is pinned by digest; the two
	// small exports above make a drift diagnosable.
	sum := sha256.Sum256(chrome.Bytes())
	checkGolden(t, "crash.chrome.sha256", []byte(hex.EncodeToString(sum[:])+"\n"))
}

func TestSinkDropsCorruptFrames(t *testing.T) {
	c, tp := bootFaultCluster(t, 3, 5, 20)

	// Corrupt every trace frame node1 sends during an early window (the final
	// rounds stay clean so the Last handshake is undamaged).
	from := c.Now().Add(30 * time.Millisecond)
	to := c.Now().Add(150 * time.Millisecond)
	c.Net.SetImpair(func(now sim.Time, f netsim.Frame) netsim.Impairment {
		if f.Src == "node1" && f.Dst == "node0" && now >= from && now < to {
			return netsim.Impairment{Corrupt: true}
		}
		return netsim.Impairment{}
	})

	drain(t, c, tp)
	n1 := tp.Store().Stats()[1]
	if n1.SinkDroppedFrames == 0 {
		t.Fatalf("node1 stats = %+v, want damaged frames counted as dropped", n1)
	}
	// The pipeline recovered: node1's later frames were ingested and it is
	// not considered down.
	if n1.Frames == 0 || n1.Frames+n1.SinkDroppedFrames != 20 || n1.Down {
		t.Fatalf("node1 stats = %+v, want post-corruption recovery", n1)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file (re-run with -update if intended)", name)
	}
}
