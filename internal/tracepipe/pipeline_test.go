package tracepipe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/promfmt"
)

const testNodes = 4

// bootTracedCluster builds a small cluster with kernel tracing enabled, one
// busy rank per node, synthetic user-level and message sources, and a
// deployed trace pipeline running a bounded number of rounds.
func bootTracedCluster(t *testing.T, seed uint64, rounds int) (*cluster.Cluster, *Pipeline) {
	t.Helper()
	c := cluster.New(cluster.Config{
		Nodes: cluster.UniformNodes("node", testNodes),
		Ktau: ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
			Mapping: true, RetainExited: true, TraceCapacity: 1024},
		Seed: seed,
	})
	t.Cleanup(c.Shutdown)
	for i, n := range c.Nodes {
		n.K.Spawn(fmt.Sprintf("app.rank%d", i), func(u *kernel.UCtx) {
			for r := 0; r < 40; r++ {
				u.Compute(2 * time.Millisecond)
				u.Sleep(time.Millisecond)
			}
		}, kernel.SpawnOpts{})
	}

	// Synthetic user rings: each node's source hands out one entry/exit pair
	// per drain. Synthetic message log: node 1 sends to node 2 once; both
	// endpoints report the same (src,dst,tag,seq) tuple.
	userCalls := make([]int, testNodes)
	sentMsg := make([]bool, testNodes)
	tp, err := Deploy(c, Config{
		Interval: 10 * time.Millisecond,
		Rounds:   rounds,
		UserSources: func(idx int) []UserSource {
			return []UserSource{{
				PID: 1000 + idx, Task: fmt.Sprintf("user%d", idx),
				Drain: func() ([]Rec, uint64) {
					userCalls[idx]++
					base := int64(userCalls[idx]) * 1000
					return []Rec{
						{TSC: base, Name: "MPI_Recv()", Kind: ktau.KindEntry},
						{TSC: base + 500, Name: "MPI_Recv()", Kind: ktau.KindExit},
					}, uint64(idx)
				},
			}}
		},
		MsgSources: func(idx int) []MsgSource {
			return []MsgSource{{
				Drain: func() []Msg {
					if sentMsg[idx] || (idx != 1 && idx != 2) {
						return nil
					}
					sentMsg[idx] = true
					return []Msg{{
						Src: 1, Dst: 2, Tag: 5, Bytes: 256, Seq: 0,
						Send: idx == 1, PID: 1000 + idx,
						StartTSC: 100, EndTSC: int64(200 + idx),
					}}
				},
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, tp
}

func TestPipelineEndToEnd(t *testing.T) {
	const rounds = 8
	c, tp := bootTracedCluster(t, 42, rounds)
	if !c.RunUntilDone(tp.Tasks(), time.Minute) {
		t.Fatal("pipeline did not drain")
	}
	if tp.CollectorNode() != 0 {
		t.Fatalf("collector = %d, want 0 (uniform cluster)", tp.CollectorNode())
	}
	stats := tp.Store().Stats()
	if len(stats) != testNodes {
		t.Fatalf("stats for %d nodes, want %d", len(stats), testNodes)
	}
	for _, s := range stats {
		if s.Frames != rounds {
			t.Errorf("%s ingested %d frames, want %d", s.Node, s.Frames, rounds)
		}
		if s.KernRecords == 0 {
			t.Errorf("%s shipped no kernel records", s.Node)
		}
		if s.UserRecords != 2*rounds {
			t.Errorf("%s shipped %d user records, want %d", s.Node, s.UserRecords, 2*rounds)
		}
		if s.NodeIdx == tp.CollectorNode() {
			if s.WireBytes != 0 {
				t.Errorf("collector self-ingest counted %d wire bytes", s.WireBytes)
			}
		} else if s.WireBytes == 0 {
			t.Errorf("%s shipped no wire bytes", s.Node)
		}
		if s.Down {
			t.Errorf("%s marked down on a healthy cluster", s.Node)
		}
		// The synthetic user source self-reports `idx` lost records.
		if s.UserRingLost != uint64(s.NodeIdx) {
			t.Errorf("%s user ring lost = %d, want %d", s.Node, s.UserRingLost, s.NodeIdx)
		}
	}

	// The synthetic message pair must correlate into exactly one flow.
	flows := tp.Store().Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %+v, want exactly 1", flows)
	}
	fl := flows[0]
	if fl.Src != 1 || fl.Dst != 2 || fl.Tag != 5 || fl.Bytes != 256 ||
		fl.SrcNode != 1 || fl.DstNode != 2 {
		t.Fatalf("flow mismatch: %+v", fl)
	}

	// The Chrome export must be valid JSON with B/E spans and an s/f flow pair.
	var buf bytes.Buffer
	if err := tp.Store().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range events {
		phases[e["ph"].(string)]++
	}
	// The merged records must be globally time-ordered and hold both layers.
	layers := map[string]int{}
	lastTS := -1.0
	for i, e := range events {
		cat, _ := e["cat"].(string)
		if cat != "user" && cat != "kernel" {
			continue
		}
		layers[cat]++
		ts := e["ts"].(float64)
		if ts < lastTS {
			t.Fatalf("merge out of order at event %d: ts %v after %v", i, ts, lastTS)
		}
		lastTS = ts
	}
	if layers["kernel"] == 0 || layers["user"] == 0 {
		t.Fatalf("merged timeline missing a layer: %v", layers)
	}
	if phases["B"] == 0 || phases["E"] == 0 {
		t.Fatalf("no spans in trace: %v", phases)
	}
	if phases["s"] != 1 || phases["f"] != 1 {
		t.Fatalf("flow events = s:%d f:%d, want 1 each", phases["s"], phases["f"])
	}
	if phases["M"] == 0 {
		t.Fatalf("no metadata events: %v", phases)
	}

	// Self-metric exports include the headline series.
	var prom bytes.Buffer
	if err := tp.Store().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"ktau_tracepipe_frames_total", "ktau_tracepipe_records_total",
		"ktau_tracepipe_ring_lost_total", "ktau_tracepipe_backlog_peak_records",
	} {
		if !strings.Contains(prom.String(), metric) {
			t.Errorf("prometheus export missing %s", metric)
		}
	}
	// The exposition must parse clean under the strict format validator so
	// real scrapers ingest it unmodified.
	if v := promfmt.Lint(prom.Bytes()); len(v) != 0 {
		t.Errorf("prometheus exposition deviates from the text format: %v", v)
	}
	var jl bytes.Buffer
	if err := tp.Store().WriteJSONLines(&jl); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(jl.String(), "\n"); n != testNodes {
		t.Errorf("json-lines export has %d lines, want %d", n, testNodes)
	}
}

func TestDeployRejectsEmptyCluster(t *testing.T) {
	if _, err := Deploy(&cluster.Cluster{}, Config{}); err == nil {
		t.Fatal("expected error for empty cluster")
	}
}

func TestPipelineStopsOnRequest(t *testing.T) {
	c, tp := bootTracedCluster(t, 7, 0) // unbounded rounds
	// Drive the cluster briefly, then ask the pipeline to wind down.
	c.Settle(60 * time.Millisecond)
	tp.Stop()
	if !c.RunUntilDone(tp.Tasks(), time.Minute) {
		t.Fatal("pipeline did not drain after Stop")
	}
	for _, s := range tp.Store().Stats() {
		if s.Frames == 0 {
			t.Errorf("%s ingested no frames before stop", s.Node)
		}
	}
}

// TestAgentPayloadMatchesAppendFrame requires every round's payload, which
// the agent writes straight from the rings, to be the bytes AppendFrame
// writes for the decoded frame: the agent's per-EventID name table must
// intern exactly as interning by name does. The rounds sample adaptively,
// a user routine shares kernel events' names, and one user stream only
// reports a new lost count.
func TestAgentPayloadMatchesAppendFrame(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes: cluster.UniformNodes("node", 1),
		Ktau:  ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll, TraceCapacity: 256},
		Seed:  11,
	})
	t.Cleanup(c.Shutdown)
	const interval = 10 * time.Millisecond
	c.Node(0).K.Spawn("app", func(u *kernel.UCtx) {
		for {
			u.Compute(3 * time.Millisecond)
			u.Sleep(time.Millisecond)
		}
	}, kernel.SpawnOpts{})

	drains := 0
	users := []UserSource{
		{PID: 1000, Task: "user", Drain: func() ([]Rec, uint64) {
			drains++
			base := int64(drains) * 1000
			return []Rec{
				{TSC: base, Name: "schedule_vol", Kind: ktau.KindEntry},
				{TSC: base + 100, Name: "MPI_Recv()", Kind: ktau.KindEntry},
				{TSC: base + 200, Name: "MPI_Recv()", Kind: ktau.KindExit},
				{TSC: base + 300, Name: "schedule", Kind: ktau.KindExit},
			}, 0
		}},
		{PID: 1001, Task: "lossy", Drain: func() ([]Rec, uint64) {
			return nil, uint64(drains / 2)
		}},
	}
	tp := &Pipeline{c: c, cfg: Config{
		Interval:    interval,
		UserSources: func(int) []UserSource { return users },
		Adaptive:    &Adaptive{Base: Policy{Groups: ktau.GroupAll, Rate: 0.5}},
	}}
	if _, err := tp.setup(); err != nil {
		t.Fatal(err)
	}
	a := tp.newAgent(0, c.Node(0)).(*agent)

	var shared, lostOnly, sampled bool
	agentTask := c.Node(0).K.Spawn("ktraced", func(u *kernel.UCtx) {
		for round := 0; round < 8; round++ {
			u.Sleep(interval)
			s, payload := a.Round(u, round, false)
			a.Shipped(s, true)
			f, err := DecodeFrame(payload)
			if err != nil {
				t.Errorf("round %d: %v", round, err)
				return
			}
			if again := AppendFrame(nil, f); !bytes.Equal(again, payload) {
				t.Errorf("round %d: the agent wrote\n%x\nwhere AppendFrame of its frame writes\n%x", round, payload, again)
			}
			kern := map[string]bool{}
			for _, st := range f.Streams {
				for _, r := range st.Recs {
					if st.Kernel {
						kern[r.Name] = true
					} else if kern[r.Name] {
						shared = true
					}
				}
				lostOnly = lostOnly || (len(st.Recs) == 0 && st.Lost > 0)
				sampled = sampled || st.Sampled > 0
			}
		}
	}, kernel.SpawnOpts{Kind: kernel.KindDaemon})
	if !c.RunUntilDone([]*kernel.Task{agentTask}, time.Minute) {
		t.Fatal("agent task did not finish")
	}
	if !shared || !lostOnly || !sampled {
		t.Fatalf("rounds missed a case: user record named like a kernel record %v, lost-only stream %v, sampled records %v",
			shared, lostOnly, sampled)
	}
}
