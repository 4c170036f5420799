#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md): every PR must leave this green.
#
#   gofmt      -- all Go sources formatted
#   go vet     -- static checks
#   go build   -- whole module compiles
#   go test    -- full test suite
#   perfbench  -- go vet and go test in the nested benchmark module, which the
#                 root ./... skips; an internal API change that breaks the
#                 benchmark fails here instead of only in the benchmark run
#   go test -race  -- data-race check on the non-simulation packages
#                     (packages driven by the discrete-event engine run their
#                     tasks one at a time as coroutines of it, so the full
#                     suite under -race is slow without adding coverage; the
#                     pure data-structure packages are the ones with real
#                     concurrency surface), and on the kernel itself, whose
#                     task coroutines the partitioned runner's workers resume
#                     from whichever goroutine picks a group up
#   go test -fuzz -- the perfmon and tracepipe frame decoders, the libktau
#                    /proc/ktau profile and trace decoders and ASCII profile
#                    reader, the Chrome trace-event writer (byte-equal to
#                    encoding/json), the cluster trace's merge order (equal
#                    to a stable sort) and MPI flow correlation (equal to
#                    a two-map reference), the sweep-baseline and BENCH JSON
#                    readers, the Prometheus exposition linter and the
#                    longitudinal history reader, 10s each
#   ktau-sweep -- the smoke grid runs under a per-cell timeout and is diffed
#                 against the committed baseline (testdata/sweeps/smoke.json),
#                 as are the parscale, faultgrid, servegrid, perturb and
#                 serve16 grids; perturb and serve16 also hold the trace
#                 overhead and serving tail/throughput budgets;
#                 the cross-layer sweep report is diffed byte-for-byte against
#                 the committed golden (testdata/views/smoke_report.md); the
#                 longitudinal trend report must render from the committed
#                 history (testdata/longitudinal/); and the BENCH_*.json files
#                 are strict-parsed and threshold-gated (no sed/awk scraping).
set -e
cd "$(dirname "$0")/.."

# Every mktemp path is appended to tmpfiles so an early exit (set -e) still
# cleans up.
tmpfiles=""
trap 'rm -f $tmpfiles' EXIT

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== perfbench module (go vet + go test) =="
(cd perfbench && export GOFLAGS= GOWORK=off GOPROXY=off && go vet ./... && go test ./...)

echo "== go test -race (non-simulation packages) =="
go test -race ./internal/analysis/ ./internal/ktau/ ./internal/ktrace/ ./internal/libktau/ ./internal/procfs/

echo "== go test -race (fault injection + pipeline + shared transport) =="
go test -race ./internal/faultsim/ ./internal/ship/ ./internal/perfmon/

echo "== go test -race (kernel coroutines + partitioned runner + cluster + serial/parallel cross-check) =="
# The kernel package covers the task coroutines (iter.Pull) the runner's
# workers resume; the sim package covers the partitioned runner itself
# (latency-matrix partitioning, epoch rendezvous, merge order, zero-alloc
# steady state). Their concurrency tests then repeat ten times: the
# merge-order property posts from six goroutines while the runner is
# quiescent, the serial/parallel identity and lowest-engine-panic tests hand
# groups to worker goroutines, one kernel test resumes its tasks from a new
# goroutine at every engine step, and two check that Shutdown has unwound
# every task (also after a task's panic) before it returns. So does the
# transport's payload recycling: one goroutine pushes onto a link while
# another pops, decodes and recycles, as an agent and a sink on different
# workers do, and every payload must arrive byte for byte. So does the
# packet path's carrier handoff: a NIC's delivery carrier goes back to it
# from whichever worker ran the landing engine, and TCP flows inside and
# across racks, both ways, must deliver every byte at 2 workers exactly as
# at 1. So does tcpsim's connection accounting: agents on different
# workers that reconnect to a new collector in one epoch open connections
# to its stack at once, and 8 goroutines connecting to one stack must leave
# exact counts.
# The experiments cross-checks pin byte identity of the full monitored,
# fault-injected workloads against serial on both the flat topology (one
# group per node, 4 workers) and a racked one with a group per rack, at
# workers {2, 3, 8} — more groups than workers, workers that don't divide
# groups, and more workers than groups.
go test -race ./internal/kernel/ ./internal/sim/ ./internal/cluster/ ./internal/netsim/
go test -race -count=10 ./internal/sim/ \
    -run 'TestRunnerMergeOrderProperty|SerialParallelIdentical|PanicLowestEngineWins'
go test -race -count=10 ./internal/cluster/ -run 'TestRackedFlowsParallelMatchSerial'
go test -race -count=10 ./internal/kernel/ \
    -run 'TestEngineStepsOnFreshGoroutines|TestShutdownReleasesGoroutines|TestTaskPanicLeavesThroughDeferredShutdown'
go test -race -count=10 ./internal/ship/ -run 'TestLinkRecycleConcurrent'
go test -race -count=10 ./internal/tcpsim/ -run 'TestConcurrentConnectsCountExactly'
go test -race ./internal/experiments/ -run TestParallelMatchesSerialByteForByte

echo "== go test -race (trace pipeline + cluster-trace determinism) =="
go test -race ./internal/tracepipe/
go test -race ./internal/experiments/ -run 'TestClusterTraceParallelMatchesSerial|TestAdaptiveTraceParallelMatchesSerial'

echo "== fuzz decoders (never panic; anything that decodes round-trips) and the Chrome writer =="
# Both collection pipelines take frames off the simulated wire, where
# faultsim corrupts and truncates them; the seed corpora are the sample
# frames, every truncation of them and the huge-count regression inputs.
# The libktau decoders read the blobs /proc/ktau hands out; their seeds are
# blobs procfs packed from a real measurement, every truncation of them and
# the two huge-count blobs that once exhausted memory, and anything that
# decodes must re-pack through procfs to the same bytes. The perfmon and
# tracepipe frame decoders and the libktau profile and trace decoders also
# decode every input into storage left dirty by a richer decode (more and
# longer records, every flag and counter set), as the agents and the sinks
# reuse theirs; the result must equal the decode into fresh storage. The ASCII reader
# behind kprof is seeded with WriteASCII output of a real measurement,
# every truncation of it and the inputs that once crashed or stalled it;
# anything it parses must re-write and re-parse to equal snapshots.
# Both Chrome exports stream through ktrace.ChromeWriter, whose every event
# must encode byte for byte as the encoding/json reference in its test does,
# also where it reuses the previous timestamp's text. The cluster export's
# bucketed merge must give the record order of a stable sort by TSC on any
# frames: arbitrary and extreme TSCs, ties across nodes, pids and layers,
# and bursts that put almost every record in one bucket. The collector's
# flow correlation, which sorts endpoint references, must pair exactly what
# the two-map reference pairs (the last send and the last receive of a key
# win) on duplicated keys, unmatched endpoints and shuffled arrival orders.
# The sweep-baseline reader and the BENCH JSON flattener and parallel-bench
# parser are seeded with the committed baselines and BENCH files; a baseline
# or parallel-bench payload that loads must marshal and load again to an
# equal value. The exposition linter is seeded with both pipelines'
# committed Prometheus exports, which must lint clean, and must never panic;
# the history reader is seeded with testdata/longitudinal, and a history it
# loads must append and load again to equal entries.
# Minimizing is capped at 100 runs per new input: a 60 s default spent on a
# seed of several kilobytes left the JSON readers' 10 s with a few dozen
# runs.
fuzz() { go test "$1" -run '^$' -fuzz "^$2\$" -fuzztime 10s -fuzzminimizetime 100x; }
fuzz ./internal/perfmon/ FuzzDecodeFrame
fuzz ./internal/tracepipe/ FuzzDecodeFrame
fuzz ./internal/tracepipe/ FuzzMergeOrder
fuzz ./internal/tracepipe/ FuzzCorrelate
fuzz ./internal/libktau/ FuzzDecodeProfiles
fuzz ./internal/libktau/ FuzzDecodeTrace
fuzz ./internal/libktau/ FuzzParseASCII
fuzz ./internal/ktrace/ FuzzChromeEvent
fuzz ./internal/harness/ FuzzFlattenJSON
fuzz ./internal/harness/ FuzzLoadBaseline
fuzz ./internal/promfmt/ FuzzLint
fuzz ./internal/views/ FuzzLoadTrend

echo "== go test -race (serving workload + serve serial/parallel cross-check) =="
go test -race ./internal/tcpsim/ ./internal/servesim/
go test -race ./internal/experiments/ -run TestServeParallelMatchesSerialByteForByte

echo "== go test -race (sweep harness: watchdog + concurrent cells) =="
go test -race ./internal/harness/

echo "== sweep smoke grid (per-cell timeout, gated against committed baseline) =="
# 8 ranks x {serial, parallel} x {no faults, DegradedPlan} x {full, adaptive
# trace}, one seed. Every cell's profile/store/trace fingerprints must match
# testdata/sweeps/smoke.json exactly — including serial and parallel cells of
# the same configuration matching each other (the determinism invariant).
# The cross-layer report rendered from the same sweep must be byte-identical
# to the committed golden: reports are a deterministic function of the grid,
# the seeds and the baseline, so report drift is behaviour drift.
# After an intentional behaviour change, re-record with:
#   go run ./cmd/ktau-sweep -grid smoke -update-baselines \
#       -report testdata/views/smoke_report.md
report_tmp=$(mktemp /tmp/ktau_smoke_report_XXXXXX.md)
report_html_tmp=$(mktemp /tmp/ktau_smoke_report_XXXXXX.html)
tmpfiles="$tmpfiles $report_tmp $report_html_tmp"
go run ./cmd/ktau-sweep -grid smoke -timeout 90s -gate \
    -report "$report_tmp,$report_html_tmp"
if ! cmp -s "$report_tmp" testdata/views/smoke_report.md; then
    echo "check.sh: smoke sweep report drifted from testdata/views/smoke_report.md" >&2
    diff -u testdata/views/smoke_report.md "$report_tmp" >&2 || true
    exit 1
fi
grep -q '<!DOCTYPE html>' "$report_html_tmp" || {
    echo "check.sh: smoke sweep HTML report was not written" >&2
    exit 1
}

echo "== sweep parscale grid (racked topology, gated against committed baseline) =="
# 8 ranks on a 4-rack topology x workers {serial, 2, 3, 8} x DegradedPlan x
# adaptive trace. The racked cells run the *partitioned* runner (per-rack
# groups, epoch rendezvous); all four cells must carry the one committed
# fingerprint in testdata/sweeps/parscale.json — the byte-identity
# invariant, held in the harness across worker counts.
go run ./cmd/ktau-sweep -grid parscale -timeout 90s -gate

echo "== sweep faultgrid (perfmon under faults, incl. collector crash failover) =="
# The full three-plan fault study (clean, DegradedPlan, collector crash) at
# two seeds: the crash plan's store fingerprint pins perfmon's send timeout,
# re-election and replacement-sink path (testdata/sweeps/faultgrid.json).
go run ./cmd/ktau-sweep -grid faultgrid -timeout 90s -gate

echo "== sweep servegrid (perfmon monitoring the serving workload) =="
# Serve cells across fault plans, serial and parallel, gated against
# testdata/sweeps/servegrid.json.
go run ./cmd/ktau-sweep -grid servegrid -timeout 90s -gate

echo "== sweep perturb (trace-pipeline perturbation study, overhead budgets) =="
# The 16-rank traceov study, gated against testdata/sweeps/perturb.json and
# held to the overhead budgets: profile <= 5%, full trace <= 25%, adaptive
# < 5% slowdown in virtual time.
go run ./cmd/ktau-sweep -grid perturb -timeout 90s -gate

echo "== sweep serve16 (serving workload, tail and throughput budgets) =="
# One serial 16-node serving run at seed 7, gated against
# testdata/sweeps/serve16.json and held to its budgets: each tenant's p99
# <= 1.25 x 16.253 ms, completed req/s >= 0.80 x 4972, a drained run, no
# leaked connections and the rogue daemon fingered.
go run ./cmd/ktau-sweep -grid serve16 -timeout 90s -gate

echo "== longitudinal trend report (renders from testdata/longitudinal) =="
trend_tmp=$(mktemp /tmp/ktau_trend_XXXXXX.md)
tmpfiles="$tmpfiles $trend_tmp"
go run ./cmd/ktau-sweep -grid smoke -trend "$trend_tmp"
grep -q 'KTAU longitudinal report: smoke' "$trend_tmp" || {
    echo "check.sh: trend report missing title" >&2
    exit 1
}

echo "== fault-plan smoke test =="
go run ./cmd/ktau-exp -exp faults -ranks 8 > /dev/null

echo "== serving-workload smoke test (rogue daemon must be fingered) =="
serve_out=$(go run ./cmd/ktau-exp -exp serve -ranks 8)
case "$serve_out" in
*"fingered as the top competing process"*) ;;
*)
    echo "check.sh: serve smoke run did not finger the rogue daemon" >&2
    echo "$serve_out" >&2
    exit 1
    ;;
esac

echo "== trace-pipeline smoke test (merged trace must be valid JSON with flow events) =="
trace_tmp=$(mktemp /tmp/ktau_trace_XXXXXX.json)
tmpfiles="$tmpfiles $trace_tmp"
go run ./cmd/ktau-exp -exp trace -ranks 8 -trace-out "$trace_tmp" > /dev/null

echo "== adaptive trace smoke test (sampled pipeline must still emit flow events) =="
trace_adaptive_tmp=$(mktemp /tmp/ktau_trace_adaptive_XXXXXX.json)
tmpfiles="$tmpfiles $trace_adaptive_tmp"
go run ./cmd/ktau-exp -exp trace -ranks 8 -trace-rate 0.25 -trace-out "$trace_adaptive_tmp" > /dev/null

echo "== benchmark smoke (writes BENCH_parallel.json) =="
go test -run '^$' -bench BenchmarkParallelChiba -benchtime=1x .

echo "== core hot-path benchmarks (writes BENCH_core.json) =="
go test -run '^$' -bench 'BenchmarkEngineThroughput|BenchmarkKtauEventPath|BenchmarkFrameEncode' -benchmem .
go test -run '^$' -bench BenchmarkCoreHotPath -benchtime=1x .

echo "== bench gate (strict-parse + thresholds on all BENCH_*.json) =="
# Replaces the old sed/awk scraping: every gated file must exist, parse with
# no duplicate keys, and hold its thresholds (Chiba speedup >= 1.25x, at
# most 50 000 allocations in the serial 32-node Chiba run, at most 34 MB
# allocated by one serial 64-node serving run, and at most 77 MB allocated
# by one serial 32-node traced run and its Chrome trace export).
# Missing or renamed keys fail loudly instead of producing an empty capture.
#
# BENCH_parallel.json gets the conditional multi-core speedup gate: every
# row must have identical_results (enforced unconditionally), and on hosts
# with >= 4 CPUs speedup must strictly increase with worker count up to the
# core count; with >= 8 CPUs the 8-worker row must also clear the 4x floor.
# On smaller hosts the speedup portion SKIPS LOUDLY (a "SPEEDUP GATE
# SKIPPED" line) rather than silently passing.
go run ./cmd/ktau-sweep -bench-gate

echo "check.sh: all green"
