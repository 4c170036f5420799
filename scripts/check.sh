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
#                     (packages driven by the discrete-event engine serialise
#                     their goroutines through it, so the full suite under
#                     -race is slow without adding coverage; the pure
#                     data-structure packages are the ones with real
#                     concurrency surface)
#   go test -fuzz -- the perfmon and tracepipe frame decoders, the libktau
#                    /proc/ktau profile and trace decoders and ASCII profile
#                    reader, and the Chrome trace-event writer (byte-equal to
#                    encoding/json), 10s each
#   ktau-sweep -- the smoke grid runs under a per-cell timeout and is diffed
#                 against the committed baseline (testdata/sweeps/smoke.json),
#                 as are the parscale, faultgrid and servegrid grids;
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
go test -race ./internal/analysis/ ./internal/ktau/ ./internal/ktrace/ ./internal/procfs/

echo "== go test -race (fault injection + pipeline + shared transport) =="
go test -race ./internal/faultsim/ ./internal/ship/ ./internal/perfmon/

echo "== go test -race (partitioned runner + cluster + serial/parallel cross-check) =="
# The sim package covers the partitioned runner itself (latency-matrix
# partitioning, epoch rendezvous, merge order, zero-alloc steady state). Its
# concurrency tests then repeat ten times: the merge-order property posts
# from six goroutines while the runner is quiescent, and the serial/parallel
# identity and lowest-engine-panic tests hand groups to worker goroutines.
# The experiments cross-checks pin byte identity of the full monitored,
# fault-injected workloads against serial on both the flat topology (one
# group per node, 4 workers) and a racked one with a group per rack, at
# workers {2, 3, 8} — more groups than workers, workers that don't divide
# groups, and more workers than groups.
go test -race ./internal/sim/ ./internal/cluster/
go test -race -count=10 ./internal/sim/ \
    -run 'TestRunnerMergeOrderProperty|SerialParallelIdentical|PanicLowestEngineWins'
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
# decodes must re-pack through procfs to the same bytes. The ASCII reader
# behind kprof is seeded with WriteASCII output of a real measurement,
# every truncation of it and the inputs that once crashed or stalled it;
# anything it parses must re-write and re-parse to equal snapshots.
# Both Chrome exports stream through ktrace.ChromeWriter, whose every event
# must encode byte for byte as the encoding/json reference in its test does.
go test ./internal/perfmon/ -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 10s
go test ./internal/tracepipe/ -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 10s
go test ./internal/libktau/ -run '^$' -fuzz '^FuzzDecodeProfiles$' -fuzztime 10s
go test ./internal/libktau/ -run '^$' -fuzz '^FuzzDecodeTrace$' -fuzztime 10s
go test ./internal/libktau/ -run '^$' -fuzz '^FuzzParseASCII$' -fuzztime 10s
go test ./internal/ktrace/ -run '^$' -fuzz '^FuzzChromeEvent$' -fuzztime 10s

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

echo "== trace perturbation sweep (writes BENCH_trace.json) =="
go test -run '^$' -bench BenchmarkTraceOverhead -benchtime=1x .

echo "== core hot-path benchmarks (writes BENCH_core.json) =="
go test -run '^$' -bench 'BenchmarkEngineThroughput|BenchmarkKtauEventPath|BenchmarkFrameEncode' -benchmem .
go test -run '^$' -bench BenchmarkCoreHotPath -benchtime=1x .

echo "== serving-workload benchmark (writes BENCH_serve.json) =="
go test -run '^$' -bench BenchmarkServe -benchtime=1x .

echo "== bench gate (strict-parse + thresholds on all BENCH_*.json) =="
# Replaces the old sed/awk scraping: every gated file must exist, parse with
# no duplicate keys, and hold its thresholds (profile <= 5%, full trace
# <= 25%, adaptive < 5%, Chiba speedup >= 1.25x, serve p99 <= 1.25x and
# throughput >= 0.80x of the recorded baselines). Missing or renamed keys
# fail loudly instead of producing an empty capture.
#
# BENCH_parallel.json gets the conditional multi-core speedup gate: every
# row must have identical_results (enforced unconditionally), and on hosts
# with >= 4 CPUs speedup must strictly increase with worker count up to the
# core count; with >= 8 CPUs the 8-worker row must also clear the 4x floor.
# On smaller hosts the speedup portion SKIPS LOUDLY (a "SPEEDUP GATE
# SKIPPED" line) rather than silently passing.
go run ./cmd/ktau-sweep -bench-gate

echo "check.sh: all green"
