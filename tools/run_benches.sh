#!/usr/bin/env bash
# Runs the kernel thread-sweep benchmarks and writes BENCH_kernels.json
# (serial vs parallel ns/op per kernel) so the perf trajectory is tracked
# across PRs. Optionally runs every other bench binary with --all, or a
# fast all-binaries sanity pass with --smoke (used by CI so bench code
# cannot silently rot: every binary must run and exit 0).
#
# Usage: tools/run_benches.sh [build_dir] [--all | --smoke]
# Output: BENCH_kernels.json in the repo root (not with --smoke).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build"
RUN_ALL=0
RUN_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --all) RUN_ALL=1 ;;
    --smoke) RUN_SMOKE=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

if [ ! -d "$BUILD_DIR" ]; then
  echo "build dir '$BUILD_DIR' not found — run: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

if [ "$RUN_SMOKE" = 1 ]; then
  # Tiny-budget run of every bench binary; any crash or nonzero exit
  # fails the gate. Reports are skipped (they run full workloads).
  found=0
  for b in "$BUILD_DIR"/bench_*; do
    [ -x "$b" ] || continue
    found=1
    echo "== smoke $(basename "$b")"
    GMINE_BENCH_SKIP_REPORT=1 "$b" \
      --benchmark_min_time=0.01s \
      --benchmark_filter='.*' >/dev/null
  done
  if [ "$found" = 0 ]; then
    echo "run_benches --smoke: no bench binaries in $BUILD_DIR" >&2
    exit 1
  fi
  echo "bench smoke OK"
  exit 0
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

run_sweep() {
  local binary="$1" filter="$2" out="$3"
  if [ ! -x "$BUILD_DIR/$binary" ]; then
    echo "skipping $binary (not built)" >&2
    return 0
  fi
  echo "== $binary --benchmark_filter=$filter"
  GMINE_BENCH_SKIP_REPORT=1 "$BUILD_DIR/$binary" \
    --benchmark_filter="$filter" \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json >/dev/null
}

run_sweep bench_metrics 'BM_(PageRank|Betweenness)Threads' "$TMP_DIR/metrics.json"
run_sweep bench_rwr 'BM_RwrThreads' "$TMP_DIR/rwr.json"
run_sweep bench_scale 'BM_(GTreeBuildShards|SessionPoolNavigate)' "$TMP_DIR/gtree_build.json"
run_sweep bench_server 'BM_ServerNavigate' "$TMP_DIR/server.json"
run_sweep bench_edits 'BM_GTreeEdit(Incremental|FullRebuild)' "$TMP_DIR/edits.json"
run_sweep bench_buffer_pool 'BM_BufferPoolNavigate' "$TMP_DIR/buffer_pool.json"
run_sweep bench_wal 'BM_WalGroupCommit' "$TMP_DIR/wal.json"
run_sweep bench_query 'BM_QueryPushdown' "$TMP_DIR/query.json"
run_sweep bench_http 'BM_HttpGatewayNavigate' "$TMP_DIR/http.json"
run_sweep bench_outofcore 'BM_OutOfCorePageRank' "$TMP_DIR/outofcore.json"

python3 - "$REPO_ROOT/BENCH_kernels.json" "$TMP_DIR"/*.json <<'PY'
import json
import os
import sys

out_path, inputs = sys.argv[1], sys.argv[2:]
kernel_names = {
    "BM_PageRankThreads": "pagerank",
    "BM_BetweennessThreads": "betweenness",
    "BM_RwrThreads": "rwr",
    # arg = shard count = thread count for the sharded G-Tree build
    "BM_GTreeBuildShards": "gtree_build_sharded",
    # arg = concurrent session count over one store (fixed visit budget)
    "BM_SessionPoolNavigate": "session_pool_navigate",
    # arg = concurrent loopback clients against one net::Server
    # (fixed request budget)
    "BM_ServerNavigate": "server_navigate",
    # arg = TOTAL GRAPH SIZE (nodes), not threads: a single-edge
    # ApplyEdit through the incremental repair vs the legacy full
    # rebuild (docs/EDITS.md)
    "BM_GTreeEditIncremental": "gtree_edit_incremental",
    "BM_GTreeEditFullRebuild": "gtree_edit_full",
    # arg = stores sharing one fixed-budget buffer pool; extra columns
    # hit_rate (in [0,1]) and resident_bytes (peak) ride along
    "BM_BufferPoolNavigate": "buffer_pool_navigate",
    # arg = BURST DEPTH (edits per group commit), not threads: real_ns
    # is per burst; the edits_per_sec column carries the wall-clock
    # throughput the >= 5x group-commit gate checks (docs/WAL.md)
    "BM_WalGroupCommit": "wal_group_commit",
    # arg = LEAF-PAGE COUNT (fanout^2), not threads: one selective GQL
    # MATCH with predicate pushdown on; extra columns pages_scanned /
    # pages_total (the pruning proof) and speedup_vs_full (vs the
    # filter-after-materialize reference) ride along (docs/QUERY.md)
    "BM_QueryPushdown": "query_pushdown",
    # arg = concurrent upgraded WebSocket connections against one
    # http::Gateway reactor loop (fixed op budget); extra columns
    # conns, req_per_sec and p99_ns carry the throughput/latency story
    # (docs/HTTP.md)
    "BM_HttpGatewayNavigate": "http_gateway",
    # arg = BUFFER-POOL BUDGET IN MiB, not threads: page-at-a-time
    # PageRank on a streamed store >= 10x the budget; extra columns
    # budget_bytes / graph_bytes / peak_rss / pool_resident_bytes carry
    # the out-of-core evidence, and mine_rss / base_rss / num_nodes /
    # readahead_bytes / threads the mine-phase memory model
    # (docs/OUTOFCORE.md)
    "BM_OutOfCorePageRank": "outofcore_pagerank",
}
kernels = {}
context = {}
for path in inputs:
    with open(path) as f:
        data = json.load(f)
    context = data.get("context", context)
    for b in data.get("benchmarks", []):
        # Names look like BM_Foo/8 or BM_Foo/1500/min_time:0.020 — the
        # first path element after the name is the sweep argument.
        parts = b["name"].split("/")
        name, arg = parts[0], parts[1] if len(parts) > 1 else ""
        if name not in kernel_names or b.get("run_type") == "aggregate":
            continue
        threads = "auto" if arg == "0" else arg
        entry = {
            "real_ns": b["real_time"] * {"ns": 1, "us": 1e3,
                                         "ms": 1e6, "s": 1e9}[b["time_unit"]],
            "iterations": b["iterations"],
        }
        # Benchmark counters that tell a sweep's story (checked by
        # tools/check_bench_json.sh for buffer_pool_navigate and
        # wal_group_commit).
        for extra in ("hit_rate", "resident_bytes", "edits_per_sec",
                      "pages_scanned", "pages_total", "speedup_vs_full",
                      "conns", "req_per_sec", "p99_ns", "budget_bytes",
                      "graph_bytes", "peak_rss", "pool_resident_bytes",
                      "mine_rss", "base_rss", "num_nodes",
                      "readahead_bytes", "threads"):
            if extra in b:
                entry[extra] = b[extra]
        kernels.setdefault(kernel_names[name], {})[threads] = entry
for stats in kernels.values():
    serial = stats.get("1", {}).get("real_ns")
    auto = stats.get("auto", {}).get("real_ns")
    if serial and auto:
        stats["speedup_auto_vs_serial"] = round(serial / auto, 3)
report = {
    "generated_by": "tools/run_benches.sh",
    "workload": "DBLP surrogate, levels=3 fanout=5 leaf=60 (7,500 nodes)",
    "host_cpus": context.get("num_cpus"),
    "threads_env": os.environ.get("GMINE_THREADS"),
    "kernels": kernels,
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
PY

if [ "$RUN_ALL" = 1 ]; then
  for b in "$BUILD_DIR"/bench_*; do
    [ -x "$b" ] || continue
    echo "== $(basename "$b")"
    "$b" --benchmark_min_time=0.01s || echo "(non-zero exit from $b)" >&2
  done
fi
