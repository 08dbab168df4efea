#!/usr/bin/env bash
# Schema gate for BENCH_kernels.json (run by CI next to check_docs_cli.sh):
# the checked-in perf record must stay parseable and complete, so a PR
# that breaks run_benches.sh or drops a sweep cannot merge silently.
#
# Checks:
#   * every required sweep is present (incl. gtree_edit_incremental and
#     its full-rebuild companion column from the edits bench);
#   * every sweep has >= 2 numeric columns, all distinct positive
#     integers (monotone when sorted) plus optionally "auto";
#   * every entry carries finite real_ns > 0 (no NaN/Inf) and
#     iterations >= 1;
#   * the buffer_pool_navigate sweep carries the pool's story columns:
#     finite hit_rate in [0, 1] and resident_bytes >= 0 per entry;
#   * the wal_group_commit sweep carries edits_per_sec per entry and
#     some depth >= 8 sustains >= 5x the depth-1 throughput — the
#     group-commit amortization gate (docs/WAL.md);
#   * the query_pushdown sweep carries pages_scanned / pages_total /
#     speedup_vs_full per entry, with pages_scanned strictly less than
#     pages_total — the pushdown pruning gate (docs/QUERY.md);
#   * the http_gateway sweep carries conns / req_per_sec / p99_ns per
#     entry, conns matching the column — the gateway throughput/latency
#     record (docs/HTTP.md); and req/s at its largest connection count
#     stays >= 1/4 of the 64-connection cell — the connection-cliff
#     gate (an overflowing listen backlog once cut 256 connections to
#     ~1% of the 64-connection throughput);
#   * the outofcore_pagerank sweep carries budget_bytes / graph_bytes /
#     peak_rss / pool_resident_bytes per entry, with graph_bytes >= 10x
#     budget_bytes and pool_resident_bytes <= budget_bytes — the
#     out-of-core gates (docs/OUTOFCORE.md) — and the mine-phase
#     memory model: mine_rss <= base_rss + budget_bytes +
#     32 B * num_nodes + readahead_bytes;
#   * host_cpus is recorded (a perf number without its core count is
#     unreproducible); a record generated on a 1-core host FAILS the
#     check on any multi-core machine (regenerate there), and only
#     degrades to a loud warning when the checker itself is 1-core.
#
# Usage: tools/check_bench_json.sh [path/to/BENCH_kernels.json]

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JSON="${1:-$REPO_ROOT/BENCH_kernels.json}"

if [ ! -s "$JSON" ]; then
  echo "check_bench_json: $JSON missing or empty" >&2
  exit 1
fi

python3 - "$JSON" <<'PY'
import json
import math
import os
import sys

path = sys.argv[1]
required = [
    "pagerank",
    "betweenness",
    "rwr",
    "gtree_build_sharded",
    "session_pool_navigate",
    "server_navigate",
    "gtree_edit_incremental",
    "gtree_edit_full",
    "buffer_pool_navigate",
    "wal_group_commit",
    "query_pushdown",
    "http_gateway",
    "outofcore_pagerank",
]

try:
    with open(path) as f:
        report = json.load(f)
except json.JSONDecodeError as e:
    sys.exit(f"check_bench_json: {path} is not valid JSON: {e}")

fail = []
kernels = report.get("kernels")
if not isinstance(kernels, dict):
    sys.exit(f"check_bench_json: {path} has no 'kernels' object")

for name in required:
    if name not in kernels:
        fail.append(f"missing sweep '{name}'")

for name, sweep in kernels.items():
    if not isinstance(sweep, dict):
        fail.append(f"{name}: sweep is not an object")
        continue
    numeric_cols = []
    for col, entry in sweep.items():
        if col == "speedup_auto_vs_serial":
            if not isinstance(entry, (int, float)) or not math.isfinite(entry):
                fail.append(f"{name}: non-finite speedup")
            continue
        if col != "auto":
            if not col.isdigit() or int(col) <= 0:
                fail.append(f"{name}: column '{col}' is not a positive int")
                continue
            numeric_cols.append(int(col))
        if not isinstance(entry, dict):
            fail.append(f"{name}/{col}: entry is not an object")
            continue
        real_ns = entry.get("real_ns")
        iters = entry.get("iterations")
        if not isinstance(real_ns, (int, float)) or not math.isfinite(real_ns) \
                or real_ns <= 0:
            fail.append(f"{name}/{col}: bad real_ns {real_ns!r}")
        if not isinstance(iters, int) or iters < 1:
            fail.append(f"{name}/{col}: bad iterations {iters!r}")
        if name == "buffer_pool_navigate":
            rate = entry.get("hit_rate")
            resident = entry.get("resident_bytes")
            if not isinstance(rate, (int, float)) or not math.isfinite(rate) \
                    or not 0.0 <= rate <= 1.0:
                fail.append(f"{name}/{col}: bad hit_rate {rate!r}")
            if not isinstance(resident, (int, float)) \
                    or not math.isfinite(resident) or resident < 0:
                fail.append(f"{name}/{col}: bad resident_bytes {resident!r}")
        if name == "wal_group_commit":
            eps = entry.get("edits_per_sec")
            if not isinstance(eps, (int, float)) or not math.isfinite(eps) \
                    or eps <= 0:
                fail.append(f"{name}/{col}: bad edits_per_sec {eps!r}")
        if name == "query_pushdown":
            scanned = entry.get("pages_scanned")
            total = entry.get("pages_total")
            speedup = entry.get("speedup_vs_full")
            ok_nums = all(
                isinstance(v, (int, float)) and math.isfinite(v)
                for v in (scanned, total, speedup))
            if not ok_nums or scanned < 1 or total < 1 or speedup <= 0:
                fail.append(f"{name}/{col}: bad pushdown counters "
                            f"scanned={scanned!r} total={total!r} "
                            f"speedup={speedup!r}")
            elif scanned >= total:
                # The pushdown pruning gate: a selective predicate must
                # skip at least one page, or pruning has regressed into
                # a full scan (docs/QUERY.md).
                fail.append(f"{name}/{col}: pages_scanned {scanned} is "
                            f"not < pages_total {total} — pushdown "
                            "pruned nothing")
        if name == "outofcore_pagerank":
            budget = entry.get("budget_bytes")
            graph = entry.get("graph_bytes")
            rss = entry.get("peak_rss")
            resident = entry.get("pool_resident_bytes")
            ok_nums = all(
                isinstance(v, (int, float)) and math.isfinite(v) and v > 0
                for v in (budget, graph, rss)) and \
                isinstance(resident, (int, float)) and \
                math.isfinite(resident) and resident >= 0
            if not ok_nums:
                fail.append(f"{name}/{col}: bad out-of-core counters "
                            f"budget={budget!r} graph={graph!r} "
                            f"rss={rss!r} resident={resident!r}")
            else:
                # The out-of-core gates (docs/OUTOFCORE.md): the store
                # must dwarf the budget, and the pool must have held the
                # budget while the kernel ran.
                if graph < 10 * budget:
                    fail.append(f"{name}/{col}: graph_bytes {graph:.0f} "
                                f"is not >= 10x budget_bytes "
                                f"{budget:.0f} — the sweep no longer "
                                "proves out-of-core operation")
                if resident > budget:
                    fail.append(f"{name}/{col}: pool_resident_bytes "
                                f"{resident:.0f} exceeds budget_bytes "
                                f"{budget:.0f} — the pool budget leaked")
            # The mine-phase memory model (docs/OUTOFCORE.md): a fresh
            # process that only mines holds its startup footprint, the
            # pool budget, O(num_nodes) scalars and the scan's pages.
            mine = {k: entry.get(k) for k in
                    ("mine_rss", "base_rss", "num_nodes", "readahead_bytes")}
            if not all(isinstance(v, (int, float)) and math.isfinite(v)
                       and v > 0 for v in mine.values()):
                fail.append(f"{name}/{col}: bad mine-phase counters {mine!r}")
            elif isinstance(budget, (int, float)):
                bytes_per_node = 32
                limit = (mine["base_rss"] + budget +
                         bytes_per_node * mine["num_nodes"] +
                         mine["readahead_bytes"])
                if mine["mine_rss"] > limit:
                    fail.append(
                        f"{name}/{col}: mine_rss {mine['mine_rss']:.0f} "
                        f"exceeds base_rss + budget + {bytes_per_node} B x "
                        f"num_nodes + readahead_bytes = {limit:.0f} — the "
                        "mine phase holds more than the memory model "
                        "allows")
        if name == "http_gateway":
            conns = entry.get("conns")
            rps = entry.get("req_per_sec")
            p99 = entry.get("p99_ns")
            if not isinstance(conns, (int, float)) \
                    or not math.isfinite(conns) \
                    or (col.isdigit() and int(conns) != int(col)):
                fail.append(f"{name}/{col}: conns {conns!r} does not "
                            f"match column")
            if not isinstance(rps, (int, float)) or not math.isfinite(rps) \
                    or rps <= 0:
                fail.append(f"{name}/{col}: bad req_per_sec {rps!r}")
            if not isinstance(p99, (int, float)) or not math.isfinite(p99) \
                    or p99 <= 0:
                fail.append(f"{name}/{col}: bad p99_ns {p99!r}")
    if len(numeric_cols) < 2:
        fail.append(f"{name}: needs >= 2 numeric columns, has {numeric_cols}")
    elif len(set(numeric_cols)) != len(numeric_cols):
        fail.append(f"{name}: duplicate columns {sorted(numeric_cols)}")

# Group-commit amortization gate: some depth >= 8 must sustain >= 5x
# the depth-1 edit throughput, or the WAL's one-sync-one-repair-per-
# group design has regressed into per-edit commits.
wal = kernels.get("wal_group_commit")
if isinstance(wal, dict):
    def eps(col):
        entry = wal.get(col)
        v = entry.get("edits_per_sec") if isinstance(entry, dict) else None
        return v if isinstance(v, (int, float)) and math.isfinite(v) else None
    serial = eps("1")
    deep = [(int(c), eps(c)) for c in wal
            if c.isdigit() and int(c) >= 8 and eps(c) is not None]
    if serial is None:
        fail.append("wal_group_commit: no depth-1 edits_per_sec baseline")
    elif not deep:
        fail.append("wal_group_commit: no depth >= 8 column to check")
    else:
        depth, best = max(deep, key=lambda d: d[1])
        ratio = best / serial
        if ratio < 5.0:
            fail.append(
                f"wal_group_commit: depth-{depth} throughput is only "
                f"{ratio:.1f}x depth-1 (gate: >= 5x)")
        else:
            print(f"check_bench_json: wal_group_commit depth-{depth} "
                  f"sustains {ratio:.1f}x the serial throughput (gate 5x)")

# Connection-cliff gate: the largest connection count must keep at
# least a quarter of the 64-connection throughput. A listen backlog
# smaller than the connect burst drops SYNs, each of which then waits
# out the ~1 s retransmit, so the cliff shows up as a collapse to ~1%,
# far past this bound; ordinary contention at 4x the connections costs
# about half.
CLIFF_FRACTION = 0.25
gw = kernels.get("http_gateway")
if isinstance(gw, dict):
    def rps(col):
        entry = gw.get(col)
        v = entry.get("req_per_sec") if isinstance(entry, dict) else None
        return v if isinstance(v, (int, float)) and math.isfinite(v) \
            and v > 0 else None
    base = rps("64")
    top = max((int(c) for c in gw if c.isdigit()), default=0)
    if base is None:
        fail.append("http_gateway: no 64-connection req_per_sec baseline")
    elif top <= 64 or rps(str(top)) is None:
        fail.append("http_gateway: no column above 64 connections to "
                    "check the connection cliff")
    else:
        ratio = rps(str(top)) / base
        if ratio < CLIFF_FRACTION:
            fail.append(
                f"http_gateway: {top} connections serve only "
                f"{ratio:.2f}x the 64-connection req/s (gate: >= "
                f"{CLIFF_FRACTION}x) — a connection cliff")
        else:
            print(f"check_bench_json: http_gateway {top} connections "
                  f"keep {ratio:.2f}x the 64-connection req/s "
                  f"(gate {CLIFF_FRACTION}x)")

# Host-core bookkeeping: the parallel sweeps' speedups are meaningless
# without knowing the cores they ran on, and numbers produced on a
# 1-core host make every thread sweep read as a regression. A 1-core
# record is a hard FAILURE whenever the machine running this check has
# the cores to regenerate it (run tools/run_benches.sh here); only a
# checker that is itself single-core — which could not do better —
# gets the loud warning instead.
host_cpus = report.get("host_cpus")
checker_cpus = os.cpu_count() or 1
if not isinstance(host_cpus, int) or host_cpus < 1:
    fail.append(f"host_cpus missing or invalid: {host_cpus!r} "
                "(re-run tools/run_benches.sh)")
elif host_cpus == 1:
    if checker_cpus > 1:
        fail.append(
            f"BENCH_kernels.json was generated on a 1-core host but "
            f"this machine has {checker_cpus} cores — regenerate with "
            "tools/run_benches.sh so the thread sweeps mean something")
    else:
        for name, sweep in kernels.items():
            if not isinstance(sweep, dict):
                continue
            speedup = sweep.get("speedup_auto_vs_serial")
            if isinstance(speedup, (int, float)) and speedup < 1.0:
                print(f"check_bench_json: WARNING {name} speedup "
                      f"{speedup}x < 1 on a 1-core host — thread-pool "
                      "overhead, not a regression; rerun on a "
                      "multi-core host before comparing",
                      file=sys.stderr)

if fail:
    for f in fail:
        print(f"check_bench_json: {f}", file=sys.stderr)
    sys.exit(1)
print(f"BENCH_kernels.json OK ({len(kernels)} sweeps, "
      f"all of: {' '.join(required)}; host_cpus={host_cpus})")
PY
