#!/usr/bin/env bash
# Engine performance snapshot: runs the sparse-broadcast microbenchmark
# (ns/round per mesh side) and the two scalability anchor cells (a dense
# 256x256 full broadcast; a 1000x1000 sparse wavefront), then writes
# BENCH_engine.json — machine info, git SHA, the per-side ns/round table
# and the anchor cells.  Also runs the flow-control
# ablation (xy / wormhole / deflection / store-forward / cut-through /
# adaptive on the fig4_6 pi workload) and writes BENCH_router.json.
# Commit the refreshed snapshots alongside engine- or router-performance
# changes so regressions show up in review.
#
#   scripts/bench_snapshot.sh [build-dir]      # default build/
#
# The snapshot asserts the acceptance figures and exits non-zero if any
# regresses:
#   * ns/round on the 256-side sparse cell is at most 3x the 32-side
#     cell's: round cost follows the active band, not the mesh area,
#   * the sparse 1000x1000 cell completes in less wall time than the
#     dense 256x256 broadcast,
#   * cut-through needs fewer cycles than store-and-forward, and the
#     fault-adaptive policy's faulted completion rate is no worse than
#     the dimension-ordered schemes'.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="BENCH_engine.json"
OUT_ROUTER="BENCH_router.json"

if [[ ! -x "$BUILD_DIR/bench/perf_microbench" ]]; then
    echo "bench_snapshot: $BUILD_DIR/bench/perf_microbench missing — build first" >&2
    exit 1
fi

MICRO_JSON="$(mktemp)"
SCAL_DENSE="$(mktemp)"
SCAL_SPARSE="$(mktemp)"
ROUTER_JSON="$(mktemp)"
trap 'rm -f "$MICRO_JSON" "$SCAL_DENSE" "$SCAL_SPARSE" "$ROUTER_JSON"' EXIT

# --- Router snapshot: flow-control schemes on the fig4_6 workload -------
"$BUILD_DIR/bench/ablation_flow_control" \
    --repeats 5 --json > "$ROUTER_JSON"

ROUTER_JSON="$ROUTER_JSON" OUT_ROUTER="$OUT_ROUTER" python3 - <<'PY'
import json, os, platform, subprocess, sys

def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()

text = open(os.environ["ROUTER_JSON"]).read()
start = text.index("\n[\n") + 1
end = text.index("\n]", start) + 2
rows = json.loads(text[start:end])

def cell(backend, faults):
    for row in rows:
        if row["backend"] == backend and row["faults"] == faults:
            return row
    sys.exit(f"bench_snapshot: no row for {backend}/{faults}")

cpu = ""
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
except OSError:
    pass

snapshot = {
    "schema_version": 1,
    "machine": {
        "uname": " ".join(platform.uname()),
        "cpu": cpu,
        "cores": os.cpu_count(),
    },
    "git_sha": sh("git", "rev-parse", "HEAD"),
    "workload": "fig4_6 Master-Slave pi scatter/gather + corner exchange, "
                "5 repeats, healthy and p_tiles=0.1",
    "rows": rows,
}
with open(os.environ["OUT_ROUTER"], "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")

vct = float(cell("cut-through", "none")["cycles"])
saf = float(cell("store-forward", "none")["cycles"])
adaptive_ok = float(cell("adaptive", "p_tiles=0.1")["completion"]) >= \
    float(cell("store-forward", "p_tiles=0.1")["completion"])
print(f"cut-through vs store-and-forward cycles: {vct:.0f} vs {saf:.0f}")
print(f"adaptive faulted completion >= store-forward's: {adaptive_ok}")
ok = vct < saf and adaptive_ok
print(f"wrote {os.environ['OUT_ROUTER']}" + ("" if ok else " (TARGETS MISSED)"))
sys.exit(0 if ok else 1)
PY

# --- Engine snapshot ----------------------------------------------------

"$BUILD_DIR/bench/perf_microbench" \
    '--benchmark_filter=SparseBroadcast|GossipRound' \
    --benchmark_format=json > "$MICRO_JSON"

# Anchor cells: the full 256x256 broadcast is the classic dense workload
# (everything active until the TTL drain); the 1000x1000 short-TTL
# wavefront is the sparse one where skipping idle tiles pays.
"$BUILD_DIR/bench/ablation_scalability" \
    --sides 256 --repeats 1 --json > "$SCAL_DENSE"
"$BUILD_DIR/bench/ablation_scalability" \
    --sides 1000 --ttl 40 --repeats 1 --json > "$SCAL_SPARSE"

MICRO_JSON="$MICRO_JSON" SCAL_DENSE="$SCAL_DENSE" SCAL_SPARSE="$SCAL_SPARSE" \
OUT="$OUT" python3 - <<'PY'
import json, os, platform, re, subprocess, sys

def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()

# perf_microbench appends its plain-text fan-out summary after the
# benchmark JSON; raw_decode stops at the end of the JSON object.
with open(os.environ["MICRO_JSON"]) as f:
    micro, _ = json.JSONDecoder().raw_decode(f.read())

ns_per_round = {}
gossip_round = {"detached": {}, "recorded": {}}
for b in micro["benchmarks"]:
    m = re.match(r"BM_SparseBroadcast/(\d+)$", b["name"])
    if m:
        ns_per_round[int(m.group(1))] = 1e9 / b["items_per_second"]
        continue
    m = re.match(r"BM_GossipRound(Recorded)?/(\d+)$", b["name"])
    if m:
        variant = "recorded" if m.group(1) else "detached"
        gossip_round[variant][int(m.group(2))] = 1e9 / b["items_per_second"]

# Flight-recorder overhead: BM_GossipRoundRecorded vs BM_GossipRound,
# per mesh side.  Budget is <= 5% (a ring write is one array store); the
# ratio is recorded in the snapshot so regressions show up in review, but
# is not hard-gated here — microbenchmark noise on shared CI machines
# routinely exceeds the budget itself.
recorder_overhead = {
    s: gossip_round["recorded"][s] / gossip_round["detached"][s]
    for s in sorted(set(gossip_round["detached"]) & set(gossip_round["recorded"]))
}

area_ratio = ns_per_round[256] / ns_per_round[32]

def wall_cell(path):
    text = open(os.environ[path]).read()
    # The table is pretty-printed as a "[" line, row lines, a "]" line —
    # column names themselves contain brackets ("coverage [%]"), so slice
    # on whole lines rather than the first bracket characters.
    start = text.index("\n[\n") + 1
    end = text.index("\n]", start) + 2
    rows = json.loads(text[start:end])
    return {
        "mesh": rows[0]["mesh"],
        "rounds": float(rows[0]["rounds"]),
        "coverage_pct": float(rows[0]["coverage [%]"]),
        "wall_s": float(rows[0]["wall [s]"]),
    }

dense_cell = wall_cell("SCAL_DENSE")
sparse_cell = wall_cell("SCAL_SPARSE")

cpu = ""
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
except OSError:
    pass

snapshot = {
    "schema_version": 2,
    "machine": {
        "uname": " ".join(platform.uname()),
        "cpu": cpu,
        "cores": os.cpu_count(),
    },
    "git_sha": sh("git", "rev-parse", "HEAD"),
    "workload": "sparse corner broadcast, p=0.5, ttl=20 (microbench); "
                "scalability anchor cells below",
    "ns_per_round": ns_per_round,
    "ns_per_round_256_over_32": area_ratio,
    "gossip_round_ns": gossip_round,
    "flight_recorder_overhead": recorder_overhead,
    "scalability": {
        "dense_256x256_broadcast": dense_cell,
        "sparse_1000x1000": sparse_cell,
    },
}
with open(os.environ["OUT"], "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")

for side, ratio in recorder_overhead.items():
    note = "" if ratio <= 1.05 else "  (over the 5% budget)"
    print(f"flight-recorder overhead at {side}x{side}: "
          f"{(ratio - 1.0) * 100:+.1f}%{note}")
print(f"ns/round at 256x256 over 32x32: {area_ratio:.2f}x (target <= 3x; "
      f"the area ratio is 64x)")
print(f"sparse 1000x1000: {sparse_cell['wall_s']:.2f}s vs "
      f"dense 256x256: {dense_cell['wall_s']:.2f}s")
ok = area_ratio <= 3.0 and sparse_cell["wall_s"] < dense_cell["wall_s"]
print(f"wrote {os.environ['OUT']}" + ("" if ok else " (TARGETS MISSED)"))
sys.exit(0 if ok else 1)
PY
