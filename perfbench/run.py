#!/usr/bin/env python3
"""Run one benchmark workload of the snoc simulator and print its metrics.

    python3 perfbench/run.py --workload mp3_upset --seed 1 --seconds 30 --trace 0

Builds perfbench_harness from source (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs it with
SNOC_JOBS and SNOC_ENGINE pinned, checks the simulated statistics against
the committed reference (perfbench/reference/<workload>.json), and prints
a provenance stamp, a readable table and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exit codes: 0 correct, 1 a correctness check failed (the result line is
still printed), 2 usage error or missing sources, 3 build failure,
4 harness failure (no result line in either case).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mp3_upset", "pi_fft_clean", "mesh_broadcast")

# sim_drift_z above this fails the run.  The statistic is the largest |z|
# over every cell's mean latency and completion rate and the run's total
# completions (dozens of tests per run, some on a handful of trials), so
# the limit sits well above the maxima seen across seeds at the reference
# commit (perfbench/README.md, "Correctness checks").
DRIFT_Z_LIMIT = 7.0
LATENCY_SD_FLOOR = 0.5  # rounds; cells whose latency never varies
UNCHECKED_Z = 1e9  # sim_drift_z when no usable reference: fails closed
MIN_P = 1e-300  # p-values below this read as this (|z| about 37)
TRIM = 1e-40  # convolution drops outcomes this much less likely than the mode


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--batches", type=int, default=0,
                    help="run exactly this many batches instead of timing")
    ap.add_argument("--reference", type=Path,
                    help="reference file (default perfbench/reference/<workload>.json)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.batches < 0:
        ap.error("--seed must be >= 0, --seconds >= 1, --batches >= 0")
    return args


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"simulator sources missing: {ROOT / 'src'} (run from a checkout)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(3, f"{tool} not found")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(out), "--target", "perfbench_harness",
                      "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=850)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-6000:])
                fail(3, "build failed: " + " ".join(cmd))
    return out / "perfbench_harness"


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def run_harness(exe, args, out):
    env = dict(os.environ, SNOC_JOBS="4", SNOC_ENGINE="lockstep")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.batches:
        cmd += ["--batches", str(args.batches)]
    if args.trace:
        (out / "spans").mkdir(exist_ok=True)
        cmd += ["--spans-out", str(out / "spans" / f"{args.workload}.tsv")]
    before = cpu_ticks()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail(4, "harness timed out")
    after = cpu_ticks()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(4, f"harness exited with {done.returncode}")
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(4, "harness printed no result line")
    # CPU time the hypervisor gave to other guests while the harness ran:
    # the main source of run-to-run spread on a shared VM.
    if before and after and after[1] > before[1]:
        raw["host_steal_frac"] = (after[0] - before[0]) / (after[1] - before[1])
    return raw


def draw_sequence_version():
    """The RNG draw-sequence version noted in src/common/rng.hpp."""
    text = (ROOT / "src" / "common" / "rng.hpp").read_text()
    m = re.search(r"Draw-sequence contract \(v(\d+)\)", text)
    return int(m.group(1)) if m else None


def reference_checksum(ref):
    body = {k: v for k, v in ref.items() if k != "checksum"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def source_digest():
    """sha256 over the simulator and harness sources (no git needed)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench/harness"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(raw, args):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "platform": platform.platform(), "build_type": raw["build_type"],
        "snoc_check_level": raw["check_level"], "git_sha": sha,
        "source_sha256": source_digest(), "workers": raw["workers"],
        "shards": raw["shards"], "engine": raw["engine"],
        "host_steal_frac": raw.get("host_steal_frac"),
        "snoc_jobs": 4, "snoc_engine": "lockstep",
    }


def pooled(records):
    """Sum the per-seed cell statistics of the reference."""
    cells = None
    for rec in records:
        if cells is None:
            cells = [[0, 0, 0.0, 0.0] for _ in rec["cells"]]
        for acc, c in zip(cells, rec["cells"]):
            for i in range(4):
                acc[i] += c[i]
    return cells


def log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def completions_pmf(n, pn, pk, k):
    """Completions among a run's n trials of a cell, given that the run's
    k and the reference's pk of pn add up to what they do and the cell
    completes at one rate in both (hypergeometric, as in Fisher's exact
    test).  Returns (pmf, the completion count pmf[0] stands for)."""
    total, trials = k + pk, n + pn
    lo, hi = max(0, n - (trials - total)), min(n, total)
    base = log_comb(trials, n)
    return [math.exp(log_comb(total, j) + log_comb(trials - total, n - j) - base)
            for j in range(lo, hi + 1)], lo


def trimmed(pmf, offset):
    """Drop both tails' outcomes below TRIM times the mode."""
    floor = max(pmf) * TRIM
    lo = next(i for i, v in enumerate(pmf) if v >= floor)
    hi = max(i for i, v in enumerate(pmf) if v >= floor)
    return pmf[lo:hi + 1], offset + lo


def tail_z(pmf, offset, k):
    """|z| equivalent of the two-sided p-value of outcome k."""
    i = k - offset
    below = sum(pmf[: i + 1]) if i >= 0 else 0.0
    above = sum(pmf[max(i, 0):]) if i < len(pmf) else 0.0
    p = min(1.0, 2 * min(below, above))
    return -NormalDist().inv_cdf(max(p, MIN_P) / 2) if p < 1 else 0.0


def completion_z(counts, pool):
    """|z| of a run's completions summed over cells: the exact stratified
    test that each cell completes at the same rate in the run as in the
    pooled reference.  counts: (cell index, trials, completions)."""
    pmf, offset, total = [1.0], 0, 0
    for i, n, k in counts:
        cell, cell_offset = trimmed(*completions_pmf(n, pool[i][0], pool[i][1], k))
        out = [0.0] * (len(pmf) + len(cell) - 1)
        for x, px in enumerate(pmf):
            for y, py in enumerate(cell):
                out[x + y] += px * py
        pmf, offset = trimmed(out, offset + cell_offset)
        total += k
    return tail_z(pmf, offset, total)


def drift_z(run_cells, ref, seed):
    """Largest |z| over cells of completion rate and mean latency, and of
    the run's total completions.

    A run whose batch 0 equals this seed's own reference record in every
    cell scores 0, so a pure speed-up reads exactly 0.  Otherwise every
    untraced batch of the run is tested against the pooled reference:
    completions summed over cells (the test with the power to see trials
    stop completing) and per cell, by an exact conditional test; each
    cell's mean latency by a z-test on the pooled spread.
    """
    pool = pooled(ref["seeds"].values())
    own = ref["seeds"].get(str(seed))
    if own and all(own["cells"][i][:3] == [c["n"], c["completed"], c["sum_rounds"]]
                   for i, c in enumerate(run_cells)):
        return 0.0, ""
    counts = [(i, c["n_all"], c["completed_all"]) for i, c in enumerate(run_cells)]
    worst, where = completion_z(counts, pool), "all cells: completions"
    for i, c in enumerate(run_cells):
        z = completion_z(counts[i:i + 1], pool)
        if z > worst:
            worst, where = z, f"{c['cell']} completion"
        _, pk, ps, pq = pool[i]
        k = c["completed_all"]
        if k and pk >= 2:
            mean = ps / pk
            sd = math.sqrt(max(pq / pk - mean * mean, 0.0) * pk / (pk - 1))
            z = abs(c["sum_rounds_all"] / k - mean) / (
                max(sd, LATENCY_SD_FLOOR) * math.sqrt(1 / k + 1 / pk))
            if z > worst:
                worst, where = z, f"{c['cell']} latency"
    return worst, where


def check(raw, args):
    """Correctness verdict, sim_drift_z and the readable check lines."""
    notes, problems = [], []
    notes.append(f"error_frac {raw['failed'] / raw['attempted']:.6g} "
                 f"({raw['failed']} of {raw['attempted']} trials failed)")
    if raw["failed"]:
        problems.append(f"{raw['failed']} of {raw['attempted']} trials failed: "
                        + "; ".join(raw["errors"]))
    if raw["mismatched_batches"]:
        problems.append(f"{raw['mismatched_batches']} traced batches did not reproduce "
                        "the statistics of the untraced batch with the same trials")
    ref_path = args.reference or BENCH_DIR / "reference" / f"{args.workload}.json"
    try:
        ref = json.loads(ref_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        problems.append(f"reference unreadable: {e}")
        return False, UNCHECKED_Z, notes, problems
    if ref.get("checksum") != reference_checksum(ref):
        problems.append(f"reference {ref_path.name} fails its checksum (edited by hand?)")
    if ref.get("workload") != args.workload or len(ref.get("cells", [])) != len(raw["cells"]):
        problems.append("reference does not describe this workload's cells")
        return False, UNCHECKED_Z, notes, problems
    own = ref["seeds"].get(str(args.seed))
    if own is None:
        notes.append("seed not in the reference: exact digest not checked")
    else:
        if own["inputs_digest"] != raw["inputs_digest"]:
            problems.append("workload inputs differ from the reference's for this seed")
        if ref.get("draw_sequence") != draw_sequence_version():
            notes.append("RNG draw-sequence version changed: digest not compared")
        elif own["sim_digest"] != raw["sim_digest"]:
            problems.append(f"sim digest {raw['sim_digest']} differs from the "
                            f"reference's {own['sim_digest']}")
        else:
            notes.append("sim digest identical to the reference")
    z, where = drift_z(raw["cells"], ref, args.seed)
    notes.append(f"sim_drift_z {z:.3f} (limit {DRIFT_Z_LIMIT}) worst: {where or '-'}")
    if z > DRIFT_Z_LIMIT:
        problems.append(f"sim_drift_z {z:.3f} exceeds {DRIFT_Z_LIMIT} at {where}")
    return not problems, z, notes, problems


def main():
    args = parse_args()
    out = build_dir()
    exe = build(out)
    raw = run_harness(exe, args, out)
    correct, z, notes, problems = check(raw, args)

    # BENCHMARK.json names every metric and its unit.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = dict(raw["per_layer"]) if args.trace else dict(raw["end_to_end"])
    values["check.error_frac"] = raw["failed"] / raw["attempted"]
    values["check.sim_drift_z"] = z
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in values:
            fail(4, f"harness reported no {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(provenance(raw, args), sort_keys=True))
    print(f"inputs {raw['inputs_digest']}  sim digest {raw['sim_digest']}  "
          f"batches {raw['untraced_batches']} untraced, {raw['traced_batches']} traced  "
          f"shared pool start-up {raw['pool_start_ms']:.3f} ms (once, not in setup_s)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    tail = raw["end_to_end"]["_tail"]
    if not args.trace:
        print(f"  (trial_ms_tail is the p{tail['tail_percentile']:g} of "
              f"{tail['trial_samples']} trials, {tail['tail_beyond']} beyond it)")
    else:
        self_s = raw["self_s"]
        print("  self time by span [s]: " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])))
    for line in notes:
        print("check: " + line)
    for line in problems:
        print("check FAILED: " + line)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
