#!/usr/bin/env python3
"""Regenerate the committed simulated-statistics reference of a workload.

    python3 perfbench/make_reference.py mp3_upset [--seeds 40]

Runs one batch of the workload for each seed 0..N-1 and writes
perfbench/reference/<workload>.json: per seed, the inputs digest, the
exact digest of every simulated statistic, and per cell the trial count,
completions and the sum and sum of squares of the completion round.
run.py compares a run against its own seed's record (exactly) and
against the pooled records (sim_drift_z).  Regenerate only when the
simulated behaviour is meant to change, and say so in the change.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)


def dump(ref):
    """JSON with one line per seed record, so a regenerated file diffs by seed."""
    lines = []
    for key, value in sorted(ref.items()):
        if key == "seeds":
            records = sorted(value.items(), key=lambda kv: int(kv[0]))
            body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(rec, sort_keys=True)}"
                               for seed, rec in records)
            lines.append(f' "seeds": {{\n{body}\n }}')
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=run.WORKLOADS)
    ap.add_argument("--seeds", type=int, default=40)
    args = ap.parse_args()

    exe = run.build(run.build_dir())
    env = dict(run.os.environ, SNOC_JOBS="4", SNOC_ENGINE="lockstep")
    seeds, cells, made = {}, None, None
    for seed in range(args.seeds):
        done = subprocess.run(
            [str(exe), "--workload", args.workload, "--seed", str(seed), "--seconds", "1",
             "--trace", "0", "--batches", "1"],
            stdout=subprocess.PIPE, text=True, env=env, check=True)
        raw = json.loads(done.stdout.strip().splitlines()[-1])
        if raw["failed"]:
            sys.exit(f"seed {seed}: trials failed: {raw['errors']}")
        cells = [c["cell"] for c in raw["cells"]]
        made = {"build_type": raw["build_type"], "snoc_check_level": raw["check_level"]}
        seeds[str(seed)] = {
            "inputs_digest": raw["inputs_digest"],
            "sim_digest": raw["sim_digest"],
            "cells": [[c["n"], c["completed"], c["sum_rounds"], c["sumsq_rounds"]]
                      for c in raw["cells"]],
        }
        print(f"{args.workload} seed {seed}: {raw['sim_digest']}", file=sys.stderr)
    made["source_sha256"] = run.source_digest()
    ref = {
        "schema": "snoc-perfbench-reference-v1",
        "workload": args.workload,
        "draw_sequence": run.draw_sequence_version(),
        "made_with": made,
        "cells": cells,
        "seeds": seeds,
    }
    ref["checksum"] = run.reference_checksum(ref)
    out = run.BENCH_DIR / "reference" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(dump(ref))
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
