#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Checks that the same seed reproduces identical simulated statistics,
that a different seed gives different inputs, that a tampered reference
or digest, or trials that stop completing, make the checker fail, and
that every metric run.py prints
is named in BENCHMARK.json with the same unit.  Uses short fixed-batch
runs, so it takes about a minute after the harness is built.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

FAST = "pi_fft_clean"  # the cheapest workload: ~0.5 s per batch


def harness(workload, seed, trace=0, batches=1):
    exe = run.build(run.build_dir())
    env = dict(run.os.environ, SNOC_JOBS="4", SNOC_ENGINE="lockstep")
    done = subprocess.run(
        [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--batches", str(batches)],
        stdout=subprocess.PIPE, text=True, env=env, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_py(workload, seed, trace=0, reference=None):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--batches", "3"]
    if reference:
        cmd += ["--reference", str(reference)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def load_reference(workload):
    return json.loads((run.BENCH_DIR / "reference" / f"{workload}.json").read_text())


def write_reference(ref, directory, fix_checksum=True):
    if fix_checksum:
        ref["checksum"] = run.reference_checksum(ref)
    path = Path(directory) / "ref.json"
    path.write_text(json.dumps(ref))
    return path


class Determinism(unittest.TestCase):
    def test_same_seed_gives_identical_statistics(self):
        for workload in (FAST, "mesh_broadcast"):
            a, b = harness(workload, 3), harness(workload, 3)
            self.assertEqual(a["sim_digest"], b["sim_digest"], workload)
            self.assertEqual(a["cells"], b["cells"], workload)
            self.assertEqual(a["failed"], 0, a["errors"])

    def test_traced_and_repeated_batches_match_the_first(self):
        raw = harness(FAST, 3, trace=1, batches=2)
        self.assertEqual(raw["mismatched_batches"], 0)
        self.assertEqual(raw["traced_batches"], 2)

    def test_different_seed_gives_different_inputs(self):
        for workload in run.WORKLOADS:
            a, b = harness(workload, 3), harness(workload, 4)
            self.assertNotEqual(a["inputs_digest"], b["inputs_digest"], workload)
            self.assertNotEqual(a["sim_digest"], b["sim_digest"], workload)


class Checker(unittest.TestCase):
    def test_committed_reference_passes(self):
        code, result = run_py(FAST, 3)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["wall_s"]["unit"], "s")

    def test_tampered_digest_fails(self):
        ref = load_reference(FAST)
        ref["seeds"]["3"]["sim_digest"] = "0" * 16
        with tempfile.TemporaryDirectory() as d:
            code, result = run_py(FAST, 3, reference=write_reference(ref, d))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])

    def test_tampered_statistics_fail(self):
        ref = load_reference(FAST)
        for record in ref["seeds"].values():
            for cell in record["cells"]:
                # Every completion five rounds later: x -> x + 5.
                _, k, total, squares = cell
                cell[2] = total + 5 * k
                cell[3] = squares + 10 * total + 25 * k
        with tempfile.TemporaryDirectory() as d:
            path = write_reference(ref, d)
            code, result = run_py(FAST, 100003, reference=path)  # not a reference seed
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["metrics"]["wall_s"]["value"], 0)

    def test_lost_completions_fail_after_a_draw_sequence_change(self):
        # The digest is not compared once the draw sequence changes, so
        # sim_drift_z alone must catch a simulator whose trials stop
        # completing.  Here the reference's trials never complete instead.
        ref = load_reference(FAST)
        ref["draw_sequence"] += 1
        for record in ref["seeds"].values():
            record["cells"] = [[n, 0, 0, 0] for n, *_ in record["cells"]]
        with tempfile.TemporaryDirectory() as d:
            code, result = run_py(FAST, 3, reference=write_reference(ref, d))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])

    def test_drift_z_sees_no_trial_completing(self):
        # Each workload's smallest run (a traced run's untraced pass, about
        # eight mesh_broadcast trials), with every trial failing to complete.
        for workload, batches in (("mp3_upset", 3), (FAST, 3), ("mesh_broadcast", 8)):
            ref = load_reference(workload)
            cells = [{"cell": name, "n": n, "completed": 0, "sum_rounds": 0,
                      "sumsq_rounds": 0, "n_all": n * batches, "completed_all": 0,
                      "sum_rounds_all": 0}
                     for name, (n, *_) in zip(ref["cells"], ref["seeds"]["0"]["cells"])]
            z, where = run.drift_z(cells, ref, 100003)
            self.assertGreater(z, run.DRIFT_Z_LIMIT, workload)
            if len(cells) > 1:
                # Half of every finishing cell's trials lost, at the usual
                # latency: no one cell shows it, the sum over cells does.
                for c, (_, pk, ps, _) in zip(cells, run.pooled(ref["seeds"].values())):
                    if pk:
                        c["completed_all"] = c["n_all"] // 2
                        c["sum_rounds_all"] = c["completed_all"] * ps / pk
                z, where = run.drift_z(cells, ref, 100003)
                self.assertGreater(z, run.DRIFT_Z_LIMIT, workload)
                self.assertEqual(where, "all cells: completions", workload)
            # ...while batch 0 of a reference seed, unchanged, scores 0.
            own = [{"cell": name, "n": n, "completed": k, "sum_rounds": s,
                    "sumsq_rounds": q, "n_all": n, "completed_all": k, "sum_rounds_all": s}
                   for name, (n, k, s, q) in zip(ref["cells"], ref["seeds"]["0"]["cells"])]
            self.assertEqual(run.drift_z(own, ref, 0), (0.0, ""), workload)

    def test_hand_edited_reference_fails_checksum(self):
        ref = load_reference(FAST)
        ref["seeds"]["5"]["cells"][0][1] -= 1
        with tempfile.TemporaryDirectory() as d:
            code, result = run_py(FAST, 3, reference=write_reference(ref, d, False))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])


class MetricNames(unittest.TestCase):
    def test_every_metric_is_named_in_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            # What the harness measures (run.py adds the two check.* values)...
            raw = harness(FAST, 3, trace=trace, batches=2)
            measured = {k for k in raw[key] if not k.startswith("_")}
            if trace:
                measured |= {"check.error_frac", "check.sim_drift_z"}
            self.assertEqual(measured, set(expected), key)
            # ...and what run.py prints, with units.
            code, result = run_py(FAST, 3, trace=trace)
            self.assertEqual(code, 0)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, expected, key)
            self.assertTrue(all(isinstance(v["value"], (int, float))
                                for v in result["metrics"].values()))

    def test_fault_layer_is_bypassed_without_upsets(self):
        code, result = run_py(FAST, 3, trace=1)
        self.assertEqual(code, 0)
        self.assertEqual(result["metrics"]["fault.upsets"]["value"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
