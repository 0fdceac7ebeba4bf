#!/usr/bin/env python3
"""Regression tests for the snoc_lint CLI surface (ctest label `lint`):

* `--only determinism,rng,allowlist` exits with snoc_lint's status
  contract (0 clean, 1 findings, 2 broken configuration) instead of
  always succeeding, and an internal crash exits 2, not 1;
* --changed-files keeps project-level findings (the metric registry and
  BackendKind headers) that an edit to some other file causes;
* --baseline-prune drops exactly the stale suppressions and keeps the
  live ones;
* SARIF severity follows the per-rule map (error for structural rules,
  warning for hygiene, note for baseline staleness) instead of
  hardcoding everything to error.

    python3 tests/lint_fixtures/run_cli_tests.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURES = Path(__file__).resolve().parent
TOOL = REPO_ROOT / "tools" / "snoc_lint"
DETERMINISM_ONLY = ["--only", "determinism,rng,allowlist"]

FAILURES: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(f"{label}: {detail}")


def run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(args, capture_output=True, text=True, check=False)


def only_exit_codes() -> None:
    dirty = run([sys.executable, str(TOOL), *DETERMINISM_ONLY,
                 "--root", str(FIXTURES / "raw_distribution"), "--no-baseline"])
    check("--only determinism exits 1 on a determinism-family finding",
          dirty.returncode == 1 and "[rng-raw-dist]" in dirty.stdout,
          f"exit {dirty.returncode}: {dirty.stderr.strip()}")
    clean = run([sys.executable, str(TOOL), *DETERMINISM_ONLY,
                 "--root", str(FIXTURES / "clean"), "--no-baseline"])
    check("--only determinism exits 0 on a clean tree",
          clean.returncode == 0,
          f"exit {clean.returncode}: {clean.stderr.strip()}")
    bad = run([sys.executable, str(TOOL), "--only", "nonsense"])
    check("--only nonsense is a config error, exit 2",
          bad.returncode == 2,
          f"exit {bad.returncode}: {bad.stderr.strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        # Writing a report into a missing directory raises inside main().
        crash = run([sys.executable, str(TOOL), "--root", str(FIXTURES / "clean"),
                     "--no-baseline", "--json-out",
                     str(Path(tmp) / "missing" / "out.json")])
    check("an uncaught internal exception exits 2, not 1",
          crash.returncode == 2 and "internal error" in crash.stderr,
          f"exit {crash.returncode}: {crash.stderr.strip()[-200:]}")


def changed_files_keeps_project_level() -> None:
    # Each fixture's finding lives in a registry header; an edit to any
    # other file (here one the fixture does not even contain) must still
    # report it.
    for fixture, rule in (("orphan_metric", "registry-metric-emit"),
                          ("backend_kind_unlisted", "registry-backend-equivalence")):
        res = run([sys.executable, str(TOOL), "--root", str(FIXTURES / fixture),
                   "--no-baseline", "--only", "registry",
                   "--changed-files", "src/elsewhere.cpp"])
        check(f"--changed-files keeps the project-level [{rule}] finding",
              res.returncode == 1 and f"[{rule}]" in res.stdout,
              f"exit {res.returncode}: {res.stdout.strip()}")


def baseline_prune() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(FIXTURES / "raw_distribution", root)
        (root / "scripts").mkdir(exist_ok=True)
        baseline = root / "scripts" / "lint_baseline.json"

        # Absorb the fixture's real finding, then plant a stale entry.
        absorb = run([sys.executable, str(TOOL), "--root", str(root),
                      "--update-baseline"])
        check("prune setup: --update-baseline succeeds",
              absorb.returncode == 0 and baseline.exists(),
              absorb.stderr.strip())
        data = json.loads(baseline.read_text())
        live = list(data["suppressions"])
        data["suppressions"].append(
            {"rule": "det-rand", "file": "src/gone.cpp", "key": "ghost"})
        baseline.write_text(json.dumps(data, indent=2) + "\n")

        prune = run([sys.executable, str(TOOL), "--root", str(root),
                     "--baseline-prune"])
        after = json.loads(baseline.read_text())["suppressions"]
        check("--baseline-prune exits 0 and drops only the stale entry",
              prune.returncode == 0 and after == live,
              f"exit {prune.returncode}, kept {after}")

        refuse = run([sys.executable, str(TOOL), "--root", str(root),
                      "--baseline-prune", "--changed-files", "src/gone.cpp"])
        check("--baseline-prune refuses a changed-files slice",
              refuse.returncode == 2, f"exit {refuse.returncode}")


def sarif_levels() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        sarif_path = Path(tmp) / "out.sarif"
        run([sys.executable, str(TOOL),
             "--root", str(FIXTURES / "missing_pragma_once"),
             "--no-baseline", "--sarif-out", str(sarif_path)])
        sarif = json.loads(sarif_path.read_text())
        levels = {r["ruleId"]: r["level"]
                  for r in sarif["runs"][0]["results"]}
        check("pragma-once maps to SARIF level warning",
              levels.get("pragma-once") == "warning", str(levels))

        run([sys.executable, str(TOOL),
             "--root", str(FIXTURES / "raw_distribution"),
             "--no-baseline", "--sarif-out", str(sarif_path)])
        sarif = json.loads(sarif_path.read_text())
        levels = {r["ruleId"]: r["level"]
                  for r in sarif["runs"][0]["results"]}
        check("rng-raw-dist maps to SARIF level error",
              levels.get("rng-raw-dist") == "error", str(levels))
        rules = {r["id"]: r["defaultConfiguration"]["level"]
                 for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        check("rule metadata carries defaultConfiguration levels",
              rules.get("rng-raw-dist") == "error", str(rules))

        # A stale baseline entry surfaces as a note-level finding.
        root = Path(tmp) / "stale"
        shutil.copytree(FIXTURES / "clean", root)
        (root / "scripts").mkdir(exist_ok=True)
        (root / "scripts" / "lint_baseline.json").write_text(json.dumps({
            "suppressions": [{"rule": "det-rand", "file": "src/gone.cpp",
                              "key": "ghost"}]}) + "\n")
        run([sys.executable, str(TOOL), "--root", str(root),
             "--sarif-out", str(sarif_path)])
        sarif = json.loads(sarif_path.read_text())
        levels = {r["ruleId"]: r["level"]
                  for r in sarif["runs"][0]["results"]}
        check("baseline-stale maps to SARIF level note",
              levels.get("baseline-stale") == "note", str(levels))


def main() -> int:
    only_exit_codes()
    changed_files_keeps_project_level()
    baseline_prune()
    sarif_levels()
    if FAILURES:
        print("\n".join(FAILURES), file=sys.stderr)
        return 1
    print("snoc_lint CLI regression tests ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
