"""snoc_lint - project-wide static analysis for the simulator.

Usage (from the repo root, or anywhere with --root):

    python3 tools/snoc_lint                      # lint the whole tree
    python3 tools/snoc_lint --only determinism   # one checker family
    python3 tools/snoc_lint --changed-files a.cpp b.hpp   # pre-commit mode
    python3 tools/snoc_lint --sarif-out lint.sarif --json-out lint.json
    python3 tools/snoc_lint --update-baseline    # absorb current findings

Checkers (--only takes a comma-separated subset):
    layering     layer DAG enforcement + include-cycle detection
                 (rules file: scripts/layers.toml)
    registry     TraceEventKind X-macro / NetworkMetrics / SNOC_CHECK-level
                 cross-checks
    determinism  the determinism linter (rand/entropy/wall-clock/unordered)
    rng          raw std::*_distribution outside src/common/
    hygiene      missing #pragma once
    allowlist    stale scripts/determinism_allowlist.txt entries
    concurrency  thread-safety discipline: raw mutex members, unannotated
                 members of lock-owning classes, unjustified
                 memory_order_relaxed, naked std::thread (allowlists:
                 scripts/concurrency_allowlist.txt,
                 scripts/ordering_allowlist.txt)

Exit status: 0 clean, 1 findings, 2 broken configuration or an internal
error (an uncaught exception must never read as "findings").
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import concurrency
import determinism
import layers
import registry
import report
from model import ConfigError, Finding, Project

CHECKERS = {
    "layering": layers.check_layering,
    "registry": registry.check_registries,
    "determinism": determinism.check_determinism,
    "rng": determinism.check_rng_discipline,
    "hygiene": determinism.check_hygiene,
    "allowlist": determinism.check_allowlist_staleness,
    "concurrency": concurrency.check_concurrency,
}

# Findings in these files are project-level: they must survive the
# --changed-files filter even when the file itself was not touched,
# because editing *other* files is what breaks them.
PROJECT_LEVEL_FILES = {
    "scripts/determinism_allowlist.txt",
    concurrency.CONCURRENCY_ALLOWLIST_FILE,
    concurrency.ORDERING_ALLOWLIST_FILE,
    report.BASELINE_FILE,
    registry.TRACE_HEADER,
    registry.METRIC_REGISTRY_HEADER,
    registry.INTERCONNECT_HEADER,
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="snoc_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repository root (default: this tool's repo)")
    parser.add_argument("--only", "--rules", dest="only", default=None,
                        metavar="CHECKERS",
                        help="comma-separated checker subset (see --list-checks)")
    parser.add_argument("--list-checks", action="store_true",
                        help="print checker names and exit")
    parser.add_argument("--changed-files", nargs="*", default=None,
                        metavar="FILE",
                        help="fast mode: only report findings in these "
                             "repo-relative files (plus project-level ones)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="stdout format (default text)")
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="also write the machine-JSON report here")
    parser.add_argument("--sarif-out", default=None, metavar="FILE",
                        help="also write a SARIF 2.1.0 report here")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help=f"suppression baseline (default {report.BASELINE_FILE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline (fixture/self-test mode)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline to suppress all current "
                             "findings, then exit 0")
    parser.add_argument("--baseline-prune", action="store_true",
                        help="drop baseline suppressions that no longer match "
                             "any finding, then exit 0")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.list_checks:
        for name in CHECKERS:
            print(name)
        return 0

    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parent.parent.parent)

    selected = list(CHECKERS)
    if args.only:
        selected = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in selected if name not in CHECKERS]
        if unknown:
            print(f"snoc_lint: unknown checker(s): {', '.join(unknown)} "
                  f"(see --list-checks)", file=sys.stderr)
            return 2

    try:
        project = Project(root)
        findings: list[Finding] = []
        for name in selected:
            findings.extend(CHECKERS[name](project))
    except ConfigError as err:
        print(f"snoc_lint: configuration error: {err}", file=sys.stderr)
        return 2

    if args.changed_files is not None:
        changed = set()
        for raw in args.changed_files:
            rel = Path(raw)
            if rel.is_absolute():
                try:
                    rel = rel.relative_to(root)
                except ValueError:
                    continue
            changed.add(rel.as_posix())
        findings = [f for f in findings
                    if f.file in changed or f.file in PROJECT_LEVEL_FILES
                    or not f.file]

    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))

    if args.update_baseline:
        report.write_baseline(root, args.baseline, findings)
        print(f"snoc_lint: baseline updated with {len(findings)} "
              f"suppression(s)", file=sys.stderr)
        return 0

    if args.baseline_prune:
        if args.changed_files is not None:
            # A changed-files pass sees only a slice of the findings, so
            # pruning against it would delete live suppressions.
            print("snoc_lint: --baseline-prune requires a full-tree run",
                  file=sys.stderr)
            return 2
        removed = report.prune_baseline(root, args.baseline, findings)
        print(f"snoc_lint: pruned {removed} stale suppression(s)",
              file=sys.stderr)
        return 0

    suppressions = [] if args.no_baseline else \
        report.load_baseline(root, args.baseline)
    active, suppressed, stale = report.apply_baseline(findings, suppressions)
    # Stale suppressions only make sense on a full-tree run: a changed-files
    # pass legitimately leaves most baseline entries unmatched.
    if args.changed_files is None:
        active.extend(stale)

    if args.json_out:
        (root / args.json_out if not Path(args.json_out).is_absolute()
         else Path(args.json_out)).write_text(
            json.dumps(report.to_json(active, suppressed, len(project.files)),
                       indent=2) + "\n")
    if args.sarif_out:
        (root / args.sarif_out if not Path(args.sarif_out).is_absolute()
         else Path(args.sarif_out)).write_text(
            json.dumps(report.to_sarif(active, suppressed), indent=2) + "\n")

    if args.format == "json":
        print(json.dumps(report.to_json(active, suppressed,
                                        len(project.files)), indent=2))
    else:
        for finding in active:
            print(finding)
    mode = (f"changed-files ({len(args.changed_files or [])})"
            if args.changed_files is not None else "full")
    print(f"snoc_lint [{mode}]: scanned {len(project.files)} files, "
          f"{len(active)} finding(s), {len(suppressed)} baseline-suppressed",
          file=sys.stderr)
    return 1 if active else 0


def run() -> int:
    """main(), with any uncaught exception reported as exit 2."""
    try:
        return main()
    except Exception:  # noqa: BLE001 - the exit-status contract needs all
        traceback.print_exc()
        print("snoc_lint: internal error (exit 2)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
