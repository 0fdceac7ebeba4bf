"""Reporting: text, machine JSON, SARIF 2.1.0, and the suppression baseline.

The baseline (scripts/lint_baseline.json) lets pre-existing findings be
burned down incrementally: a finding whose (rule, file, key) triple is
listed there is reported as suppressed and does not fail the run.
Baseline entries that no longer match anything are themselves reported
(`baseline-stale`) so the file can only shrink.
"""

from __future__ import annotations

import json
from pathlib import Path

from model import Finding

BASELINE_FILE = "scripts/lint_baseline.json"

RULE_DESCRIPTIONS = {
    "layer-forbidden": "include crosses the layer DAG the wrong way",
    "layer-cycle": "include cycle between first-party files",
    "layer-unassigned": "file matches no layer in scripts/layers.toml",
    "registry-event-emit": "TraceEventKind with no emit site",
    "registry-event-test": "TraceEventKind never referenced by a test",
    "registry-backend-equivalence":
        "BackendKind missing from the engine-equivalence test marker",
    "check-level": "SNOC_CHECK level is not the literal 0, 1 or 2",
    "det-rand": "std::rand/srand in simulator code",
    "det-random-device": "std::random_device in simulator code",
    "det-wall-clock": "wall-clock call in simulator code",
    "det-mt19937-unseeded": "default-constructed (unseeded) mt19937",
    "det-chrono-clock": "unallowlisted chrono clock read",
    "det-unordered-container": "unallowlisted unordered container",
    "det-unordered-iteration": "range-for over an unordered container",
    "rng-raw-dist": "raw std::*_distribution outside src/common/",
    "pragma-once": "header lacks #pragma once",
    "stale-allowlist": "determinism allowlist entry no longer matches",
    "baseline-stale": "baseline suppression no longer matches any finding",
    "conc-raw-mutex":
        "raw std::mutex/std::condition_variable member (use snoc::Mutex)",
    "conc-guarded-by":
        "member of a lock-owning class lacks SNOC_GUARDED_BY",
    "conc-relaxed-unjustified":
        "memory_order_relaxed without a relaxed[tag] justification",
    "conc-relaxed-unknown-tag":
        "relaxed[tag] not present in scripts/ordering_allowlist.txt",
    "conc-naked-thread": "std::thread outside src/common/",
    "conc-ordering-stale-tag": "ordering allowlist tag no longer used",
    "conc-allowlist-stale": "concurrency allowlist entry no longer matches",
}

# SARIF severity per rule: structural violations that must gate a merge
# are errors (the default); hygiene/bookkeeping findings still fail the
# run but annotate as warnings; staleness in the baseline itself is a
# note.  Anything unlisted is an error so a new rule cannot silently
# ship at a soft severity.
RULE_LEVELS = {
    "pragma-once": "warning",
    "layer-unassigned": "warning",
    "stale-allowlist": "warning",
    "conc-ordering-stale-tag": "warning",
    "conc-allowlist-stale": "warning",
    "baseline-stale": "note",
}


def rule_level(rule: str) -> str:
    return RULE_LEVELS.get(rule, "error")


def load_baseline(root: Path, path: str | None) -> list[dict]:
    baseline_path = root / (path or BASELINE_FILE)
    if not baseline_path.exists():
        return []
    data = json.loads(baseline_path.read_text())
    return list(data.get("suppressions", []))


def _write_entries(root: Path, path: str | None, entries: list[dict]) -> None:
    entries = sorted(entries, key=lambda e: (e.get("rule", ""),
                                             e.get("file", ""),
                                             e.get("key", "")))
    payload = {
        "comment": "snoc_lint suppression baseline - burn down, never grow "
                   "(regenerate with --update-baseline).",
        "suppressions": entries,
    }
    (root / (path or BASELINE_FILE)).write_text(
        json.dumps(payload, indent=2) + "\n")


def write_baseline(root: Path, path: str | None,
                   findings: list[Finding]) -> None:
    _write_entries(root, path, [
        {"rule": f.rule, "file": f.file, "key": f.key or f.message}
        for f in findings])


def prune_baseline(root: Path, path: str | None,
                   findings: list[Finding]) -> int:
    """Drop baseline suppressions that no longer match any current
    finding (the `--baseline-prune` flag) and rewrite the file in place.
    Returns the number of entries removed; the file is untouched when
    nothing is stale."""
    suppressions = load_baseline(root, path)
    live = {f.identity() for f in findings}
    kept = [s for s in suppressions
            if (s.get("rule", ""), s.get("file", ""), s.get("key", "")) in live]
    removed = len(suppressions) - len(kept)
    if removed:
        _write_entries(root, path, kept)
    return removed


def apply_baseline(findings: list[Finding], suppressions: list[dict]
                   ) -> tuple[list[Finding], list[Finding], list[Finding]]:
    """-> (active, suppressed, stale-baseline findings)."""
    table = {(s.get("rule", ""), s.get("file", ""), s.get("key", "")): False
             for s in suppressions}
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        ident = finding.identity()
        if ident in table:
            table[ident] = True
            suppressed.append(finding)
        else:
            active.append(finding)
    stale = [Finding(rule="baseline-stale", file=BASELINE_FILE, line=0,
                     message=f"suppression ({rule}, {file}, {key}) matches "
                             "no current finding; delete it",
                     key=f"{rule}|{file}|{key}")
             for (rule, file, key), hit in table.items() if not hit]
    return active, suppressed, stale


def to_json(findings: list[Finding], suppressed: list[Finding],
            scanned: int) -> dict:
    def one(f: Finding) -> dict:
        return {"rule": f.rule, "file": f.file, "line": f.line,
                "message": f.message, "key": f.key or f.message}
    return {"tool": "snoc_lint", "scanned_files": scanned,
            "findings": [one(f) for f in findings],
            "suppressed": [one(f) for f in suppressed]}


def to_sarif(findings: list[Finding], suppressed: list[Finding]) -> dict:
    """SARIF 2.1.0 - the schema GitHub code scanning ingests for inline
    PR annotations.  Suppressed findings ride along with a suppression
    object so the baseline is visible in the artifact."""
    rules_used = sorted({f.rule for f in findings + list(suppressed)})
    results = []
    for finding, is_suppressed in ([(f, False) for f in findings]
                                   + [(f, True) for f in suppressed]):
        result = {
            "ruleId": finding.rule,
            "level": rule_level(finding.rule),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.file or "scripts/layers.toml",
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(finding.line, 1)},
                },
            }],
        }
        if is_suppressed:
            result["suppressions"] = [{"kind": "external",
                                       "justification": BASELINE_FILE}]
        results.append(result)
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "snoc_lint",
                "informationUri": "https://example.invalid/snoc_lint",
                "rules": [{
                    "id": rule,
                    "shortDescription": {
                        "text": RULE_DESCRIPTIONS.get(rule, rule)},
                    "defaultConfiguration": {"level": rule_level(rule)},
                } for rule in rules_used],
            }},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }
