"""Determinism + RNG-discipline checkers.

The determinism family (`--only determinism,rng,allowlist`): runs on
the shared Project walk with the allowlist in
scripts/determinism_allowlist.txt and reports through the one snoc_lint
report.

Beyond the hard and unordered-container rules:
* rng-raw-dist — all randomness must flow through common/rng.hpp's
  RngStream; constructing a `std::*_distribution` anywhere outside
  src/common/ bypasses the cached-threshold/stream discipline and is
  flagged even when seeded (distributions are implementation-defined
  across standard libraries, so results stop being host-independent).
* stale-allowlist — an allowlist entry whose file is gone or whose
  identifier no longer names an unordered container / mt19937 / chrono
  read in that file is an error: entries must rot loudly, not silently.
"""

from __future__ import annotations

import re
from pathlib import Path

from model import Finding, Project

ALLOWLIST_FILE = "scripts/determinism_allowlist.txt"
DETERMINISM_TOPS = ("src", "bench", "tools")

HARD_PATTERNS = [
    ("det-rand", re.compile(r"\bstd::rand\b|\bsrand\s*\("),
     "std::rand/srand: global hidden RNG state; use common/rng.hpp streams"),
    ("det-random-device", re.compile(r"\brandom_device\b"),
     "std::random_device: OS entropy is never reproducible; derive from the "
     "trial seed"),
    ("det-wall-clock",
     re.compile(r"(?<![\w.:>])time\s*\(|\bgettimeofday\s*\(|"
                r"(?<![\w.:>_])clock\s*\(\s*\)"),
     "wall-clock call: sim-visible time must come from the round/cycle model"),
]

# `mt19937 rng;` / `mt19937()`: unseeded unless the enclosing constructor
# seeds the member in its initializer list - allowlistable for that case.
MT19937_DECL = re.compile(r"\bmt19937(?:_64)?\s+(\w+)\s*;|\bmt19937(?:_64)?\s*\(\s*\)")

# Chrono clock reads: allowlistable per file (key `relpath:wall_clock`)
# for code that times the simulator itself rather than the simulation.
CHRONO_CLOCK = re.compile(r"\bstd::chrono::(?:steady|system|high_resolution)_clock\b")

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;=]*?>\s*(\w+)\s*[;{(]")
RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;:)]*?:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")

RAW_DISTRIBUTION = re.compile(
    r"\bstd::(?:uniform_int|uniform_real|bernoulli|normal|lognormal|discrete|"
    r"exponential|poisson|geometric|binomial|negative_binomial|gamma|weibull|"
    r"extreme_value|chi_squared|cauchy|fisher_f|student_t|piecewise_constant|"
    r"piecewise_linear)_distribution\b")


def load_allowlist(root: Path) -> dict[str, int]:
    """`relpath:identifier` keys -> line number in the allowlist file."""
    entries: dict[str, int] = {}
    path = root / ALLOWLIST_FILE
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries.setdefault(line.split()[0], lineno)
    return entries


def check_determinism(project: Project) -> list[Finding]:
    allow = load_allowlist(project.root)
    findings: list[Finding] = []
    for src in sorted(project.by_top(*DETERMINISM_TOPS), key=lambda f: f.rel):
        rel = src.rel
        unordered_names: set[str] = set()
        for lineno, line in enumerate(src.code_lines(), 1):
            for rule, pattern, message in HARD_PATTERNS:
                if pattern.search(line):
                    findings.append(Finding(rule=rule, file=rel, line=lineno,
                                            message=message))
            for m in MT19937_DECL.finditer(line):
                name = m.group(1) or "<temporary>"
                key = f"{rel}:{name}"
                if key not in allow:
                    findings.append(Finding(
                        rule="det-mt19937-unseeded", file=rel, line=lineno,
                        message=f"default-constructed mt19937 '{name}': "
                                f"unseeded PRNG; seed it from the trial seed "
                                f"(or allowlist '{key}' if the constructor's "
                                f"initializer list seeds it)",
                        key=key))
            if CHRONO_CLOCK.search(line):
                key = f"{rel}:wall_clock"
                if key not in allow:
                    findings.append(Finding(
                        rule="det-chrono-clock", file=rel, line=lineno,
                        message=f"chrono clock read: wall time in simulator "
                                f"code; if this only ever measures the "
                                f"simulator (profiling/benchmark harness) and "
                                f"never feeds simulation state, allowlist "
                                f"'{key}' with that justification",
                        key=key))
            for m in UNORDERED_DECL.finditer(line):
                name = m.group(1)
                unordered_names.add(name)
                key = f"{rel}:{name}"
                if key not in allow:
                    findings.append(Finding(
                        rule="det-unordered-container", file=rel, line=lineno,
                        message=f"unordered container '{name}' is not "
                                f"allowlisted; add '{key}' to "
                                f"{ALLOWLIST_FILE} with a justification, or "
                                f"use an ordered/indexed container",
                        key=key))
        # Iteration over anything declared unordered in this file: hash-order
        # is the classic silent determinism leak, an error even when the
        # declaration itself is allowlisted.
        for lineno, line in enumerate(src.code_lines(), 1):
            m = RANGE_FOR.search(line)
            if m and m.group(1) in unordered_names:
                findings.append(Finding(
                    rule="det-unordered-iteration", file=rel, line=lineno,
                    message=f"range-for over unordered container "
                            f"'{m.group(1)}': iteration order is hash-order "
                            "and can leak into results; copy into a sorted "
                            "vector first",
                    key=f"iter:{m.group(1)}"))
    return findings


def check_rng_discipline(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for src in project.by_top("src", "bench", "tools", "examples"):
        if src.rel.startswith("src/common/"):
            continue  # RngStream's own implementation lives here.
        for lineno, line in enumerate(src.code_lines(), 1):
            m = RAW_DISTRIBUTION.search(line)
            if m:
                findings.append(Finding(
                    rule="rng-raw-dist", file=src.rel, line=lineno,
                    message=f"raw {m.group(0)}: all randomness must flow "
                            "through RngStream (common/rng.hpp) so streams "
                            "stay splittable and results host-independent",
                    key=m.group(0)))
    return findings


def check_allowlist_staleness(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for key, lineno in sorted(load_allowlist(project.root).items(),
                              key=lambda kv: kv[1]):
        rel, _, ident = key.rpartition(":")
        src = project.files.get(rel)
        if src is None:
            findings.append(Finding(
                rule="stale-allowlist", file=ALLOWLIST_FILE, line=lineno,
                message=f"entry '{key}': file '{rel}' does not exist (or is "
                        "not scanned); delete the entry",
                key=key))
            continue
        if ident == "wall_clock":
            alive = CHRONO_CLOCK.search(src.code) is not None
        else:
            alive = any(
                m.group(1) == ident
                for pattern in (UNORDERED_DECL, MT19937_DECL)
                for m in pattern.finditer(src.code))
        if not alive:
            findings.append(Finding(
                rule="stale-allowlist", file=ALLOWLIST_FILE, line=lineno,
                message=f"entry '{key}': '{rel}' no longer declares "
                        f"'{ident}' (as an unordered container, mt19937 or "
                        "chrono read); delete the entry",
                key=key))
    return findings


def check_hygiene(project: Project) -> list[Finding]:
    """Header hygiene: every first-party header starts an include-once
    region (missing #pragma once means double-inclusion surprises)."""
    findings: list[Finding] = []
    for src in project.by_top("src", "bench", "tools", "examples"):
        if src.is_header and "#pragma once" not in src.code:
            findings.append(Finding(
                rule="pragma-once", file=src.rel, line=1,
                message="header lacks #pragma once"))
    return findings
