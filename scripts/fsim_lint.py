#!/usr/bin/env python3
"""fsim-lint: project-specific static checks the generic tools don't cover.

Rules (each can be silenced on a line with `// fsim-lint: allow(<rule>)`):

  sync-comment    Every std::atomic<...> or std::mutex data member in a
                  header must carry a `// guards:` or `// ordering:` comment
                  (on its line or the line above) documenting what it
                  protects or which memory-ordering contract it relies on.
  parallel-hot    Lambda bodies passed to ThreadPool::ParallelFor* inside
                  src/core and src/common must not acquire locks
                  (lock_guard/unique_lock/scoped_lock/.lock()) or call
                  allocation-heavy formatting (std::endl, ostringstream,
                  StrFormat) — those serialize or bloat the hot loop.
  metrics-hot     Lambda bodies passed to ThreadPool::ParallelFor* anywhere
                  in src/ must not resolve metrics by name (Registry::Default,
                  GetCounter/GetGauge/GetHistogram, RegisterCallbackGauge) —
                  each lookup takes the registry mutex and hashes the family
                  string. Pre-resolve the Counter*/Histogram* handle outside
                  the parallel region; recording on a handle is lock-free.
  banned          rand(/srand(/strtok( are banned everywhere (non-reentrant
                  or non-deterministic; use common/random.h). Headers must
                  not define non-const local statics in inline functions.
  header-guard    Headers use #pragma once or an FSIM_*_H_ include guard.
  include-order   The first include of a .cc file must be its own header
                  (subdirectory-qualified, e.g. "core/pair_store.h").
  naked-new       `new` outside factories/tests is banned — the codebase
                  owns memory via containers and smart pointers.
  durability      Every fsync/fdatasync call site in src/ must carry a
                  `// durability:` comment (on the line or within the ten
                  lines above) stating what crash-consistency contract the
                  sync upholds — the WAL/snapshot ordering invariants live
                  in those comments.
  simd-isolation  x86 vector intrinsics (<immintrin.h>/<x86intrin.h>,
                  _mm*_* calls, __m128/__m256/__m512/__mmask types) are
                  confined to src/core/simd/ — everything else talks to the
                  kernel-table abstraction (core/simd/kernels.h) so the
                  portable scalar build never depends on ISA headers.
                  Deliberate exceptions (e.g. a bench TU timing with
                  __rdtsc) carry the per-line allow escape.

A checked-in baseline (scripts/fsim_lint_baseline.json) grandfathers
pre-existing violations: a finding whose (file, rule, line-content) triple is
baselined is reported only as stale-baseline info, never as an error, so old
debt fails the build only when the offending line is touched. Run with
--update-baseline after deliberate cleanups.

Exit codes: 0 clean, 1 new violations, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "fsim_lint_baseline.json"

LINT_DIRS = ("src", "tests", "bench", "examples")
HEADER_SUFFIXES = {".h", ".hpp"}
SOURCE_SUFFIXES = {".cc", ".cpp"}
ALLOW_RE = re.compile(r"//\s*fsim-lint:\s*allow\(([a-z-]+)\)")

ATOMIC_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:std::)?(?:atomic(?:<|\b)|mutex\b|shared_mutex\b|"
    r"condition_variable\b)"
)
SYNC_COMMENT_RE = re.compile(r"//.*(guards:|ordering:)")
PARALLEL_CALL_RE = re.compile(r"\bParallelFor(?:Chunked|Span)?\s*\(")
LOCK_RE = re.compile(
    r"\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\s*<|\.lock\s*\(\)"
)
ALLOC_HEAVY_RE = re.compile(r"std::endl\b|ostringstream\b|\bStrFormat\s*\(")
METRICS_LOOKUP_RE = re.compile(
    r"\bRegistry::Default\b|\bGet(?:Counter|Gauge|Histogram)\s*\(|"
    r"\b(?:Un)?RegisterCallbackGauge\s*\(")
BANNED_CALL_RE = re.compile(r"(?<![\w:.>])(?:rand|srand|strtok)\s*\(")
LOCAL_STATIC_RE = re.compile(r"^\s*static\s+(?!constexpr|const\b|assert)\w")
NAKED_NEW_RE = re.compile(r"(?<![\w_])new\s+[A-Za-z_:][\w:<>, ]*[({]")
INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')
FSYNC_CALL_RE = re.compile(r"\b(?:fsync|fdatasync)\s*\(")
DURABILITY_COMMENT_RE = re.compile(r"//.*durability:")
DURABILITY_LOOKBACK = 10


def relpath(path: Path) -> str:
    return path.relative_to(REPO_ROOT).as_posix()


class Finding:
    def __init__(self, path: Path, line_no: int, rule: str, message: str,
                 line: str):
        self.file = relpath(path)
        self.line_no = line_no
        self.rule = rule
        self.message = message
        self.line = line

    def key(self) -> str:
        content_hash = hashlib.sha1(self.line.strip().encode()).hexdigest()[:12]
        return f"{self.file}:{self.rule}:{content_hash}"

    def __str__(self) -> str:
        return f"{self.file}:{self.line_no}: [{self.rule}] {self.message}"


def allowed(lines: list[str], idx: int, rule: str) -> bool:
    """True if line idx (0-based) or the line above carries an allow escape."""
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m and m.group(1) == rule:
                return True
    return False


def strip_strings_and_comments(line: str) -> str:
    """Removes string/char literals and // comments so patterns don't match
    inside them. Block comments are not used in this codebase's hot paths."""
    out = []
    i = 0
    in_string = None
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == in_string:
                in_string = None
            i += 1
            continue
        if c in "\"'":
            in_string = c
            i += 1
            continue
        if line.startswith("//", i):
            break
        out.append(c)
        i += 1
    return "".join(out)


def check_sync_comments(path: Path, lines: list[str]) -> list[Finding]:
    if path.suffix not in HEADER_SUFFIXES:
        return []
    findings = []
    for i, line in enumerate(lines):
        code = strip_strings_and_comments(line)
        if not ATOMIC_MEMBER_RE.match(code):
            continue
        # Member declarations only: require a terminating ; or { initializer,
        # and skip function declarations/definitions (a ')' before the end).
        if ";" not in code and "{" not in code:
            continue
        if re.search(r"\)\s*(?:const\s*)?(?:noexcept\s*)?[{;]", code):
            continue
        if allowed(lines, i, "sync-comment"):
            continue
        # The documenting comment may sit on the member's line or anywhere in
        # the contiguous comment block above it.
        context = [line]
        j = i - 1
        while j >= 0 and lines[j].lstrip().startswith("//"):
            context.append(lines[j])
            j -= 1
        if any(SYNC_COMMENT_RE.search(c) for c in context):
            continue
        findings.append(Finding(
            path, i + 1, "sync-comment",
            "atomic/mutex member needs a `// guards:` or `// ordering:` "
            "comment documenting its synchronization contract", line))
    return findings


def parallel_lambda_ranges(lines: list[str]) -> list[tuple[int, int]]:
    """(start, end) 0-based line ranges of ParallelFor* call arguments,
    matched by brace/paren balance from the call site."""
    ranges = []
    for i, line in enumerate(lines):
        if not PARALLEL_CALL_RE.search(strip_strings_and_comments(line)):
            continue
        depth = 0
        started = False
        for j in range(i, min(len(lines), i + 200)):
            code = strip_strings_and_comments(lines[j])
            if j == i:
                code = code[PARALLEL_CALL_RE.search(code).start():]
            for c in code:
                if c == "(":
                    depth += 1
                    started = True
                elif c == ")":
                    depth -= 1
            if started and depth <= 0:
                ranges.append((i, j))
                break
        else:
            ranges.append((i, min(len(lines) - 1, i + 200)))
    return ranges


def check_parallel_hot(path: Path, lines: list[str]) -> list[Finding]:
    rel = relpath(path)
    if not (rel.startswith("src/core/") or rel.startswith("src/common/")):
        return []
    findings = []
    for start, end in parallel_lambda_ranges(lines):
        for i in range(start, end + 1):
            code = strip_strings_and_comments(lines[i])
            if allowed(lines, i, "parallel-hot"):
                continue
            if LOCK_RE.search(code):
                findings.append(Finding(
                    path, i + 1, "parallel-hot",
                    "mutex acquisition inside a ParallelFor* body serializes "
                    "the parallel region", lines[i]))
            if ALLOC_HEAVY_RE.search(code):
                findings.append(Finding(
                    path, i + 1, "parallel-hot",
                    "allocation-heavy formatting inside a ParallelFor* body "
                    "(std::endl / ostringstream / StrFormat)", lines[i]))
    return findings


def check_metrics_hot(path: Path, lines: list[str]) -> list[Finding]:
    rel = relpath(path)
    if not rel.startswith("src/"):
        return []
    findings = []
    for start, end in parallel_lambda_ranges(lines):
        for i in range(start, end + 1):
            code = strip_strings_and_comments(lines[i])
            if allowed(lines, i, "metrics-hot"):
                continue
            if METRICS_LOOKUP_RE.search(code):
                findings.append(Finding(
                    path, i + 1, "metrics-hot",
                    "metrics registry lookup-by-name inside a ParallelFor* "
                    "body (registry mutex + family-name hash per call); "
                    "pre-resolve the handle outside the parallel region "
                    "and record on it lock-free", lines[i]))
    return findings


def check_banned(path: Path, lines: list[str]) -> list[Finding]:
    findings = []
    for i, line in enumerate(lines):
        code = strip_strings_and_comments(line)
        if BANNED_CALL_RE.search(code) and not allowed(lines, i, "banned"):
            findings.append(Finding(
                path, i + 1, "banned",
                "rand/srand/strtok are banned (non-reentrant or "
                "non-deterministic); use common/random.h", line))
        if (path.suffix in HEADER_SUFFIXES and LOCAL_STATIC_RE.match(code)
                and "(" not in code.split("=")[0].split("{")[0]
                and not allowed(lines, i, "banned")):
            # Heuristic: static data (not function decls) in a header means a
            # non-const static local or global in every TU.
            findings.append(Finding(
                path, i + 1, "banned",
                "non-const static data in a header (one mutable copy per "
                "translation unit)", line))
    return findings


def check_header_guard(path: Path, lines: list[str]) -> list[Finding]:
    if path.suffix not in HEADER_SUFFIXES:
        return []
    head = "\n".join(lines[:120])  # file comments may run long
    if "#pragma once" in head:
        return []
    if re.search(r"#ifndef\s+FSIM_\w+_H_", head):
        return []
    if any(allowed(lines, i, "header-guard") for i in range(min(5, len(lines)))):
        return []
    return [Finding(path, 1, "header-guard",
                    "header lacks #pragma once or an FSIM_*_H_ include guard",
                    lines[0] if lines else "")]


def check_include_order(path: Path, lines: list[str]) -> list[Finding]:
    if path.suffix not in SOURCE_SUFFIXES:
        return []
    rel = relpath(path)
    if not rel.startswith("src/"):
        return []
    stem = path.stem
    for i, line in enumerate(lines):
        m = INCLUDE_RE.match(line)
        if not m:
            if line.lstrip().startswith("#include"):
                # First include is <system>: fine only if the TU has no own
                # header (mains); keep permissive and stop scanning.
                return []
            continue
        first = m.group(1)
        if allowed(lines, i, "include-order"):
            return []
        if Path(first).stem == stem:
            return []
        own_header = Path(rel).with_suffix(".h")
        if not (REPO_ROOT / own_header).exists():
            return []  # no paired header (e.g. a main)
        return [Finding(
            path, i + 1, "include-order",
            f'first include must be the TU\'s own header ("{stem}.h"), '
            f'found "{first}"', line)]
    return []


def check_naked_new(path: Path, lines: list[str]) -> list[Finding]:
    rel = relpath(path)
    if not rel.startswith("src/"):
        return []  # tests/bench may allocate for gtest environments etc.
    findings = []
    for i, line in enumerate(lines):
        code = strip_strings_and_comments(line)
        if not NAKED_NEW_RE.search(code):
            continue
        if "placement" in line or "make_shared" in code or "make_unique" in code:
            continue
        if allowed(lines, i, "naked-new"):
            continue
        findings.append(Finding(
            path, i + 1, "naked-new",
            "naked `new` outside a factory; own memory via containers, "
            "make_unique or make_shared", line))
    return findings


def check_durability(path: Path, lines: list[str]) -> list[Finding]:
    rel = relpath(path)
    if not rel.startswith("src/"):
        return []  # tests may fsync scratch files without a contract
    findings = []
    for i, line in enumerate(lines):
        code = strip_strings_and_comments(line)
        if not FSYNC_CALL_RE.search(code):
            continue
        if allowed(lines, i, "durability"):
            continue
        window = lines[max(0, i - DURABILITY_LOOKBACK):i + 1]
        if any(DURABILITY_COMMENT_RE.search(w) for w in window):
            continue
        findings.append(Finding(
            path, i + 1, "durability",
            "fsync/fdatasync call site needs a `// durability:` comment "
            "stating the crash-consistency contract it upholds", line))
    return findings


SIMD_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|[a-z]+mmintrin|avx\w*intrin)\.h>")
SIMD_INTRINSIC_RE = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[di]?\b|\b__mmask\d+\b")
SIMD_HOME = "src/core/simd/"


def check_simd_isolation(path: Path, lines: list[str]) -> list[Finding]:
    if relpath(path).startswith(SIMD_HOME):
        return []
    findings = []
    for i, line in enumerate(lines):
        code = strip_strings_and_comments(line)
        if not (SIMD_INCLUDE_RE.search(code) or SIMD_INTRINSIC_RE.search(code)):
            continue
        if allowed(lines, i, "simd-isolation"):
            continue
        findings.append(Finding(
            path, i + 1, "simd-isolation",
            "x86 vector intrinsics outside src/core/simd/ — use the kernel "
            "table (core/simd/kernels.h) so the portable build stays "
            "ISA-free", line))
    return findings


CHECKS = (
    check_sync_comments,
    check_parallel_hot,
    check_metrics_hot,
    check_banned,
    check_header_guard,
    check_include_order,
    check_naked_new,
    check_durability,
    check_simd_isolation,
)


def lint_file(path: Path) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        print(f"fsim-lint: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    lines = text.splitlines()
    findings = []
    for check in CHECKS:
        findings.extend(check(path, lines))
    return findings


def collect_files(paths: list[str]) -> list[Path]:
    if paths:
        out = []
        for p in paths:
            path = Path(p)
            if not path.is_absolute():
                path = REPO_ROOT / path
            if path.is_dir():
                for suffix in HEADER_SUFFIXES | SOURCE_SUFFIXES:
                    out.extend(sorted(path.rglob(f"*{suffix}")))
            elif path.exists():
                out.append(path)
            else:
                print(f"fsim-lint: no such file: {p}", file=sys.stderr)
                sys.exit(2)
        return out
    out = []
    for top in LINT_DIRS:
        root = REPO_ROOT / top
        if not root.is_dir():
            continue
        for suffix in HEADER_SUFFIXES | SOURCE_SUFFIXES:
            out.extend(sorted(root.rglob(f"*{suffix}")))
    return out


def load_baseline() -> dict[str, int]:
    if not BASELINE_PATH.exists():
        return {}
    try:
        data = json.loads(BASELINE_PATH.read_text())
    except json.JSONDecodeError as e:
        print(f"fsim-lint: malformed baseline {BASELINE_PATH}: {e}",
              file=sys.stderr)
        sys.exit(2)
    return {str(k): int(v) for k, v in data.get("findings", {}).items()}


def save_baseline(findings: list[Finding]) -> None:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.key()] = counts.get(f.key(), 0) + 1
    payload = {
        "comment": "fsim-lint grandfathered findings; regenerate with "
                   "scripts/fsim_lint.py --update-baseline",
        "findings": dict(sorted(counts.items())),
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: the lint roots)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline to the current findings")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report baselined findings as errors too")
    args = parser.parse_args(argv)

    findings: list[Finding] = []
    for path in collect_files(args.paths):
        findings.extend(lint_file(path))

    if args.update_baseline:
        save_baseline(findings)
        print(f"fsim-lint: baseline updated with {len(findings)} finding(s)")
        return 0

    baseline = {} if args.no_baseline else load_baseline()
    remaining = dict(baseline)
    new: list[Finding] = []
    for f in findings:
        if remaining.get(f.key(), 0) > 0:
            remaining[f.key()] -= 1
        else:
            new.append(f)

    for f in new:
        print(f)
    if new:
        print(f"fsim-lint: {len(new)} new violation(s) "
              f"({len(findings) - len(new)} baselined)", file=sys.stderr)
        return 1
    print(f"fsim-lint: clean ({len(findings)} baselined finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
