#!/usr/bin/env python3
"""Regression gate over the committed BENCH_history.jsonl.

Compares the newest history line (the current run, appended by
append_bench_history.py) against the rolling median of the preceding lines,
metric by metric. A tracked metric that regresses by more than --threshold
(default 20%) fails the gate with exit code 1; CI runs this right after the
append step so a PR that slows a tracked path down is flagged on the spot.

Tracked metrics are every numeric leaf of the summary record, addressed by
dotted path (e.g. "fsim.s/indexed.iterate_s"). Direction is inferred from
the name: *_qps counters are higher-is-better, iteration counts ("iters"),
thread counts ("num_threads"), ratio-style leaves ("*_fraction") and
single-worst-sample latencies ("*_max_us") are informational only
(skipped), everything else (seconds, ms, us) is lower-is-better — which
automatically covers the serve per-verb p50/p99 latency leaves. Metrics need at least --min-history prior samples before
they gate, so freshly added benchmarks ride along without failing; metrics
that disappear from the current line are ignored (benchmarks can be
retired).

Thread counts never mix: multi-thread runs carry "/tN"-suffixed metric
names (fsim / incremental) or "_Nt" keys (serve), so each
(metric, thread count) pair forms its own rolling-median series, and the
per-entry "num_threads" leaf is skipped rather than gated. A CI runner
whose core count changes therefore starts fresh series instead of
comparing a 4-thread run against 1-thread medians.

The "simd_theta0.<variant>.<level>_t<N>_s" leaves (scalar-vs-vectorized
θ = 0 tile-panel iterate of ComputeFSim, bench_fsim's min-of-N sweep) gate
as ordinary lower-is-better series; the derived "speedup_*" ratios are
informational, since each one is the quotient of two already-gated times.
The "theta0.*" and "simd_theta0.*" series replace the "dense.*" and
"simd.*" ones of older lines, which timed a separate dense engine at
θ = 1: new keys, so no θ = 0 time is ever compared against a θ = 1 median.

Engine series: "fsim.<variant>/indexed.iterate_s" times the default engine,
which runs full sweeps over the CSR index (it timed the exact active set
while that mode existed, which was bit-identical to full sweeps and within
noise of them), and "fsim.<variant>/tol.iterate_s" times tolerance-mode
frontiers (frontier_tolerance = epsilon/10). Older lines also carry
"fsim.<variant>/fullsweep.*", a duplicate of "indexed" that is no longer
written; like any retired metric it is ignored once absent.

A malformed history line (truncated write, merge droppings) fails loudly
with exit code 2 and the offending line number, instead of the former
uncaught json.JSONDecodeError traceback; --self-test exercises the gate and
the malformed-line handling against synthetic histories, so CI can verify
the gate itself before trusting it.

Usage:
  check_bench_history.py [--history BENCH_history.jsonl] [--threshold 0.2]
      [--window 10] [--min-history 3] [--self-test]
"""

import argparse
import json
import os
import statistics
import sys
import tempfile


def numeric_leaves(record, prefix=""):
    """Yields (dotted_path, value) for every numeric leaf of a JSON dict."""
    for key, value in record.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from numeric_leaves(value, path)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path, float(value)


def is_informational(path):
    leaf = path.rsplit(".", 1)[-1]
    # *_max_us latency leaves are a single worst sample (one scheduler stall
    # inflates them 1000x), so they are recorded but never gated; the p50/p99
    # quantile leaves gate through the default lower-is-better rule.
    # speedup_* ratios (the simd_theta0 section) are derived from two gated
    # time series; gating the ratio too would double-count one noisy sample.
    return (leaf == "iters" or leaf == "num_threads"
            or leaf.endswith("_fraction") or leaf.endswith("_max_us")
            or leaf.startswith("speedup_"))


def higher_is_better(path):
    return "qps" in path.rsplit(".", 1)[-1]


def load_history(path):
    """Parses the JSONL history. Returns (records, error): on a malformed
    line, error names the line number and the parse failure."""
    records = []
    try:
        with open(path) as f:
            for line_no, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as e:
                    return None, (f"{path}:{line_no}: malformed history line "
                                  f"({e}); fix or remove it before gating")
    except OSError as e:
        return [], f"unreadable: {e}"
    return records, None


def run_gate(args):
    lines, error = load_history(args.history)
    if lines is None:
        print(f"bench gate: ERROR: {error}", file=sys.stderr)
        return 2
    if error is not None:
        print(f"bench gate: no history to check ({error}); passing")
        return 0
    if len(lines) < 2:
        print("bench gate: fewer than 2 history lines; passing")
        return 0

    current = lines[-1]
    baseline_lines = lines[-(args.window + 1):-1]
    baseline = {}
    for line in baseline_lines:
        for path, value in numeric_leaves(
                {k: v for k, v in line.items() if k != "label"}):
            baseline.setdefault(path, []).append(value)

    failures = []
    checked = 0
    for path, value in numeric_leaves(
            {k: v for k, v in current.items() if k != "label"}):
        if is_informational(path):
            continue
        samples = baseline.get(path, [])
        if len(samples) < args.min_history:
            continue
        median = statistics.median(samples)
        if median == 0:
            continue
        checked += 1
        if higher_is_better(path):
            ratio = value / median
            regressed = ratio < 1.0 - args.threshold
            verdict = f"{ratio:.2f}x of median {median:g}"
        else:
            ratio = value / median
            regressed = ratio > 1.0 + args.threshold
            verdict = f"{ratio:.2f}x of median {median:g}"
        if regressed:
            failures.append(f"  {path}: {value:g} is {verdict} "
                            f"over the last {len(samples)} runs")

    label = current.get("label", "?")
    if failures:
        print(f"bench gate: FAIL for '{label}' "
              f"({len(failures)} of {checked} gated metrics regressed "
              f"> {args.threshold:.0%}):")
        print("\n".join(failures))
        return 1
    print(f"bench gate: OK for '{label}' ({checked} metrics within "
          f"{args.threshold:.0%} of their rolling medians)")
    return 0


def self_test():
    """End-to-end checks of the gate against synthetic histories. Exit 0 iff
    all behaviors (pass, regression, malformed line) hold."""
    def gate_on(lines_text, **overrides):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            f.write(lines_text)
            path = f.name
        try:
            args = argparse.Namespace(history=path, threshold=0.2, window=10,
                                      min_history=3, **overrides)
            return run_gate(args)
        finally:
            os.unlink(path)

    steady = "\n".join(
        json.dumps({"label": f"r{i}", "fsim": {"iterate_s": 1.0}})
        for i in range(5)) + "\n"
    regressed = "\n".join(
        json.dumps({"label": f"r{i}", "fsim": {"iterate_s": 1.0}})
        for i in range(4))
    regressed += "\n" + json.dumps(
        {"label": "slow", "fsim": {"iterate_s": 2.0}}) + "\n"
    malformed = steady + "{not json\n"

    checks = [
        ("steady history passes", gate_on(steady), 0),
        ("25% regression fails", gate_on(regressed), 1),
        ("malformed line exits 2", gate_on(malformed), 2),
        ("missing file passes", run_gate(argparse.Namespace(
            history="/nonexistent/bench.jsonl", threshold=0.2, window=10,
            min_history=3)), 0),
    ]
    failures = 0
    for name, got, want in checks:
        ok = got == want
        failures += 0 if ok else 1
        print(f"self-test: {'PASS' if ok else 'FAIL'} {name} "
              f"(exit {got}, want {want})")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--history", default="BENCH_history.jsonl")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="relative regression that fails the gate")
    parser.add_argument("--window", type=int, default=10,
                        help="prior lines forming the rolling baseline")
    parser.add_argument("--min-history", type=int, default=3,
                        help="prior samples a metric needs before it gates")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate against synthetic histories")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
