#!/usr/bin/env python3
"""Appends one compact JSONL record summarizing a bench run to BENCH_history.jsonl.

CI calls this after bench_fsim / exp_incremental so the perf trajectory is
visible per PR directly in the committed history file, without downloading
the artifact zips. Each line holds the headline numbers only (phase seconds
per engine path and per-edit milliseconds per stream); the full records stay
in the uploaded BENCH_*.json artifacts.

Usage:
  append_bench_history.py --label <sha> [--fsim BENCH_fsim.json]
      [--incremental BENCH_incremental.json] [--serve BENCH_serve.json]
      [--out BENCH_history.jsonl]
"""

import argparse
import json
import sys


def fsim_summary(runs):
    """{name: {build, iterate, iters, num_threads}} keeping floats short.

    num_threads rides along on every entry (informational to the gate) so a
    history line can never be compared against a run at a different thread
    count: multi-thread runs carry distinct "/tN"-suffixed names AND record
    the count explicitly for human readers of the history file.
    """
    return {
        name: {
            "build_s": round(r["build_seconds"], 4),
            "iterate_s": round(r["iterate_seconds"], 4),
            "iters": r["iterations"],
            "num_threads": r.get("num_threads", 1),
        }
        for name, r in runs.items()
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True,
                        help="run label, e.g. the commit SHA")
    parser.add_argument("--fsim", default="BENCH_fsim.json")
    parser.add_argument("--incremental", default="BENCH_incremental.json")
    parser.add_argument("--serve", default="BENCH_serve.json")
    parser.add_argument("--out", default="BENCH_history.jsonl")
    args = parser.parse_args()

    record = {"label": args.label}
    try:
        with open(args.fsim) as f:
            fsim = json.load(f)
        record["fsim"] = fsim_summary(fsim.get("runs", {}))
        # The θ = 0 tile-panel timings. Older lines carry θ = 1 dense-engine
        # timings under "dense"/"simd"; the new keys start fresh series.
        if fsim.get("theta0"):
            record["theta0"] = fsim_summary(fsim["theta0"])
        # The "simd_theta0" section is already compact (per-variant
        # scalar-vs-vector iterate seconds and speedups from bench_fsim's
        # min-of-N sweep); fold it through as-is so the gate tracks the
        # `*_s` time series.
        if fsim.get("simd_theta0"):
            record["simd_theta0"] = fsim["simd_theta0"]
    except OSError as e:
        print(f"warning: skipping fsim summary: {e}", file=sys.stderr)
    try:
        with open(args.incremental) as f:
            streams = json.load(f).get("streams", {})
        record["incremental"] = {
            name: {
                "median_edit_ms": round(s["median_edit_ms"], 3),
                "avg_propagate_ms": round(s["avg_propagate_ms"], 3),
                "index_bytes": s.get("index_bytes"),
                "num_threads": s.get("num_threads", 1),
            }
            for name, s in streams.items()
        }
    except OSError as e:
        print(f"warning: skipping incremental summary: {e}", file=sys.stderr)
    try:
        with open(args.serve) as f:
            serve = json.load(f).get("serve", {})
        qps = serve.get("pair_qps", {})
        topk = serve.get("topk", {})
        refresh = serve.get("refresh", {})
        record["serve"] = {
            "pair_qps_1t": round(qps.get("threads_1", 0.0)),
            "pair_qps_8t": round(qps.get("threads_8", 0.0)),
            "topk_cached_us": round(topk.get("cached_us", 0.0), 3),
            "topk_heap_us": round(topk.get("heap_select_us", 0.0), 3),
            "median_publish_ms": round(refresh.get("median_publish_ms", 0.0), 3),
            "median_flush_ms": round(refresh.get("median_flush_ms", 0.0), 3),
        }
        # Pooled batch throughput: keyed per thread count ("..._Nt") so the
        # gate's rolling medians never mix runs at different counts.
        for threads_key, value in serve.get("batch_qps", {}).items():
            n = threads_key.rsplit("_", 1)[-1]
            record["serve"][f"batch_qps_{n}t"] = round(value)
        # Closed-loop per-verb latency quantiles (pair_p50_us, pair_p99_us,
        # ...). p50/p99 gate lower-is-better; *_max_us is informational.
        for key, value in serve.get("latency", {}).items():
            record["serve"][key] = round(value, 3)
    except OSError as e:
        print(f"warning: skipping serve summary: {e}", file=sys.stderr)

    line = json.dumps(record, separators=(",", ":"), sort_keys=True)
    with open(args.out, "a") as f:
        f.write(line + "\n")
    print(line)


if __name__ == "__main__":
    main()
