#!/usr/bin/env python3
"""Validates a Prometheus text-format exposition (stdlib only).

Reads the exposition from a file (or stdin with "-") and checks:

  * syntax — every non-comment line is `name{labels} value` with a float
    value; label values are properly quoted; `# TYPE` appears at most once
    per family and precedes its samples,
  * histogram shape — every `# TYPE <f> histogram` family has _bucket,
    _sum and _count series per label set, bucket `le` thresholds parse and
    ascend, cumulative bucket counts are non-decreasing and the `+Inf`
    bucket equals _count,
  * coverage — the families the serving stack is expected to export are
    present (--require-serve adds the WAL families, which only register
    once a --wal-dir serve run touches the log).

This is the CI contract for the METRICS verb and `fsim_cli --metrics`: a
scrape that Prometheus would reject, or a refactor that silently drops a
family, fails the smoke step (exit 1) with the offending line.

With --from-serve-output the input is a full serve-session transcript
instead: the script locates the `METRICS <nlines>` frame, checks the
advertised line count against the payload, and validates the payload.

Usage:
  check_metrics_exposition.py [exposition.txt|-] [--require-serve]
      [--from-serve-output]
"""

from __future__ import annotations

import argparse
import re
import sys

# Families every process exports once the serving stack has handled at
# least one query and published once.
BASE_FAMILIES = [
    "fsim_serve_query_seconds",
    "fsim_refresh_queue_depth",
    "fsim_refresh_edits_total",
    "fsim_publish_age_seconds",
    "fsim_snapshot_pin_refreshes_total",
    "fsim_scheduler_regions_total",
]

# Families that additionally appear when the serve run logs to a WAL.
SERVE_WAL_FAMILIES = [
    "fsim_wal_append_seconds",
    "fsim_wal_fsync_seconds",
    "fsim_wal_group_commits_total",
    "fsim_wal_pending",
]

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$")
LABEL_RE = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def parse_value(text):
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)  # raises ValueError on garbage


def parse_labels(raw):
    """Splits a label block on unescaped-quote-aware commas; returns an
    ordered dict or None on malformed input."""
    labels = {}
    if raw is None or raw == "":
        return labels
    parts = []
    depth_in_quotes = False
    current = []
    i = 0
    while i < len(raw):
        c = raw[i]
        if c == "\\" and depth_in_quotes:
            current.append(raw[i:i + 2])
            i += 2
            continue
        if c == '"':
            depth_in_quotes = not depth_in_quotes
        if c == "," and not depth_in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(c)
        i += 1
    parts.append("".join(current))
    for part in parts:
        m = LABEL_RE.match(part)
        if not m:
            return None
        labels[m.group("key")] = m.group("value")
    return labels


def family_of(sample_name, histogram_families):
    """Maps a sample name to its family (strips _bucket/_sum/_count for
    known histogram families)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if base in histogram_families:
                return base
    return sample_name


def check(text):
    """Returns a list of error strings (empty = valid)."""
    errors = []
    types = {}          # family -> type
    samples = []        # (line_no, name, labels-dict, value)
    seen_families = set()

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                errors.append(f"line {line_no}: malformed TYPE line: {line}")
                continue
            family = parts[2]
            if family in types:
                errors.append(f"line {line_no}: duplicate TYPE for {family}")
            types[family] = parts[3]
            continue
        if line.startswith("# HELP "):
            if len(line.split(None, 3)) < 4:
                errors.append(f"line {line_no}: malformed HELP line: {line}")
            continue
        if line.startswith("#"):
            continue  # other comments are legal
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {line_no}: unparseable sample: {line}")
            continue
        labels = parse_labels(m.group("labels"))
        if labels is None:
            errors.append(f"line {line_no}: malformed label block: {line}")
            continue
        try:
            value = parse_value(m.group("value"))
        except ValueError:
            errors.append(f"line {line_no}: non-numeric value: {line}")
            continue
        samples.append((line_no, m.group("name"), labels, value))

    histogram_families = {f for f, t in types.items() if t == "histogram"}
    for line_no, name, labels, _ in samples:
        family = family_of(name, histogram_families)
        seen_families.add(family)
        if family not in types:
            errors.append(f"line {line_no}: sample {name} has no TYPE line")

    # Histogram shape: per (family, non-le labels) series.
    for family in sorted(histogram_families):
        series = {}
        for _, name, labels, value in samples:
            if family_of(name, histogram_families) != family:
                continue
            key = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"))
            entry = series.setdefault(key, {"buckets": [], "sum": None,
                                            "count": None})
            if name == family + "_bucket":
                if "le" not in labels:
                    errors.append(f"{family}_bucket missing le label")
                    continue
                try:
                    entry["buckets"].append((parse_value(labels["le"]),
                                             value))
                except ValueError:
                    errors.append(
                        f"{family}_bucket has unparseable le="
                        f"{labels['le']!r}")
            elif name == family + "_sum":
                entry["sum"] = value
            elif name == family + "_count":
                entry["count"] = value
        if not series:
            errors.append(f"histogram {family} has a TYPE line but no "
                          "samples")
        for key, entry in series.items():
            where = f"{family}{dict(key) if key else ''}"
            if entry["sum"] is None or entry["count"] is None:
                errors.append(f"{where}: missing _sum or _count")
                continue
            if not entry["buckets"]:
                errors.append(f"{where}: no _bucket samples")
                continue
            buckets = sorted(entry["buckets"], key=lambda b: b[0])
            last = -1.0
            for le, cumulative in buckets:
                if cumulative < last:
                    errors.append(f"{where}: bucket le={le} count "
                                  f"{cumulative} decreases")
                last = cumulative
            if buckets[-1][0] != float("inf"):
                errors.append(f"{where}: missing +Inf bucket")
            elif buckets[-1][1] != entry["count"]:
                errors.append(f"{where}: +Inf bucket {buckets[-1][1]} != "
                              f"_count {entry['count']}")
    return errors, seen_families


def extract_from_serve_output(text):
    """Pulls the `METRICS <nlines>` framed payload out of a serve-session
    transcript. Returns (payload, error)."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("METRICS "):
            continue
        try:
            nlines = int(line.split()[1])
        except (IndexError, ValueError):
            return None, f"malformed METRICS frame header: {line!r}"
        payload = lines[i + 1:i + 1 + nlines]
        if len(payload) != nlines:
            return None, (f"METRICS advertised {nlines} lines but only "
                          f"{len(payload)} follow")
        return "\n".join(payload) + "\n", None
    return None, "no METRICS frame in serve output"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("exposition", nargs="?", default="-",
                        help="exposition file, or - for stdin")
    parser.add_argument("--require-serve", action="store_true",
                        help="also require the WAL families a --wal-dir "
                             "serve run exports")
    parser.add_argument("--from-serve-output", action="store_true",
                        help="input is a serve-session transcript; extract "
                             "the METRICS <nlines> frame first")
    args = parser.parse_args()

    if args.exposition == "-":
        text = sys.stdin.read()
    else:
        with open(args.exposition) as f:
            text = f.read()
    if args.from_serve_output:
        text, frame_error = extract_from_serve_output(text)
        if frame_error:
            print(f"metrics exposition: {frame_error}", file=sys.stderr)
            return 1

    errors, seen = check(text)
    required = list(BASE_FAMILIES)
    if args.require_serve:
        required += SERVE_WAL_FAMILIES
    for family in required:
        if family not in seen:
            errors.append(f"required family missing: {family}")

    if errors:
        print(f"metrics exposition: {len(errors)} error(s):",
              file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"metrics exposition: OK ({len(seen)} families, "
          f"{len(required)} required present)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
