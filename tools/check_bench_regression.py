#!/usr/bin/env python3
"""Soft perf-regression guard for the BENCH_*.json benches.

Compares a freshly produced bench JSON against the committed baseline of the
same bench and emits GitHub Actions annotations: a ::warning:: for every
metric that dropped by more than the threshold, a ::notice:: when the two
files describe different workloads (the committed baselines are full-scale
runs; CI produces --quick runs).

Metrics are compared in two tiers:

* Dimensionless ratios (speedup*, *reduction) transfer across workload
  scales, so they are compared even when the workloads differ — except when
  the baseline value is too small for a relative drop to mean anything
  (< 0.05), or when `rounds` differs (a repeated-workload bench's speedup
  scales with its hit rate, which is a function of the replay count).
* Workload-shaped metrics — absolute throughput (qps_*) and hit rates
  (a function of how often the workload repeats) — are compared only when
  every workload-describing field matches.

Perf comparisons never fail the build: shared-runner noise would make a
hard gate flap. Structural problems DO fail it (exit 2): a missing or
unparsable JSON on either side (a broken bench or a forgotten baseline) and
a schema_version mismatch (the field conventions changed without
re-committing the baseline — every subsequent comparison would be
silently meaningless).

Usage: check_bench_regression.py --fresh NEW.json --baseline OLD.json \
           [--threshold 0.20]
"""

import argparse
import json
import sys

# Fields that define the workload; any difference makes absolute qps
# incomparable. Everything else is either a metric or provenance.
WORKLOAD_FIELDS = (
    "dataset",
    "samples_per_object",
    "queries",
    "rounds",
    "k",
    "length_fraction",
    "eager_completion",
    "repeats",
    "cache_nodes",
    "cache_entries",
    "policy",
    "seed",
    "hardware_threads",
)

# Ratios below this are measurement noise; a relative drop says nothing.
MIN_COMPARABLE_RATIO = 0.05

# Ratio metrics stop being scale-free when these fields differ: a
# repeated-workload speedup is a function of the cache hit rate, which is
# set by how often the workload replays.
RATIO_SHAPING_FIELDS = ("rounds",)


def is_ratio_metric(name):
    return (name.startswith("speedup") or name.endswith("reduction")
            or name.endswith("_ratio"))


def is_workload_shaped_metric(name):
    # The index-quality ratios (node accesses / cold reads, quadratic over
    # R*) depend on tree height and fanout utilisation, which change with
    # dataset cardinality — a --quick S0200 ratio is not the committed
    # S1000 baseline's, so they are only gated at matching scale.
    return (name.startswith("qps_") or name.endswith("hit_rate")
            or name in ("node_access_ratio", "cold_read_ratio"))


def load(path, role):
    """Loads one side of the comparison; any failure is a hard error.

    `role` names the side ("fresh"/"baseline") so the annotation says
    whether the bench broke or the baseline was never committed.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        print(f"::error file={path}::{role} bench JSON is missing — "
              "run the bench and commit its full-scale baseline")
        sys.exit(2)
    except (OSError, ValueError) as err:
        print(f"::error file={path}::cannot read {role} bench JSON: {err}")
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True,
                        help="JSON the CI run just produced")
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json to compare against")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative drop that triggers a warning")
    args = parser.parse_args()

    fresh = load(args.fresh, "fresh")
    baseline = load(args.baseline, "baseline")
    name = args.baseline

    schema_old = baseline.get("schema_version")
    schema_new = fresh.get("schema_version")
    if schema_old != schema_new:
        print(f"::error file={name}::schema_version mismatch "
              f"(baseline {schema_old}, fresh {schema_new}); the bench's "
              "field conventions changed — re-commit the baseline from a "
              "full-scale run before comparisons mean anything")
        sys.exit(2)

    mismatched = [
        f for f in WORKLOAD_FIELDS
        if f in baseline and baseline.get(f) != fresh.get(f)
    ]
    if mismatched:
        print(f"::notice file={name}::workload differs from the committed "
              f"baseline ({', '.join(mismatched)}); absolute qps not "
              "compared, ratio metrics still checked")
    ratio_mismatched = [
        f for f in RATIO_SHAPING_FIELDS
        if f in baseline and baseline.get(f) != fresh.get(f)
    ]
    if ratio_mismatched:
        print(f"::notice file={name}::replay count differs "
              f"({', '.join(ratio_mismatched)}); hit-rate-driven ratio "
              "metrics not compared")

    warnings = 0
    checked = 0
    for field, old in sorted(baseline.items()):
        if not isinstance(old, (int, float)) or isinstance(old, bool):
            continue
        if not (is_ratio_metric(field) or is_workload_shaped_metric(field)):
            continue
        if is_workload_shaped_metric(field) and mismatched:
            continue
        if is_ratio_metric(field) and (ratio_mismatched or
                                       old < MIN_COMPARABLE_RATIO):
            continue
        new = fresh.get(field)
        if not isinstance(new, (int, float)) or old <= 0:
            continue
        checked += 1
        drop = (old - new) / old
        if drop > args.threshold:
            warnings += 1
            print(f"::warning file={name}::{field} dropped "
                  f"{100 * drop:.1f}% vs baseline "
                  f"({old:g} -> {new:g}); soft guard, not failing the build")
        else:
            print(f"   ok {field}: {old:g} -> {new:g}")

    print(f"{name}: {checked} metrics checked, {warnings} above the "
          f"{100 * args.threshold:.0f}% drop threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
