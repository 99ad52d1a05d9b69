#!/usr/bin/env python3
"""Gate Fig 4's modeled times on not depending on the loaded scale factor.

The benches generate TPC-H at a small loaded SF and scale every modeled
charge by data_scale = modeled SF / loaded SF, so the reported SF-100
numbers should come out the same whatever SF was loaded. This gate
compares two BENCH_fig4.json runs taken at different loaded SFs:

  * both report the same modeled SF and the same 22 queries;
  * each query's Sirius and DuckDB modeled times agree within 1.25x;
  * the Sirius-vs-DuckDB geomean speedup agrees within 2%.

ClickHouse's times are not compared: they are known to grow with the
loaded SF.

Standard library only. Typical use (scripts/check.sh's bench-gate stage):

  SIRIUS_BENCH_JSON_DIR=lo build/bench/bench_fig4_tpch_single_node
  SIRIUS_SF=0.1 SIRIUS_BENCH_JSON_DIR=hi build/bench/bench_fig4_tpch_single_node
  python3 scripts/scale_gate.py --low lo --high hi
"""

import argparse
import json
import os
import sys

QUERY_RATIO = 1.25
GEOMEAN_TOLERANCE = 0.02
GATED_TIMES = ("sirius_ms", "duckdb_ms")


def load(directory: str) -> dict:
    with open(os.path.join(directory, "BENCH_fig4.json")) as f:
        return json.load(f)


def spreads(low: dict, high: dict, key: str) -> list:
    """(ratio, query, low value, high value) for every query in both runs."""
    high_rows = {r["query"]: r for r in high["rows"]}
    out = []
    for r in low["rows"]:
        if r["query"] in high_rows:
            a, b = r[key], high_rows[r["query"]][key]
            out.append((max(a, b) / max(min(a, b), 1e-12), r["query"], a, b))
    return out


def compare(low: dict, high: dict) -> list:
    """Returns one human-readable line per violated check."""
    errors = []
    if low["modeled_sf"] != high["modeled_sf"]:
        errors.append(f"modeled_sf {low['modeled_sf']} vs {high['modeled_sf']}")
    for name, run in (("low", low), ("high", high)):
        queries = sorted(r["query"] for r in run["rows"])
        if queries != list(range(1, 23)):
            errors.append(f"{name} run reports queries {queries}, not Q1-Q22")
    for key in GATED_TIMES:
        for ratio, q, a, b in spreads(low, high, key):
            if ratio > QUERY_RATIO:
                errors.append(f"Q{q} {key}: {a:.1f} -> {b:.1f} "
                              f"({ratio:.3f}x > {QUERY_RATIO}x)")
    a = low["meta"]["geomean_speedup_vs_duckdb"]
    b = high["meta"]["geomean_speedup_vs_duckdb"]
    rel = abs(a - b) / max(abs(a), 1e-12)
    if rel > GEOMEAN_TOLERANCE:
        errors.append(f"geomean_speedup_vs_duckdb: {a:.3f}x -> {b:.3f}x "
                      f"({rel * 100:.1f}% > {GEOMEAN_TOLERANCE * 100:.0f}%)")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_fig4.json runs at different loaded SFs.")
    parser.add_argument("--low", required=True,
                        help="directory holding BENCH_fig4.json at one loaded SF")
    parser.add_argument("--high", required=True,
                        help="directory holding BENCH_fig4.json at another")
    args = parser.parse_args()

    low, high = load(args.low), load(args.high)
    print(f"loaded SF {low['loaded_sf']} vs {high['loaded_sf']} "
          f"(modeled SF {low['modeled_sf']})")
    for key in GATED_TIMES:
        ratio, q, _, _ = max(spreads(low, high, key), default=(1.0, 0, 0, 0))
        print(f"  worst {key:<10} spread: {ratio:.3f}x (Q{q})")
    print(f"  geomean_speedup_vs_duckdb: "
          f"{low['meta']['geomean_speedup_vs_duckdb']:.2f}x -> "
          f"{high['meta']['geomean_speedup_vs_duckdb']:.2f}x")

    errors = compare(low, high)
    if errors:
        for e in errors[:30]:
            print(f"    {e}")
        if len(errors) > 30:
            print(f"    ... and {len(errors) - 30} more")
        print("\nscale gate FAILED: modeled Fig 4 times depend on the loaded "
              "scale factor", file=sys.stderr)
        return 1
    print(f"\nscale gate passed (per-query within {QUERY_RATIO}x, geomean "
          f"within {GEOMEAN_TOLERANCE * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
