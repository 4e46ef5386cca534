#!/usr/bin/env python3
"""Emit the op-count vs domain-range scatter rows for the builtin catalog.

Writes a CSV suitable for external plotting and prints per-set medians.

Example:
    python scripts/make_complexity_scatter.py --out /tmp/scatter.csv
"""

import argparse
import statistics
from pathlib import Path

from srsdkit.catalog import BUILTIN_SETS, builtin_problems, emit_scatter, scatter_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    rows = emit_scatter(builtin_problems())
    Path(args.out).write_text(scatter_csv(rows), encoding="utf-8")

    for set_name in BUILTIN_SETS:
        group = [r for r in rows if r["set"] == set_name]
        ops = [r["op_count"] for r in group]
        ranges = [r["domain_range"] for r in group if r["domain_range"] is not None]
        print(
            f"{set_name:<8} n={len(group):<3} median ops={statistics.median(ops):.1f} "
            f"median domain range={statistics.median(ranges):.2f}"
        )
    print(f"csv: {args.out}")


if __name__ == "__main__":
    main()
