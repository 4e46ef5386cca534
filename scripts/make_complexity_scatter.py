#!/usr/bin/env python3
"""Emit the op-count vs domain-range scatter rows for the builtin catalog.

Writes a CSV suitable for external plotting and prints per-set medians.

Example:
    python scripts/make_complexity_scatter.py --out /tmp/scatter.csv
"""

import argparse
import contextlib
import io
import json
import statistics

from srsdkit.catalog import BUILTIN_SETS
from srsdkit.cli import main as cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    # The command writes the CSV and prints the same rows as JSON.
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli(["complexity", "--out", args.out])
    if code != 0:
        raise SystemExit(code)
    rows = json.loads(report.getvalue())["rows"]

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
