#!/usr/bin/env python3
"""Desk-scale benchmark run: generate the easy set, fit the GP baseline with
a handful of seeds, select per-problem models on validation rows, and print
the accuracy / solution-rate / mean-NED table.

Example:
    python scripts/run_easy_benchmark.py --workdir /tmp/easy-run --rows 2000 --seeds 5
"""

import argparse
import sys
from pathlib import Path

from srsdkit import datagen, evalkit, gp


def show(payload: dict) -> None:
    """Print ``payload`` as the ``srsdkit`` command of the same call does."""
    sys.stdout.write(datagen.json_text(payload))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--set", default="easy", choices=("easy", "medium", "hard", "all"))
    ap.add_argument("--rows", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--gp-config", default=None)
    args = ap.parse_args()

    work = Path(args.workdir)
    data = work / "data"
    preds = work / "preds"
    report_path = work / "report.json"

    show(datagen.generate(data, set_name=args.set, rows=args.rows, seed=args.seed,
                          noise_level=args.noise, workers=args.workers))
    config = gp.read_config(args.gp_config, args.seed)
    show(gp.discover(data, preds, config, seeds=args.seeds, workers=args.workers))
    payload = evalkit.eval_report(preds, data)
    report_path.write_text(datagen.json_text(payload), encoding="utf-8")
    show(payload)

    print()
    print(f"{'set':<8} {'n':>4} {'accuracy':>9} {'solution':>9} {'mean NED':>9}")
    for name, s in payload["summary"].items():
        print(f"{name:<8} {s['count']:>4} {s['accuracy_rate']:>9.3f} "
              f"{s['solution_rate']:>9.3f} {s['mean_normalized_edit_distance']:>9.3f}")
    if payload["skipped"]:
        print(f"skipped (no viable candidate): {', '.join(payload['skipped'])}")
    print(f"full report: {report_path}")


if __name__ == "__main__":
    try:
        main()
    except datagen.ArgumentError as err:  # a refused flag value, named by its parameter
        sys.exit(f"usage error: {err}")
