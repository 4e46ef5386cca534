#!/usr/bin/env python3
"""Build a synthetic pretraining-style corpus and check it for leakage
against a generated benchmark data directory.

Example:
    python scripts/build_pretraining_corpus.py --out /tmp/corpus --n 200 \
        --benchmark /tmp/easy-run/data
"""

import argparse
import sys
from pathlib import Path

from srsdkit import datagen, synthgen


def show(payload: dict) -> None:
    """Print ``payload`` as the ``srsdkit`` command of the same call does."""
    sys.stdout.write(datagen.json_text(payload))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--n", type=int, default=100, help="number of equations")
    ap.add_argument("--rows", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-tokens", type=int, default=32)
    ap.add_argument("--benchmark", default=None,
                    help="data directory to leak-check the corpus against")
    args = ap.parse_args()

    manifest = synthgen.synth(args.out, args.n, seed=args.seed, rows=args.rows,
                              max_tokens=args.max_tokens)
    show(manifest)
    n_datasets = sum(
        1 for e in manifest["equations"] for d in e["datasets"] if d["status"] == "ok"
    )
    print(f"equations: {len(manifest['equations'])}, datasets: {n_datasets}")

    if args.benchmark:
        payload = synthgen.leakcheck_report(args.out, args.benchmark)
        (Path(args.out) / "leakage.json").write_text(datagen.json_text(payload), encoding="utf-8")
        show(payload)
        print(f"worst-case mean IoU vs benchmark: {payload['mean_iou']:.5f}")


if __name__ == "__main__":
    try:
        main()
    except datagen.ArgumentError as err:  # a refused flag value, named by its parameter
        sys.exit(f"usage error: {err}")
