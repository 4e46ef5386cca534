#!/usr/bin/env python3
"""Build a synthetic pretraining-style corpus and check it for leakage
against a generated benchmark data directory.

Example:
    python scripts/build_pretraining_corpus.py --out /tmp/corpus --n 200 \
        --benchmark /tmp/easy-run/data
"""

import argparse
import json
import sys
from pathlib import Path

from srsdkit import datagen
from srsdkit.cli import main as cli


def run(argv):
    code = cli(argv)
    if code != 0:
        sys.exit(code)


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

    run(["synth", "--n", str(args.n), "--seed", str(args.seed),
         "--rows", str(args.rows), "--max-tokens", str(args.max_tokens),
         "--out", args.out])
    manifest = json.loads((Path(args.out) / datagen.MANIFEST_FILE).read_text())
    n_datasets = sum(
        1 for e in manifest["equations"] for d in e["datasets"] if d["status"] == "ok"
    )
    print(f"equations: {len(manifest['equations'])}, datasets: {n_datasets}")

    if args.benchmark:
        report = Path(args.out) / "leakage.json"
        run(["leakcheck", "--corpus", args.out, "--catalog", args.benchmark,
             "--out", str(report)])
        payload = json.loads(report.read_text())
        print(f"worst-case mean IoU vs benchmark: {payload['mean_iou']:.5f}")


if __name__ == "__main__":
    main()
