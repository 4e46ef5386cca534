"""Command-line front end.

Subcommands:
  generate    write per-problem dataset directories (train/val/test/true_eq)
  ned         normalized edit distance between two expression files
  eval        score a directory of predictions against a data directory
  complexity  op-count / domain-range scatter rows for a catalog
  synth       build a synthetic pretraining-style corpus
  leakcheck   skeleton + sampling-range leakage between two data roots
  discover    run the GP baseline over a data directory

Each pipeline command is argparse, then one library call, then the JSON the
call returns, printed: ``datagen.generate``, ``synthgen.synth`` and
``gp.discover`` write a run directory and return its manifest;
``evalkit.eval_report`` and ``synthgen.leakcheck_report`` return a report.
The library checks every argument value: its ``ArgumentError`` is a usage
error, printed with each parameter named by its flag (``--k-lo`` for
``k_lo``). All JSON is ``datagen.json_text`` (stdout by default, ``--out``
for files), with id-sorted problem lists, so identical flags and seed give
byte identical output. Exit codes: 0 success, 1 usage error
(``errors.ArgumentError``), 2 data error (any other ``errors.DataError``,
or an ``OSError`` of a file); the classes decide, and no other error is
caught.
The ``SRSD_SEED`` environment variable supplies the master seed when
``--seed`` is omitted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import catalog as cat
from . import datagen, evalkit, gp, synthgen
from .errors import ArgumentError, DataError
from .treedist import distance_result


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage is 1
        raise ArgumentError("{message}", message=message)


def _master_seed(value) -> int:
    if value is not None:
        return value
    return int(os.environ.get("SRSD_SEED", "0"))


def _emit(payload: dict, out: str | Path | None = None) -> None:
    text = datagen.json_text(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _ratios(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ArgumentError("cannot parse split ratios {text!r}", text=text) from None


def cmd_generate(args) -> None:
    _emit(datagen.generate(
        args.out, set_name=args.set, catalog_files=args.catalog, rows=args.rows,
        seed=_master_seed(args.seed), noise_level=args.noise_level, noise_mode=args.noise_mode,
        ratios=_ratios(args.ratios), workers=args.workers,
    ))


def cmd_ned(args) -> None:
    result = distance_result(datagen.read_expression_line(args.pred).split(),
                             datagen.read_expression_line(args.truth).split())
    _emit(
        {
            "ned": round(result.normalized, 5),
            "edit_distance": result.raw,
            "truth_nodes": result.truth_nodes,
        },
        args.out,
    )


def cmd_eval(args) -> None:
    _emit(evalkit.eval_report(args.pred_dir, args.data_dir, tau=args.tau), args.out)


def cmd_complexity(args) -> None:
    rows = cat.emit_scatter(cat.load_specs(args.catalog, args.set))
    if args.out:
        Path(args.out).write_text(cat.scatter_csv(rows), encoding="utf-8")
    _emit({"rows": rows})


def cmd_synth(args) -> None:
    _emit(synthgen.synth(
        args.out, args.n, seed=_master_seed(args.seed), catalog_files=args.catalog,
        max_tokens=args.max_tokens, rows=args.rows, copies_max=args.copies_max,
        alpha=args.alpha, k_lo=args.k_lo, k_hi=args.k_hi,
    ))


def cmd_leakcheck(args) -> None:
    _emit(synthgen.leakcheck_report(args.corpus, args.catalog), args.out)


def cmd_discover(args) -> None:
    config = gp.read_config(args.gp_config, _master_seed(args.seed))
    _emit(gp.discover(args.data_dir, args.out, config, seeds=args.seeds,
                      problems=args.problems, workers=args.workers))


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="srsdkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate per-problem dataset directories")
    g.add_argument("--set", choices=("easy", "medium", "hard", "all"), default="all")
    g.add_argument("--catalog", action="append", default=[], help="problem-spec JSON file(s)")
    g.add_argument("--rows", type=int, default=datagen.DEFAULT_ROWS)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--noise", dest="noise_level", type=float, default=0.0,
                   help="noise level (benchmark grid: 0, 1e-3, 1e-2, 1e-1)")
    g.add_argument("--noise-mode", choices=datagen.NOISE_MODES, default="mean")
    g.add_argument("--split", dest="ratios", default="0.8,0.1,0.1")
    g.add_argument("--workers", type=int, default=1)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    n = sub.add_parser("ned", help="normalized edit distance between two expression files")
    n.add_argument("--pred", required=True)
    n.add_argument("--truth", required=True)
    n.add_argument("--out", default=None)
    n.set_defaults(func=cmd_ned)

    e = sub.add_parser("eval", help="score predictions against a data directory")
    e.add_argument("--pred-dir", required=True)
    e.add_argument("--data-dir", required=True)
    e.add_argument("--tau", type=float, default=evalkit.DEFAULT_TAU)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("complexity", help="op-count / domain-range rows")
    c.add_argument("--set", choices=("easy", "medium", "hard", "all"), default="all")
    c.add_argument("--catalog", action="append", default=[])
    c.add_argument("--out", default=None, help="also write CSV here")
    c.set_defaults(func=cmd_complexity)

    s = sub.add_parser("synth", help="generate a synthetic equation corpus")
    s.add_argument("--n", type=int, required=True, help="number of equations")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--catalog", action="append", default=[])
    s.add_argument("--max-tokens", type=int, default=32)
    s.add_argument("--rows", type=int, default=1000)
    s.add_argument("--copies-max", type=int, default=10)
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--k-lo", type=int, default=-8)
    s.add_argument("--k-hi", type=int, default=8)
    s.set_defaults(func=cmd_synth)

    l = sub.add_parser("leakcheck", help="leakage between a corpus and a catalog data dir")
    l.add_argument("--corpus", required=True)
    l.add_argument("--catalog", required=True)
    l.add_argument("--out", default=None)
    l.set_defaults(func=cmd_leakcheck)

    d = sub.add_parser("discover", help="run the GP baseline over a data directory")
    d.add_argument("--data-dir", required=True)
    d.add_argument("--gp-config", default=None, help="JSON file of GP settings")
    d.add_argument("--seeds", type=int, default=5)
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--problems", nargs="*", default=None, help="restrict to these ids")
    d.add_argument("--workers", type=int, default=1)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_discover)

    # The flag of each parameter, for the text of an ArgumentError.
    parser.flags = {action.dest: action.option_strings[0]
                    for command in sub.choices.values() for action in command._actions}
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except ArgumentError as err:
        print(f"usage error: {err.naming(parser.flags)}", file=sys.stderr)
        return 1
    except (DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
