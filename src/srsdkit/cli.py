"""Command-line front end.

Subcommands:
  generate    write per-problem dataset directories (train/val/test/true_eq)
  ned         normalized edit distance between two expression files
  eval        score a directory of predictions against a data directory
  complexity  op-count / domain-range scatter rows for a catalog
  synth       build a synthetic pretraining-style corpus
  leakcheck   skeleton + sampling-range leakage between two data roots
  discover    run the GP baseline over a data directory

Each pipeline command is its flag checks, then one library call, then the
JSON the call returns, printed: ``datagen.generate``, ``synthgen.synth`` and
``gp.discover`` write a run directory and return its manifest;
``evalkit.eval_report`` and ``synthgen.leakcheck_report`` return a report.
All JSON is ``datagen.json_text`` (stdout by default, ``--out`` for files),
with id-sorted problem lists, so identical flags and seed give byte identical
output. Exit codes: 0 success, 1 usage error, 2 data error.
The ``SRSD_SEED`` environment variable supplies the master seed when
``--seed`` is omitted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import catalog as cat
from . import datagen, evalkit, gp, synthgen
from .expr import CanonicalizationError, DecodeError, ParseError
from .treedist import distance_result


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage is 1
        raise UsageError(message)


def _master_seed(value) -> int:
    if value is not None:
        return value
    return int(os.environ.get("SRSD_SEED", "0"))


def _emit(payload: dict, out: str | Path | None = None) -> None:
    text = datagen.json_text(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _ratios(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse split ratios {text!r}") from None
    if len(parts) != 3:
        raise UsageError("expected three comma-separated split ratios")
    if any(r <= 0 for r in parts) or abs(sum(parts) - 1.0) > 1e-9:
        raise UsageError(f"split ratios must be positive and sum to 1, got {text!r}")
    return parts


def _check_rows(rows: int, ratios) -> None:
    """A usage error unless every split of ``rows`` rows gets a row: other
    commands cannot read an empty split file."""
    if rows < 1:
        raise UsageError(f"--rows must be >= 1, got {rows}")
    sizes = datagen.split_sizes(rows, ratios)
    for name, size in zip(datagen.SPLIT_FILES, sizes):
        if size == 0:
            raise UsageError(f"--rows {rows} leaves the {name} split empty "
                             f"(train/val/test rows {'/'.join(map(str, sizes))})")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    try:
        datagen.check_noise(args.noise, args.noise_mode, name="--noise")
    except datagen.DataError as err:
        raise UsageError(str(err)) from None
    ratios = _ratios(args.split)
    _check_rows(args.rows, ratios)
    _emit(datagen.generate(
        args.out, set_name=args.set, catalog_files=args.catalog, rows=args.rows,
        seed=_master_seed(args.seed), noise_level=args.noise, noise_mode=args.noise_mode,
        ratios=ratios, workers=args.workers,
    ))
    return 0


# ---------------------------------------------------------------------------
# ned
# ---------------------------------------------------------------------------

def cmd_ned(args) -> int:
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
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    if not math.isfinite(args.tau):
        raise UsageError(f"--tau must be finite, got {args.tau}")
    _emit(evalkit.eval_report(args.pred_dir, args.data_dir, tau=args.tau), args.out)
    return 0


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def cmd_complexity(args) -> int:
    rows = cat.emit_scatter(cat.load_specs(args.catalog, args.set))
    if args.out:
        lines = ["id,op_count,domain_range,set"]
        for row in rows:
            rng = row["domain_range"]
            rng_text = "" if rng is None else repr(rng)
            lines.append(f"{row['id']},{row['op_count']},{rng_text},{row['set']}")
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _emit({"rows": rows})
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.max_tokens < 1:
        raise UsageError(f"--max-tokens must be >= 1, got {args.max_tokens}")
    if args.copies_max < 1:
        raise UsageError(f"--copies-max must be >= 1, got {args.copies_max}")
    try:
        synthgen.check_range_exponents(args.k_lo, args.k_hi, names=("--k-lo", "--k-hi"))
    except synthgen.SynthError as err:
        raise UsageError(str(err)) from None
    if args.k_lo > args.k_hi:
        raise UsageError(f"--k-lo must be <= --k-hi, got {args.k_lo} > {args.k_hi}")
    if not 0.0 <= args.alpha < math.inf:
        raise UsageError(f"--alpha must be finite and >= 0, got {args.alpha}")
    _check_rows(args.rows, datagen.DEFAULT_RATIOS)
    _emit(synthgen.synth(
        args.out, args.n, seed=_master_seed(args.seed), catalog_files=args.catalog,
        max_tokens=args.max_tokens, rows=args.rows, copies_max=args.copies_max,
        alpha=args.alpha, k_lo=args.k_lo, k_hi=args.k_hi,
    ))
    return 0


# ---------------------------------------------------------------------------
# leakcheck
# ---------------------------------------------------------------------------

def cmd_leakcheck(args) -> int:
    _emit(synthgen.leakcheck_report(args.corpus, args.catalog), args.out)
    return 0


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------

def _load_gp_config(path: str | None, seed: int) -> gp.GPConfig:
    fields = {"seed": seed}
    if path:
        try:
            payload = json.loads(datagen.read_text(path))
        except json.JSONDecodeError as err:
            raise datagen.DataError(f"{path}: not valid JSON: {err}") from None
        if not isinstance(payload, dict):
            raise datagen.DataError(f"{path}: not a JSON object")
        if "seed" in payload:
            raise UsageError(f"{path}: the GP seed is not a config key; pass --seed")
        unknown = set(payload) - set(gp.GPConfig.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown GP config keys: {sorted(unknown)}")
        for key in ("const_range", "operators"):
            if isinstance(payload.get(key), list):
                payload[key] = tuple(payload[key])
        fields.update(payload)
    try:
        return gp.GPConfig(**fields)
    except ValueError as err:
        raise UsageError(f"invalid GP config: {err}") from None


def cmd_discover(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    config = _load_gp_config(args.gp_config, _master_seed(args.seed))
    _emit(gp.discover(args.data_dir, args.out, config, seeds=args.seeds,
                      problems=args.problems, workers=args.workers))
    return 0


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
    g.add_argument("--noise", type=float, default=0.0,
                   help="noise level (benchmark grid: 0, 1e-3, 1e-2, 1e-1)")
    g.add_argument("--noise-mode", choices=datagen.NOISE_MODES, default="mean")
    g.add_argument("--split", default="0.8,0.1,0.1")
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

    return parser


_DATA_ERRORS = (
    CanonicalizationError,
    cat.CatalogError,
    datagen.DataError,
    DecodeError,
    ParseError,
    synthgen.SynthError,
    evalkit.ZeroVarianceError,
    OSError,
    json.JSONDecodeError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
