"""Command-line front end.

Subcommands:
  generate    write per-problem dataset directories (train/val/test/true_eq)
  ned         normalized edit distance between two expression files
  eval        score a directory of predictions against a data directory
  complexity  op-count / domain-range scatter rows for a catalog
  synth       build a synthetic pretraining-style corpus
  leakcheck   skeleton + sampling-range leakage between two data roots
  discover    run the GP baseline over a data directory

All reports are JSON (stdout by default, ``--out`` for files) with sorted
keys and id-sorted problem lists, so identical flags and seed give byte
identical output. Exit codes: 0 success, 1 usage error, 2 data error.
The ``SRSD_SEED`` environment variable supplies the master seed when
``--seed`` is omitted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import catalog as cat
from . import datagen, evalkit, gp, synthgen
from .expr import (
    CanonicalizationError,
    DecodeError,
    ParseError,
    canonicalize,
    expression_to_prefix,
)
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


def _emit(payload: dict, out: str | Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _emit_manifest(manifest: dict, out_root: Path) -> None:
    """Write ``manifest.json`` under ``out_root`` and echo it to stdout."""
    out_root.mkdir(parents=True, exist_ok=True)
    _emit(manifest, out_root / "manifest.json")


def _map_workers(func, work: list, workers: int) -> list:
    """``func`` over ``work`` in order; in a process pool when ``workers`` > 1."""
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # one-process runs skip its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, work))
    return [func(w) for w in work]


def _load_specs(catalog_files: list[str], set_name: str) -> list[cat.ProblemSpec]:
    if catalog_files:
        specs = []
        for path in catalog_files:
            specs.extend(cat.load_file(path))
        if set_name != "all":
            specs = [s for s in specs if s.set_name == set_name]
        if not specs:
            raise cat.CatalogError(f"no problems with set {set_name!r} in {catalog_files}")
        return specs
    return cat.builtin_problems(None if set_name == "all" else set_name)


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

def _generate_one(args):
    spec, out_root, rows, seed, noise, ratios, noise_mode = args
    return datagen.write_problem_dir(
        spec, out_root, rows=rows, seed=seed, noise_level=noise,
        ratios=ratios, noise_mode=noise_mode,
    )


def cmd_generate(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if not 0.0 <= args.noise < math.inf:
        raise UsageError(f"--noise must be finite and >= 0, got {args.noise}")
    ratios = _ratios(args.split)
    _check_rows(args.rows, ratios)
    seed = _master_seed(args.seed)
    specs = _load_specs(args.catalog, args.set)
    work = [(s, args.out, args.rows, seed, args.noise, ratios, args.noise_mode) for s in specs]
    entries = _map_workers(_generate_one, work, args.workers)
    manifest = {
        "command": "generate",
        "config": {
            "set": args.set,
            "rows": args.rows,
            "master_seed": seed,
            "noise_level": args.noise,
            "noise_mode": args.noise_mode,
            "split_ratios": list(ratios),
            "catalog_files": args.catalog,
        },
        "problems": sorted(entries, key=lambda e: e["id"]),
    }
    _emit_manifest(manifest, Path(args.out))
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
    _emit(evalkit.eval_report(args.pred_dir, args.data_dir, tau=args.tau), args.out)
    return 0


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def cmd_complexity(args) -> int:
    specs = _load_specs(args.catalog, args.set)
    rows = cat.emit_scatter(specs)
    if args.out:
        lines = ["id,op_count,domain_range,set"]
        for row in rows:
            rng = row["domain_range"]
            rng_text = "" if rng is None else repr(rng)
            lines.append(f"{row['id']},{row['op_count']},{rng_text},{row['set']}")
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _emit({"rows": rows}, None)
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
    seed = _master_seed(args.seed)
    specs = _load_specs(args.catalog, "all")
    model = synthgen.train_bigram([s.skeleton for s in specs], alpha=args.alpha)
    out_root = Path(args.out)
    eq_dir = out_root / "equations"
    eq_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    copy_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    for i in range(args.n):
        expr = synthgen.sample_equation(
            model, args.max_tokens, np.random.SeedSequence([seed, i])
        )
        eq_name = f"eq-{i:05d}.txt"
        (eq_dir / eq_name).write_text(
            " ".join(expression_to_prefix(expr)) + "\n", encoding="utf-8"
        )
        copies = int(copy_rng.integers(1, args.copies_max + 1))
        datasets = []
        # Each copy's spec is made from the one before, so the copies share
        # one nested tree and canonicalize it once.
        spec = expr
        for copy in range(copies):
            pid = f"synth-{i:05d}-{copy:02d}"
            spec = synthgen.assign_ranges(
                spec,
                np.random.SeedSequence([seed, i, copy]),
                k_lo=args.k_lo,
                k_hi=args.k_hi,
                problem_id=pid,
            )
            try:
                datagen.write_problem_dir(spec, out_root, rows=args.rows, seed=seed)
            except datagen.SamplingInfeasibleError:
                datasets.append({"dir": pid, "k": None, "status": "infeasible"})
                continue
            ks = {v.name: synthgen.range_exponent(v) for v in spec.sampled_variables}
            datasets.append({"dir": pid, "k": ks, "status": "ok"})
        entries.append({"equation_file": f"equations/{eq_name}", "datasets": datasets})
    manifest = {
        "command": "synth",
        "config": {
            "n_equations": args.n,
            "master_seed": seed,
            "max_tokens": args.max_tokens,
            "rows": args.rows,
            "copies_max": args.copies_max,
            "alpha": args.alpha,
            "k_lo": args.k_lo,
            "k_hi": args.k_hi,
        },
        "equations": entries,
    }
    _emit_manifest(manifest, out_root)
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


def _discover_one(args):
    pdir_text, base_config, n_seeds = args
    pdir = Path(pdir_text)
    pid = pdir.name
    train = datagen.read(pdir / datagen.SPLIT_FILES["train"])
    val = datagen.read(pdir / datagen.SPLIT_FILES["val"])
    candidates = []
    for offset in range(n_seeds):
        config = dataclasses.replace(base_config, seed=base_config.seed + offset)
        candidates.extend(gp.evolve(train, config))
    try:
        best = evalkit.select_best(candidates, val)
    except evalkit.NoViableCandidateError:
        return {"id": pid, "expression": None, "selection_score": None}
    best_canonical = canonicalize(best)
    # The manifest reports the canonical tree's score, which can differ in the
    # last bits from select_best's score of the raw tree.
    score = evalkit.relative_error_score(best_canonical, val.X, val.y)
    return {
        "id": pid,
        "expression": " ".join(expression_to_prefix(best_canonical)),
        "selection_score": score if np.isfinite(score) else None,
    }


def cmd_discover(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    config = _load_gp_config(args.gp_config, _master_seed(args.seed))
    data_root = Path(args.data_dir)
    dirs = datagen.problem_dirs(data_root)
    if args.problems:
        wanted = set(args.problems)
        dirs = [d for d in dirs if d.name in wanted]
        missing = wanted - {d.name for d in dirs}
        if missing:
            raise datagen.DataError(f"problems not found in {data_root}: {sorted(missing)}")
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    work = [(str(d), config, args.seeds) for d in dirs]
    results = _map_workers(_discover_one, work, args.workers)
    for entry in results:
        if entry["expression"] is not None:
            (out_root / f"{entry['id']}.txt").write_text(
                entry["expression"] + "\n", encoding="utf-8"
            )
    manifest = {
        "command": "discover",
        "config": {
            "seeds": args.seeds,
            "base_seed": config.seed,
            "gp": dataclasses.asdict(config),
        },
        "problems": sorted(results, key=lambda e: e["id"]),
    }
    _emit_manifest(manifest, out_root)
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
    g.add_argument("--noise-mode", choices=("mean", "rms"), default="mean")
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
