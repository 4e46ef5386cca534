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
    DecodeError,
    ParseError,
    VariableIndexError,
    canonicalize,
    expression_to_prefix,
    prefix_to_expression,
    skeletonize,
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
    for name, size in zip(("train", "val", "test"), sizes):
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

def _read_expression_line(path) -> str:
    for line in datagen.read_text(path).splitlines():
        if line.strip():
            return line
    raise datagen.DataError(f"{path}: no expression line")


def cmd_ned(args) -> int:
    result = distance_result(_read_expression_line(args.pred).split(),
                             _read_expression_line(args.truth).split())
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

def _problem_dirs(root: Path) -> list[Path]:
    dirs = [p for p in sorted(root.iterdir()) if (p / "true_eq.txt").is_file()]
    if not dirs:
        raise datagen.DataError(f"{root}: no problem directories (missing true_eq.txt files)")
    return dirs


def _set_names_from_manifest(root: Path) -> dict[str, str]:
    """Problem id → set name, from the ``problems`` list of a ``generate``
    manifest; a manifest without that key (``synth`` writes ``equations``)
    names no sets."""
    manifest = root / "manifest.json"
    if not manifest.is_file():
        return {}
    payload = json.loads(datagen.read_text(manifest))
    problems = payload.get("problems", []) if isinstance(payload, dict) else None
    if not isinstance(problems, list) or not all(isinstance(e, dict) for e in problems):
        raise datagen.DataError(f"{manifest}: not a JSON object with a 'problems' list of objects")
    return {e["id"]: e["set"] for e in problems
            if isinstance(e.get("id"), str) and isinstance(e.get("set"), str)}


def _load_prediction(pred_dir: Path, problem_id: str):
    flat = pred_dir / f"{problem_id}.txt"
    if flat.is_file():
        return prefix_to_expression(_read_expression_line(flat).split())
    nested = pred_dir / problem_id / "true_eq.txt"
    if nested.is_file():
        return datagen.read_true_equation(nested)
    return None


def cmd_eval(args) -> int:
    data_root = Path(args.data_dir)
    pred_root = Path(args.pred_dir)
    set_names = _set_names_from_manifest(data_root)
    rows = []
    skipped = []
    for pdir in _problem_dirs(data_root):
        pid = pdir.name
        pred = _load_prediction(pred_root, pid)
        if pred is None:
            skipped.append(pid)
            continue
        truth = datagen.read_true_equation(pdir / "true_eq.txt")
        test = datagen.read(pdir / "test.txt")
        val_path = pdir / "val.txt"
        validation = datagen.read(val_path) if val_path.is_file() else None
        try:
            row = evalkit.evaluate_against(
                pred,
                truth,
                test,
                problem_id=pid,
                set_name=set_names.get(pid, "unknown"),
                tau=args.tau,
                validation=validation,
            )
        except VariableIndexError as err:
            raise datagen.DataError(f"{pid}: invalid prediction: {err}") from None
        rows.append(row)
    if not rows:
        raise datagen.DataError(f"no predictions found under {pred_root}")
    rows.sort(key=lambda row: row["id"])
    payload = {
        "problems": rows,
        "summary": evalkit.summarize(rows),
        "skipped": sorted(skipped),
        "tau": args.tau,
    }
    _emit(payload, args.out)
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
        for copy in range(copies):
            pid = f"synth-{i:05d}-{copy:02d}"
            spec = synthgen.assign_ranges(
                expr,
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

_SPLIT_FILES = ("train.txt", "val.txt", "test.txt")


def _leakage_items(root: Path) -> list[synthgen.LeakageItem]:
    """An item per problem directory under ``root``, with its skeleton and
    no ranges yet; a directory without dataset files is a data error."""
    items = []
    for pdir in _problem_dirs(root):
        skeleton = skeletonize(datagen.read_true_equation(pdir / "true_eq.txt"))
        if not any((pdir / name).is_file() for name in _SPLIT_FILES):
            raise datagen.DataError(f"{pdir}: no dataset files")
        items.append(synthgen.LeakageItem(id=pdir.name, skeleton=skeleton, ranges=None))
    return items


def _with_ranges(root: Path, items: list[synthgen.LeakageItem],
                 shared: set) -> list[synthgen.LeakageItem]:
    """``items`` with the observed ranges of every item whose skeleton is in
    ``shared``; the data files of the others are not read. Split files
    of different widths are a data error."""
    out = []
    for item in items:
        if item.skeleton in shared:
            paths = [root / item.id / name for name in _SPLIT_FILES]
            paths = [path for path in paths if path.is_file()]
            chunks = [datagen.read(path).values for path in paths]
            width = chunks[0].shape[1]
            for path, chunk in zip(paths, chunks):
                if chunk.shape[1] != width:
                    raise datagen.DataError(f"{path}: expected {width} columns as in "
                                            f"{paths[0].name}, found {chunk.shape[1]}")
            ranges = synthgen.observed_ranges(np.concatenate(chunks, axis=0)[:, :-1])
            item = dataclasses.replace(item, ranges=ranges)
        out.append(item)
    return out


def cmd_leakcheck(args) -> int:
    # Skeletons first: only problems whose skeleton the other side shares
    # need their data files read.
    corpus_root, target_root = Path(args.corpus), Path(args.catalog)
    corpus = _leakage_items(corpus_root)
    targets = _leakage_items(target_root)
    shared = {i.skeleton for i in corpus} & {i.skeleton for i in targets}
    result = synthgen.leakage_report(
        _with_ranges(corpus_root, corpus, shared), _with_ranges(target_root, targets, shared)
    )
    payload = {
        "mean_iou": result.mean_iou,
        "mean_of_mean_iou": result.mean_of_mean_iou,
        "per_equation": [
            {
                "id": e.target_id,
                "n_matches": e.n_matches,
                "max_iou": e.max_iou,
                "mean_iou": e.mean_iou,
            }
            for e in sorted(result.per_equation, key=lambda e: e.target_id)
        ],
    }
    _emit(payload, args.out)
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
    train = datagen.read(pdir / "train.txt")
    val = datagen.read(pdir / "val.txt")
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
    dirs = _problem_dirs(data_root)
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
