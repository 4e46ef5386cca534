"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per repetition with ``PYTHONPATH`` pointing
at the checkout's ``src``. The first statements import ``srsdkit.cli`` and
load the builtin catalog, which is the set-up that ``setup_s`` times: from
the parent's spawn timestamp (``--spawned-ns``, a ``time.monotonic_ns``
reading, the same clock in every process) to the end of the catalog load.

The repetition then drives ``srsdkit.cli.main`` in-process through the
workload's command list, times each command, digests its outputs for the
output check and writes one JSON result to ``--out``. With ``--trace`` the
public functions of srsdkit are wrapped first (see ``tracer.py``).
"""

import time

import srsdkit.cli  # the import is part of the timed set-up
from srsdkit import catalog

_T_CATALOG = time.perf_counter()
catalog.builtin_problems()
SETUP_DONE_NS = time.monotonic_ns()
CATALOG_LOAD_S = time.perf_counter() - _T_CATALOG

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import sys
import traceback
from pathlib import Path

from srsdkit.expr import prefix_to_expression

# A single-repetition discover_easy run is checked for determinism by a
# replay that re-runs discover on this many problems only.
REPLAY_PROBLEMS = 3

EVAL_FIELDS = ("id", "set", "r_squared", "accuracy_hit", "symbolic_solution",
               "edit_distance", "normalized_edit_distance", "selection_score")
SUMMARY_FIELDS = ("count", "accuracy_rate", "solution_rate", "mean_normalized_edit_distance")
LEAK_FIELDS = ("id", "n_matches", "max_iou", "mean_iou")


def commands(workload: str, seed: int, out: Path, replay_of: Path | None = None) -> list[list[str]]:
    """The CLI invocations of one repetition; every ``--seed`` is the workload seed.

    ``replay_of`` names an earlier repetition's directory: the discover_easy
    replay then fits only a seeded sample of problems and scores that
    repetition's full prediction set against its own regenerated data.
    """
    s = str(seed)
    if workload == "discover_easy":
        data, preds = out / "data", out / "preds"
        discover = ["discover", "--data-dir", str(data), "--seeds", "1", "--seed", s,
                    "--workers", "1", "--out", str(preds)]
        eval_preds = preds
        if replay_of is not None:
            ids = sorted(spec.id for spec in catalog.builtin_problems("easy"))
            discover += ["--problems", *random.Random(seed).sample(ids, REPLAY_PROBLEMS)]
            eval_preds = replay_of / "preds"
        return [
            ["generate", "--set", "easy", "--rows", "2000", "--seed", s, "--workers", "1",
             "--out", str(data)],
            discover,
            ["eval", "--pred-dir", str(eval_preds), "--data-dir", str(data),
             "--out", str(out / "eval.json")],
        ]
    if workload == "generate_synth_leakcheck":
        return [
            ["generate", "--set", "all", "--rows", "10000", "--seed", s, "--workers", "1",
             "--out", str(out / "data")],
            ["synth", "--n", "100", "--seed", s, "--out", str(out / "corpus")],
            ["leakcheck", "--corpus", str(out / "corpus"), "--catalog", str(out / "data"),
             "--out", str(out / "leak.json")],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_commands(argvs: list[list[str]], tracer=None) -> tuple[list[dict], float]:
    """Run each CLI invocation in turn; returns per-command records and the
    wall time from the start of the first to the end of the last."""
    records = []
    first = time.perf_counter()
    for argv in argvs:
        start = time.perf_counter()
        error = None
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                if tracer is None:
                    code = srsdkit.cli.main(argv)
                else:
                    with tracer.span("cli." + argv[0]):
                        code = srsdkit.cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a harness crash
            code, error = None, traceback.format_exc(limit=4)
        records.append({"command": argv[0], "argv": argv, "exit": code,
                        "seconds": time.perf_counter() - start, "error": error})
    return records, time.perf_counter() - first


# ---------------------------------------------------------------------------
# Output check: digests of what each command wrote, and well-formedness.
# Manifests and whole reports are not digested, because counters and status
# fields may be added to them without changing any result.
# ---------------------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _file_digests(root: Path, pattern: str, base: Path) -> dict[str, str]:
    return {str(p.relative_to(base)): _sha(p.read_bytes())
            for p in sorted(root.glob(pattern)) if p.is_file()}


def _fields_digest(row: dict, fields) -> str:
    return _sha(json.dumps({k: row.get(k) for k in fields}, sort_keys=True).encode())


def _argv_value(argv: list[str], flag: str) -> Path:
    return Path(argv[argv.index(flag) + 1])


def check_outputs(argv: list[str]) -> tuple[dict[str, str], list[str]]:
    """Digests of one invocation's outputs, and the ways they are malformed."""
    command = argv[0]
    problems: list[str] = []
    if command == "generate":
        data = _argv_value(argv, "--out")
        digests = _file_digests(data, "*/*.txt", data.parent)
        for pdir in sorted(p for p in data.iterdir() if p.is_dir()):
            for name in ("train.txt", "val.txt", "test.txt", "true_eq.txt"):
                path = pdir / name
                if not path.is_file() or path.stat().st_size == 0:
                    problems.append(f"{path.relative_to(data.parent)} missing or empty")
        return digests, problems
    if command == "synth":
        corpus = _argv_value(argv, "--out")
        digests = _file_digests(corpus, "equations/*.txt", corpus.parent)
        digests.update(_file_digests(corpus, "synth-*/*.txt", corpus.parent))
        for path in sorted(corpus.glob("equations/*.txt")):
            problems += _decode_problems(path)
        count = len(list(corpus.glob("equations/*.txt")))
        if count != int(argv[argv.index("--n") + 1]):
            problems.append(f"{count} equation files, expected {argv[argv.index('--n') + 1]}")
        return digests, problems
    if command == "discover":
        preds = _argv_value(argv, "--out")
        digests = _file_digests(preds, "*.txt", preds.parent)
        manifest = json.loads((preds / "manifest.json").read_text(encoding="utf-8"))
        for entry in manifest["problems"]:
            path = preds / f"{entry['id']}.txt"
            if (entry["expression"] is None) == path.is_file():
                problems.append(f"{path.name}: file and manifest disagree")
            elif path.is_file():
                problems += _decode_problems(path)
        return digests, problems
    if command == "eval":
        report = json.loads(_argv_value(argv, "--out").read_text(encoding="utf-8"))
        rows = report["problems"]
        digests = {f"eval/{row['id']}": _fields_digest(row, EVAL_FIELDS) for row in rows}
        digests.update({f"eval/summary/{name}": _fields_digest(s, SUMMARY_FIELDS)
                        for name, s in report["summary"].items()})
        problems += _eval_problems(rows, report["summary"])
        return digests, problems
    if command == "leakcheck":
        report = json.loads(_argv_value(argv, "--out").read_text(encoding="utf-8"))
        rows = report["per_equation"]
        digests = {f"leak/{row['id']}": _fields_digest(row, LEAK_FIELDS) for row in rows}
        digests["leak/mean_iou"] = _fields_digest(report, ("mean_iou", "mean_of_mean_iou"))
        targets = _argv_value(argv, "--catalog")
        if len(rows) != sum(1 for p in targets.iterdir() if (p / "true_eq.txt").is_file()):
            problems.append("leakcheck: one row per target expected")
        if [r["id"] for r in rows] != sorted(r["id"] for r in rows):
            problems.append("leakcheck: rows not sorted by id")
        for row in rows:
            if row["n_matches"] < 0 or not all(0.0 <= row[k] <= 1.0 for k in ("max_iou", "mean_iou")):
                problems.append(f"leakcheck {row['id']}: value out of range")
        return digests, problems
    raise ValueError(f"no output check for {command!r}")


def _decode_problems(path: Path) -> list[str]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    try:
        prefix_to_expression(lines[0].split())
    except (IndexError, ValueError) as err:
        return [f"{path.name}: does not decode ({err})"]
    return []


def _eval_problems(rows: list[dict], summary: dict) -> list[str]:
    problems = []
    if [r["id"] for r in rows] != sorted(r["id"] for r in rows):
        problems.append("eval: problems not sorted by id")
    for row in rows:
        if not (0.0 <= row["normalized_edit_distance"] <= 1.0):
            problems.append(f"eval {row['id']}: normalized_edit_distance out of range")
        if not isinstance(row["accuracy_hit"], bool) or not isinstance(row["symbolic_solution"], bool):
            problems.append(f"eval {row['id']}: hit fields are not booleans")
    if sum(s["count"] for s in summary.values()) != len(rows):
        problems.append("eval: summary counts do not add up to the problem rows")
    for name, s in summary.items():
        if not all(0.0 <= s[k] <= 1.0 for k in ("accuracy_rate", "solution_rate")):
            problems.append(f"eval summary {name}: rate out of range")
    return problems


def attach_checks(records: list[dict]) -> None:
    """Add ``digests`` and ``problems`` to each record whose command succeeded."""
    for record in records:
        record["digests"], record["problems"] = {}, []
        if record["exit"] != 0:
            continue
        try:
            record["digests"], record["problems"] = check_outputs(record["argv"])
        except (OSError, ValueError, KeyError, TypeError) as err:
            record["problems"] = [f"output unreadable: {err!r}"]


def quality_scores(records: list[dict]) -> dict[str, float]:
    """The paper's headline scores from a successful ``eval`` invocation."""
    for record in records:
        if record["command"] == "eval" and record["exit"] == 0 and not record["problems"]:
            report = json.loads(_argv_value(record["argv"], "--out").read_text(encoding="utf-8"))
            rows = report["problems"]
            return {
                "accuracy_rate": sum(r["accuracy_hit"] for r in rows) / len(rows),
                "solution_rate": sum(r["symbolic_solution"] for r in rows) / len(rows),
                "mean_ned": sum(r["normalized_edit_distance"] for r in rows) / len(rows),
                "scored": len(rows),
                "skipped": report["skipped"],
            }
    return {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--out", required=True, help="result JSON path")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--dir", help="directory for this repetition's outputs")
    ap.add_argument("--replay-of", default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    result = {"setup_s": (SETUP_DONE_NS - args.spawned_ns) / 1e9,
              "catalog_load_s": CATALOG_LOAD_S}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing  # sibling module; perfbench/ is sys.path[0]

            tracer = tracing.Tracer()
            tracer.install()
        out = Path(args.dir)
        replay_of = Path(args.replay_of) if args.replay_of else None
        records, wall = run_commands(commands(args.workload, args.seed, out, replay_of), tracer)
        result.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            commands=records,
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics(wall, CATALOG_LOAD_S)
        attach_checks(records)
        result["quality"] = quality_scores(records)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
