"""srsdkit benchmark: drive the CLI through the workloads named in
BENCHMARK.json and check its outputs.

    python3 perfbench/run.py --workload discover_easy --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout; METRICS.md describes the workloads and
metrics. Each repetition runs in a fresh
interpreter (``workload.py``) with ``--workers 1`` and single-threaded numpy,
so the benchmark uses one core. Repetitions start until the next one would
end past ``--seconds`` (always at least one); untraced metrics are medians
over them. ``setup_s`` is the median over the repetitions plus
``SETUP_SAMPLES_PER_ROUND`` spawns per repetition that only set up. A
repetition that does not finish within ``CHILD_TIMEOUT_S`` ends the run
without a result.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, the untraced per-command wall times and
the tracing overhead. Every line before the last is for people; the last line
is the JSON result: ``correct``, ``attempted`` and ``failed`` count CLI
invocations, and an invocation fails when it exits nonzero, raises, or its
outputs fail the output check.

The output check: at ``reference.json``'s seed every invocation's output
digests must equal the recorded ones; at any seed every repetition must
produce the same digests as the first (a single-repetition run adds a replay,
which for discover_easy refits a seeded sample of problems only), and every
report must be well formed (see ``workload.check_outputs``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES_PER_ROUND = 2
CHILD_TIMEOUT_S = 150
REFERENCE = HERE / "reference.json"

# The paper's headline scores, printed for people on workloads that run eval.
QUALITY = ("accuracy_rate", "solution_rate", "mean_ned")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def filesystem_type(path: Path) -> str:
    """Type of the mount holding ``path``, from /proc/self/mounts."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        lines = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def machine_record(work: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "work_dir_fs": filesystem_type(work),
        # The benchmark writes only inside its checkout, so the work
        # directory is there even when a tmpfs exists elsewhere.
        "work_dir_choice": "checkout",
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(work: Path, tag: str, extra: list[str]) -> dict:
    """Run workload.py once in a fresh interpreter and return its result."""
    out = work / f"{tag}.json"
    argv = [sys.executable, str(HERE / "workload.py"), "--out", str(out), *extra]
    spawned = time.monotonic_ns()
    proc = subprocess.run([*argv, "--spawned-ns", str(spawned)], env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not out.is_file():
        raise HarnessError(f"repetition {tag} exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_rep(work: Path, workload: str, seed: int, tag: str, traced: bool,
            replay_of: Path | None = None) -> dict:
    rep_dir = work / tag
    extra = ["--workload", workload, "--seed", str(seed), "--dir", str(rep_dir)]
    if traced:
        extra.append("--trace")
    if replay_of is not None:
        extra += ["--replay-of", str(replay_of)]
    result = spawn(work, tag, extra)
    result["dir"] = str(rep_dir)
    result["traced"] = traced
    return result


# ---------------------------------------------------------------------------
# Output check and failure count
# ---------------------------------------------------------------------------

def digest_mismatch(actual: dict, expected: dict, exact: bool) -> str | None:
    """Why ``actual`` disagrees with ``expected``; None when it agrees.
    With ``exact`` false, ``actual`` may cover a subset of the keys."""
    if not actual:
        return "no outputs"
    for key, value in sorted(actual.items()):
        if expected.get(key) != value:
            return f"{key} differs"
    if exact:
        missing = sorted(set(expected) - set(actual))
        if missing:
            return f"{missing[0]} missing ({len(missing)} in all)"
    return None


def failed_invocations(reps: list[dict], replay: dict | None, reference: list[dict] | None) -> list[str]:
    """One message per failed CLI invocation over every repetition and replay.

    Each repetition is compared with the reference when there is one, else
    with the first repetition; the replay may cover a subset of the outputs.
    """
    failures = []
    expected = reference or [r["digests"] for r in reps[0]["commands"]]
    runs = [(rep, True) for rep in reps] + ([(replay, False)] if replay else [])
    for index, (run, exact) in enumerate(runs):
        for position, record in enumerate(run["commands"]):
            where = f"run {index} {record['command']}"
            if record["exit"] != 0:
                failures.append(f"{where}: exit {record['exit']} {record.get('error') or ''}".strip())
            elif record["problems"]:
                failures.append(f"{where}: {record['problems'][0]}")
            elif (index > 0 or reference) and (
                    why := digest_mismatch(record["digests"], expected[position], exact)):
                failures.append(f"{where}: {why}")
    return failures


def load_reference(workload: str, seed: int) -> list[dict] | None:
    if not REFERENCE.is_file():
        return None
    payload = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if payload["seed"] != seed:
        return None
    return payload["workloads"].get(workload)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def free_outputs(rep_dir: Path, keep: str | None) -> None:
    """Delete a repetition's outputs as soon as they are digested, before
    the kernel starts writing them back during later repetitions. The first
    repetition keeps its predictions for a replay to score."""
    if not rep_dir.is_dir():
        return
    for path in rep_dir.iterdir():
        if path.name == keep:
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload; returns its metrics, failure list and human lines."""
    work.mkdir(parents=True, exist_ok=True)
    setups: list[float] = []
    reps: list[dict] = []
    modes = (False, True) if trace else (False,)
    start = time.monotonic()
    rounds = 0
    while True:
        if not trace:  # spread over the run, so that setup_s sees the same machine as wall_s
            setups += [spawn(work, f"setup{len(setups)}", ["--setup-only"])["setup_s"]
                       for _ in range(SETUP_SAMPLES_PER_ROUND)]
        for traced in modes:
            reps.append(run_rep(work, workload, seed, f"rep{len(reps)}", traced))
            free_outputs(Path(reps[-1]["dir"]), keep="preds" if len(reps) == 1 else None)
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > seconds:
            break
    replay = None
    if len(reps) < 2:
        replay = run_rep(work, workload, seed, "replay", False, replay_of=Path(reps[0]["dir"]))
    shutil.rmtree(reps[0]["dir"])

    failures = failed_invocations(reps, replay, load_reference(workload, seed))
    attempted = sum(len(r["commands"]) for r in reps) + (len(replay["commands"]) if replay else 0)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    setups += [r["setup_s"] for r in plain] + ([replay["setup_s"]] if replay else [])
    quality = reps[0]["quality"]

    if trace:
        metrics = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        for command in ("generate", "discover", "eval", "synth", "leakcheck"):
            metrics[f"cli.{command}.wall_s"] = median(
                [c["seconds"] for r in plain for c in r["commands"] if c["command"] == command])
        metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                       - median([r["wall_s"] for r in plain]))
        for name in QUALITY:
            metrics[f"evalkit.summarize.{name}"] = quality.get(name, 0.0)
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": median([r["wall_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }

    lines = [f"workload {workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced "
             f"repetitions{', plus a replay' if replay else ''}",
             "  repetition wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in reps),
             "  setup_s samples: " + " ".join(f"{v:.3f}" for v in setups)]
    if not trace:
        for command in [c["command"] for c in reps[0]["commands"]]:
            times = [c["seconds"] for r in plain for c in r["commands"] if c["command"] == command]
            lines.append(f"  {command}_s {median(times):.4f} s")
        lines.append(f"  failed_ops {len(failures) / attempted:.4f} share "
                     f"({len(failures)} of {attempted} invocations)")
        for name in QUALITY:
            if name in quality:
                lines.append(f"  {name} {quality[name]:.4f} over {quality['scored']} scored problems")
        if quality.get("skipped"):
            lines.append("  no viable candidate: " + " ".join(quality["skipped"]))
    lines += [f"  failure: {f}" for f in failures]
    return {"metrics": metrics, "attempted": attempted, "failed": len(failures), "lines": lines}


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = benchmark()
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workload", required=True, choices=(*names, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's digests as the reference for --seed")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "srsdkit" / "cli.py").is_file():
        print(f"error: no srsdkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workloads = names if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    machine = machine_record(work)
    unit_of = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            result = measure(workload, args.seed, args.seconds, trace, work / workload)
            if args.record_reference:
                record_reference(workload, args.seed, work / workload)
            print("\n".join(result["lines"]))
            if set(result["metrics"]) != set(unit_of):
                raise HarnessError("measured metrics do not match BENCHMARK.json: "
                                   f"{sorted(set(result['metrics']) ^ set(unit_of))}")
            prefix = "" if len(workloads) == 1 else f"{workload}."
            for name, unit in unit_of.items():
                value = result["metrics"][name]
                metrics[prefix + name] = {"value": value, "unit": unit}
                print(f"  {name} {value:.6g} {unit}")
            attempted += result["attempted"]
            failed += result["failed"]
    except (HarnessError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    machine["loadavg_end"] = os.getloadavg()
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_reference(workload: str, seed: int, work: Path) -> None:
    rep = json.loads((work / "rep0.json").read_text(encoding="utf-8"))
    payload = (json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file()
               else {"seed": seed, "workloads": {}})
    if payload["seed"] != seed:
        raise HarnessError(f"reference.json is for seed {payload['seed']}, not {seed}")
    payload["workloads"][workload] = [c["digests"] for c in rep["commands"]]
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
