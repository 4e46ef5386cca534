"""Self-test of the benchmark harness at reduced size (a few seconds).

    python3 perfbench/selftest.py

Shows that the output check catches a flipped byte in a prediction file,
that a command exiting nonzero counts as a failed invocation, and that
tracing leaves the outputs unchanged while its spans cover the traced
commands. Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402

PROBLEMS = ("I.12.1", "I.14.3")
TINY_GP = {"population_size": 40, "generations": 3, "top_k": 3}


def tiny_commands(out: Path, gp_config: Path, seeds: str = "1") -> list[list[str]]:
    return [
        ["generate", "--set", "easy", "--rows", "200", "--seed", "3", "--out", str(out / "data")],
        ["discover", "--data-dir", str(out / "data"), "--problems", *PROBLEMS, "--seeds", seeds,
         "--seed", "3", "--gp-config", str(gp_config), "--out", str(out / "preds")],
        ["eval", "--pred-dir", str(out / "preds"), "--data-dir", str(out / "data"),
         "--out", str(out / "eval.json")],
    ]


def rep(out: Path, gp_config: Path, tracer=None, seeds: str = "1") -> dict:
    records, wall = workload.run_commands(tiny_commands(out, gp_config, seeds), tracer)
    workload.attach_checks(records)
    return {"commands": records, "wall_s": wall}


def flip_one_bit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    errors = []
    try:
        gp_config = work / "gp.json"
        gp_config.write_text(json.dumps(TINY_GP), encoding="utf-8")
        first = rep(work / "a", gp_config)
        second = rep(work / "b", gp_config)
        clean = run.failed_invocations([first, second], None, None)
        if clean:
            errors.append(f"two clean repetitions disagree: {clean}")

        pred = sorted((work / "b" / "preds").glob("*.txt"))[0]
        flip_one_bit(pred)
        workload.attach_checks(second["commands"][1:2])
        flipped = run.failed_invocations([first, second], None, None)
        if len(flipped) != 1 or "discover" not in flipped[0]:
            errors.append(f"flipped byte in {pred.name} not caught once, on discover: {flipped}")

        broken = rep(work / "c", gp_config, seeds="0")  # discover rejects --seeds 0 with exit 1
        failures = run.failed_invocations([broken], None, None)
        if not any("discover: exit 1" in f for f in failures):
            errors.append(f"nonzero exit not counted as a failed invocation: {failures}")
        print(f"nonzero exit: failed_ops {len(failures)}/{len(broken['commands'])}: {failures}")

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = rep(work / "d", gp_config, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics(traced["wall_s"], 0.0)
        if run.failed_invocations([first, traced], None, None):
            errors.append("tracing changed an output")
        if layers["gp.fitness.calls"] == 0 or not 0.99 <= layers["trace.accounted_share"] <= 1.0:
            errors.append(f"traced spans incomplete: {layers}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for error in errors:
        print("FAIL:", error)
    print("selftest ok" if not errors else f"selftest failed ({len(errors)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
