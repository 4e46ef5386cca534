"""The sampler's refusal before drawing (:func:`srsdkit.expr.sure_fault`)
against the sampling loop itself, on random ``synth`` equations with random
ranges over several seeds: for every spec the proof refuses, the sampling
loop, run with the proof switched off, must accept no row of its probe.

Run as a script for a longer sweep:

    PYTHONPATH=src python tests/test_infeasible_sweep.py --specs 2000
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from unittest import mock

import numpy as np

from srsdkit import datagen
from srsdkit.catalog import builtin_problems
from srsdkit.expr import sure_fault, to_program
from srsdkit.synthgen import K_MAX, K_MIN, assign_ranges, sample_equation, train_bigram

ROWS = 100
EQUATIONS_PER_SEED = 50
# Each equation gets one spec per range setting: synth's default twice, then
# wider ones, where overflow is common.
K_RANGES = ((-8, 8), (-8, 8), (-30, 30), (K_MIN, K_MAX))


def sweep_specs(count: int):
    """``count`` synthetic specs, ``len(K_RANGES)`` per equation, with
    equations drawn under seeds 1, 2, ... in turn."""
    model = train_bigram([spec.skeleton for spec in builtin_problems()])

    def specs():
        for seed in itertools.count(1):
            for i in range(EQUATIONS_PER_SEED):
                expr = sample_equation(model, 32, np.random.SeedSequence([seed, i]))
                for copy, (k_lo, k_hi) in enumerate(K_RANGES):
                    yield assign_ranges(expr, np.random.SeedSequence([seed, i, copy]),
                                        k_lo=k_lo, k_hi=k_hi,
                                        problem_id=f"sweep-{seed}-{i}-{copy}")

    return itertools.islice(specs(), count)


def accepted_without_proof(spec) -> int:
    """The rows the sampling loop accepts for ``spec`` with the proof
    switched off: ``ROWS`` when it finishes, else its count at refusal."""
    with mock.patch.object(datagen, "sure_fault", lambda program, box: None):
        try:
            datagen.sample(spec, ROWS, datagen.derive_seed(0, spec.id))
        except datagen.SamplingInfeasibleError as err:
            return int(re.search(r"\((\d+)/\d+ accepted\)", str(err)).group(1))
    return ROWS


def run(count: int) -> tuple[int, list[str]]:
    """How many of ``count`` specs the proof refuses, and one line for each
    refused spec of which the sampling loop accepts a row."""
    refused, unsound = 0, []
    for spec in sweep_specs(count):
        fault = sure_fault(to_program(spec.canonical_expression), datagen._box(spec))
        if fault is None:
            continue
        refused += 1
        accepted = accepted_without_proof(spec)
        if accepted:
            unsound.append(f"{spec.id}: refused at {fault[0]} (position {fault[1]}), "
                           f"but the sampler accepts {accepted} rows")
    return refused, unsound


def test_every_refused_spec_samples_no_row():
    refused, unsound = run(200)
    assert refused > 20
    assert unsound == []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--specs", type=int, default=2000)
    args = ap.parse_args(argv)
    refused, unsound = run(args.specs)
    for line in unsound:
        print(f"unsound: {line}", file=sys.stderr)
    print(f"{args.specs} specs, {refused} refused without drawing, "
          f"{refused - len(unsound)} of them confirmed by the sampler")
    return 1 if unsound else 0


if __name__ == "__main__":
    sys.exit(main())
