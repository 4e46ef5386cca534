"""Peak traced memory of ``datagen.write_problem_dir`` on one problem.

The peak stays within twice the bytes of the problem's table plus those of
its first batch of candidate rows.

``sample`` draws each batch into one array and copies its good rows into one
preallocated table; ``split`` cuts views of that table, and ``write`` streams
each chunk of text to the file. Stacking the batch with its targets, a
copy of the finished table, or a whole file's text held at once breaks the
bound on at least one of the two problems. (A copy made by ``split`` comes
after the batch is freed and stays below the peak; ``test_datagen`` checks
that the parts are views.) tracemalloc counts numpy's array allocations, so
the peak does not depend on the machine's allocator.

Run as a script for a larger table:

    PYTHONPATH=src python tests/test_generate_memory.py --rows 1000000
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc

import pytest

from srsdkit.catalog import load_builtin
from srsdkit.datagen import write_problem_dir

ROWS = 100_000
PROBLEMS = ("I.9.18", "I.12.1")  # eight sampled variables, and two


def peak_ratio(problem_id: str, rows: int, root) -> float:
    """The traced peak of ``write_problem_dir`` at ``rows`` rows, over the
    bytes of the table plus the first batch."""
    spec = load_builtin(problem_id)
    # The warm-up builds floattext's tables and imports numpy.random, once
    # per process, outside the trace.
    write_problem_dir(spec, root, rows=10)
    k = len(spec.sampled_variables)
    table = rows * (k + 1) * 8
    batch = max(2 * rows, 1024) * k * 8
    tracemalloc.start()
    try:
        write_problem_dir(spec, root, rows=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (table + batch)


@pytest.mark.parametrize("problem_id", PROBLEMS)
def test_generation_holds_no_copy_of_the_table_or_batch(tmp_path, problem_id):
    assert peak_ratio(problem_id, ROWS, tmp_path) <= 2.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=ROWS)
    args = ap.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for problem_id in PROBLEMS:
            ratio = peak_ratio(problem_id, args.rows, tmp)
            print(f"{problem_id}: peak {ratio:.3f} x (table + batch) at {args.rows} rows")
            failed += ratio > 2.0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
