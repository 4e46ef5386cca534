"""``datagen.write`` against the one-``repr``-per-cell line writer on a sweep
of the cases a shortest-digits formatter gets wrong first: random bit
patterns, subnormals, powers of 2 and 10 and their neighbours, integers
around 2**53, the switch points between fixed and exponent notation, and
all of them negated. Each sweep is written as a narrow table of many chunks
and as rows wider than a chunk, so chunk seams and row ends are hit.

Run as a script for a longer random sweep, in batches of a million cells:

    PYTHONPATH=src python tests/test_write_sweep.py --random-cells 10000000
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from oracle import line_write_text
from srsdkit.datagen import Dataset, write
from srsdkit.floattext import _CHUNK_CELLS

BATCH = 1_000_000


def with_neighbours(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def special_values() -> np.ndarray:
    """The fixed part of the sweep, both signs."""
    subnormals = np.arange(1, 100_000, dtype=np.uint64).view(np.float64)  # from 5e-324 up
    powers = with_neighbours(np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [float(f"1e{e}") for e in range(-323, 309)],
    ]))
    around_2_53 = 2.0**53 + np.arange(-1000.0, 1001.0)
    switches = with_neighbours(with_neighbours([1e-4, 1e-5, 1e16, 1e17]))
    values = np.concatenate([[0.0, 5e-324], subnormals, powers, around_2_53, switches])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def random_values(count: int, seed: int) -> np.ndarray:
    """``count`` seeded random 64-bit patterns, the non-finite ones dropped."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def mismatch(values: np.ndarray, directory: Path) -> str | None:
    """The first cell ``write`` prints unlike ``repr``, as a narrow table and
    as rows one cell wider than a chunk; ``None`` when every byte agrees."""
    for width in (7, _CHUNK_CELLS + 1):
        table = np.resize(values, (-(-len(values) // width), width))  # the last row wraps around
        path = directory / f"sweep-{width}.txt"
        write(Dataset(table), path)
        got, expected = path.read_bytes().split(b"\n"), line_write_text(table).encode().split(b"\n")
        if got != expected:
            for line, (ours, theirs) in enumerate(zip(got, expected)):
                if ours != theirs:
                    cells = [(a, b) for a, b in zip(ours.split(), theirs.split()) if a != b]
                    return f"width {width}, line {line + 1}: wrote {cells[0][0]!r}, repr {cells[0][1]!r}"
            return f"width {width}: {len(got)} lines written, {len(expected)} expected"
    return None


def sweep(random_cells: int):
    """The fixed cases, then ``random_cells`` random ones in seeded batches."""
    yield special_values()
    for i, start in enumerate(range(0, random_cells, BATCH)):
        yield random_values(min(BATCH, random_cells - start), seed=20 + i)


def test_write_matches_the_line_writer_on_a_sweep(tmp_path):
    for values in sweep(BATCH):
        assert mismatch(values, tmp_path) is None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--random-cells", type=int, default=BATCH)
    args = ap.parse_args(argv)
    cells = 0
    with tempfile.TemporaryDirectory() as tmp:
        for values in sweep(args.random_cells):
            found = mismatch(values, Path(tmp))
            if found:
                print(f"mismatch: {found}", file=sys.stderr)
                return 1
            cells += len(values)
    print(f"{cells} cells: every byte equals repr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
