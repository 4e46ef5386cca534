"""Deterministic tabular dataset generation from problem specs.

Sampling follows each variable's declared distribution: log-uniform draws a
magnitude whose base-10 logarithm is uniform, then applies the sign
constraint (an unconstrained variable gets a random sign, so physically
signed quantities are not silently positive-only); uniform draws directly;
integer classes round to the nearest integer. Rows that violate a constraint
after rounding or make the true formula fault (division by zero, log of a
non-positive, overflow) are rejected and redrawn, so emitted datasets are
fault-free. Everything is deterministic given (spec, n, seed).

On-disk format: one row per line, sampled variables in spec order with the
target last. ``write`` prints each float64 cell as its shortest round-trip
digits, one space between cells, ``\\n`` after each row; it computes those
digits itself (:mod:`.floattext`) and its bytes equal ``repr``'s. It refuses
a non-finite cell with ``read``'s ``DataError`` before the file is opened,
so no data file holds one; ``inject_noise`` refuses a noise level, noise
scale or noisy target that is not finite. ``read`` parses with
``np.loadtxt`` and accepts:

- lines ending in ``\\n``, ``\\r\\n`` or ``\\r``; blank and whitespace-only
  lines are skipped;
- cells separated by any whitespace (spaces, tabs, form feeds, ...), with
  leading and trailing whitespace ignored;
- a cell is ASCII text that Python's ``float`` reads and that holds no
  underscore: ``3``, ``-0.5``, ``.5``, ``1e-05``, ``5e-324``. ``#`` starts
  no comment; it is a non-numeric cell.

Every other file raises ``DataError`` with one of five texts, naming the
file and the first fault: ``not UTF-8 text (R at byte offset B)``, ``non-numeric
value on line N``, ``expected W columns, found M on line N`` (N counts file
lines, blank ones included), ``no data rows``, and ``non-finite value in
data row N`` (N counts data rows; ``nan`` and ``inf`` parse but are
rejected). A ``true_eq.txt`` that is not UTF-8 raises the first of these.

A problem directory holds train.txt / val.txt / test.txt plus true_eq.txt
(line 1: the true skeleton in preorder tokens; line 2: its constant values
in preorder, one per ``C``, possibly empty).
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import ProblemSpec
from .expr import (
    DecodeError,
    Expression,
    constant_values,
    decode_preorder,
    evaluate_many,
    op_node,
    to_program,
    var,
    variable_index,
)
from .expr.skeleton import constant_leaf
from .floattext import format_rows

DEFAULT_ROWS = 10_000
DEFAULT_RATIOS = (0.8, 0.1, 0.1)

# Rejection sampling gives up when acceptance stays below 1% after this many
# multiples of the requested row count.
_INFEASIBLE_FACTOR = 50
_MIN_PROBE = 20_000


class DataError(ValueError):
    """Malformed dataset file or invalid generation request."""


class SamplingInfeasibleError(DataError):
    """Rejection rate exceeded 99% over the probe window."""


@dataclass
class Dataset:
    """A table of float64 rows; which problem and split it holds is known
    only to the caller."""

    values: np.ndarray  # (n, k+1); last column is the target

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def X(self) -> np.ndarray:
        return self.values[:, :-1]

    @property
    def y(self) -> np.ndarray:
        return self.values[:, -1]


def derive_seed(master_seed: int, problem_id: str) -> np.random.SeedSequence:
    """Independent per-problem stream: parallel generation over problems can
    never change any problem's bytes."""
    return np.random.SeedSequence([int(master_seed), zlib.crc32(problem_id.encode("utf-8"))])


def _draw_columns(spec: ProblemSpec, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """One batch of candidate rows plus a per-row constraint-violation mask."""
    columns = []
    violated = np.zeros(count, dtype=bool)
    for var in spec.sampled_variables:
        dist = var.dist
        if dist.kind == "loguniform":
            exponents = rng.uniform(np.log10(dist.lo), np.log10(dist.hi), count)
            values = np.power(10.0, exponents)
            if var.sign == "negative":
                values = -values
            elif var.sign == "any":
                values = values * (rng.integers(0, 2, count) * 2.0 - 1.0)
        else:
            values = rng.uniform(dist.lo, dist.hi, count)
        if var.value_class in ("integer", "wide_integer"):
            values = np.rint(values)
        if var.sign == "positive":
            violated |= values <= 0.0
        elif var.sign == "negative":
            violated |= values >= 0.0
        elif var.sign == "nonnegative":
            violated |= values < 0.0
        columns.append(values)
    X = np.column_stack(columns) if columns else np.empty((count, 0))
    return X, violated


def sample(spec: ProblemSpec, n: int, seed) -> Dataset:
    """Draw ``n`` fault-free rows and their targets from the spec."""
    if n < 1:
        raise DataError(f"row count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    program = to_program(spec.canonical_expression)
    chunks: list[np.ndarray] = []
    accepted = 0
    drawn = 0
    while accepted < n:
        batch = max(2 * (n - accepted), 1024)
        X, violated = _draw_columns(spec, rng, batch)
        y, faulted = evaluate_many(program, X)
        keep = ~(violated | faulted)
        good = np.column_stack([X[keep], y[keep]])
        chunks.append(good)
        accepted += good.shape[0]
        drawn += batch
        if drawn >= max(_MIN_PROBE, _INFEASIBLE_FACTOR * n) and accepted < 0.01 * drawn:
            raise SamplingInfeasibleError(
                f"{spec.id}: rejection rate above 99% ({accepted}/{drawn} accepted)"
            )
    return Dataset(np.concatenate(chunks, axis=0)[:n])


def split_sizes(n: int, ratios=DEFAULT_RATIOS) -> tuple[int, int, int]:
    """Row counts of the train/val/test parts :func:`split` cuts from ``n``
    rows; a part may be empty."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise DataError(f"need three positive ratios, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must sum to 1, got {sum(ratios)!r}")
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    return n_train, n_val, n - n_train - n_val


def split(ds: Dataset, ratios=DEFAULT_RATIOS) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint, covering, order-preserving train/val/test partition."""
    n_train, n_val, _ = split_sizes(ds.n_rows, ratios)
    bounds = (0, n_train, n_train + n_val, ds.n_rows)
    return tuple(Dataset(ds.values[lo:hi].copy()) for lo, hi in zip(bounds, bounds[1:]))


def inject_noise(ds: Dataset, gamma: float, seed, mode: str = "mean") -> Dataset:
    """Add Gaussian noise to the target column.

    The noise scale is ``gamma * sqrt(|mean(y)|)``. Targets are signed, so
    the mean is run through ``abs`` before the square root; ``mode="rms"``
    switches the inner statistic to the mean square. ``gamma=0`` returns
    bit-identical targets. A noise scale or a noisy target that is not
    finite raises ``DataError``, without an overflow warning.
    """
    if not 0 <= gamma < math.inf:
        raise DataError(f"noise level must be finite and >= 0, got {gamma}")
    values = ds.values.copy()
    if gamma > 0:
        with np.errstate(over="ignore"):
            if mode == "mean":
                scale = gamma * np.sqrt(np.abs(values[:, -1].mean()))
            elif mode == "rms":
                scale = gamma * np.sqrt(np.mean(values[:, -1] ** 2))
            else:
                raise DataError(f"unknown noise mode {mode!r}")
        if not np.isfinite(scale):
            raise DataError(f"noise level {gamma} gives a non-finite noise scale")
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):
            values[:, -1] = values[:, -1] + rng.normal(0.0, scale, values.shape[0])
        if not np.isfinite(values[:, -1]).all():
            raise DataError(f"noise level {gamma} gives a non-finite noisy target")
    return Dataset(values)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def _check_finite(values: np.ndarray, path) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        bad_row = np.flatnonzero(~finite.all(axis=1))[0]
        raise DataError(f"{path}: non-finite value in data row {bad_row + 1}")


def write(ds: Dataset, path) -> None:
    """Write ``ds.values`` as float64 text: each cell the digits ``repr``
    prints, cells joined by one space, each row ending in ``\\n``; zero rows
    write ``\\n``. A non-finite cell raises ``DataError`` before the file is
    opened."""
    values = np.asarray(ds.values, dtype=np.float64)
    _check_finite(values, path)
    Path(path).write_bytes(format_rows(values))


def read_text(path) -> str:
    """The text of ``path``, decoded as UTF-8; any other bytes raise
    ``DataError``. Data files, ``true_eq.txt``, expression files, manifests
    and GP configs are read through here."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err.reason} at byte offset {err.start})") from None


def _scan_error(path, err: ValueError) -> str:
    """The first fault, by file line, of a file ``np.loadtxt`` rejected:
    ``loadtxt`` counts data rows, not lines. The scan builds no array."""
    width = None
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            for field in fields:
                if not field.isascii() or "_" in field:
                    raise ValueError(field)
                float(field)
        except ValueError:
            return f"{path}: non-numeric value on line {lineno}"
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            return f"{path}: expected {width} columns, found {len(fields)} on line {lineno}"
    return f"{path}: {err}"


def read(path) -> Dataset:
    """Read a dataset file written by :func:`write` (or any file in the cell
    grammar of the module docstring) into ``Dataset(values)`` of float64."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, comments=None, ndmin=2, dtype=np.float64, encoding="utf-8")
    except ValueError as err:  # UnicodeDecodeError among them
        raise DataError(_scan_error(path, err)) from None
    if values.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    _check_finite(values, path)
    return Dataset(values)


def write_true_equation(spec: ProblemSpec, path) -> None:
    consts = constant_values(spec.canonical_expression)
    text = " ".join(spec.skeleton) + "\n" + " ".join(repr(float(c)) for c in consts) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_true_equation(path) -> Expression:
    """The valued expression of a ``true_eq.txt``: its token line decoded
    once, each ``C`` taking the next entry of the constant line."""
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty true-equation file")
    table = enumerate(lines[1].split() if len(lines) > 1 else [])

    def leaf(token: str, position: int) -> Expression:
        index = variable_index(token)
        if index is not None:
            return var(index)
        entry = next(table, None)
        if entry is None:
            raise DecodeError("constant table shorter than the number of C nodes")
        return constant_leaf(entry[1], f"entry {entry[0]} of the constant table")

    try:
        expr = decode_preorder(lines[0].split(), leaf, op_node)
        if next(table, None) is not None:
            raise DecodeError("constant table longer than the number of C nodes")
    except DecodeError as err:
        raise DecodeError(f"{path}: {err}") from None
    return expr


def write_problem_dir(
    spec: ProblemSpec,
    root,
    rows: int = DEFAULT_ROWS,
    seed: int = 0,
    noise_level: float = 0.0,
    ratios=DEFAULT_RATIOS,
    noise_mode: str = "mean",
) -> dict:
    """Generate and write one problem directory; returns a manifest entry."""
    ds = sample(spec, rows, derive_seed(seed, spec.id))
    if noise_level > 0:
        noise_seed = np.random.SeedSequence([seed, zlib.crc32(spec.id.encode("utf-8")), 0x5E])
        try:
            ds = inject_noise(ds, noise_level, noise_seed, mode=noise_mode)
        except DataError as err:
            raise DataError(f"{spec.id}: {err}") from None
    train, val, test = split(ds, ratios)
    out = Path(root) / spec.id
    out.mkdir(parents=True, exist_ok=True)
    for part, name in ((train, "train.txt"), (val, "val.txt"), (test, "test.txt")):
        write(part, out / name)
    write_true_equation(spec, out / "true_eq.txt")
    return {
        "id": spec.id,
        "set": spec.set_name,
        "rows": rows,
        "noise_level": noise_level,
        "columns": spec.column_names,
        "splits": {"train": train.n_rows, "val": val.n_rows, "test": test.n_rows},
    }
