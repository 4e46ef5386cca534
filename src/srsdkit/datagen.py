"""Deterministic tabular dataset generation from problem specs.

Sampling follows each variable's declared distribution: log-uniform draws a
magnitude whose base-10 logarithm is uniform, then applies the sign
constraint (an unconstrained variable gets a random sign, so physically
signed quantities are not silently positive-only); uniform draws directly;
integer classes round to the nearest integer. Rows that violate a constraint
after rounding or make the true formula fault (division by zero, log of a
non-positive, overflow) are rejected and redrawn, so emitted datasets are
fault-free. Everything is deterministic given (spec, n, seed).

A spec is infeasible when fewer than 1% of the rows drawn are good. Before
drawing, ``sample`` bounds the formula over the box of the variables' ranges
(:func:`.expr.sure_fault`): when some operator is non-finite on every row of
that box, no row can be good, and the spec is refused without a draw.
Otherwise the sampler finds out by drawing, after at least 20,000 rows.

One problem is generated without copies: each batch of candidates is one
Fortran-ordered array, its good rows go straight into the one ``n x (k+1)``
table ``sample`` returns, ``split`` cuts row-range views of that table, and
``write`` sends each chunk of text to the file as it is formatted. The peak
is the table, one batch with the formula's temporaries, and one chunk.

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

A problem directory holds the ``SPLIT_FILES`` train.txt / val.txt / test.txt
plus ``TRUE_EQ_FILE`` true_eq.txt (line 1: the true skeleton in preorder
tokens; line 2: its constant values in preorder, one per ``C``, possibly
empty). Other modules use these names; :func:`problem_dirs` finds the problems,
and :func:`read_splits` reads a problem's split files, all of one width.
:func:`generate` is ``srsdkit generate``: problem directories plus a ``MANIFEST_FILE``.
"""

from __future__ import annotations

import json
import math
import warnings
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .catalog import ProblemSpec, load_specs
from .errors import ArgumentError, DataError, read_text
from .expr import (
    DecodeError,
    Expression,
    constant_values,
    decode_preorder,
    evaluate_many,
    op_node,
    sure_fault,
    to_program,
    var,
    variable_index,
)
from .expr.skeleton import constant_leaf
from .floattext import format_rows

DEFAULT_ROWS = 10_000
DEFAULT_RATIOS = (0.8, 0.1, 0.1)
SPLIT_FILES = {"train": "train.txt", "val": "val.txt", "test": "test.txt"}
TRUE_EQ_FILE = "true_eq.txt"
MANIFEST_FILE = "manifest.json"
NOISE_MODES = ("mean", "rms")

# Rejection sampling gives up when acceptance stays below 1% after this many
# multiples of the requested row count.
_INFEASIBLE_FACTOR = 50
_MIN_PROBE = 20_000


class SamplingInfeasibleError(DataError):
    """Rejection rate exceeded 99% over the probe window, or an operator of
    the formula is non-finite on every row the ranges allow."""


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


def json_text(payload) -> str:
    """The text of every JSON report and manifest: sorted keys, two-space
    indent, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_manifest(manifest: dict, root) -> dict:
    """Write ``manifest`` as :func:`json_text` to ``MANIFEST_FILE`` under ``root``,
    made if missing; returns it."""
    Path(root).mkdir(parents=True, exist_ok=True)
    (Path(root) / MANIFEST_FILE).write_text(json_text(manifest), encoding="utf-8")
    return manifest


def check_counts(**counts: int) -> None:
    """Raise ``ArgumentError`` naming the first of ``counts`` below 1."""
    for name, count in counts.items():
        if count < 1:
            raise ArgumentError("{%s} must be >= 1, got {count}" % name, count=count)


def map_workers(func, work: list, workers: int) -> list:
    """``func`` over ``work`` in order; in a process pool when ``workers`` > 1."""
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # one-process runs skip its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, work))
    return [func(w) for w in work]


def derive_seed(master_seed: int, problem_id: str) -> np.random.SeedSequence:
    """Independent per-problem stream: parallel generation over problems can
    never change any problem's bytes."""
    return np.random.SeedSequence([int(master_seed), zlib.crc32(problem_id.encode("utf-8"))])


def _draw_columns(spec: ProblemSpec, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """One batch of candidate rows plus a per-row constraint-violation mask.

    The batch is one Fortran-ordered array, each variable's draws written
    into its own contiguous column."""
    X = np.empty((count, len(spec.sampled_variables)), order="F")
    violated = np.zeros(count, dtype=bool)
    for var, values in zip(spec.sampled_variables, X.T):
        dist = var.dist
        if dist.kind == "loguniform":
            np.power(10.0, rng.uniform(np.log10(dist.lo), np.log10(dist.hi), count), out=values)
            if var.sign == "negative":
                np.negative(values, out=values)
            elif var.sign == "any":
                values *= rng.integers(0, 2, count) * 2.0 - 1.0
        else:
            values[:] = rng.uniform(dist.lo, dist.hi, count)
        if var.value_class in ("integer", "wide_integer"):
            np.rint(values, out=values)
        if var.sign == "positive":
            violated |= values <= 0.0
        elif var.sign == "negative":
            violated |= values >= 0.0
        elif var.sign == "nonnegative":
            violated |= values < 0.0
    return X, violated


def _box(spec: ProblemSpec) -> list[tuple[float, float]]:
    """The range of each column :func:`_draw_columns` draws, before
    rounding: a signed log-uniform magnitude, or a uniform value, widened by
    one half for ``rint``."""
    box = []
    for var in spec.sampled_variables:
        lo, hi = var.dist.lo, var.dist.hi
        if var.dist.kind == "loguniform" and var.sign == "negative":
            lo, hi = -hi, -lo
        elif var.dist.kind == "loguniform" and var.sign == "any":
            lo = -hi
        if var.value_class in ("integer", "wide_integer"):
            lo, hi = lo - 0.5, hi + 0.5
        box.append((lo, hi))
    return box


def sample(spec: ProblemSpec, n: int, seed) -> Dataset:
    """Draw ``n`` fault-free rows and their targets from the spec.

    A spec whose formula has an operator that is non-finite everywhere on
    the box of its variables' ranges raises ``SamplingInfeasibleError``
    naming that operator, before any draw; see :func:`.expr.sure_fault`.
    Batches of ``max(2 * (n - accepted), 1024)`` candidate rows are drawn
    until ``n`` are accepted; each batch's good rows are copied, column by
    column, straight into one preallocated ``n x (k+1)`` table, and rows past
    the ``n``-th are dropped. The infeasibility test counts every good row
    drawn, kept or not."""
    check_counts(n=n)
    rng = np.random.default_rng(seed)
    program = to_program(spec.canonical_expression)
    fault = sure_fault(program, _box(spec))
    if fault is not None:
        raise SamplingInfeasibleError(
            f"{spec.id}: {fault[0]} at preorder position {fault[1]} is non-finite"
            " on every row the variable ranges allow"
        )
    table = np.empty((n, len(spec.sampled_variables) + 1))
    accepted = 0
    drawn = 0
    while accepted < n:
        batch = max(2 * (n - accepted), 1024)
        X, violated = _draw_columns(spec, rng, batch)
        y, faulted = evaluate_many(program, X)
        good = np.flatnonzero(~(violated | faulted))
        rows = good[:n - accepted]
        part = table[accepted:accepted + rows.size]
        for j, column in enumerate((*X.T, y)):
            part[:, j] = column[rows]
        accepted += good.size
        drawn += batch
        if drawn >= max(_MIN_PROBE, _INFEASIBLE_FACTOR * n) and accepted < 0.01 * drawn:
            raise SamplingInfeasibleError(
                f"{spec.id}: rejection rate above 99% ({accepted}/{drawn} accepted)"
            )
    return Dataset(table)


def split_sizes(n: int, ratios=DEFAULT_RATIOS) -> tuple[int, int, int]:
    """Row counts of the train/val/test parts :func:`split` cuts from ``n``
    rows; a part may be empty. ``ratios`` that are not three positive numbers
    that sum to 1 raise ``ArgumentError``."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ArgumentError("{ratios} must be three positive numbers that sum to 1, got {value!r}",
                            value=ratios)
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    return n_train, n_val, n - n_train - n_val


def split(ds: Dataset, ratios=DEFAULT_RATIOS) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint, covering, order-preserving train/val/test partition. Each
    part is a row-range view of ``ds.values``, not a copy."""
    n_train, n_val, _ = split_sizes(ds.n_rows, ratios)
    bounds = (0, n_train, n_train + n_val, ds.n_rows)
    return tuple(Dataset(ds.values[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def check_rows(rows: int, ratios=DEFAULT_RATIOS) -> None:
    """Raise ``ArgumentError`` for ``ratios`` :func:`split_sizes` refuses, or
    unless every split of ``rows`` rows gets a row: no call reads an empty
    split file."""
    sizes = split_sizes(rows, ratios)
    check_counts(rows=rows)
    for name, size in zip(SPLIT_FILES, sizes):
        if size == 0:
            raise ArgumentError(
                "{rows} {count} leaves the {split} split empty (train/val/test rows {sizes})",
                count=rows, split=name, sizes="/".join(map(str, sizes)))


def check_noise(level: float, mode: str) -> None:
    """Raise ``ArgumentError`` for a noise level that is not finite and
    >= 0, or for a mode not in ``NOISE_MODES``."""
    if not 0 <= level < math.inf:
        raise ArgumentError("{noise_level} must be finite and >= 0, got {level}", level=level)
    if mode not in NOISE_MODES:
        raise ArgumentError("{noise_mode} must be one of {modes}, got {mode!r}",
                            modes=NOISE_MODES, mode=mode)


def inject_noise(ds: Dataset, gamma: float, seed, mode: str = "mean") -> Dataset:
    """Add Gaussian noise to the target column.

    The noise scale is ``gamma * sqrt(|mean(y)|)``. Targets are signed, so
    the mean is run through ``abs`` before the square root; ``mode="rms"``
    switches the inner statistic to the mean square. ``gamma=0`` returns
    bit-identical targets. Settings :func:`check_noise` refuses, and a noise
    scale or a noisy target that is not finite, raise ``DataError``, without
    an overflow warning.
    """
    check_noise(gamma, mode)
    values = ds.values.copy()
    if gamma > 0:
        with np.errstate(over="ignore"):
            if mode == "mean":
                scale = gamma * np.sqrt(np.abs(values[:, -1].mean()))
            else:
                scale = gamma * np.sqrt(np.mean(values[:, -1] ** 2))
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
    opened. The text goes to the file one chunk at a time, as
    :func:`.floattext.format_rows` yields it."""
    values = np.asarray(ds.values, dtype=np.float64)
    _check_finite(values, path)
    with open(path, "wb") as file:
        file.writelines(format_rows(values))


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


def read_splits(pdir, names, optional=()) -> dict[str, Dataset]:
    """The :func:`read` of each split ``names`` of the ``SPLIT_FILES`` of
    problem directory ``pdir``, then of each split ``optional`` whose file
    exists, by split name. A split whose width differs from the first's
    raises ``DataError``: ``expected W columns as in train.txt, found M``."""
    pdir = Path(pdir)
    names = [*names, *(name for name in optional if (pdir / SPLIT_FILES[name]).is_file())]
    parts: dict[str, Dataset] = {}
    for name in names:
        part = parts[name] = read(pdir / SPLIT_FILES[name])
        width = parts[names[0]].values.shape[1]
        if part.values.shape[1] != width:
            raise DataError(f"{pdir / SPLIT_FILES[name]}: expected {width} columns as in "
                            f"{SPLIT_FILES[names[0]]}, found {part.values.shape[1]}")
    return parts


def write_true_equation(spec: ProblemSpec, path) -> None:
    consts = constant_values(spec.canonical_expression)
    text = " ".join(spec.skeleton) + "\n" + " ".join(repr(float(c)) for c in consts) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_expression_line(path) -> str:
    """The first non-blank line of an expression file: its preorder tokens."""
    for line in read_text(path).splitlines():
        if line.strip():
            return line
    raise DataError(f"{path}: no expression line")


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
    """Generate and write one problem directory; returns a manifest entry.
    Noise settings :func:`check_noise` refuses raise before anything is drawn."""
    check_noise(noise_level, noise_mode)
    problem_seed = derive_seed(seed, spec.id)
    ds = sample(spec, rows, problem_seed)
    if noise_level > 0:
        noise_seed = np.random.SeedSequence([*problem_seed.entropy, 0x5E])
        try:
            ds = inject_noise(ds, noise_level, noise_seed, mode=noise_mode)
        except DataError as err:
            raise DataError(f"{spec.id}: {err}") from None
    parts = dict(zip(SPLIT_FILES, split(ds, ratios)))
    out = Path(root) / spec.id
    out.mkdir(parents=True, exist_ok=True)
    for name, part in parts.items():
        write(part, out / SPLIT_FILES[name])
    write_true_equation(spec, out / TRUE_EQ_FILE)
    return {
        "id": spec.id,
        "set": spec.set_name,
        "rows": rows,
        "noise_level": noise_level,
        "columns": spec.column_names,
        "splits": {name: part.n_rows for name, part in parts.items()},
    }


def problem_dirs(root) -> list[Path]:
    """The subdirectories of ``root`` with a ``TRUE_EQ_FILE``, sorted; none is a ``DataError``."""
    dirs = [p for p in sorted(Path(root).iterdir()) if (p / TRUE_EQ_FILE).is_file()]
    if not dirs:
        raise DataError(f"{root}: no problem directories (missing {TRUE_EQ_FILE} files)")
    return dirs


def generate(out, set_name: str = "all", catalog_files=(), rows: int = DEFAULT_ROWS, seed: int = 0,
             noise_level: float = 0.0, noise_mode: str = "mean", ratios=DEFAULT_RATIOS,
             workers: int = 1) -> dict:
    """What ``srsdkit generate`` does: one :func:`write_problem_dir` under
    ``out`` per spec of :func:`.catalog.load_specs`, in ``workers``
    processes, then the ``MANIFEST_FILE`` it returns. Its ``check_*``
    functions refuse arguments first."""
    check_counts(workers=workers)
    check_noise(noise_level, noise_mode)
    check_rows(rows, ratios)
    specs = load_specs(catalog_files, set_name)
    write_one = partial(write_problem_dir, root=out, rows=rows, seed=seed, noise_level=noise_level,
                        ratios=ratios, noise_mode=noise_mode)
    entries = sorted(map_workers(write_one, specs, workers), key=lambda e: e["id"])
    config = {"set": set_name, "rows": rows, "master_seed": seed, "noise_level": noise_level,
              "noise_mode": noise_mode, "split_ratios": list(ratios),
              "catalog_files": list(catalog_files)}
    return write_manifest({"command": "generate", "config": config, "problems": entries}, out)
