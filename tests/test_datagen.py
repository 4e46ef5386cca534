import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracle import line_read_values, line_write_text

from srsdkit.catalog import ProblemSpec, VariableSpec, builtin_problems, load_builtin, loguniform, uniform
from srsdkit.datagen import (
    DataError,
    Dataset,
    SamplingInfeasibleError,
    derive_seed,
    inject_noise,
    read,
    read_true_equation,
    sample,
    split,
    split_sizes,
    write,
    write_problem_dir,
    write_true_equation,
)
from srsdkit.expr import constant_values, evaluate_many, skeletonize
from srsdkit.floattext import _CHUNK_CELLS


def test_sampling_is_deterministic():
    spec = load_builtin("I.12.1")
    a = sample(spec, 500, derive_seed(42, spec.id))
    b = sample(spec, 500, derive_seed(42, spec.id))
    assert (a.values == b.values).all()
    c = sample(spec, 500, derive_seed(43, spec.id))
    assert not (a.values == c.values).all()


def test_constant_column_absent_and_ranges_respected():
    spec = load_builtin("I.12.4")
    ds = sample(spec, 2000, 1)
    assert ds.values.shape == (2000, 3)
    q1, r = ds.X[:, 0], ds.X[:, 1]
    assert (np.abs(q1) >= 1e-3).all() and (np.abs(q1) <= 1e-1).all()
    assert (r >= 1e-2).all() and (r <= 1e0).all() and (r > 0).all()
    # unconstrained charge gets both signs
    assert (q1 > 0).any() and (q1 < 0).any()


def test_integer_columns_are_integers_in_range():
    spec = load_builtin("I.30.5")
    ds = sample(spec, 3000, 2)
    n = ds.X[:, 1]
    assert (n == np.rint(n)).all()
    assert n.min() >= 1 and n.max() <= 100


def test_target_reproduces_from_rows():
    for pid in ("I.12.1", "I.27.6", "II.2.42", "B7"):
        spec = load_builtin(pid)
        ds = sample(spec, 800, derive_seed(9, pid))
        values, faulted = evaluate_many(spec.canonical_expression, ds.X)
        assert not faulted.any()
        assert (values == ds.y).all()


def test_zero_rows_rejected():
    with pytest.raises(DataError):
        sample(load_builtin("I.12.1"), 0, 0)


def test_infeasible_sampling_raises():
    # Refused before any draw: the base of sqrt is at most -1 on [0, 1].
    spec = ProblemSpec(
        id="impossible", set_name="easy", formula="sqrt(-1 - x^2)",
        variables=[VariableSpec("x", uniform(0.0, 1.0))],
    )
    with pytest.raises(SamplingInfeasibleError, match="impossible: pow at preorder position 0 "
                       "is non-finite on every row the variable ranges allow"):
        sample(spec, 10, 0)


def test_infeasible_sampling_found_by_drawing():
    # The operand of log straddles 0 on [0, 1], so no proof applies; only
    # 2 of the 20,480 rows drawn are good.
    spec = ProblemSpec(
        id="rare", set_name="easy", formula="log(x - 0.9999)",
        variables=[VariableSpec("x", uniform(0.0, 1.0))],
    )
    with pytest.raises(SamplingInfeasibleError, match=r"rare: rejection rate above 99% "
                       r"\(2/20480 accepted\)"):
        sample(spec, 10, 0)


def test_a_refused_spec_draws_nothing(monkeypatch):
    import srsdkit.datagen as datagen

    calls = []
    monkeypatch.setattr(datagen, "_draw_columns", lambda *args: calls.append(args))
    spec = ProblemSpec(
        id="huge", set_name="easy", formula="exp(x)",
        variables=[VariableSpec("x", loguniform(1e3, 1e4), sign="positive")],
    )
    with pytest.raises(SamplingInfeasibleError, match="huge: exp at preorder position 0"):
        sample(spec, 10, 0)
    assert calls == []


def test_loguniform_magnitudes_are_log_uniform():
    spec = load_builtin("I.12.1")
    ds = sample(spec, 10_000, derive_seed(3, spec.id))
    logs = np.log10(np.abs(ds.X[:, 0]))
    # KS statistic against uniform on [-2, 0]
    xs = np.sort((logs + 2.0) / 2.0)
    grid = np.arange(1, xs.size + 1) / xs.size
    ks = max(np.max(np.abs(grid - xs)), np.max(np.abs(xs - (grid - 1.0 / xs.size))))
    assert ks < 0.02


def test_split_sizes_and_order():
    spec = load_builtin("I.12.1")
    ds = sample(spec, 1000, 0)
    train, val, test = split(ds)
    assert (train.n_rows, val.n_rows, test.n_rows) == (800, 100, 100)
    assert (np.concatenate([train.values, val.values, test.values]) == ds.values).all()
    assert all(part.values.base is ds.values for part in (train, val, test))  # views, not copies

    tiny = split(sample(spec, 10, 0))
    assert tuple(p.n_rows for p in tiny) == (8, 1, 1)
    for n in range(12):
        assert tuple(p.n_rows for p in split(Dataset(ds.values[:n]))) == split_sizes(n)
    assert split_sizes(5) == (4, 0, 1)


def test_split_rejects_bad_ratios():
    ds = sample(load_builtin("I.12.1"), 10, 0)
    with pytest.raises(DataError):
        split(ds, (0.5, 0.5, 0.5))
    with pytest.raises(DataError):
        split(ds, (0.8, 0.2, -0.0))


def test_noise_zero_is_bit_exact_identity():
    ds = sample(load_builtin("I.12.1"), 1000, 0)
    noisy = inject_noise(ds, 0.0, seed=1)
    assert (noisy.values == ds.values).all()


def test_noise_std_matches_definition():
    ds = sample(load_builtin("I.12.1"), 1_000_000, derive_seed(0, "I.12.1"))
    gamma = 0.1
    noisy = inject_noise(ds, gamma, seed=7)
    sigma = gamma * math.sqrt(abs(ds.y.mean()))
    measured = (noisy.y - ds.y).std()
    assert measured == pytest.approx(sigma, rel=0.05)


def test_noise_rms_mode():
    ds = sample(load_builtin("I.12.1"), 200_000, 5)
    noisy = inject_noise(ds, 0.1, seed=7, mode="rms")
    sigma = 0.1 * math.sqrt(np.mean(ds.y ** 2))
    assert (noisy.y - ds.y).std() == pytest.approx(sigma, rel=0.05)
    with pytest.raises(DataError):
        inject_noise(ds, 0.1, seed=7, mode="median")


@pytest.mark.parametrize("gamma", [math.inf, math.nan, -1.0])
def test_noise_level_must_be_finite_and_non_negative(gamma):
    ds = Dataset(np.array([[1.0, 2.0]]))
    with pytest.raises(DataError, match="noise_level must be finite and >= 0"):
        inject_noise(ds, gamma, seed=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["mean", "rms"])
def test_noise_scale_that_overflows_is_a_data_error_without_a_warning(mode):
    ds = Dataset(np.array([[1.0, 1e300], [2.0, 1e300]]))
    with pytest.raises(DataError, match="non-finite noise scale"):
        inject_noise(ds, 1e300, seed=1, mode=mode)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_noisy_target_that_overflows_is_a_data_error_without_a_warning():
    # The huge targets cancel in the mean, so the scale (about 6.7e307) is
    # finite, but target plus noise overflows.
    y = np.array([1.7e308, -1.7e308] * 4 + [4.0])
    ds = Dataset(np.column_stack([np.arange(9.0), y]))
    with pytest.raises(DataError, match="noise level 1e\\+308 gives a non-finite noisy target"):
        inject_noise(ds, 1e308, seed=1)


def test_noise_grid_levels_supported():
    ds = sample(load_builtin("I.12.1"), 2000, 3)
    for gamma in (0.0, 1e-3, 1e-2, 1e-1):
        noisy = inject_noise(ds, gamma, seed=11)
        assert np.isfinite(noisy.y).all()


def _layouts(values: np.ndarray) -> dict[str, np.ndarray]:
    """``values`` as a C-order table, a Fortran-order table and a row-range
    view into a taller table."""
    taller = np.concatenate([np.ones((1, values.shape[1])), values, np.ones((2, values.shape[1]))])
    return {"C": np.ascontiguousarray(values), "F": np.asfortranarray(values), "view": taller[1:-2]}


def test_write_read_round_trip_is_bit_exact(tmp_path):
    # Three chunks, the last one short: 3,000 rows of 3 columns, 1,365 rows a chunk.
    ds = sample(load_builtin("II.11.28"), 3000, 8)
    assert ds.n_rows % (_CHUNK_CELLS // ds.values.shape[1]) != 0
    path = tmp_path / "rows.txt"
    write(ds, path)
    back = read(path)
    assert (back.values == ds.values).all()
    expected = line_write_text(ds.values).encode("utf-8")
    for layout, values in _layouts(ds.values).items():
        write(Dataset(values), path)
        assert path.read_bytes() == expected, layout


def test_read_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(DataError):
        read(empty)

    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1.0 2.0\n1.0\n")
    with pytest.raises(DataError) as err:
        read(ragged)
    assert "line 2" in str(err.value)

    alpha = tmp_path / "alpha.txt"
    alpha.write_text("1.0 banana\n")
    with pytest.raises(DataError) as err:
        read(alpha)
    assert "line 1" in str(err.value)

    for cell in ("nan", "inf", "-inf", "Infinity"):
        non_finite = tmp_path / "non_finite.txt"
        non_finite.write_text(f"1.0 2.0\n3.0 {cell}\n")
        with pytest.raises(DataError, match="non-finite") as err:
            read(non_finite)
        assert str(non_finite) in str(err.value)


# Recorded with the one-repr-per-cell writer before the single % format.
PINNED_WRITES = [
    (
        [[-0.0, 5e-324, 1e-05, 1e+16], [0.1 + 0.2, 1.7976931348623157e+308, 3.0, -2.5]],
        np.float64,
        "-0.0 5e-324 1e-05 1e+16\n0.30000000000000004 1.7976931348623157e+308 3.0 -2.5\n",
    ),
    ([[7.0]], np.float64, "7.0\n"),
    ([[1.5], [-0.0], [1e-07]], np.float64, "1.5\n-0.0\n1e-07\n"),
    (np.empty((0, 3)), np.float64, "\n"),
    ([[1, 2], [3, 4]], np.int64, "1.0 2.0\n3.0 4.0\n"),
    ([[0.1, 2.5]], np.float32, "0.10000000149011612 2.5\n"),
    (np.empty((3, 0)), np.float64, "\n\n\n"),
]


@pytest.mark.parametrize("rows, dtype, expected", PINNED_WRITES)
def test_writer_bytes_are_pinned(tmp_path, rows, dtype, expected):
    path = tmp_path / "rows.txt"
    write(Dataset(np.array(rows, dtype=dtype)), path)
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("cell", [math.inf, -math.inf, math.nan])
def test_write_refuses_a_non_finite_cell_with_reads_error_before_opening_the_file(tmp_path, cell):
    values = np.array([[1.0, 2.0], [3.0, cell], [cell, 4.0]])
    path, twin = tmp_path / "rows.txt", tmp_path / "twin.txt"
    with pytest.raises(DataError) as err:
        write(Dataset(values), path)
    assert str(err.value) == f"{path}: non-finite value in data row 2"
    assert not path.exists()
    twin.write_text(line_write_text(values))
    with pytest.raises(DataError) as read_err:
        read(twin)
    assert str(read_err.value) == f"{twin}: non-finite value in data row 2"


def test_empty_split_is_written_as_one_newline(tmp_path):
    write_problem_dir(load_builtin("I.12.1"), tmp_path, rows=5, seed=0)
    root = tmp_path / "I.12.1"
    assert (root / "val.txt").read_bytes() == b"\n"
    assert [len(read(root / name).values) for name in ("train.txt", "test.txt")] == [4, 1]


finite_float64 = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6), elements=finite_float64),
       st.sampled_from(["C", "F", "view"]))
def test_write_matches_line_writer_and_reads_back_bit_exact(tmp_path_factory, values, layout):
    path = tmp_path_factory.mktemp("rt") / "rows.txt"
    write(Dataset(_layouts(values)[layout]), path)
    assert path.read_bytes() == line_write_text(values).encode("utf-8")
    if values.shape[0] == 0 or values.shape[1] == 0:
        return
    back = read(path).values
    assert back.dtype == np.float64 and back.shape == values.shape
    assert (back.view(np.uint64) == values.view(np.uint64)).all()


def _render(draw, cells: list[list[str]]) -> str:
    """Lay out rows of cell text the ways the line reader accepted: any
    run of spaces and tabs between and around cells, blank and
    whitespace-only lines, and LF, CRLF or CR line endings."""
    gap = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
    pad = st.sampled_from(["", " ", "\t", "  "])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = []
    for row in cells:
        if draw(st.booleans()):
            lines.append(draw(pad))
        lines.append(draw(pad) + row[0] + "".join(draw(gap) + cell for cell in row[1:]) + draw(pad))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_read_accepts_every_layout_the_line_reader_accepted(tmp_path_factory, data):
    values = data.draw(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
                              elements=finite_float64))
    forms = [repr, lambda x: "%.17g" % x, lambda x: "%.17e" % x, lambda x: repr(x) if repr(x)[0] == "-" else "+" + repr(x)]
    cells = [[data.draw(st.sampled_from(forms))(float(x)) for x in row] for row in values]
    path = tmp_path_factory.mktemp("layout") / "rows.txt"
    path.write_bytes(_render(data.draw, cells).encode("utf-8"))
    expected = line_read_values(path)
    back = read(path).values
    assert back.shape == expected.shape
    assert (back.view(np.uint64) == expected.view(np.uint64)).all()
    assert (back.view(np.uint64) == values.view(np.uint64)).all()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["1", "-2.5", "1e5", "nan", "-inf", "banana", "#", "0x1", "1e"]),
                         min_size=0, max_size=3), min_size=0, max_size=5),
       st.sampled_from(["\n", "\r\n"]))
def test_read_fails_with_the_line_readers_words(tmp_path_factory, rows, newline):
    path = tmp_path_factory.mktemp("bad") / "rows.txt"
    path.write_bytes(newline.join(" ".join(row) for row in rows).encode("utf-8"))
    try:
        expected = line_read_values(path)
    except DataError as err:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as got:
                read(path)
        assert str(got.value) == str(err)
    else:
        assert (read(path).values.view(np.uint64) == expected.view(np.uint64)).all()


def _read_error(tmp_path, text: str) -> str:
    path = tmp_path / "rows.txt"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as err:
            read(path)
    return str(err.value).removeprefix(f"{path}: ")


def test_only_blank_lines_is_no_data_rows_without_a_warning(tmp_path):
    assert _read_error(tmp_path, "\n  \n\t\n\r\n") == "no data rows"
    assert _read_error(tmp_path, "") == "no data rows"


def test_read_errors_name_the_file_line(tmp_path):
    # np.loadtxt's own messages say "row 2" and "row 1" here, counting data rows.
    assert _read_error(tmp_path, "1 2\n\n3\n") == "expected 2 columns, found 1 on line 3"
    assert _read_error(tmp_path, "1 2\n\n3 banana\n") == "non-numeric value on line 3"
    assert _read_error(tmp_path, "1 2\r\n\r\n3 4 5\r\n") == "expected 2 columns, found 3 on line 3"


def test_hash_is_a_non_numeric_cell(tmp_path):
    assert _read_error(tmp_path, "1 2\n3 #\n") == "non-numeric value on line 2"
    assert _read_error(tmp_path, "# x y\n1 2\n") == "non-numeric value on line 1"


def test_underscore_and_non_ascii_digits_are_non_numeric(tmp_path):
    # Python's float reads both; the cell grammar (np.loadtxt) does not.
    assert float("1_0") == 10.0 and float("\u0661") == 1.0
    assert _read_error(tmp_path, "1 2\n1_0 2\n") == "non-numeric value on line 2"
    assert _read_error(tmp_path, "\u0661 2\n") == "non-numeric value on line 1"


def test_only_newlines_end_a_row(tmp_path):
    # A form feed or U+2028 separates cells; str.splitlines would end a row there.
    path = tmp_path / "rows.txt"
    path.write_bytes("1 2\f3 4\n5 6\u20287 8\n".encode("utf-8"))
    assert read(path).values.tolist() == [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]


def test_true_equation_round_trip(tmp_path):
    spec = load_builtin("I.12.4")
    path = tmp_path / "true_eq.txt"
    write_true_equation(spec, path)
    expr = read_true_equation(path)
    skeleton, consts = skeletonize(expr), constant_values(expr)
    assert skeleton == spec.skeleton
    assert expr == spec.canonical_expression
    assert len(consts) == 2


# sha256 of the JSON object {id: write_true_equation text} over the 120
# builtin problems. It pins the operator rank order, the scalar constant
# folding and the preorder token format together.
BUILTIN_TRUE_EQUATIONS_SHA256 = "97e112010ad41c85c7d3b34ec515229ad97f6db6eccd6f6f51139d72b6bd7faf"


def test_builtin_true_equations_are_pinned(tmp_path):
    texts = {}
    for spec in builtin_problems():
        path = tmp_path / f"{spec.id}.txt"
        write_true_equation(spec, path)
        texts[spec.id] = path.read_text(encoding="utf-8")
        assert read_true_equation(path) == spec.canonical_expression, spec.id
    assert len(texts) == 120
    digest = hashlib.sha256(json.dumps(texts, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == BUILTIN_TRUE_EQUATIONS_SHA256


def test_problem_dir_layout(tmp_path):
    spec = load_builtin("I.12.1")
    entry = write_problem_dir(spec, tmp_path, rows=100, seed=5)
    root = tmp_path / "I.12.1"
    for name in ("train.txt", "val.txt", "test.txt", "true_eq.txt"):
        assert (root / name).is_file()
    assert entry["splits"] == {"train": 80, "val": 10, "test": 10}
    assert entry["set"] == "easy"


def test_bounds_hold_at_scale():
    # 10^4 samples per easy problem stay inside declared magnitude bounds.
    for spec in builtin_problems("easy"):
        ds = sample(spec, 10_000, derive_seed(1, spec.id))
        for j, var in enumerate(spec.sampled_variables):
            col = ds.X[:, j]
            if var.dist.kind == "loguniform":
                mags = np.abs(col)
                lo, hi = var.dist.lo, var.dist.hi
                if var.value_class in ("integer", "wide_integer"):
                    lo, hi = np.floor(lo), np.ceil(hi)
                assert mags.min() >= lo * (1 - 1e-12), (spec.id, var.name)
                assert mags.max() <= hi * (1 + 1e-12), (spec.id, var.name)
            elif var.dist.kind == "uniform":
                lo, hi = var.dist.lo, var.dist.hi
                if var.value_class in ("integer", "wide_integer"):
                    lo, hi = np.floor(lo), np.ceil(hi)
                assert col.min() >= lo and col.max() <= hi, (spec.id, var.name)
