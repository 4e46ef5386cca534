import json
import math

import numpy as np
import pytest

from srsdkit.catalog import (
    BUILTIN_SETS,
    CatalogError,
    ComplexityScore,
    ProblemSpec,
    VariableSpec,
    builtin_problems,
    complexity,
    domain_range,
    dumps,
    emit_scatter,
    fixed,
    load_builtin,
    load_file,
    loads,
    loguniform,
    save,
    uniform,
)
from srsdkit.datagen import derive_seed, sample
from srsdkit.expr import evaluate_many


def test_builtin_set_sizes():
    assert len(builtin_problems("easy")) == 30
    assert len(builtin_problems("medium")) == 40
    assert len(builtin_problems("hard")) == 50
    assert len(builtin_problems()) == 120


def test_unique_ids():
    ids = [p.id for p in builtin_problems()]
    assert len(set(ids)) == 120


def test_unknown_set_and_id():
    with pytest.raises(CatalogError):
        builtin_problems("nightmare")
    with pytest.raises(CatalogError):
        load_builtin("I.99.99")


def test_friction_law_spec():
    p = load_builtin("I.12.1")
    assert p.formula == "mu * Nn"
    assert p.set_name == "easy"
    for var in p.variables:
        assert var.dist.kind == "loguniform"
        assert (var.dist.lo, var.dist.hi) == (1e-2, 1e0)
        assert var.value_class == "float"
        assert var.sign == "positive"


def test_vacuum_permittivity_is_bound_exactly():
    p = load_builtin("I.12.4")
    assert p.constants["epsilon"] == 8.854e-12
    assert "epsilon" not in p.variable_names


def test_physical_constants_exact_values():
    pins = [
        ("II.13.17", "c", 2.998e8),
        ("III.7.38", "h", 6.626e-34),
        ("I.43.31", "k", 1.381e-23),
        ("I.13.12", "G", 6.674e-11),
        ("I.14.3", "g", 9.807),
        ("II.34.29b", "mu", 9.2740100783e-24),
        ("B8", "m", 9.109e-31),
        ("B1", "alpha", 7.297e-3),
        ("B1", "h", 1.055e-34),  # the reduced constant, unlike III.7.38's h
        ("III.14.14", "kappa", 1.381e-23),
    ]
    for pid, name, value in pins:
        assert load_builtin(pid).constants[name] == value, (pid, name)


def test_angle_sampled_uniformly_over_full_turn():
    p = load_builtin("I.18.12")
    theta = next(v for v in p.variables if v.name == "theta")
    assert theta.dist.kind == "uniform"
    assert theta.dist.lo == 0.0
    assert theta.dist.hi == 2 * math.pi
    assert theta.sign == "nonnegative"


def test_integer_phase_count():
    p = load_builtin("I.30.5")
    n = next(v for v in p.variables if v.name == "n")
    assert n.value_class == "integer"
    assert (n.dist.lo, n.dist.hi) == (1.0, 100.0)


def test_every_problem_parses_and_canonicalizes():
    for p in builtin_problems():
        assert p.canonical_expression is not None
        assert len(p.skeleton) >= 1


def test_every_problem_samples_1000_rows_fault_free():
    for p in builtin_problems():
        ds = sample(p, 1000, derive_seed(7, p.id))
        assert ds.n_rows == 1000
        assert np.isfinite(ds.values).all()
        _, faulted = evaluate_many(p.canonical_expression, ds.X)
        assert not faulted.any()
        for j, var in enumerate(p.sampled_variables):
            col = ds.X[:, j]
            if var.sign == "positive":
                assert (col > 0).all(), (p.id, var.name)
            elif var.sign == "negative":
                assert (col < 0).all(), (p.id, var.name)
            elif var.sign == "nonnegative":
                assert (col >= 0).all(), (p.id, var.name)
            if var.value_class in ("integer", "wide_integer"):
                assert (col == np.rint(col)).all(), (p.id, var.name)


def test_constants_never_become_columns():
    for p in builtin_problems():
        fixed_names = set(p.constants)
        assert not fixed_names & set(p.variable_names)
        assert p.column_names[-1] == "target"


def test_domain_range_friction():
    # Endpoints {1e-2, 1e0}: |log10 |1.0 - 0.01||
    assert domain_range(load_builtin("I.12.1")) == pytest.approx(0.004364805402450088)


def test_domain_range_gravitation():
    # Endpoints {1e0, 1e3, 1e1}: |log10 999|
    assert domain_range(load_builtin("I.9.18")) == pytest.approx(2.9995654882259823)


def test_domain_range_degenerate_flag():
    from srsdkit.catalog import Distribution

    # Only constructible programmatically: the file schema enforces lo < hi.
    point = ProblemSpec(
        id="point", set_name="easy", formula="x",
        variables=[VariableSpec("x", Distribution("uniform", lo=3.0, hi=3.0))],
    )
    assert domain_range(point) is None
    with pytest.raises(CatalogError):
        loads(json.dumps([{
            "id": "point", "set": "easy", "formula": "x",
            "variables": [{"name": "x", "dist": {"kind": "uniform", "lo": 3.0, "hi": 3.0},
                           "class": "float", "sign": "any"}],
        }]))


def test_domain_range_requires_a_ranged_variable():
    spec = ProblemSpec(
        id="consts-only", set_name="easy", formula="g",
        variables=[VariableSpec("g", fixed(9.807), sign="positive")],
    )
    with pytest.raises(CatalogError):
        domain_range(spec)


def test_complexity_op_count():
    assert complexity(load_builtin("I.12.1")) == ComplexityScore(
        op_count=1, domain_range=domain_range(load_builtin("I.12.1"))
    )


def test_emit_scatter_rows():
    rows = emit_scatter(builtin_problems("easy"))
    assert len(rows) == 30
    assert all(r[3] == "easy" for r in rows)
    assert emit_scatter([]) == []
    counts = {s: len(emit_scatter(builtin_problems(s))) for s in BUILTIN_SETS}
    assert counts == {"easy": 30, "medium": 40, "hard": 50}


def test_save_load_round_trip_bytes(tmp_path):
    specs = builtin_problems("easy")
    path = tmp_path / "easy.json"
    save(specs, path)
    first = path.read_bytes()
    save(load_file(path), path)
    assert path.read_bytes() == first


def test_bundled_files_are_already_canonical():
    from importlib import resources

    for name in BUILTIN_SETS:
        raw = resources.files("srsdkit.catalog").joinpath(f"data/{name}.json").read_text("utf-8")
        assert dumps(loads(raw)) == raw


def test_schema_violation_reports_field_path():
    bad = json.dumps([{"id": "x", "set": "easy", "formula": "a", "variables": [
        {"name": "a", "dist": {"kind": "loguniform", "lo": -1.0, "hi": 2.0},
         "class": "float", "sign": "any"}]}])
    with pytest.raises(CatalogError) as err:
        loads(bad, source="bad")
    assert "bad[0].variables[0].dist" in str(err.value)


def test_formula_must_parse():
    bad = json.dumps([{"id": "x", "set": "easy", "formula": "a +", "variables": [
        {"name": "a", "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
         "class": "float", "sign": "any"}]}])
    with pytest.raises(CatalogError) as err:
        loads(bad, source="bad")
    assert "formula" in str(err.value)


def test_constants_must_follow_sampled_variables():
    bad = json.dumps([{"id": "x", "set": "easy", "formula": "a * g", "variables": [
        {"name": "g", "dist": {"kind": "fixed", "value": 9.807},
         "class": "float", "sign": "positive"},
        {"name": "a", "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
         "class": "float", "sign": "any"}]}])
    with pytest.raises(CatalogError) as err:
        loads(bad, source="bad")
    assert "precede" in str(err.value)


def test_fixed_distribution_builders():
    assert fixed(9.807).value == 9.807
    assert loguniform(1e-2, 1.0).kind == "loguniform"
    with pytest.raises(CatalogError):
        loads(json.dumps([{"id": "x", "set": "easy", "formula": "a", "variables": [
            {"name": "a", "dist": {"kind": "gaussian", "mu": 0}, "class": "float",
             "sign": "any"}]}]))
