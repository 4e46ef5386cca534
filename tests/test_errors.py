"""One class, ``DataError``, for every input srsdkit refuses: each input-error
class derives from it, a library call raises it, and the CLI ends with exit
code 2 and one ``error:`` line that names the file, catalog field or problem
at fault."""

import json
import re
import shutil

import pytest

from srsdkit import ArgumentError, DataError, catalog, datagen, evalkit, gp, synthgen
from srsdkit.cli import main
from srsdkit.expr import (
    CanonicalizationError,
    DecodeError,
    ExpressionError,
    ParseError,
    VariableIndexError,
)


@pytest.mark.parametrize("cls", [
    ArgumentError,
    CanonicalizationError,
    catalog.CatalogError,
    DecodeError,
    ParseError,
    datagen.SamplingInfeasibleError,
    synthgen.SynthError,
    VariableIndexError,
    evalkit.ZeroVarianceError,
], ids=lambda cls: cls.__name__)
def test_every_input_error_is_a_data_error(cls):
    assert issubclass(cls, DataError) and issubclass(cls, ValueError)


def test_errors_of_code_are_no_data_errors():
    # A tree built wrong by code, and the GP's own control flow.
    assert not issubclass(ExpressionError, DataError)
    assert not issubclass(evalkit.NoViableCandidateError, DataError)


def _entry(pid="P", formula="x * y", names=("x", "y")) -> dict:
    variable = {"dist": {"kind": "uniform", "lo": 1.0, "hi": 2.0}, "class": "float",
                "sign": "positive"}
    return {"id": pid, "set": "easy", "formula": formula,
            "variables": [{"name": name, **variable} for name in names]}


def _catalog(tmp, *entries):
    path = tmp / "catalog.json"
    path.write_text(json.dumps(list(entries)))
    return path


@pytest.mark.parametrize("pid", ["", ".", "..", "../escape", "a/b", "a\\b"])
def test_a_problem_id_is_one_path_component(pid):
    with pytest.raises(catalog.CatalogError, match=r"^c\[0\]\.id: must be one path component"):
        catalog.loads(json.dumps([_entry(pid)]), source="c")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A data directory of one problem ``P``, ``x * y``, of 40 rows."""
    root = tmp_path_factory.mktemp("base")
    datagen.generate(root / "data", catalog_files=[str(_catalog(root, _entry()))], rows=40)
    return root / "data"


def _keep(path, columns):
    """Rewrite data file ``path`` with only ``columns``."""
    datagen.write(datagen.Dataset(datagen.read(path).values[:, columns]), path)


def _preds(tmp):
    preds = tmp / "preds"
    preds.mkdir()
    (preds / "P.txt").write_text("mul2 X1 X2\n")
    return preds


def _discover(tmp, data):
    """The ``discover`` arguments and library call of a one-seed GP run of no generations."""
    config = tmp / "gp.json"
    config.write_text('{"population_size": 4, "generations": 0}')
    out = tmp / "runs" / "out"
    return (["discover", "--data-dir", data, "--gp-config", config, "--seeds", "1", "--out", out],
            lambda: gp.discover(data, out, gp.read_config(config), seeds=1))


# Each case makes its input under tmp, from a copy ``data`` of ``base``, and
# returns the CLI arguments, the library call behind them, and the start of
# the error text both give. Every output goes to tmp/runs/out.

def corrupt_manifest(tmp, data):
    (data / "manifest.json").write_text("{oops\n")
    return (["eval", "--pred-dir", data, "--data-dir", data],
            lambda: evalkit.eval_report(data, data),
            f"{data / 'manifest.json'}: not valid JSON: ")


_TOO_DEEP = "[" * 100_000  # json.loads raises RecursionError, not JSONDecodeError


def deep_manifest(tmp, data):
    (data / "manifest.json").write_text(_TOO_DEEP)
    return (["eval", "--pred-dir", data, "--data-dir", data],
            lambda: evalkit.eval_report(data, data),
            f"{data / 'manifest.json'}: JSON nested too deeply")


def deep_gp_config(tmp, data):
    argv, call = _discover(tmp, data)
    config = tmp / "gp.json"
    config.write_text(_TOO_DEEP)
    return argv, call, f"{config}: JSON nested too deeply"


def deep_catalog(tmp, data):
    path = tmp / "catalog.json"
    path.write_text(_TOO_DEEP)
    out = tmp / "runs" / "out"
    return (["generate", "--catalog", path, "--rows", "40", "--out", out],
            lambda: datagen.generate(out, catalog_files=[path], rows=40),
            f"{path}: JSON nested too deeply")


def _catalog_case(command, *entries, expected):
    def case(tmp, data):
        path = _catalog(tmp, *entries)
        out = tmp / "runs" / "out"
        calls = {
            "generate": (["--rows", "40", "--out", out],
                         lambda: datagen.generate(out, catalog_files=[path], rows=40)),
            "complexity": ([], lambda: catalog.emit_scatter(catalog.load_specs([path]))),
            "synth": (["--n", "1", "--rows", "40", "--out", out],
                      lambda: synthgen.synth(out, 1, catalog_files=[path], rows=40)),
        }
        argv, call = calls[command]
        return [command, "--catalog", path, *argv], call, expected.format(path=path)
    return case


def narrow_val_in_discover(tmp, data):
    _keep(data / "P" / "val.txt", [0, 2])
    return (*_discover(tmp, data),
            f"{data / 'P' / 'val.txt'}: expected 3 columns as in train.txt, found 2")


def one_column_splits_in_discover(tmp, data):
    for name in datagen.SPLIT_FILES.values():
        _keep(data / "P" / name, [2])
    return (*_discover(tmp, data), "P: training dataset has no input columns")


def narrow_val_in_eval(tmp, data):
    _keep(data / "P" / "val.txt", [0, 2])
    preds = _preds(tmp)
    return (["eval", "--pred-dir", preds, "--data-dir", data],
            lambda: evalkit.eval_report(preds, data),
            f"{data / 'P' / 'val.txt'}: expected 3 columns as in test.txt, found 2")


def constant_test_target_in_eval(tmp, data):
    test = data / "P" / "test.txt"
    values = datagen.read(test).values
    values[:, -1] = 1.0
    datagen.write(datagen.Dataset(values), test)
    preds = _preds(tmp)
    return (["eval", "--pred-dir", preds, "--data-dir", data],
            lambda: evalkit.eval_report(preds, data),
            "P: targets are all identical; R^2 is undefined")


CASES = [
    corrupt_manifest,
    *(_catalog_case(command, _entry(formula="1e999 * x"),
                    expected="{path}[0].formula: non-finite constant inf")
      for command in ("generate", "complexity", "synth")),
    _catalog_case("generate", _entry("T1"), _entry("T1"),
                  expected="{path}[1].id: 'T1' is also the id of {path}[0]"),
    _catalog_case("generate", _entry("../escape"),
                  expected="{path}[0].id: must be one path component, got '../escape'"),
    _catalog_case("generate", _entry(names=("x", "x", "y")),
                  expected="{path}[0].variables[1].name: 'x' names an earlier variable too"),
    narrow_val_in_discover,
    one_column_splits_in_discover,
    narrow_val_in_eval,
    constant_test_target_in_eval,
    deep_manifest,
    deep_gp_config,
    deep_catalog,
]
_IDS = ["corrupt_manifest", "overflow_generate", "overflow_complexity", "overflow_synth",
        "duplicate_id", "escaping_id", "duplicate_variable", "narrow_val_discover",
        "one_column_discover", "narrow_val_eval", "constant_target_eval", "deep_manifest",
        "deep_gp_config", "deep_catalog"]


@pytest.fixture
def data(tmp_path, base):
    shutil.copytree(base, tmp_path / "data")
    return tmp_path / "data"


@pytest.mark.parametrize("case", CASES, ids=_IDS)
def test_the_cli_prints_one_named_error_line_and_exits_2(tmp_path, data, capsys, case):
    argv, _, expected = case(tmp_path, data)
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(re.escape(f"error: {expected}") + ".*\n", err), err
    runs = tmp_path / "runs"
    assert not runs.exists() or [p.name for p in runs.iterdir()] in ([], ["out"])


@pytest.mark.parametrize("case", CASES, ids=_IDS)
def test_the_library_call_raises_data_error(tmp_path, data, case):
    _, call, expected = case(tmp_path, data)
    with pytest.raises(DataError, match="^" + re.escape(expected)):
        call()
