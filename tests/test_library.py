"""The library call behind each pipeline command: each returns exactly the
JSON the command prints, writes the same files, and names the problem of a
bad prediction."""

import json
import math
import shutil

import pytest

from srsdkit import datagen, evalkit, gp, synthgen
from srsdkit.catalog import load_builtin
from srsdkit.cli import main
from srsdkit.expr import expression_to_prefix

_SMALL_GP = gp.GPConfig(population_size=20, generations=2, seed=4)


def _printed(report: dict) -> str:
    """The text the CLI prints for ``report``."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _run(capsys, *argv) -> tuple[int, str, str]:
    capsys.readouterr()
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _tree(root) -> dict[str, bytes]:
    """Every file under ``root``, by its path relative to ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def easy100(tmp_path_factory):
    root = tmp_path_factory.mktemp("lib") / "easy"
    assert main(["generate", "--set", "easy", "--rows", "100", "--seed", "1",
                 "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def corpus5(tmp_path_factory, easy100):
    """A 5-equation synthetic corpus plus two easy problems, so that some
    skeletons match the easy set and some do not."""
    root = tmp_path_factory.mktemp("lib") / "corpus"
    assert main(["synth", "--n", "5", "--seed", "2", "--rows", "120", "--out", str(root)]) == 0
    for pid in ("I.12.1", "I.14.4"):
        shutil.copytree(easy100 / pid, root / pid)
    return root


@pytest.fixture(scope="module")
def mixed_preds(tmp_path_factory, easy100):
    """Good, wrong, self-scored (a copied problem directory) and missing
    predictions."""
    root = tmp_path_factory.mktemp("lib") / "preds"
    root.mkdir()
    truth = datagen.read_true_equation(easy100 / "I.12.1" / "true_eq.txt")
    (root / "I.12.1.txt").write_text(" ".join(expression_to_prefix(truth)) + "\n")
    (root / "I.12.4.txt").write_text("mul2 X1 X1\n")
    (root / "I.14.3.txt").write_text("add2 X1 1.5\n")
    shutil.copytree(easy100 / "II.3.24", root / "II.3.24")
    return root


@pytest.mark.parametrize("tau", [None, "0.5"])
def test_eval_report_is_what_eval_prints(easy100, mixed_preds, capsys, tau):
    flags = [] if tau is None else ["--tau", tau]
    code, out, _ = _run(capsys, "eval", "--pred-dir", str(mixed_preds),
                        "--data-dir", str(easy100), *flags)
    assert code == 0
    kwargs = {} if tau is None else {"tau": float(tau)}
    report = evalkit.eval_report(mixed_preds, easy100, **kwargs)
    assert _printed(report) == out
    assert [row["id"] for row in report["problems"]] == ["I.12.1", "I.12.4", "I.14.3", "II.3.24"]
    assert len(report["skipped"]) == 26
    assert report["summary"]["easy"]["count"] == 4


def test_eval_report_of_a_data_dir_against_itself(easy100, capsys):
    code, out, _ = _run(capsys, "eval", "--pred-dir", str(easy100), "--data-dir", str(easy100))
    assert code == 0
    assert _printed(evalkit.eval_report(str(easy100), str(easy100))) == out


@pytest.mark.parametrize("corpus_side", ["corpus", "easy"])
def test_leakcheck_report_is_what_leakcheck_prints(easy100, corpus5, capsys, corpus_side):
    corpus = corpus5 if corpus_side == "corpus" else easy100
    code, out, _ = _run(capsys, "leakcheck", "--corpus", str(corpus), "--catalog", str(easy100))
    assert code == 0
    report = synthgen.leakcheck_report(corpus, easy100)
    assert _printed(report) == out
    assert sum(e["n_matches"] for e in report["per_equation"]) >= 2


def test_an_undecodable_prediction_names_its_problem(easy100, tmp_path, capsys):
    (tmp_path / "I.12.1.txt").write_text("add2 X1\n")
    code, out, err = _run(capsys, "eval", "--pred-dir", str(tmp_path),
                          "--data-dir", str(easy100))
    assert (code, out) == (2, "")
    assert err == "error: I.12.1: invalid prediction: truncated sequence: expected a token at 2\n"
    with pytest.raises(datagen.DataError, match=r"^I\.12\.1: invalid prediction: truncated"):
        evalkit.eval_report(tmp_path, easy100)


def test_problem_dirs_are_the_directories_with_a_true_equation(easy100, tmp_path):
    assert [p.name for p in datagen.problem_dirs(easy100)] == sorted(
        p.name for p in easy100.iterdir() if p.is_dir())
    (tmp_path / "no-truth").mkdir()
    with pytest.raises(datagen.DataError, match="no problem directories"):
        datagen.problem_dirs(tmp_path)


@pytest.mark.parametrize("workers", [1, 2])
def test_generate_is_what_generate_prints(tmp_path, capsys, workers):
    cli_root, lib_root = tmp_path / "cli", tmp_path / "lib"
    code, out, _ = _run(capsys, "generate", "--set", "easy", "--rows", "60", "--seed", "5",
                        "--noise", "0.01", "--split", "0.5,0.25,0.25",
                        "--workers", str(workers), "--out", str(cli_root))
    assert code == 0
    manifest = datagen.generate(lib_root, set_name="easy", rows=60, seed=5, noise_level=0.01,
                                ratios=(0.5, 0.25, 0.25), workers=workers)
    assert _printed(manifest) == out
    assert _tree(lib_root) == _tree(cli_root)
    assert (lib_root / datagen.MANIFEST_FILE).read_text() == out


def test_synth_is_what_synth_prints(tmp_path, capsys):
    code, out, _ = _run(capsys, "synth", "--n", "4", "--seed", "3", "--rows", "50",
                        "--copies-max", "3", "--k-lo", "-2", "--k-hi", "2",
                        "--out", str(tmp_path / "cli"))
    assert code == 0
    manifest = synthgen.synth(tmp_path / "lib", 4, seed=3, rows=50, copies_max=3, k_lo=-2, k_hi=2)
    assert _printed(manifest) == out
    assert _tree(tmp_path / "lib") == _tree(tmp_path / "cli")


@pytest.mark.parametrize("workers", [1, 2])
def test_discover_is_what_discover_prints(easy100, tmp_path, capsys, workers):
    (tmp_path / "gp.json").write_text('{"population_size": 20, "generations": 2}')
    code, out, _ = _run(capsys, "discover", "--data-dir", str(easy100), "--seeds", "2",
                        "--seed", "4", "--gp-config", str(tmp_path / "gp.json"),
                        "--problems", "I.12.1", "I.14.3", "II.3.24",
                        "--workers", str(workers), "--out", str(tmp_path / "cli"))
    assert code == 0
    manifest = gp.discover(easy100, tmp_path / "lib", _SMALL_GP, seeds=2,
                           problems=["I.12.1", "I.14.3", "II.3.24"], workers=workers)
    assert _printed(manifest) == out
    assert _tree(tmp_path / "lib") == _tree(tmp_path / "cli")


def test_eval_report_finds_every_prediction_discover_writes(easy100, tmp_path):
    manifest = gp.discover(easy100, tmp_path, _SMALL_GP, seeds=1)
    found = sorted(e["id"] for e in manifest["problems"] if e["expression"] is not None)
    assert len(found) >= 25
    report = evalkit.eval_report(tmp_path, easy100)
    assert [row["id"] for row in report["problems"]] == found
    assert len(report["problems"]) + len(report["skipped"]) == 30
    assert (tmp_path / datagen.MANIFEST_FILE).is_file()


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_eval_with_a_non_finite_tau_is_usage_error(easy100, capsys, tau):
    code, out, err = _run(capsys, "eval", "--pred-dir", str(easy100), "--data-dir", str(easy100),
                          f"--tau={tau}")
    assert (code, out) == (1, "")
    assert err == f"usage error: --tau must be finite, got {float(tau)}\n"


# The ids are those of the cases before the texts named their parameters.
@pytest.mark.parametrize("level, mode, message", [
    pytest.param(math.nan, "mean", "noise_level must be finite and >= 0, got nan",
                 id="nan-mean-noise level must be finite and >= 0, got nan"),
    pytest.param(-1.0, "mean", "noise_level must be finite and >= 0, got -1.0",
                 id="-1.0-mean-noise level must be finite and >= 0, got -1.0"),
    pytest.param(math.inf, "rms", "noise_level must be finite and >= 0, got inf",
                 id="inf-rms-noise level must be finite and >= 0, got inf"),
    pytest.param(0.0, "bogus", r"noise_mode must be one of \('mean', 'rms'\), got 'bogus'",
                 id="0.0-bogus-unknown noise mode 'bogus'"),
])
def test_write_problem_dir_refuses_bad_noise_settings(tmp_path, level, mode, message):
    with pytest.raises(datagen.ArgumentError, match=f"^{message}$"):
        datagen.write_problem_dir(load_builtin("I.12.1"), tmp_path, rows=10,
                                  noise_level=level, noise_mode=mode)
    assert list(tmp_path.iterdir()) == []


def _config_file(root, payload) -> str:
    path = root / "gp.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("call, text", [
    pytest.param(lambda out, data: datagen.generate(out, set_name="easy", rows=5, seed=1),
                 "rows 5 leaves the val split empty (train/val/test rows 4/0/1)", id="generate-rows-5"),
    pytest.param(lambda out, data: datagen.generate(out, set_name="easy", rows=1),
                 "rows 1 leaves the train split empty (train/val/test rows 0/0/1)", id="generate-rows-1"),
    pytest.param(lambda out, data: datagen.generate(out, set_name="easy", rows=0),
                 "rows must be >= 1, got 0", id="generate-rows-0"),
    pytest.param(lambda out, data: datagen.generate(out, rows=10, ratios=(0.5, 0.5, 1e-10)),
                 "rows 10 leaves the test split empty (train/val/test rows 5/5/0)",
                 id="generate-empty-test"),
    pytest.param(lambda out, data: datagen.generate(out, ratios=(0.5, 0.5, 0.5)),
                 "ratios must be three positive numbers that sum to 1, got (0.5, 0.5, 0.5)",
                 id="generate-ratios-sum"),
    pytest.param(lambda out, data: datagen.generate(out, ratios=(0.5, 0.5)),
                 "ratios must be three positive numbers that sum to 1, got (0.5, 0.5)",
                 id="generate-ratios-two"),
    pytest.param(lambda out, data: datagen.generate(out, noise_level=math.nan),
                 "noise_level must be finite and >= 0, got nan", id="generate-noise-nan"),
    pytest.param(lambda out, data: datagen.generate(out, noise_level=math.inf),
                 "noise_level must be finite and >= 0, got inf", id="generate-noise-inf"),
    pytest.param(lambda out, data: datagen.generate(out, noise_level=-1.0),
                 "noise_level must be finite and >= 0, got -1.0", id="generate-noise-negative"),
    pytest.param(lambda out, data: datagen.generate(out, noise_mode="bogus"),
                 "noise_mode must be one of ('mean', 'rms'), got 'bogus'", id="generate-noise-mode"),
    pytest.param(lambda out, data: datagen.generate(out, workers=0),
                 "workers must be >= 1, got 0", id="generate-workers-0"),
    pytest.param(lambda out, data: datagen.generate(out, workers=-5),
                 "workers must be >= 1, got -5", id="generate-workers-negative"),
    pytest.param(lambda out, data: synthgen.synth(out, 0),
                 "n must be >= 1, got 0", id="synth-n-0"),
    pytest.param(lambda out, data: synthgen.synth(out, 1, max_tokens=0),
                 "max_tokens must be >= 1, got 0", id="synth-max-tokens-0"),
    pytest.param(lambda out, data: synthgen.synth(out, 1, copies_max=0),
                 "copies_max must be >= 1, got 0", id="synth-copies-max-0"),
    pytest.param(lambda out, data: synthgen.synth(out, 1, k_lo=3, k_hi=1),
                 "k_lo must be <= k_hi, got 3 > 1", id="synth-k-order"),
    pytest.param(lambda out, data: synthgen.synth(out, 2, k_lo=308, k_hi=308),
                 "k_lo must be in [-322, 307], got 308", id="synth-k-both-high"),
    pytest.param(lambda out, data: synthgen.synth(out, 2, k_lo=-323, k_hi=-323),
                 "k_lo must be in [-322, 307], got -323", id="synth-k-both-low"),
    pytest.param(lambda out, data: synthgen.synth(out, 2, k_hi=308),
                 "k_hi must be in [-322, 307], got 308", id="synth-k-hi"),
    pytest.param(lambda out, data: synthgen.synth(out, 2, k_lo=-323),
                 "k_lo must be in [-322, 307], got -323", id="synth-k-lo"),
    pytest.param(lambda out, data: synthgen.synth(out, 1, alpha=math.nan),
                 "alpha must be finite and >= 0, got nan", id="synth-alpha-nan"),
    pytest.param(lambda out, data: synthgen.synth(out, 2, alpha=-1.0),
                 "alpha must be finite and >= 0, got -1.0", id="synth-alpha-negative"),
    pytest.param(lambda out, data: synthgen.synth(out, 2, rows=3),
                 "rows 3 leaves the val split empty (train/val/test rows 2/0/1)", id="synth-rows-3"),
    pytest.param(lambda out, data: synthgen.synth(out, 1, rows=9),
                 "rows 9 leaves the val split empty (train/val/test rows 7/0/2)", id="synth-rows-9"),
    pytest.param(lambda out, data: gp.discover(data, out, _SMALL_GP, seeds=0),
                 "seeds must be >= 1, got 0", id="discover-seeds-0"),
    pytest.param(lambda out, data: gp.discover(data, out, _SMALL_GP, workers=0),
                 "workers must be >= 1, got 0", id="discover-workers-0"),
    pytest.param(lambda out, data: gp.discover(data, out, _SMALL_GP, workers=-3),
                 "workers must be >= 1, got -3", id="discover-workers-negative"),
    pytest.param(lambda out, data: evalkit.eval_report(out, data, tau=math.nan),
                 "tau must be finite, got nan", id="eval-tau-nan"),
    pytest.param(lambda out, data: evalkit.eval_report(out, data, tau=math.inf),
                 "tau must be finite, got inf", id="eval-tau-inf"),
    pytest.param(lambda out, data: evalkit.eval_report(out, data, tau=-math.inf),
                 "tau must be finite, got -inf", id="eval-tau-negative-inf"),
    pytest.param(lambda out, data: gp.read_config(_config_file(out.parent, {"nope": 3})),
                 "unknown GP config keys: ['nope']", id="gp-config-unknown-key"),
    pytest.param(lambda out, data: gp.read_config(_config_file(out.parent, {"population_size": 1})),
                 "invalid GP config: population_size must be >= 2", id="gp-config-invalid"),
    pytest.param(lambda out, data: gp.read_config(_config_file(out.parent, {"p_crossover": "0.5"})),
                 "invalid GP config: p_crossover must be a finite number, got '0.5'",
                 id="gp-config-type"),
])
def test_a_refused_argument_names_its_parameter_before_anything_is_made(easy100, tmp_path,
                                                                      call, text):
    # The CLI prints each of these texts with the parameter's flag, as a
    # usage error (exit code 1).
    out = tmp_path / "out"
    with pytest.raises(datagen.ArgumentError) as info:
        call(out, easy100)
    assert str(info.value) == text
    assert not out.exists()


def test_a_gp_config_with_a_seed_names_the_seed_parameter(tmp_path):
    path = _config_file(tmp_path, {"population_size": 10, "seed": 5})
    with pytest.raises(datagen.ArgumentError) as info:
        gp.read_config(path, seed=1)
    assert str(info.value) == f"{path}: the GP seed is not a config key; pass seed"
    assert info.value.naming({"seed": "--seed"}) == (
        f"{path}: the GP seed is not a config key; pass --seed")
