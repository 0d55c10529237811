import argparse
import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mflqg
from mflqg import (RNG_SCHEME, ModelFormatError, build_model, heater_model, load_model, oracle,
                   save_model)
from mflqg.cli import build_parser, main
from helpers import filling_open, nan_solving_numpy, random_model


def test_cli_import_does_not_load_scipy():
    src = Path(mflqg.__file__).resolve().parent.parent
    code = ("import sys, mflqg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_public_names_resolve_once():
    assert len(mflqg.__all__) == len(set(mflqg.__all__))
    for name in mflqg.__all__:
        assert hasattr(mflqg, name), name
    assert set(mflqg.sim.__all__) <= set(mflqg.__all__)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_names() -> set[str]:
    """The "module.function" and "module.Class.method" names whose spans
    perfbench's per-layer metrics read, and the names it calls through a
    module: a name that stops being a public function of its module leaves
    its metric at 0 without any error."""
    traced = (PERFBENCH / "traced.py").read_text(encoding="utf-8")
    names = set(re.findall(r'(?:total|inclusive|wrap)\((?:spans, )?"([\w.]+)"', traced))
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    methods = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and node.targets[0].id == "METHODS")
    names |= {".".join(entry) for entry in ast.literal_eval(methods)}
    return names | {"linalg.spd_solve", "model.validate_model"}


@pytest.mark.parametrize("name", sorted(perfbench_names()))
def test_names_perfbench_traces_are_public_functions(name):
    module_name, *owner, attr = name.split(".")
    module = importlib.import_module(f"mflqg.{module_name}")
    assert not attr.startswith("_")
    if owner:
        method = inspect.getattr_static(getattr(module, owner[0]), attr)
        assert inspect.isfunction(getattr(method, "__func__", method)), name
    else:
        function = getattr(module, attr)
        # the tracer spans only the functions a layer module defines
        assert inspect.isfunction(function) and function.__module__ == module.__name__, name


def test_names_perfbench_imports_resolve():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mflqg"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
    import mflqg.cli
    import mflqg.sim

    assert inspect.isclass(mflqg.sim.LinearStrategy)
    # the setup code of perfbench's session.py calls it
    assert inspect.isfunction(mflqg.cli.load_model)


def test_every_subcommand_parses_to_a_handler():
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert set(commands) == {"solve", "simulate", "evaluate", "verify", "preset-heater"}
    for name in commands:
        argv = [name] if name == "preset-heater" else [name, "--model", "m.json"]
        assert callable(parser.parse_args(argv).run), name


@pytest.mark.parametrize("seed", ["abc", "1.5", "-1", str(2**64)])
def test_bad_seed_names_the_rule(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "m.json", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"seed must be an unsigned 64-bit integer, got {seed}" in err
    assert "_seed_type" not in err


@pytest.mark.parametrize("argv", [
    ["preset-heater", "--model", "x.json"],
    ["solve", "--model", "m.json", "--runs", "5"],
    ["simulate", "--model", "m.json", "--tol", "1"],
], ids=["preset-heater-model", "solve-runs", "simulate-tol"])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.fixture
def scalar_model_path(tmp_path):
    # T=2, A=B=Q=R=1: the unique nonterminal gain is Kx_1 = -0.5
    model = build_model(
        horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0,
        Sigma_X=1.0, Sigma_W=0.5, initial_mean=1.0,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    return path


@pytest.fixture
def random_model_path(tmp_path):
    rng = np.random.default_rng(70)
    model = random_model(rng, n_agents=3, horizon=5, d_x=2, d_u=1)
    path = tmp_path / "random_model.json"
    save_model(model, path)
    return path


class TestSolve:
    def test_writes_expected_gains(self, scalar_model_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--model", str(scalar_model_path), "--out", str(out)])
        assert code == 0
        data = json.loads((out / "gains.json").read_text())
        assert data["gains"]["1"]["Kx"][0][0] == pytest.approx(-0.5, abs=1e-14)
        assert data["gains"]["2"]["Kx"] == [[0.0]]
        assert "wrote" in capsys.readouterr().out

    def test_noisy_model_includes_filter_gains(self, tmp_path):
        rng = np.random.default_rng(71)
        model = random_model(rng, mode="noisy", horizon=4)
        path = tmp_path / "noisy.json"
        save_model(model, path)
        out = tmp_path / "out"
        assert main(["solve", "--model", str(path), "--out", str(out)]) == 0
        data = json.loads((out / "gains.json").read_text())
        assert "Kf" in data["gains"]["1"]
        assert "Kf" not in data["gains"][str(model.horizon)]

    def test_invalid_model_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        model = build_model(horizon=2, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0)
        save_model(model, path)
        data = json.loads(path.read_text())
        data["cost"]["R"] = [[[0.0]], [[0.0]]]
        path.write_text(json.dumps(data))
        assert main(["solve", "--model", str(path), "--out", str(tmp_path)]) == 2

    def test_nan_token_exits_2(self, scalar_model_path, tmp_path):
        data = json.loads(scalar_model_path.read_text())
        data["dynamics"]["A"] = [[[float("nan")]], [[1.0]]]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert "NaN" in path.read_text()
        assert main(["solve", "--model", str(path), "--out", str(tmp_path)]) == 2

    def test_malformed_json_is_format_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"horizon": 2,,}')
        with pytest.raises(ModelFormatError, match=r"^cannot parse .*: line 1 column 15"):
            load_model(path)

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"horizon": 2,,}')
        assert main(["solve", "--model", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["solve", "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("key, value", [("horizon", float("nan")),
                                            ("A", [[[1.0]], [[1.0, 2.0]]]),
                                            ("horizon", float("inf")),
                                            ("n_agents", float("nan"))])
    def test_unparseable_entry_exits_1(self, scalar_model_path, tmp_path, key, value):
        data = json.loads(scalar_model_path.read_text())
        (data["dynamics"] if key == "A" else data)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--model", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("key, value, code", [("n_agents", 2.5, 2), ("horizon", 2.7, 2),
                                                  ("horizon", 2.0, 0), ("n_agents", 5.0, 0),
                                                  ("horizon", True, 2), ("n_agents", True, 2)])
    def test_counts_must_be_whole(self, scalar_model_path, tmp_path, key, value, code):
        data = json.loads(scalar_model_path.read_text())
        data[key] = value
        path = tmp_path / "count.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--model", str(path), "--out", str(tmp_path)]) == code

    def test_non_utf8_file_exits_1(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"horizon": 2}'.encode("utf-16-le"))
        out = tmp_path / "out"
        src = Path(mflqg.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "mflqg.cli", "solve", "--model", str(path), "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and "UTF-8" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "maximum recursion depth exceeded"),
        ('{"horizon": ' + "9" * 5_000 + "}", "digits"),
    ], ids=["nested-100000-deep", "integer-of-5000-digits"])
    def test_json_the_parser_cannot_hold_exits_1(self, tmp_path, text, message):
        if message == "digits" and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no limit on integer digits")
        path = tmp_path / "huge.json"
        path.write_text(text)
        with pytest.raises(ModelFormatError, match=rf"^cannot parse .*{message}"):
            load_model(path)
        out = tmp_path / "out"
        src = Path(mflqg.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "mflqg.cli", "solve", "--model", str(path), "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: cannot parse ") and message in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_json_array_exits_1(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[2, 2]")
        with pytest.raises(ModelFormatError, match="must be a JSON object"):
            load_model(path)
        assert main(["solve", "--model", str(path), "--out", str(tmp_path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_wrong_schema_exits_1(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"horizon": 2}')
        assert main(["solve", "--model", str(path), "--out", str(tmp_path)]) == 1


class TestSimulate:
    def test_repeat_runs_byte_identical(self, random_model_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(["simulate", "--model", str(random_model_path),
                         "--seed", "9", "--out", str(out)])
            assert code == 0
        for name in ("trace_agents.csv", "trace_meanfield.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seed_changes_trace(self, random_model_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--model", str(random_model_path), "--seed", "1", "--out", str(out1)])
        main(["simulate", "--model", str(random_model_path), "--seed", "2", "--out", str(out2)])
        assert (out1 / "trace_agents.csv").read_bytes() != (out2 / "trace_agents.csv").read_bytes()

    def test_noiseless_zero_mean_trace_is_zero(self, tmp_path):
        model = build_model(horizon=3, n_agents=2, A=1.0, B=1.0, Q=1.0, R=1.0)
        path = tmp_path / "zero.json"
        save_model(model, path)
        out = tmp_path / "out"
        assert main(["simulate", "--model", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_cost"] == 0.0

    def test_population_override(self, random_model_path, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--model", str(random_model_path),
                     "--n", "6", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_agents"] == 6

    def test_bad_population_exits_2(self, random_model_path, tmp_path):
        assert main(["simulate", "--model", str(random_model_path),
                     "--n", "0", "--out", str(tmp_path)]) == 2


class TestEvaluate:
    def test_report_fields(self, random_model_path, tmp_path):
        out = tmp_path / "out"
        code = main(["evaluate", "--model", str(random_model_path),
                     "--runs", "400", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "evaluate.json").read_text())
        assert report["seed"] == 3 and report["rng_scheme"] == RNG_SCHEME
        assert report["runs"] == 400
        assert report["exact_cost"] > 0.0
        assert abs(report["monte_carlo_mean"] - report["exact_cost"]) \
            <= 5.0 * report["monte_carlo_stderr"]

    def test_noisy_model_reports_exact_cost(self, tmp_path, capsys):
        rng = np.random.default_rng(72)
        model = random_model(rng, mode="noisy", horizon=4)
        path = tmp_path / "noisy.json"
        save_model(model, path)
        out = tmp_path / "out"
        assert main(["evaluate", "--model", str(path), "--runs", "2000",
                     "--out", str(out)]) == 0
        report = json.loads((out / "evaluate.json").read_text())
        assert math.isfinite(report["exact_cost"]) and report["exact_cost"] > 0.0
        assert abs(report["monte_carlo_mean"] - report["exact_cost"]) \
            <= 4.0 * report["monte_carlo_stderr"]
        assert f"exact cost = {report['exact_cost']:.17g}" in capsys.readouterr().out


class TestVerify:
    def test_passing_model(self, random_model_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--model", str(random_model_path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        assert report["max_gain_residual"] <= 1e-8
        assert "pass" in capsys.readouterr().out

    def test_impossible_tolerance_exits_3(self, random_model_path, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--model", str(random_model_path),
                     "--tol", "1e-30", "--out", str(out)])
        assert code == 3
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is False

    def test_population_override(self, random_model_path, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--model", str(random_model_path),
                     "--n", "4", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["n_agents"] == 4

    def test_fingerprint_is_evaluate_s_after_the_population_override(self, random_model_path,
                                                                      tmp_path):
        fingerprints = []
        for population in ([], ["--n", "4"]):
            reports = []
            for command in (["verify"], ["evaluate", "--runs", "4"]):
                out = tmp_path / command[0] / str(len(population))
                assert main([*command, "--model", str(random_model_path), *population,
                             "--out", str(out)]) == 0
                reports.append(json.loads((out / f"{command[0]}.json").read_text()))
            verify, evaluate = reports
            assert verify["model_fingerprint"] == evaluate["model_fingerprint"]
            fingerprints.append(verify["model_fingerprint"])
        # the fingerprint is the model's after the --n override
        assert fingerprints[0] != fingerprints[1]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, random_model_path, tmp_path,
                                                      tol, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--model", str(random_model_path), "--tol", tol,
                     "--out", str(out)])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not (out / "verify.json").exists()

    def test_noisy_model_exits_2_without_stacked_solve(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "noisy.json"
        save_model(random_model(np.random.default_rng(73), mode="noisy", horizon=4), path)
        solves = []
        monkeypatch.setattr(oracle, "solve_stacked_riccati", solves.append)
        out = tmp_path / "out"
        assert main(["verify", "--model", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "IncompatibleStrategy" in err and "stacked oracle" in err
        assert solves == []
        assert not (out / "verify.json").exists()


    def test_non_finite_gain_exits_2_without_report(self, random_model_path, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(oracle, "np", nan_solving_numpy())
        out = tmp_path / "out"
        assert main(["verify", "--model", str(random_model_path), "--out", str(out)]) == 2
        assert ("error: NumericalFailure: stacked recursion at step 4: the gain residual is "
                "not finite") in capsys.readouterr().err
        assert not (out / "verify.json").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_output_never_holds_nan_or_inf(value, scalar_model_path, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.setattr("mflqg.cli.trace_summary", lambda trace: {"total_cost": value})
    out = tmp_path / "out"
    assert main(["simulate", "--model", str(scalar_model_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NumericalFailure: summary.json not written: "), err
    assert not (out / "summary.json").exists()


# A = 10 with Q = 0: zero gains, and a state that overflows before T = 400
CLOSED_LOOP_OVERFLOW = dict(horizon=400, n_agents=3, A=10.0, B=1.0, Q=0.0, R=1.0,
                            Sigma_X=1.0, Sigma_W=1.0)


@pytest.mark.parametrize("command", ["simulate", "evaluate", "verify"])
def test_overflowing_closed_loop_exits_2_and_writes_nothing(command, tmp_path, capsys):
    model = build_model(**CLOSED_LOOP_OVERFLOW)
    path = tmp_path / "model.json"
    save_model(model, path)
    out = tmp_path / "out"
    argv = [command, "--model", str(path), "--out", str(out)]
    if command == "evaluate":
        argv += ["--runs", "4"]
    assert main(argv) == 2
    assert "NumericalFailure" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def run_cli_on(model, command, tmp_path, *extra):
    """Run one command on the model in a fresh interpreter; returns the
    completed process and the --out directory."""
    path = tmp_path / "model.json"
    save_model(model, path)
    out = tmp_path / "out"
    src = Path(mflqg.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "mflqg.cli", command, "--model", str(path), "--out", str(out),
         *extra],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    return result, out


def assert_one_error_line(result, out, message):
    """Exit 2 with one stderr line, no numpy warning, and no output directory."""
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1, result.stderr
    assert result.stderr.startswith(f"error: NumericalFailure: {message}"), result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert not out.exists()


def test_overflowing_recursion_exits_2_with_one_line(tmp_path):
    # R = 1e305 keeps the gains near zero, so Mx grows a hundredfold per step
    # and overflows about 45 steps before the start: one error line naming
    # that step, no numpy warning, no file
    model = build_model(horizon=200, n_agents=2, A=10.0, B=1.0, Q=1.0, R=1e305,
                        Sigma_X=1.0, Sigma_W=1.0)
    assert_one_error_line(*run_cli_on(model, "solve", tmp_path), "control recursion at step ")


# Cx = 1e8 on a state that grows tenfold per step: the last observation
# overflows, and no cost reads it (Q = P = 0, zero gains)
OBSERVATION_OVERFLOW = dict(horizon=302, n_agents=2, A=10.0, B=1.0, Q=0.0, R=1.0, P=0.0,
                            Sigma_X=1.0, Sigma_W=1.0, Cx=1e8, Cz=0.0, Sigma_V=1.0,
                            observation_mode="noisy")


# the growth of CLOSED_LOOP_OVERFLOW, stopped where the state is finite but
# its sum with the reporting offset is not
OFFSET_OVERFLOW = dict(horizon=309, n_agents=2, A=10.0, B=1.0, Q=0.0, R=1.0, P=0.0,
                       Sigma_X=1.0, Sigma_W=1.0, state_offset=1.5e308)


@pytest.mark.parametrize("command, model_kwargs, extra, message", [
    ("simulate", CLOSED_LOOP_OVERFLOW, (), "closed-loop cost is not finite"),
    ("evaluate", CLOSED_LOOP_OVERFLOW, ("--runs", "4"), "exact expected cost is not finite"),
    ("verify", CLOSED_LOOP_OVERFLOW, (), "exact expected cost is not finite"),
    ("simulate", OBSERVATION_OVERFLOW, (),
     "closed-loop observations has a non-finite entry at step 302 "),
    ("simulate", OFFSET_OVERFLOW, (), "exported states has a non-finite entry at step 309 "),
], ids=["simulate", "evaluate", "verify", "simulate-observation", "simulate-offset"])
def test_overflowing_closed_loop_exits_2_with_one_line(command, model_kwargs, extra, message,
                                                       tmp_path):
    result, out = run_cli_on(build_model(**model_kwargs), command, tmp_path, *extra)
    assert_one_error_line(result, out, message)


@pytest.mark.parametrize("command, extra", [("evaluate", ("--runs", str(10**15))),
                                            ("simulate", ("--n", str(10**13))),
                                            ("evaluate", ("--runs", str(2**61))),
                                            ("simulate", ("--n", str(10**17)))])
def test_too_large_to_allocate_exits_2_with_one_line(command, extra, tmp_path):
    # 7 PiB of run costs, or of process noise: more than a 128 TiB address
    # space holds, so the first allocation fails whatever the overcommit
    # setting, before any run is stepped or any file written. 2**64 bytes of
    # costs, or 10**17 agents' noise, is more than numpy can even count
    result, out = run_cli_on(heater_model(), command, tmp_path, *extra)
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1, result.stderr
    assert result.stderr.startswith("error: MemoryError: "), result.stderr
    assert not out.exists()


class TestPresetHeater:
    def test_too_large_population_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "heater"
        assert main(["preset-heater", "--n", str(10**13), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: MemoryError: ")
        assert not out.exists()

    def test_model_file_is_save_model_bytes(self, tmp_path):
        # model.json is streamed by save_model, which never holds its whole text
        out = tmp_path / "heater"
        assert main(["preset-heater", "--n", "5", "--out", str(out)]) == 0
        save_model(replace(heater_model(), n_agents=5), tmp_path / "saved.json")
        assert (out / "model.json").read_bytes() == (tmp_path / "saved.json").read_bytes()

    def test_disk_full_mid_write_keeps_the_earlier_json(self, tmp_path, monkeypatch, capsys):
        # on a disk that fills after 1,000 bytes, gains.json (about 24 kB)
        # and model.json fail part way: the whole files of an earlier run
        # stay, and no temporary file is left
        out = tmp_path / "heater"
        assert main(["preset-heater", "--out", str(out)]) == 0
        whole = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(whole["gains.json"]) > 20_000
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr("mflqg.cli.open", filling_open(1000), raising=False)
            assert main(["solve", "--model", str(out / "model.json"), "--out", str(out)]) == 1
        with monkeypatch.context() as patch:
            patch.setattr("mflqg.model.open", filling_open(1000), raising=False)
            with pytest.raises(OSError, match="No space left on device"):
                save_model(heater_model(), out / "model.json")
            assert main(["preset-heater", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2, err
        assert all(line.startswith("error: ") and "No space" in line for line in err), err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == whole

    def test_artifacts_and_round_trip(self, tmp_path):
        out = tmp_path / "heater"
        assert main(["preset-heater", "--seed", "11", "--out", str(out)]) == 0
        for name in ("model.json", "gains.json", "trace_agents.csv",
                     "trace_meanfield.csv", "summary.json"):
            assert (out / name).exists()
        reloaded = load_model(out / "model.json")
        assert reloaded.n_agents == 30
        assert reloaded.horizon == 90
        # the written model file feeds back through the generic commands
        out2 = tmp_path / "resim"
        code = main(["simulate", "--model", str(out / "model.json"),
                     "--seed", "11", "--out", str(out2)])
        assert code == 0
        assert (out / "trace_agents.csv").read_bytes() == \
            (out2 / "trace_agents.csv").read_bytes()

    def test_temperatures_reported_in_original_units(self, tmp_path, capsys):
        out = tmp_path / "heater"
        main(["preset-heater", "--seed", "0", "--out", str(out)])
        text = capsys.readouterr().out
        assert "mean temperature" in text
        # readings live near the 22..25 operating range, not near 0
        first = float(text.split("mean temperature: ")[1].split(" ")[0])
        assert 20.0 < first < 26.0
