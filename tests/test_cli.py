import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mflqg
from mflqg import RNG_SCHEME, build_model, load_model, oracle, save_model
from mflqg.cli import main
from helpers import random_model


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
                                                  ("horizon", 2.0, 0), ("n_agents", 5.0, 0)])
    def test_counts_must_be_whole(self, scalar_model_path, tmp_path, key, value, code):
        data = json.loads(scalar_model_path.read_text())
        data[key] = value
        path = tmp_path / "count.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--model", str(path), "--out", str(tmp_path)]) == code

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

    def test_noisy_model_has_no_exact_entry(self, tmp_path):
        rng = np.random.default_rng(72)
        model = random_model(rng, mode="noisy", horizon=4)
        path = tmp_path / "noisy.json"
        save_model(model, path)
        out = tmp_path / "out"
        assert main(["evaluate", "--model", str(path), "--runs", "50",
                     "--out", str(out)]) == 0
        report = json.loads((out / "evaluate.json").read_text())
        assert report["exact_cost"] is None
        assert report["monte_carlo_mean"] > 0.0


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

    def test_noisy_model_exits_2_without_stacked_solve(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "noisy.json"
        save_model(random_model(np.random.default_rng(73), mode="noisy", horizon=4), path)
        solves = []
        monkeypatch.setattr(oracle, "solve_stacked_riccati", solves.append)
        out = tmp_path / "out"
        assert main(["verify", "--model", str(path), "--out", str(out)]) == 2
        assert "IncompatibleStrategy" in capsys.readouterr().err
        assert solves == []
        assert not (out / "verify.json").exists()


class TestPresetHeater:
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
