"""Tests for config parsing, subcommands and artifact emission."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_are

import quadctrl
from quadctrl import cli
from quadctrl.cli import (
    _PARAM_KEYS,
    CSV_BLOCK,
    TRAJECTORY_HEADER,
    cmd_compare,
    cmd_gain,
    cmd_linearize,
    cmd_run,
    main,
    metric_deltas,
    parse_config,
    trajectory_csv,
)
from quadctrl.pid import Setpoints
from quadctrl.riccati import DEFAULT_Q_DIAGONAL, _decoupled_blocks
from quadctrl.sim import CASE2_INITIAL_STATE, Trajectory, scenario_case

FAST_SIM = {"sim": {"dt": 0.01, "t_final": 2.0}}
# The stock LQR weights with the psi weight zeroed: the heading drift is
# unseen, so the gain is refused as not detectable.
NO_PSI_WEIGHT = {"q_diag": [500, 200, 1.71, 600, 1400, 0, 60, 60, 2.0, 0.25, 10, 1]}
NO_PSI_ERROR = ("config error: (A, Q) is not detectable: "
                "Q does not weight a mode with Re >= 0 on psi\n")


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        config = parse_config("{}")
        assert config.params.mass == 1.0
        assert config.params == quadctrl.QuadrotorParams()
        assert config.cascade.thrust.kp == 9.09
        assert np.array_equal(np.diag(config.weights.R), [1.0, 0.001, 0.001, 0.001])
        assert config.scenario.references == Setpoints(z_ref=1.0)
        assert np.array_equal(config.scenario.initial_state, np.zeros(12))

    def test_negative_mass_rejected_with_path(self):
        with pytest.raises(ValueError, match="params"):
            parse_config('{"params": {"m": -1}}')

    def test_sim_overrides_merge_over_defaults(self):
        config = parse_config('{"sim": {"dt": 0.01, "t_final": 5}}')
        assert config.scenario.dt == 0.01
        assert config.scenario.duration == 5.0
        assert config.scenario.references.z_ref == 1.0  # untouched default

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ValueError, match="params.weight"):
            parse_config('{"params": {"weight": 2}}')
        with pytest.raises(ValueError, match="thrusters"):
            parse_config('{"thrusters": {}}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            parse_config("{not json")

    def test_case_overrides(self):
        stock = parse_config('{"case": {"id": 3}}').scenario
        assert stock.references == Setpoints(z_ref=1.0, psi_ref=0.5)
        assert np.array_equal(stock.initial_state, np.zeros(12))
        config = parse_config(json.dumps({
            "case": {"id": 3, "psi_ref": 0.25,
                     "x0": [0, 0, 0.1, 0, 0, 0, 0, 0, 0, 0, 0, 0]},
        }))
        assert config.scenario.references.psi_ref == 0.25
        assert config.scenario.references.z_ref == 1.0
        assert config.scenario.initial_state[2] == 0.1

    def test_bad_case_id(self):
        with pytest.raises(ValueError, match="case.id"):
            parse_config('{"case": {"id": 7}}')

    def test_pid_gain_triplets(self):
        config = parse_config(json.dumps({
            "pid": {"thrust": {"p": 1.0, "i": 0.1, "d": 0.5},
                    "outer_decimation": 4},
        }))
        assert config.cascade.thrust.kp == 1.0
        assert config.cascade.thrust.ki == 0.1
        assert config.cascade.thrust.kd == 0.5
        assert config.cascade.outer_decimation == 4
        # untouched loops keep defaults
        assert config.cascade.yaw.kp == 1.3e-2

    def test_lqr_diagonals_validated(self):
        with pytest.raises(ValueError, match="lqr"):
            parse_config('{"lqr": {"q_diag": [1, 2, 3]}}')
        with pytest.raises(ValueError, match="lqr"):
            parse_config(json.dumps({"lqr": {"r_diag": [1, 0.001, 0.001, 0]}}))

    def test_wrong_types_rejected(self):
        with pytest.raises(ValueError, match="params.m"):
            parse_config('{"params": {"m": "heavy"}}')
        with pytest.raises(ValueError, match="sim: plant_mode"):
            parse_config('{"sim": {"plant": "exact"}}')
        with pytest.raises(ValueError, match="outer_decimation"):
            parse_config('{"pid": {"outer_decimation": 0}}')

    # One fault per document, one document per kind of fault; the
    # messages are part of the CLI's output and are pinned byte for byte.
    @pytest.mark.parametrize("document, message", [
        ('[]', "config: expected an object, got list"),
        ('{"params": {"weight": 2}}', "params.weight: unknown key"),
        ('{"pid": {"thrust": {"x": 1}}}', "pid.thrust.x: unknown key"),
        ('{"params": []}', "params: expected an object, got list"),
        ('{"pid": {"thrust": 3}}', "pid.thrust: expected an object, got int"),
        ('{"params": {"m": "heavy"}}',
         "params.m: expected a number, got 'heavy'"),
        ('{"sim": {"dt": false}}', "sim.dt: expected a number, got False"),
        ('{"lqr": {"q_diag": [1, 2, 3]}}',
         "lqr.q_diag: expected 12 numbers, got [1, 2, 3]"),
        ('{"lqr": {"r_diag": [1, true, 1, 1]}}',
         "lqr.r_diag: expected 4 numbers, got [1, True, 1, 1]"),
        ('{"lqr": {"r_diag": [1, NaN, 1, 1]}}',
         "lqr.r_diag[1]: expected a finite number"),
        ('{"case": {"id": 7}}', "case.id: case_id must be 1, 2 or 3, got 7"),
        ('{"case": {"id": "1"}}', "case.id: expected an integer, got '1'"),
        ('{"pid": {"outer_decimation": 0}}',
         "pid: outer_decimation must be an integer >= 1, got 0"),
        ('{"pid": {"outer_decimation": 2.0}}',
         "pid.outer_decimation: expected an integer, got 2.0"),
        ('{"pid": {"outer_decimation": 1%s}}' % ("0" * 400),
         "pid: outer_decimation must convert to a float, got a 1329-bit integer"),
        ('{"pid": {"gravity_feedforward": 1}}',
         "pid.gravity_feedforward: expected true/false, got 1"),
        ('{"sim": {"plant": "x"}}',
         "sim: plant_mode must be one of ('nonlinear', 'linear'), got 'x'"),
        ('{"params": {"m": -1}}',
         "params: mass must be strictly positive, got -1.0"),
        ('{"lqr": {"r_diag": [1, 0.001, 0.001, 0]}}',
         "lqr: R must be positive definite"),
    ], ids=["root-list", "unknown-key", "unknown-gain", "section-list", "loop-int",
            "string-number", "bool-number", "short-vector", "bool-entry", "nan-entry",
            "case-7", "case-string", "decimation-0", "decimation-float", "decimation-1e400",
            "flag-int",
            "plant-x", "negative-mass", "singular-r"])
    def test_refusal_messages(self, document, message):
        with pytest.raises(ValueError) as info:
            parse_config(document)
        assert type(info.value) is ValueError
        assert str(info.value) == message


class TestCmdRun:
    def test_writes_trajectory_and_metrics(self, tmp_path):
        config = parse_config(json.dumps(FAST_SIM))
        assert cmd_run(config, "lqr", tmp_path) == 0
        csv_path = tmp_path / "trajectory.csv"
        metrics_path = tmp_path / "metrics.json"
        assert csv_path.exists() and metrics_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,x,y,z,phi,theta,psi,xdot,ydot,zdot,p,q,r,u1,u2,u3,u4"
        assert len(lines) == 1 + config.scenario.sample_count  # header + rows
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics) == {"x", "y", "z", "phi", "theta", "psi",
                                "xdot", "ydot", "zdot", "p", "q", "r"}
        assert set(metrics["z"]) == {"steady_state", "overshoot", "settling_time",
                                     "peak_count", "settled"}

    def test_bad_config_exits_one_without_files(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "missing.json"),
                     "run", "--controller", "lqr", "--out", str(tmp_path)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"params": {"m": -1}}')
        assert main(["--config", str(bad), "run", "--controller", "pid",
                     "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()
        # an outer sample time past float range: refused, not a traceback
        bad.write_text('{"pid": {"outer_decimation": 1%s}, "sim": {"t_final": 0.5}}'
                       % ("0" * 400))
        capsys.readouterr()
        for command in (["run", "--controller", "pid"], ["compare"]):
            assert main(["--config", str(bad), *command,
                         "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err.startswith("config error: pid: outer_decimation ")
        assert not (tmp_path / "out").exists()

    def test_unstable_gains_exit_two(self, tmp_path, capsys):
        # flipping the thrust loop sign destabilizes the altitude loop;
        # the exponential divergence overflows within the horizon
        config = parse_config(json.dumps({
            "pid": {"thrust": {"p": -9.09, "i": -1.94, "d": -10.41}},
            "sim": {"dt": 0.01, "t_final": 300.0},
        }))
        assert cmd_run(config, "pid", tmp_path) == 2
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_sampled_loop_divergence_message(self, tmp_path, capsys):
        # the continuous LQR on case 2 at the stock 1 ms grid: the
        # sampled loop is unstable and theta leaves range in two steps
        config = parse_config(json.dumps({"case": {"id": 2}}))
        assert cmd_run(config, "lqr", tmp_path) == 2
        assert capsys.readouterr().err == (
            "simulation diverged: ThetaOutOfRange: "
            "|theta| reached 11.3032 rad at t=0.0020 s\n")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_linear_divergence_is_one_stderr_line(self, tmp_path):
        # the continuous LQR on case 2 at 1 ms drives the linear plant
        # to ~1e305 before a component turns non-finite; numpy's
        # overflow warnings on the way must not reach stderr
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sim": {"plant": "linear", "t_final": 5.0},
                                      "case": {"id": 2}}), encoding="utf-8")
        src = str(Path(quadctrl.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run(
            [sys.executable, "-m", "quadctrl", "--config", str(config),
             "run", "--controller", "lqr", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stderr == ("simulation diverged: NonFiniteState: "
                                 "state became non-finite after a zero-order-hold step\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document", [
        {"lqr": {"q_diag": [q * 1e100 for q in DEFAULT_Q_DIAGONAL]}},
        {"params": {"ixx": 1e-300}},
    ])
    def test_refused_gain_is_one_stderr_line(self, tmp_path, document):
        # numpy's overflow warnings on the way to the refusal must not
        # reach stderr ahead of it
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        src = str(Path(quadctrl.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run(
            [sys.executable, "-m", "quadctrl", "--config", str(config), "gain"],
            env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("config error: ")

    def test_pid_run(self, tmp_path):
        config = parse_config(json.dumps(FAST_SIM))
        assert cmd_run(config, "pid", tmp_path) == 0
        assert (tmp_path / "trajectory.csv").exists()


class TestCmdCompare:
    def test_compare_blocks_and_deltas(self, tmp_path):
        config = parse_config(json.dumps(FAST_SIM))
        assert cmd_compare(config, tmp_path) == 0
        payload = json.loads((tmp_path / "comparison.json").read_text())
        assert set(payload) == {"pid", "lqr", "deltas"}
        for block in ("pid", "lqr"):
            assert "z" in payload[block]
        assert set(payload["deltas"]["z"]) == {"settling_time_diff",
                                               "overshoot_diff", "peak_count_diff"}

    def test_case3_reports_yaw_channel(self, tmp_path):
        config = parse_config(json.dumps({
            "case": {"id": 3}, "sim": {"dt": 5e-5, "t_final": 4.0}}))
        assert cmd_compare(config, tmp_path) == 0
        payload = json.loads((tmp_path / "comparison.json").read_text())
        assert "psi" in payload["pid"] and "psi" in payload["lqr"]
        assert payload["lqr"]["psi"]["steady_state"] == pytest.approx(0.5, abs=0.01)

    def test_refused_lqr_flies_nothing(self, tmp_path, capsys, monkeypatch):
        # both controllers are designed before either flies, so a refused
        # LQR gain exits 1 without a simulation step
        def no_flight(*args):
            raise AssertionError("flew before both controllers were designed")

        monkeypatch.setattr(cli, "run_closed_loop", no_flight)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lqr": NO_PSI_WEIGHT, "case": {"id": 2},
                                      "sim": {"dt": 5e-5}}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(config), "compare", "--out", str(out)]) == 1
        assert capsys.readouterr().err == NO_PSI_ERROR
        assert not out.exists()

    def test_refused_lqr_reported_before_diverging_pid(self, tmp_path, capsys):
        # a PID that diverges next to an LQR that is refused: the refusal
        # comes first (exit 1), where flying the PID before designing the
        # LQR reported "pid simulation diverged" (exit 2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "pid": {"thrust": {"p": -9.09, "i": -1.94, "d": -10.41}},
            "lqr": NO_PSI_WEIGHT,
            "sim": {"dt": 0.01, "t_final": 300.0},
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(config), "compare", "--out", str(out)]) == 1
        assert capsys.readouterr().err == NO_PSI_ERROR
        assert not out.exists()

    def test_identical_reports_give_zero_deltas(self):
        report = {"z": {"steady_state": 1.0, "overshoot": 0.1,
                        "settling_time": 2.5, "peak_count": 1, "settled": True}}
        deltas = metric_deltas(report, report)
        assert deltas["z"] == {"settling_time_diff": 0.0, "overshoot_diff": 0.0,
                               "peak_count_diff": 0}

    def test_unsettled_channel_gives_null_delta(self):
        settled = {"z": {"steady_state": 1.0, "overshoot": 0.1,
                         "settling_time": 2.5, "peak_count": 1, "settled": True}}
        unsettled = {"z": {"steady_state": 1.0, "overshoot": 0.4,
                           "settling_time": None, "peak_count": 3, "settled": False}}
        assert metric_deltas(settled, unsettled)["z"]["settling_time_diff"] is None


class TestMatrixCommands:
    def test_linearize_prints_both_matrices(self, capsys):
        assert cmd_linearize(parse_config("{}")) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "# A (12x12)"
        assert lines[13] == "# B (12x4)"
        a_rows = [row.split(",") for row in lines[1:13]]
        assert all(len(row) == 12 for row in a_rows)
        # gravity coupling with 17 significant digits
        assert float(a_rows[6][4]) == 9.81
        b_rows = [row.split(",") for row in lines[14:26]]
        assert float(b_rows[9][1]) == pytest.approx(285.71428571428572)

    def test_gain_prints_4x12(self, capsys):
        assert cmd_gain(parse_config("{}")) == 0
        out = capsys.readouterr().out
        rows = [row.split(",") for row in out.strip().splitlines()]
        assert len(rows) == 4 and all(len(r) == 12 for r in rows)
        yaw = [float(v) for v in rows[3]]
        assert yaw[5] == pytest.approx(100.0, rel=1e-6)
        assert yaw[11] == pytest.approx(31.64, abs=5e-3)

    def test_gain_deterministic_across_runs(self, capsys):
        cmd_gain(parse_config("{}"))
        first = capsys.readouterr().out
        cmd_gain(parse_config("{}"))
        assert capsys.readouterr().out == first

    def test_undetectable_weights_exit_one(self, tmp_path, capsys):
        q_diag = [500, 200, 1.71, 600, 1400, 0, 60, 60, 2.0, 0.25, 10, 1]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"lqr": {"q_diag": q_diag}}))
        assert main(["--config", str(cfg), "gain"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: (A, Q) is not detectable: Q does not "
                                "weight a mode with Re >= 0 on psi\n")

    @pytest.mark.parametrize("document, message", [
        ({"lqr": {"q_diag": [1e308, 200, 1.71, 600, 1400, 10, 60, 60, 2.0, 0.25, 10, 1]}},
         "observability matrix of (A, Q) overflowed on x, theta, xdot, q"),
        ({"params": {"ixx": 1e-300}}, "B R^-1 B' overflowed on y, phi, ydot, p"),
        ({"params": {"m": 1e200}}, "B R^-1 B' underflowed to zero on z, zdot"),
    ], ids=["x-weight-1e308", "ixx-1e-300", "m-1e200"])
    def test_overflowing_block_refused_by_cause(self, tmp_path, capsys, document, message):
        # the refusal names what overflowed and on which block, not
        # numpy's "SVD did not converge" or "infs or NaNs"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(document))
        assert main(["--config", str(cfg), "gain"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize("document", [
        {"params": {"ixx": 1e12}},
        {"lqr": {"q_diag": [1e13, 200, 1.71, 600, 1400, 10, 60, 60, 2.0, 0.25, 10, 1]}},
        {"params": {"g": 1e10}},
    ], ids=["roll-inertia-1e12", "x-weight-1e13", "gravity-1e10"])
    def test_rank_decided_per_block(self, tmp_path, capsys, document):
        # one block's scale would hide another block's rank in the whole
        # system.  At ixx = 1e12 the whole pair has controllability rank 8,
        # and one whole-system solve refuses it: "B does not reach a mode
        # with Re >= 0 on y, phi, ydot, p".  An x weight of 1e13 hides z,
        # zdot from the whole system's detectability test.  Per block both
        # are accepted.
        # At g = 1e10 a rank cutoff coarser than numpy's, such as
        # 1e-8 sigma_max, calls the lateral chains unseen.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(document))
        assert main(["--config", str(cfg), "gain"]) == 0
        K = np.array([[float(v) for v in row.split(",")]
                      for row in capsys.readouterr().out.strip().splitlines()])
        config = parse_config(json.dumps(document))
        ss = quadctrl.hover_jacobians(config.params)
        Q, R = config.weights.Q, config.weights.R
        K_ref = np.linalg.solve(R, ss.B.T @ solve_continuous_are(ss.A, ss.B, Q, R))
        assert np.linalg.norm(K - K_ref) <= 1e-8 * np.linalg.norm(K_ref)

    def test_stiff_stable_blocks_accepted(self, tmp_path, capsys):
        # each block's closed loop is stable at 80 digits, with slowest
        # poles near -2.29 (y/phi) and -3.16 (psi), where numpy's eigvals
        # of the block reads a real part of exactly 0.0
        mpmath = pytest.importorskip("mpmath")
        documents = [{"params": {"ixx": 1e-20}}, {"params": {"izz": 1e-20}},
                     {"lqr": {"r_diag": [1e-20, 1e-23, 1e-23, 1e-23]}}]
        for document in documents:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(document))
            assert main(["--config", str(cfg), "gain"]) == 0, document
            K = np.array([[float(v) for v in row.split(",")]
                          for row in capsys.readouterr().out.strip().splitlines()])
            config = parse_config(json.dumps(document))
            ss = quadctrl.hover_jacobians(config.params)
            for states, inputs in _decoupled_blocks(ss.A, ss.B, config.weights):
                with mpmath.workdps(80):
                    A = mpmath.matrix(ss.A[np.ix_(states, states)].tolist())
                    B = mpmath.matrix(ss.B[np.ix_(states, inputs)].tolist())
                    K_block = mpmath.matrix(K[np.ix_(inputs, states)].tolist())
                    poles = mpmath.eig(A - B * K_block, left=False, right=False)
                    assert max(mpmath.re(p) for p in poles) < 0, (document, states)

    @pytest.mark.parametrize("mass", [1e6, 1e7, 3e7, 1e8, 1e9])
    def test_heavy_vehicle_gain(self, tmp_path, capsys, mass):
        # |S| grows with the mass, so the residual's roundoff floor grows
        # too; Newton's stopping test is relative to the residual's terms.
        # The oracle solves each hover block on its own: scipy on the
        # whole system is 1.2e-7 off the closed-form altitude row at 1e9.
        document = {"params": {"m": mass}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(document))
        assert main(["--config", str(cfg), "gain"]) == 0
        K = np.array([[float(v) for v in row.split(",")]
                      for row in capsys.readouterr().out.strip().splitlines()])
        config = parse_config(json.dumps(document))
        ss = quadctrl.hover_jacobians(config.params)
        Q, R = config.weights.Q, config.weights.R
        K_ref = np.zeros_like(K)
        for states, inputs in (([2, 8], [0]), ([1, 3, 7, 9], [1]),
                               ([0, 4, 6, 10], [2]), ([5, 11], [3])):
            square, B = np.ix_(states, states), ss.B[np.ix_(states, inputs)]
            S = solve_continuous_are(ss.A[square], B, Q[square], R[np.ix_(inputs, inputs)])
            K_ref[np.ix_(inputs, states)] = np.linalg.solve(R[np.ix_(inputs, inputs)], B.T @ S)
        assert np.linalg.norm(K - K_ref) <= 1e-8 * np.linalg.norm(K_ref)

    def test_zero_state_weight_emits_zero_matrix(self, capsys):
        config = parse_config(json.dumps({"lqr": {"q_diag": [0.0] * 12}}))
        assert cmd_gain(config) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        values = [float(v) for row in rows for v in row.split(",")]
        assert values == [0.0] * 48


class TestMainEntry:
    def test_run_via_argv(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(FAST_SIM))
        out = tmp_path / "artifacts"
        assert main(["--config", str(cfg), "run", "--controller", "lqr",
                     "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("document, path", [
        ('{"sim": {"t_final": Infinity}}', "sim.t_final"),
        ('{"sim": {"dt": NaN}}', "sim.dt"),
        ('{"case": {"z_ref": NaN}}', "case.z_ref"),
        ('{"case": {"x0": [0, 0, 0, -Infinity, 0, 0, 0, 0, 0, 0, 0, 0]}}', "case.x0[3]"),
        ('{"params": {"m": 1' + "0" * 400 + '}}', "params.m"),
    ], ids=["t_final-inf", "dt-nan", "z_ref-nan", "x0-inf", "m-overflow"])
    def test_non_finite_number_exits_one(self, tmp_path, capsys, document, path):
        # json.loads accepts NaN and Infinity; a huge integer overflows a float
        cfg = tmp_path / "config.json"
        cfg.write_text(document)
        for command in (["gain"], ["run", "--controller", "pid", "--out", str(tmp_path / "out")]):
            assert main(["--config", str(cfg), *command]) == 1
            err = capsys.readouterr().err
            assert err == f"config error: {path}: expected a finite number\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document, message", [
        ('{"sim": {"t_final": 1e308}}', "duration=1e+308 over dt=0.001"),
        ('{"sim": {"t_final": 1e9}}', "duration=1000000000.0 over dt=0.001"),
        ('{"sim": {"dt": 1e-300}}', "duration=15.0 over dt=1e-300"),
    ], ids=["t_final-1e308", "t_final-1e9", "dt-1e-300"])
    def test_hopeless_grid_exits_one(self, tmp_path, capsys, document, message):
        # refused before the grid is allocated or a step is run
        cfg = tmp_path / "config.json"
        cfg.write_text(document)
        for command in (["gain"], ["run", "--controller", "pid", "--out", str(tmp_path / "out")]):
            assert main(["--config", str(cfg), *command]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"config error: sim: {message} is more than 10000000 steps\n"
        assert not (tmp_path / "out").exists()

    def test_overflowing_linear_step_exits_one(self, tmp_path, capsys):
        # the zero-order-hold series of the hover pair overflows at this dt
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": {"plant": "linear", "t_final": 1e79, "dt": 1e77}}))
        assert main(["--config", str(cfg), "run", "--controller", "pid",
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: the zero-order-hold series overflows "
                                "at dt=1e+77\n")
        assert not (tmp_path / "out").exists()

    def test_initial_pitch_outside_domain_exits_one(self, tmp_path, capsys):
        # row 0 of trajectory.csv would lie outside the nonlinear model
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"case": {"x0": [0, 0, 0, 0, 1.6] + [0] * 7}}))
        for command in (["gain"], ["run", "--controller", "pid", "--out", str(tmp_path / "out")]):
            assert main(["--config", str(cfg), *command]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "config error: case.x0: theta=1.6 is outside the nonlinear plant's "
                "domain |theta| < 1.5707953267948966\n")
        assert not (tmp_path / "out").exists()
        linear = {"case": {"x0": [0, 0, 0, 0, 1.6] + [0] * 7}, "sim": {"plant": "linear"}}
        cfg.write_text(json.dumps(linear))
        assert main(["--config", str(cfg), "gain"]) == 0

    def test_unwritable_out_dir_is_an_output_error(self, tmp_path, capsys, monkeypatch):
        # refused before any flight, creating nothing; a regular file
        # blocks the path, since root ignores permission bits
        def no_flight(*args):
            raise AssertionError("flew before the output directory was checked")

        monkeypatch.setattr(cli, "run_closed_loop", no_flight)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(FAST_SIM))
        blocker = tmp_path / "afile"
        blocker.write_text("")
        for out in (blocker, blocker / "sub"):
            for command in (["run", "--controller", "pid"], ["compare"]):
                assert main(["--config", str(cfg), *command, "--out", str(out)]) == 1
                assert capsys.readouterr().err == (
                    f"output error: {blocker} is not a writable directory\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "config.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stdout_is_an_output_error(self, unbuffered):
        # block-buffered stdout fails only when flushed, which must happen
        # inside main rather than at interpreter exit
        src = str(Path(quadctrl.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for command in ("gain", "linearize"):
            with open("/dev/full", "w") as full:
                result = subprocess.run([sys.executable, "-m", "quadctrl", command],
                                        env=env, stdout=full, stderr=subprocess.PIPE,
                                        text=True)
            assert result.returncode == 1
            assert result.stderr.startswith("output error: ")
            assert len(result.stderr.splitlines()) == 1

    def test_import_leaves_unused_scipy_out(self, tmp_path):
        # numpy is the only runtime dependency: with scipy blocked, a
        # fresh interpreter prints the gain and runs a short LQR run and
        # a short compare, and loads no scipy module
        (tmp_path / "short.json").write_text('{"sim": {"t_final": 0.5}}')
        code = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None",
            "from quadctrl.cli import main",
            "for command in (['gain'], ['run', '--controller', 'lqr', '--out', 'run'],",
            "                ['compare', '--out', 'compare']):",
            "    if main(['--config', 'short.json', *command]) != 0:",
            "        sys.exit(f'{command[0]} failed')",
            "print(sorted(name for name, module in sys.modules.items()",
            "             if name.split('.')[0] == 'scipy' and module is not None))",
        ])
        src = str(Path(quadctrl.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "compare" / "comparison.json").exists()

    def test_trajectory_csv_is_17_significant_digits(self, params, default_gain):
        from quadctrl import LqrController, run_closed_loop
        sc = scenario_case(1, duration=1.0, dt=0.01)
        trajectory = run_closed_loop(sc, LqrController(default_gain, params), params)
        stream = io.StringIO()
        trajectory_csv(trajectory, stream)
        text = stream.getvalue()
        assert "\r" not in text
        z_column = text.splitlines()[-1].split(",")[3]
        assert float(z_column) == trajectory.states[-1, 2]


class TestTrajectoryCsvBlocks:
    # One block, a full block, one row over, and longer tables that end
    # on, one past and three past a block boundary.
    @pytest.mark.parametrize("rows", sorted({1, CSV_BLOCK, CSV_BLOCK + 1, 1024, 1025, 2051}))
    def test_streamed_text_equals_joined_rows(self, rows):
        rng = np.random.default_rng(rows)
        times = np.arange(rows) * 1e-3
        states = rng.normal(size=(rows, 12)) * 10.0 ** rng.integers(-5, 5, size=(rows, 12))
        controls = -np.abs(rng.normal(size=(rows, 4)))
        states[0, :4] = [-0.0, 5e-324, 1e308, -1e308]
        controls[-1, :3] = [-0.0, -5e-324, 1e308]
        # constant in the first block only; constant from mid-block 0 to
        # mid-block 2, so whole in block 1; all -0.0; 0.0 and -0.0 mixed,
        # equal values with different bits; a change in each full block's
        # last row only
        states[:CSV_BLOCK, 4] = 0.25
        states[CSV_BLOCK // 2:5 * CSV_BLOCK // 2, 5] = -3.5
        states[:, 6] = -0.0
        states[:, 7] = 0.0
        states[1::2, 7] = -0.0
        states[:, 8] = 1.0
        states[CSV_BLOCK - 1::CSV_BLOCK, 8] = 2.0
        trajectory = Trajectory(np.column_stack([times, states, controls]))
        stream = io.StringIO()
        trajectory_csv(trajectory, stream)
        table = np.column_stack([times, states, controls])
        expected = "\n".join([TRAJECTORY_HEADER, *(",".join("%.17g" % v for v in row)
                                                   for row in table.tolist())]) + "\n"
        assert stream.getvalue() == expected
        assert expected.splitlines()[1].startswith("0,-0,4.9406564584124654e-324,1e+308,")
        # a float32 table is written as the doubles its values convert to;
        # its grid is dyadic, since float32 steps of 1e-3 are not uniform
        with np.errstate(over="ignore"):    # +-1e308 become +-inf
            single = table.astype(np.float32)
        single[:, 0] = np.arange(rows) * 0.5
        stream = io.StringIO()
        trajectory_csv(Trajectory(single), stream)
        assert stream.getvalue() == "\n".join(
            [TRAJECTORY_HEADER, *(",".join("%.17g" % v for v in row)
                                  for row in single.tolist())]) + "\n"

    def test_peak_memory_of_a_stock_length_run(self):
        # 15,001 rows, the stock 15 s at 1 ms, into a stream that keeps
        # no text: the writer's own peak is a block's, not the table's.
        # Every column varies in the first table; the second is case 1's
        # shape, where only t, z, zdot and u1 vary.
        class Sink(io.TextIOBase):
            def write(self, text):
                return len(text)

        rows = 15001
        rng = np.random.default_rng(0)
        varying = np.column_stack([np.arange(rows) * 1e-3, rng.normal(size=(rows, 16))])
        altitude_only = np.zeros_like(varying)
        altitude_only[:, [0, 3, 9, 13]] = varying[:, [0, 3, 9, 13]]
        for table in (varying, altitude_only):
            tracemalloc.start()
            try:
                trajectory_csv(Trajectory(table), Sink())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 500_000

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 600), dt=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1),
           placed=st.lists(st.tuples(
               st.integers(0, 600 * 16 - 1),
               st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308])
               | st.floats(allow_nan=False, allow_infinity=False)), max_size=40),
           runs=st.lists(st.tuples(
               st.integers(0, 15), st.integers(0, 599), st.integers(1, 600),
               st.sampled_from([0.0, -0.0, 5e-324, 1e308])
               | st.floats(allow_nan=False, allow_infinity=False)), max_size=6))
    # 600 rows are blocks of 256, 256 and 88: a column constant in block 0
    # only, a run over the whole of block 1, an all -0.0 column, and
    # block 1 mixing 0.0 with -0.0; then a final block of one row
    @example(rows=600, dt=1e-3, seed=0, placed=[],
             runs=[(0, 0, 256, 1.5), (1, 128, 512, -2.0), (2, 0, 600, -0.0),
                   (3, 0, 600, 0.0), (3, 300, 1, -0.0)])
    @example(rows=513, dt=1e-3, seed=1, placed=[], runs=[(4, 0, 513, 0.0)])
    def test_text_reads_back_bit_for_bit(self, rows, dt, seed, placed, runs):
        # every finite double is equally likely by its bits: all exponents,
        # subnormals and both zeros, then runs of one value down a column,
        # then the placed values on top
        values = np.frombuffer(np.random.default_rng(seed).bytes(rows * 16 * 8))
        values = np.where(np.isfinite(values), values, -0.0)
        for column, start, length, value in runs:
            values.reshape(rows, 16)[start:start + length, column] = value
        for index, value in placed:
            values[index % values.size] = value
        table = np.column_stack([np.arange(rows) * dt, values.reshape(rows, 16)])
        stream = io.StringIO()
        trajectory_csv(Trajectory(table), stream)
        header, *lines = stream.getvalue().split("\n")[:-1]
        assert header == TRAJECTORY_HEADER
        parsed = np.array([[float(field) for field in line.split(",")] for line in lines])
        assert parsed.shape == table.shape
        assert parsed.tobytes() == table.tobytes()


# The full default document, as in the README.
DEFAULT_DOCUMENT = {
    "params": {"m": 1.0, "ixx": 0.0035, "iyy": 0.0035, "izz": 0.005, "g": 9.81},
    "sim": {"dt": 0.001, "t_final": 15.0, "plant": "nonlinear"},
    "pid": {"thrust": {"p": 9.09, "i": 1.94, "d": 10.41},
            "roll_inner": {"p": 4.04, "i": 10.03, "d": 0.33},
            "roll_outer": {"p": -2.92, "i": -0.032, "d": -4.68},
            "pitch_inner": {"p": 4.04, "i": 10.03, "d": 0.33},
            "pitch_outer": {"p": -2.92, "i": -0.032, "d": -4.68},
            "yaw": {"p": 1.3e-2, "i": 7.6e-4, "d": 4.9e-2},
            "outer_decimation": 10, "gravity_feedforward": True},
    "lqr": {"q_diag": [500, 200, 1.71, 600, 1400, 10, 60, 60, 2.0, 0.25, 10, 1],
            "r_diag": [1.0, 0.001, 0.001, 0.001]},
    "case": {"id": 1, "z_ref": 1.0, "x_ref": 0.0, "y_ref": 0.0,
             "psi_ref": 0.0, "x0": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]},
}

# A 1% copy of case 2's disturbed start excites every loop of both
# controllers without pinning the outer loops at their angle limit; the
# fine grid keeps the stock LQR's sampled loop stable (200 steps).
SURFACE_BASE = {"case": {"id": 2, "x0": [0.01 * v for v in CASE2_INITIAL_STATE]},
                "sim": {"dt": 5e-5, "t_final": 0.01}}


def leaf_paths(node, prefix=()):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def lookup(document, path):
    for key in path:
        document = document[key]
    return document


def perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return "linear"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return [value[0] + 1] + value[1:]
    return 1.5 * value if value else 0.25


def command_outputs(document, tmp_path):
    """Exit code, stdout and artifact bytes of every command on one config."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(document))
    outputs = {}
    for argv in (["linearize"], ["gain"], ["run", "--controller", "pid"],
                 ["run", "--controller", "lqr"]):
        out = tmp_path / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["--config", str(cfg), *argv]
                        + (["--out", str(out)] if argv[0] == "run" else []))
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
        outputs[" ".join(argv)] = (code, stdout.getvalue(), files)
        shutil.rmtree(out, ignore_errors=True)
    return outputs


def canonical(config):
    return json.dumps(dataclasses.asdict(config), default=np.ndarray.tolist,
                      sort_keys=True)


class TestConfigSurface:
    """Every key the CLI accepts changes some output; removed keys are refused."""

    def test_default_document_matches_empty(self, capsys):
        assert canonical(parse_config(json.dumps(DEFAULT_DOCUMENT))) == \
            canonical(parse_config("{}"))
        for command in (cmd_gain, cmd_linearize):
            command(parse_config(json.dumps(DEFAULT_DOCUMENT)))
            from_document = capsys.readouterr().out
            command(parse_config("{}"))
            assert capsys.readouterr().out == from_document

    def test_params_keys_are_the_vehicle_fields(self):
        # no vehicle constant exists that the document cannot set
        fields = [f.name for f in dataclasses.fields(quadctrl.QuadrotorParams)]
        assert fields == list(_PARAM_KEYS.values())

    def test_leaf_key_count(self):
        assert len(list(leaf_paths(DEFAULT_DOCUMENT))) == 36

    @pytest.fixture(scope="class")
    def base_outputs(self, tmp_path_factory):
        return command_outputs(SURFACE_BASE, tmp_path_factory.mktemp("base"))

    @pytest.mark.parametrize("path", list(leaf_paths(DEFAULT_DOCUMENT)),
                             ids=".".join)
    def test_every_key_has_an_effect(self, path, base_outputs, tmp_path):
        document = copy.deepcopy(SURFACE_BASE)
        node = document
        for key in path[:-1]:
            node = node.setdefault(key, {})
        try:
            current = lookup(SURFACE_BASE, path)
        except KeyError:
            current = lookup(DEFAULT_DOCUMENT, path)
        node[path[-1]] = perturbed(current)
        changed = command_outputs(document, tmp_path)
        assert all(code != 1 for code, _, _ in changed.values()), changed
        assert changed != base_outputs

    @pytest.mark.parametrize("document, message", [
        ({"params": {"l": 0.2}}, "params.l: unknown key"),
        ({"params": {"kf": 1e-5}}, "params.kf: unknown key"),
        ({"params": {"km": 1e-7}}, "params.km: unknown key"),
        ({"params": {"jr": 0}}, "params.jr: unknown key"),
        ({"mixer": {"include_arm_length": True}}, "mixer: unknown key"),
    ])
    def test_removed_keys_refused(self, document, message, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(document))
        assert main(["--config", str(cfg), "gain"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


# Any JSON value: what a config document can hold at a leaf.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=13)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=13,
)


class TestConfigSchemaProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(path=st.sampled_from(list(leaf_paths(DEFAULT_DOCUMENT))), value=JSON_VALUES)
    def test_any_leaf_value_parses_or_names_its_section(self, path, value):
        document = copy.deepcopy(DEFAULT_DOCUMENT)
        lookup(document, path[:-1])[path[-1]] = value
        try:
            parse_config(json.dumps(document))
        except ValueError as exc:
            assert str(exc).startswith(path[0]), (path, value, exc)
