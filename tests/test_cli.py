"""Tests for config parsing, subcommands and artifact emission."""

import contextlib
import copy
import dataclasses
import io
import json
import shutil

import numpy as np
import pytest

from quadctrl.cli import (
    SchemaError,
    cmd_compare,
    cmd_gain,
    cmd_linearize,
    cmd_run,
    main,
    metric_deltas,
    parse_config,
    trajectory_csv,
)
from quadctrl.sim import CASE2_INITIAL_STATE, scenario_case

FAST_SIM = {"sim": {"dt": 0.01, "t_final": 2.0}}


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        config = parse_config("{}")
        assert config.params.mass == 1.0
        assert config.params.thrust_factor == 9.8e-6
        assert config.cascade.thrust.kp == 9.09
        assert np.array_equal(np.diag(config.weights.R), [1.0, 0.001, 0.001, 0.001])
        assert config.scenario.case_id == 1
        assert config.scenario.references.z_ref == 1.0

    def test_negative_mass_rejected_with_path(self):
        with pytest.raises(ValueError, match="params"):
            parse_config('{"params": {"m": -1}}')

    def test_sim_overrides_merge_over_defaults(self):
        config = parse_config('{"sim": {"dt": 0.01, "t_final": 5}}')
        assert config.scenario.dt == 0.01
        assert config.scenario.duration == 5.0
        assert config.scenario.references.z_ref == 1.0  # untouched default

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(SchemaError, match="params.weight"):
            parse_config('{"params": {"weight": 2}}')
        with pytest.raises(SchemaError, match="thrusters"):
            parse_config('{"thrusters": {}}')

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError, match="JSON"):
            parse_config("{not json")

    def test_case_overrides(self):
        config = parse_config(json.dumps({
            "case": {"id": 3, "psi_ref": 0.25,
                     "x0": [0, 0, 0.1, 0, 0, 0, 0, 0, 0, 0, 0, 0]},
        }))
        assert config.scenario.case_id == 3
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
        with pytest.raises(ValueError, match="sim.plant"):
            parse_config('{"sim": {"plant": "exact"}}')
        with pytest.raises(ValueError, match="outer_decimation"):
            parse_config('{"pid": {"outer_decimation": 0}}')


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

    def test_bad_config_exits_one_without_files(self, tmp_path):
        assert main(["--config", str(tmp_path / "missing.json"),
                     "run", "--controller", "lqr", "--out", str(tmp_path)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"params": {"m": -1}}')
        assert main(["--config", str(bad), "run", "--controller", "pid",
                     "--out", str(tmp_path / "out")]) == 1
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

    def test_trajectory_csv_is_17_significant_digits(self, params, default_gain):
        from quadctrl import LqrController, run_closed_loop
        sc = scenario_case(1, duration=1.0, dt=0.01)
        trajectory = run_closed_loop(sc, LqrController(default_gain, params), params)
        text = trajectory_csv(trajectory)
        assert "\r" not in text
        z_column = text.splitlines()[-1].split(",")[3]
        assert float(z_column) == trajectory.states[-1, 2]


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
