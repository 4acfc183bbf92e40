"""Configuration loading, subcommand dispatch and artifact emission.

The config document is plain JSON; every section is optional and
omitted keys fall back to the stock defaults (vehicle constants, tuned
PID gains, LQR weight diagonals, benchmark case 1):

    {
      "params": {"m","ixx","iyy","izz","g"},
      "sim":    {"dt","t_final","plant"},
      "pid":    {"thrust"|"roll_inner"|"roll_outer"|"pitch_inner"
                 |"pitch_outer"|"yaw": {"p","i","d"},
                 "outer_decimation","gravity_feedforward"},
      "lqr":    {"q_diag":[12],"r_diag":[4]},
      "case":   {"id","z_ref","x_ref","y_ref","psi_ref","x0":[12]}
    }

Every key can change the output of some command.  The commands drive the
generalized inputs u1..u4 directly, so the rotor-mixer constants (arm
length, thrust and drag factors) are not part of the document.
Unknown keys are rejected with their full path.  Outputs are emitted
with 17 significant digits and Unix newlines, so repeated runs of the
same config are byte-identical.

Exit codes: 0 success, 1 configuration error, 2 simulation divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import model, riccati, sim
from .linearize import hover_jacobians
from .model import QuadrotorParams
from .pid import CascadeConfig, PidGains, Setpoints
from .riccati import DEFAULT_Q_DIAGONAL, DEFAULT_R_DIAGONAL, LqrWeights
from .sim import (
    LqrController,
    PidCascadeController,
    Scenario,
    Trajectory,
    run_closed_loop,
    scenario_case,
)

TRAJECTORY_HEADER = "t,x,y,z,phi,theta,psi,xdot,ydot,zdot,p,q,r,u1,u2,u3,u4"

_PARAM_KEYS = {
    "m": "mass", "ixx": "inertia_xx", "iyy": "inertia_yy", "izz": "inertia_zz",
    "g": "gravity",
}
_PID_LOOPS = ("thrust", "roll_inner", "roll_outer", "pitch_inner", "pitch_outer", "yaw")
_REF_KEYS = ("z_ref", "x_ref", "y_ref", "psi_ref")


class SchemaError(ValueError):
    """Config document violates the schema; message carries the key path."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration for one command invocation."""

    params: QuadrotorParams
    cascade: CascadeConfig
    weights: LqrWeights
    scenario: Scenario


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, known, path: str) -> None:
    for key in node:
        if key not in known:
            raise SchemaError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


def _number(node: dict, key: str, path: str, default):
    if key not in node:
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def _vector(node: dict, key: str, path: str, length: int, default):
    if key not in node:
        return default
    value = node[key]
    if (not isinstance(value, list) or len(value) != length
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ValueError(f"{path}.{key}: expected {length} numbers, got {value!r}")
    return [float(v) for v in value]


def _flag(node: dict, key: str, path: str, default: bool) -> bool:
    if key not in node:
        return default
    value = node[key]
    if not isinstance(value, bool):
        raise ValueError(f"{path}.{key}: expected true/false, got {value!r}")
    return value


def _parse_params(node: dict) -> QuadrotorParams:
    _reject_unknown(node, _PARAM_KEYS, "params")
    defaults = QuadrotorParams()
    kwargs = {}
    for key, fieldname in _PARAM_KEYS.items():
        kwargs[fieldname] = _number(node, key, "params", getattr(defaults, fieldname))
    try:
        return QuadrotorParams(**kwargs)
    except ValueError as exc:
        raise ValueError(f"params: {exc}") from exc


def _parse_pid(node: dict) -> CascadeConfig:
    _reject_unknown(node, _PID_LOOPS + ("outer_decimation", "gravity_feedforward"), "pid")
    defaults = CascadeConfig()
    kwargs = {}
    for loop in _PID_LOOPS:
        if loop not in node:
            continue
        triplet = _require_mapping(node[loop], f"pid.{loop}")
        _reject_unknown(triplet, ("p", "i", "d"), f"pid.{loop}")
        base: PidGains = getattr(defaults, loop)
        kwargs[loop] = PidGains(
            kp=_number(triplet, "p", f"pid.{loop}", base.kp),
            ki=_number(triplet, "i", f"pid.{loop}", base.ki),
            kd=_number(triplet, "d", f"pid.{loop}", base.kd),
        )
    if "outer_decimation" in node:
        value = node["outer_decimation"]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(
                f"pid.outer_decimation: expected an integer >= 1, got {value!r}")
        kwargs["outer_decimation"] = value
    kwargs["gravity_feedforward"] = _flag(
        node, "gravity_feedforward", "pid", defaults.gravity_feedforward)
    return dataclasses.replace(defaults, **kwargs)


def _parse_lqr(node: dict) -> LqrWeights:
    _reject_unknown(node, ("q_diag", "r_diag"), "lqr")
    q_diag = _vector(node, "q_diag", "lqr", model.STATE_DIM, list(DEFAULT_Q_DIAGONAL))
    r_diag = _vector(node, "r_diag", "lqr", model.INPUT_DIM, list(DEFAULT_R_DIAGONAL))
    try:
        return LqrWeights.from_diagonals(q_diag, r_diag)
    except ValueError as exc:
        raise ValueError(f"lqr: {exc}") from exc


def _parse_scenario(case_node: dict, sim_node: dict) -> Scenario:
    _reject_unknown(case_node, ("id", "x0") + _REF_KEYS, "case")
    _reject_unknown(sim_node, ("dt", "t_final", "plant"), "sim")

    case_id = case_node.get("id", 1)
    if isinstance(case_id, bool) or not isinstance(case_id, int):
        raise ValueError(f"case.id: expected an integer, got {case_id!r}")
    try:
        stock = scenario_case(case_id)
    except sim.UnknownCase as exc:
        raise ValueError(f"case.id: {exc}") from exc

    refs = stock.references
    ref_kwargs = {key: _number(case_node, key, "case", getattr(refs, key))
                  for key in _REF_KEYS}
    x0 = _vector(case_node, "x0", "case", model.STATE_DIM,
                 stock.initial_state.tolist())

    plant = sim_node.get("plant", stock.plant_mode)
    if plant not in sim.PLANT_MODES:
        raise ValueError(f"sim.plant: expected one of {sim.PLANT_MODES}, got {plant!r}")
    try:
        return scenario_case(
            case_id,
            initial_state=np.array(x0),
            references=Setpoints(**ref_kwargs),
            duration=_number(sim_node, "t_final", "sim", stock.duration),
            dt=_number(sim_node, "dt", "sim", stock.dt),
            plant_mode=plant,
        )
    except ValueError as exc:
        raise ValueError(f"sim: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Raises :class:`SchemaError` for structural problems (non-JSON,
    unknown keys) and :class:`ValueError` for values that violate their
    constraints; both messages carry the offending key path.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    document = _require_mapping(document, "config")
    _reject_unknown(document, ("params", "sim", "pid", "lqr", "case"), "")

    return RunConfig(
        params=_parse_params(_require_mapping(document.get("params", {}), "params")),
        cascade=_parse_pid(_require_mapping(document.get("pid", {}), "pid")),
        weights=_parse_lqr(_require_mapping(document.get("lqr", {}), "lqr")),
        scenario=_parse_scenario(
            _require_mapping(document.get("case", {}), "case"),
            _require_mapping(document.get("sim", {}), "sim")),
    )


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _matrix_csv(matrix: np.ndarray) -> str:
    return "\n".join(",".join(_fmt(v) for v in row) for row in matrix)


def make_controller(config: RunConfig, name: str):
    """Instantiate the requested controller for the configured plant."""
    if name == "pid":
        return PidCascadeController(config.cascade, config.params)
    if name == "lqr":
        ss = hover_jacobians(config.params)
        return LqrController(riccati.lqr_gain(ss.A, ss.B, config.weights), config.params)
    raise ValueError(f"controller must be 'pid' or 'lqr', got {name!r}")


def trajectory_csv(trajectory: Trajectory) -> str:
    rows = [TRAJECTORY_HEADER]
    for t, state, u in zip(trajectory.times, trajectory.states, trajectory.controls):
        values = [t, *state, *u]
        rows.append(",".join(_fmt(v) for v in values))
    return "\n".join(rows) + "\n"


def metrics_report(trajectory: Trajectory, references: Setpoints) -> dict:
    report = {}
    for label, reference in zip(model.STATE_LABELS, references.reference_state().tolist()):
        m = sim.compute_metrics(trajectory, label, reference)
        report[label] = {
            "steady_state": m.steady_state_value,
            "overshoot": m.overshoot,
            "settling_time": m.settling_time,
            "peak_count": m.overshoot_peak_count,
            "settled": m.settled,
        }
    return report


def metric_deltas(first: dict, second: dict) -> dict:
    """Per-channel metric differences, first minus second."""
    deltas = {}
    for label in first:
        a, b = first[label], second[label]
        if a["settling_time"] is None or b["settling_time"] is None:
            settling_diff = None
        else:
            settling_diff = a["settling_time"] - b["settling_time"]
        deltas[label] = {
            "settling_time_diff": settling_diff,
            "overshoot_diff": a["overshoot"] - b["overshoot"],
            "peak_count_diff": a["peak_count"] - b["peak_count"],
        }
    return deltas


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def cmd_run(config: RunConfig, controller_name: str, out_dir) -> int:
    """Simulate one controller; write trajectory.csv and metrics.json."""
    out = Path(out_dir)
    try:
        controller = make_controller(config, controller_name)
        trajectory = run_closed_loop(config.scenario, controller, config.params)
    except (sim.NonFiniteState, sim.ThetaOutOfRange) as exc:
        print(f"simulation diverged: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.csv").write_text(trajectory_csv(trajectory),
                                        encoding="utf-8", newline="\n")
    _write_json(out / "metrics.json",
                metrics_report(trajectory, config.scenario.references))
    return 0


def cmd_compare(config: RunConfig, out_dir) -> int:
    """Run both controllers on the same scenario; write comparison.json."""
    out = Path(out_dir)
    reports = {}
    for name in ("pid", "lqr"):
        try:
            controller = make_controller(config, name)
            trajectory = run_closed_loop(config.scenario, controller, config.params)
        except (sim.NonFiniteState, sim.ThetaOutOfRange) as exc:
            print(f"{name} simulation diverged: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2
        reports[name] = metrics_report(trajectory, config.scenario.references)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "comparison.json", {
        "pid": reports["pid"],
        "lqr": reports["lqr"],
        "deltas": metric_deltas(reports["pid"], reports["lqr"]),
    })
    return 0


def cmd_linearize(config: RunConfig) -> int:
    """Print the hover-linearized A and B matrices as CSV."""
    ss = hover_jacobians(config.params)
    print("# A (12x12)")
    print(_matrix_csv(ss.A))
    print("# B (12x4)")
    print(_matrix_csv(ss.B))
    return 0


def cmd_gain(config: RunConfig) -> int:
    """Print the LQR gain matrix (4 rows x 12 columns) as CSV."""
    ss = hover_jacobians(config.params)
    print(_matrix_csv(riccati.lqr_gain(ss.A, ss.B, config.weights)))
    return 0


def _load_config(path: str | None) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8") if path else "{}"
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadctrl",
        description="Quadrotor flight-control simulation toolkit",
    )
    parser.add_argument("--config", help="path to a JSON config document")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="simulate one controller")
    run_parser.add_argument("--controller", choices=("pid", "lqr"), required=True)
    run_parser.add_argument("--out", default=".", help="output directory")

    compare_parser = subparsers.add_parser(
        "compare", help="run both controllers on one scenario")
    compare_parser.add_argument("--out", default=".", help="output directory")

    subparsers.add_parser("linearize", help="print the hover A and B matrices")
    subparsers.add_parser("gain", help="print the LQR gain matrix")

    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "run":
            return cmd_run(config, args.controller, args.out)
        if args.command == "compare":
            return cmd_compare(config, args.out)
        if args.command == "linearize":
            return cmd_linearize(config)
        return cmd_gain(config)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, ValueError, riccati.NotStabilizable,
            riccati.NoConvergence) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
