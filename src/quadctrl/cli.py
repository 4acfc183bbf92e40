"""Configuration loading, subcommand dispatch and artifact emission.

The config document is plain JSON with the sections ``params``,
``sim``, ``pid``, ``lqr`` and ``case``; every key is optional and
omitted keys fall back to the stock defaults (vehicle constants, tuned
PID gains, LQR weight diagonals, benchmark case 1).  :func:`_defaults`
builds the full document at those defaults: its keys are the accepted
keys, and each default's type is the type a value must have.

Every key can change the output of some command, and the ``params``
keys name exactly the fields of :class:`QuadrotorParams`.  Unknown keys,
wrong types and non-finite numbers (JSON's NaN and Infinity) are
rejected with their full path.  Range rules live in the library type
each section builds, and its refusal is led by the section, or by
``case.x0`` for a pitch outside the nonlinear plant's domain; every
refusal is a ``ValueError``.  trajectory.csv, the run's table written
``CSV_BLOCK`` rows at a time, and the matrices of ``linearize`` and
``gain`` carry 17 significant digits; the JSON
artifacts carry each float's shortest repr that reads back to the same
value.  Outputs use Unix newlines, so repeated runs of the same config
are byte-identical.

An ``--out`` that cannot be written is refused before any design or
flight, and ``compare`` designs both controllers before either flies,
so a refused gain exits 1 before any simulation step.  metrics.json
holds each channel's :class:`sim.Metrics` under its field names.

Exit codes: 0 success, 1 config or output error, 2 simulation divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import TextIO

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

TRAJECTORY_HEADER = ",".join(("t", *model.STATE_LABELS, "u1", "u2", "u3", "u4"))
# Rows of trajectory.csv formatted and written at a time: a block's
# floats, argument tuple and text peak near 0.3 MB, where the whole
# table cost megabytes.
CSV_BLOCK = 256

_PARAM_KEYS = {
    "m": "mass", "ixx": "inertia_xx", "iyy": "inertia_yy", "izz": "inertia_zz",
    "g": "gravity",
}
_PID_LOOPS = ("thrust", "roll_inner", "roll_outer", "pitch_inner", "pitch_outer", "yaw")
_REF_KEYS = ("z_ref", "x_ref", "y_ref", "psi_ref")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration for one command invocation."""

    params: QuadrotorParams
    cascade: CascadeConfig
    weights: LqrWeights
    scenario: Scenario


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ValueError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _finite(value, path: str) -> float:
    # json.loads accepts NaN and Infinity, and an integer literal can
    # overflow a float
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{path}: expected a finite number")
    return number


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _defaults(case_id: int) -> dict:
    """The full config document at its defaults for benchmark case ``case_id``.

    Its keys are the keys the document accepts, and the type of each
    default is the type a value must have.
    """
    params, cascade, stock = QuadrotorParams(), CascadeConfig(), scenario_case(case_id)
    gains = {loop: getattr(cascade, loop) for loop in _PID_LOOPS}
    return {
        "params": {key: getattr(params, field) for key, field in _PARAM_KEYS.items()},
        "sim": {"dt": stock.dt, "t_final": stock.duration, "plant": stock.plant_mode},
        "pid": {**{loop: {"p": g.kp, "i": g.ki, "d": g.kd} for loop, g in gains.items()},
                "outer_decimation": cascade.outer_decimation,
                "gravity_feedforward": cascade.gravity_feedforward},
        "lqr": {"q_diag": list(DEFAULT_Q_DIAGONAL), "r_diag": list(DEFAULT_R_DIAGONAL)},
        "case": {"id": case_id,
                 **{key: getattr(stock.references, key) for key in _REF_KEYS},
                 "x0": stock.initial_state.tolist()},
    }


def _merge(node, defaults: dict, path: str) -> dict:
    """``defaults`` with the values of the object ``node`` checked and filled in.

    Only the form is checked here.  An object recurses; a bool takes
    true/false, an int an integer, a list as many finite numbers as its
    default has, a float a finite number, and a string any value.
    Ranges and allowed values are checked by the library type that the
    value goes to.
    """
    merged = dict(defaults)
    for key, value in _require_mapping(node, path or "config").items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ValueError(f"{where}: unknown key")
        default = defaults[key]
        if isinstance(default, dict):
            value = _merge(value, default, where)
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                raise ValueError(f"{where}: expected true/false, got {value!r}")
        elif isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{where}: expected an integer, got {value!r}")
        elif isinstance(default, list):
            if (not isinstance(value, list) or len(value) != len(default)
                    or not all(map(_is_number, value))):
                raise ValueError(f"{where}: expected {len(default)} numbers, got {value!r}")
            value = [_finite(v, f"{where}[{i}]") for i, v in enumerate(value)]
        elif isinstance(default, float):
            if not _is_number(value):
                raise ValueError(f"{where}: expected a number, got {value!r}")
            value = _finite(value, where)
        merged[key] = value
    return merged


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    The document's form (JSON, objects, known keys, types, finite
    numbers, list lengths) is checked here, and a refusal names the key
    path.  Ranges and allowed values are checked by the library types
    built from each section, and their refusals are led by the section.
    Every refusal is a :class:`ValueError`.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    document = _require_mapping(document, "config")
    # case.id picks the defaults of the rest of the document
    case = _require_mapping(document.get("case", {}), "case")
    case_id = _merge({k: v for k, v in case.items() if k == "id"}, {"id": 1}, "case")["id"]
    try:
        defaults = _defaults(case_id)
    except ValueError as exc:
        raise ValueError(f"case.id: {exc}") from exc
    merged = _merge(document, defaults, "")

    try:
        params = QuadrotorParams(**{field: merged["params"][key]
                                    for key, field in _PARAM_KEYS.items()})
    except ValueError as exc:
        raise ValueError(f"params: {exc}") from exc

    pid = merged["pid"]
    try:
        cascade = CascadeConfig(
            **{loop: PidGains(kp=pid[loop]["p"], ki=pid[loop]["i"], kd=pid[loop]["d"])
               for loop in _PID_LOOPS},
            outer_decimation=pid["outer_decimation"],
            gravity_feedforward=pid["gravity_feedforward"],
        )
    except ValueError as exc:
        raise ValueError(f"pid: {exc}") from exc

    try:
        weights = LqrWeights.from_diagonals(merged["lqr"]["q_diag"], merged["lqr"]["r_diag"])
    except ValueError as exc:
        raise ValueError(f"lqr: {exc}") from exc

    case, grid = merged["case"], merged["sim"]
    try:
        scenario = Scenario(
            initial_state=np.array(case["x0"]),
            references=Setpoints(**{key: case[key] for key in _REF_KEYS}),
            duration=grid["t_final"],
            dt=grid["dt"],
            plant_mode=grid["plant"],
        )
    except sim.InitialThetaOutOfRange as exc:
        raise ValueError(f"case.x0: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"sim: {exc}") from exc
    return RunConfig(params=params, cascade=cascade, weights=weights, scenario=scenario)


def _matrix_csv(matrix: np.ndarray) -> str:
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in matrix)


def make_controller(config: RunConfig, name: str):
    """Instantiate the requested controller for the configured plant."""
    if name == "pid":
        return PidCascadeController(config.cascade, config.params)
    if name == "lqr":
        ss = hover_jacobians(config.params)
        return LqrController(riccati.lqr_gain(ss.A, ss.B, config.weights), config.params)
    raise ValueError(f"controller must be 'pid' or 'lqr', got {name!r}")


def trajectory_csv(trajectory: Trajectory, stream: TextIO) -> None:
    """Write ``trajectory`` to the text ``stream`` as CSV.

    The header, then one line per row of the table, each value with 17
    significant digits and every line ending in "\n".  Each block of
    ``CSV_BLOCK`` rows is formatted by one ``%``, so at most one block's
    text is held.
    """
    table = trajectory.table
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    stream.write(TRAJECTORY_HEADER + "\n")
    for start in range(0, table.shape[0], CSV_BLOCK):
        block = table[start:start + CSV_BLOCK]
        stream.write((row * len(block)) % tuple(block.ravel().tolist()))


def metrics_report(trajectory: Trajectory, references: Setpoints) -> dict:
    """Each channel's :class:`sim.Metrics`, as its metrics.json entry."""
    return {label: dataclasses.asdict(sim.compute_metrics(trajectory, label, reference))
            for label, reference in zip(model.STATE_LABELS,
                                        references.reference_state().tolist())}


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


def _writable_out(out_dir) -> Path:
    """``out_dir`` as a Path, if its nearest existing part is a writable directory."""
    out = Path(out_dir)
    existing = next((path for path in (out, *out.parents) if path.exists()), out)
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise NotADirectoryError(f"{existing} is not a writable directory")
    return out


def _fly(config: RunConfig, controller, label: str = "") -> Trajectory | None:
    """Fly ``config.scenario`` with a built ``controller``.

    On divergence, print one stderr line led by ``label`` and return None.
    """
    try:
        return run_closed_loop(config.scenario, controller, config.params)
    except (sim.NonFiniteState, sim.ThetaOutOfRange) as exc:
        print(f"{label}simulation diverged: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def cmd_run(config: RunConfig, controller_name: str, out_dir) -> int:
    """Simulate one controller; write trajectory.csv and metrics.json."""
    out = _writable_out(out_dir)
    trajectory = _fly(config, make_controller(config, controller_name))
    if trajectory is None:
        return 2
    out.mkdir(parents=True, exist_ok=True)
    with (out / "trajectory.csv").open("w", encoding="utf-8", newline="\n") as stream:
        trajectory_csv(trajectory, stream)
    _write_json(out / "metrics.json",
                metrics_report(trajectory, config.scenario.references))
    return 0


def cmd_compare(config: RunConfig, out_dir) -> int:
    """Run both controllers on the same scenario; write comparison.json.

    Both controllers are designed before either flies, so a refused
    gain costs no simulation.
    """
    out = _writable_out(out_dir)
    controllers = {name: make_controller(config, name) for name in ("pid", "lqr")}
    reports = {}
    for name, controller in controllers.items():
        trajectory = _fly(config, controller, f"{name} ")
        if trajectory is None:
            return 2
        reports[name] = metrics_report(trajectory, config.scenario.references)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "comparison.json",
                {**reports, "deltas": metric_deltas(reports["pid"], reports["lqr"])})
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
    stage = "config"    # an OSError is the config's fault only while it is read
    try:
        config = _load_config(args.config)
        stage = "output"
        if args.command == "run":
            return cmd_run(config, args.controller, args.out)
        if args.command == "compare":
            return cmd_compare(config, args.out)
        code = cmd_linearize(config) if args.command == "linearize" else cmd_gain(config)
        sys.stdout.flush()    # a full disk fails here, not at interpreter exit
        return code
    except OSError as exc:
        print(f"{stage} error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:    # drop what stdout cannot take, or exit flushes it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, riccati.NoConvergence) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
