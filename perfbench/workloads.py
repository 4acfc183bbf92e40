"""Seeded workloads for the quadctrl benchmark and the per-op oracles.

Each workload is an endless, seed-determined sequence of :class:`Op`s;
one op is one ``quadctrl`` CLI invocation.  The oracles check an op's
output against properties that do not depend on golden bytes, so a
numerically different but correct program still passes.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

import numpy as np

from quadctrl import model, riccati
from quadctrl.linearize import hover_jacobians
from quadctrl.riccati import DEFAULT_Q_DIAGONAL, DEFAULT_R_DIAGONAL
from quadctrl.sim import CASE2_INITIAL_STATE

WORKLOADS = ("stiff_compare", "step_runs", "synthesis_sweep")

# The grid cases 2 and 3 need for the stock LQR (sampled-loop spectral
# radius 0.99995), on the stock horizon: at 8 s the PID's case-2
# altitude can still sit 0.022 m off its reference.
STIFF_DT = 5e-5
STOCK_DT = 1e-3
STOCK_T_FINAL = 15.0

# A timed run stops only after a whole round of op kinds, so every run
# holds the same mix.  The two stiff_compare kinds integrate the same
# number of steps and cost the same, and one op outlasts a run, so there
# a round is one op.
ROUND = {"stiff_compare": 1, "step_runs": 2, "synthesis_sweep": 1}

# Fixed op counts of the traced run, so its counts repeat exactly.
TRACE_OPS = {"stiff_compare": 1, "step_runs": 4, "synthesis_sweep": 12}

REFERENCED = ("x", "y", "z", "psi")
SETTLING_BAND = 0.02     # the CLI's default relative band
# The stock PID's lateral outer loops (ki = -0.032) end a lateral step
# 3-38% past the reference after 15 s (measured over 24 draws), and the
# residue of a lateral offset decays over minutes: a tuning property,
# not a program fault.  Those channels are held to half the initial
# error instead of the 2% band.
PID_LATERAL_BAND = 0.5
GAIN_RTOL = 1e-6         # Newton gain vs. Hamiltonian cross-check, Frobenius


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand arguments, config document and
    what the oracle needs to judge the output."""

    command: tuple[str, ...]
    config: dict
    steps: int = 0                      # simulated RK4 steps, all runs
    samples: int = 0                    # trajectory rows per run
    refs: tuple[tuple[str, float], ...] = ()
    x0: tuple[float, ...] = (0.0,) * model.STATE_DIM

    @property
    def kind(self) -> str:
        return self.command[0]


def _grid(dt: float, t_final: float) -> tuple[int, int]:
    samples = int(round(t_final / dt)) + 1
    return samples - 1, samples


def _signed(rng: random.Random, low: float, high: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(low, high)


def _stiff_compare(rng: random.Random, index: int) -> Op:
    steps, samples = _grid(STIFF_DT, STOCK_T_FINAL)
    sim_node = {"dt": STIFF_DT}
    if index % 2 == 0:
        x0 = tuple(v * _signed(rng, 0.5, 1.0) for v in CASE2_INITIAL_STATE)
        case = {"id": 2, "x0": list(x0)}
        refs = dict.fromkeys(REFERENCED, 0.0)
    else:
        x0 = (0.0,) * model.STATE_DIM
        refs = {"x": 0.0, "y": 0.0, "z": rng.uniform(0.5, 1.5),
                "psi": _signed(rng, 0.25, 0.75)}
        case = {"id": 3, "z_ref": refs["z"], "psi_ref": refs["psi"]}
    return Op(command=("compare",), config={"case": case, "sim": sim_node},
              steps=2 * steps, samples=samples, refs=tuple(refs.items()), x0=x0)


def _step_runs(rng: random.Random, index: int) -> Op:
    steps, samples = _grid(STOCK_DT, STOCK_T_FINAL)
    if index % 2 == 0:
        refs = {"x": _signed(rng, 0.5, 1.5), "y": _signed(rng, 0.5, 1.5),
                "z": rng.uniform(0.5, 1.5), "psi": _signed(rng, 0.1, 0.5)}
        controller = "pid"
    else:
        # Altitude only: at 1 ms the stock LQR diverges once lateral or
        # heading error is present (sampled-loop spectral radius 27.8).
        refs = {"x": 0.0, "y": 0.0, "z": rng.uniform(0.5, 1.5), "psi": 0.0}
        controller = "lqr"
    case = {"id": 1, **{f"{name}_ref": value for name, value in refs.items()}}
    return Op(command=("run", "--controller", controller), config={"case": case},
              steps=steps, samples=samples, refs=tuple(refs.items()))


def _synthesis_sweep(rng: random.Random, index: int) -> Op:
    del index
    stock = model.QuadrotorParams()
    params = {"m": rng.uniform(0.5, 2.0),
              "ixx": stock.inertia_xx * rng.uniform(0.5, 1.5),
              "iyy": stock.inertia_yy * rng.uniform(0.5, 1.5),
              "izz": stock.inertia_zz * rng.uniform(0.5, 1.5)}
    lqr = {"q_diag": [q * 10.0 ** rng.uniform(-1.0, 1.0) for q in DEFAULT_Q_DIAGONAL],
           "r_diag": [r * 10.0 ** rng.uniform(-1.0, 1.0) for r in DEFAULT_R_DIAGONAL]}
    return Op(command=("gain",), config={"params": params, "lqr": lqr})


_MAKERS = {"stiff_compare": _stiff_compare, "step_runs": _step_runs,
           "synthesis_sweep": _synthesis_sweep}


def ops(workload: str, seed: int):
    """Endless op sequence of ``workload``; the same seed gives the same ops.

    Op kinds alternate, starting with the seed's parity, so runs that
    hold a single op still cover every kind across seeds.
    """
    rng = random.Random(f"{workload}/{seed}")
    make = _MAKERS[workload]
    for index in itertools.count(seed % 2):
        yield make(rng, index)


def warmup_ops() -> list[Op]:
    """Short ops that touch every code path once before timing starts."""
    short = {"sim": {"t_final": 0.5}}
    return [Op(command=("compare",), config=short),
            Op(command=("run", "--controller", "pid"), config=short)]


def _channel_problems(report: dict, op: Op, controller: str) -> list[str]:
    """Each referenced channel must settle, with its steady state inside
    the settling band around the reference (band as the CLI defines it)."""
    problems = []
    for channel, ref in op.refs:
        metrics = report[channel]
        steady = metrics["steady_state"]
        initial = op.x0[model.STATE_LABELS.index(channel)]
        step = steady - initial
        band = SETTLING_BAND * abs(step)
        if ref == 0.0:
            band = max(band, 0.02)
        if abs(step) < 1e-12:
            band = max(band, SETTLING_BAND * max(abs(ref), 1e-12), 1e-12)
        if controller == "pid" and channel in ("x", "y"):
            band = max(band, PID_LATERAL_BAND * abs(ref - initial))
        if not metrics["settled"]:
            problems.append(f"{controller} {channel} never settled")
        elif not abs(steady - ref) <= band:
            problems.append(f"{controller} {channel} steady state {steady:.6g} "
                            f"outside {ref:.6g} +- {band:.3g}")
    return problems


def _gain_problems(op: Op, stdout: str) -> list[str]:
    try:
        K = np.array([[float(v) for v in line.split(",")]
                      for line in stdout.strip().splitlines()])
    except ValueError as exc:
        return [f"gain output is not a numeric CSV: {exc}"]
    if K.shape != (model.INPUT_DIM, model.STATE_DIM):
        return [f"gain has shape {K.shape}"]
    params = op.config["params"]
    ss = hover_jacobians(model.QuadrotorParams(
        mass=params["m"], inertia_xx=params["ixx"],
        inertia_yy=params["iyy"], inertia_zz=params["izz"]))
    weights = riccati.LqrWeights.from_diagonals(
        op.config["lqr"]["q_diag"], op.config["lqr"]["r_diag"])
    try:
        S = riccati.solve_care(ss.A, ss.B, weights, method="hamiltonian").S
    except riccati.NoConvergence as exc:
        return [f"Hamiltonian cross-check did not converge: {exc}"]
    K_ref = np.linalg.solve(weights.R, ss.B.T @ S)
    problems = []
    deviation = np.linalg.norm(K - K_ref) / np.linalg.norm(K_ref)
    if not deviation <= GAIN_RTOL:
        problems.append(f"gain deviates {deviation:.3g} from the Hamiltonian "
                        f"solution (limit {GAIN_RTOL:g})")
    spectral_abscissa = float(np.linalg.eigvals(ss.A - ss.B @ K).real.max())
    if not spectral_abscissa < 0.0:
        problems.append(f"A - BK is not Hurwitz (max real part {spectral_abscissa:.3g})")
    return problems


def problems(op: Op, exit_code: int, artifacts: dict[str, bytes]) -> list[str]:
    """Everything wrong with one op's output; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if op.kind == "gain":
            return _gain_problems(op, artifacts["stdout"].decode())
        if op.kind == "compare":
            report = json.loads(artifacts["comparison.json"])
            return (_channel_problems(report["pid"], op, "pid")
                    + _channel_problems(report["lqr"], op, "lqr"))
        rows = artifacts["trajectory.csv"].count(b"\n")
        found = [] if rows == op.samples + 1 else [
            f"trajectory.csv has {rows} lines, expected {op.samples + 1}"]
        return found + _channel_problems(
            json.loads(artifacts["metrics.json"]), op, op.command[-1])
    except (KeyError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def config_text(op: Op) -> str:
    return json.dumps(op.config, sort_keys=True)

