"""Fixed-step closed-loop simulation and step-response metrics.

Runs plant + controller on a uniform grid, control held constant
across each step, either against the full nonlinear dynamics (one
classical RK4 step per sample) or the hover-linearized model (its exact
zero-order-hold map), and extracts the stability metrics used to
compare controllers: steady state, overshoot, settling time and the
count of overshoot peaks outside the settling band.

Between steps the state is a list of 12 Python floats: the plants and
both controllers take float sequences and return lists.  Each run binds
its plant's step once, before the first step: the nonlinear plant's is
``model.stepper``, one RK4 step of ``model.dynamics`` on local floats;
the linear plant's is x+ = Phi x + Gamma (u - u_eq), with (Phi, Gamma)
= ``linearize.zoh`` of the hover pair.  The generic :func:`rk4_step` is
kept as the reference both plants are tested against.  On the
nonlinear plant phi and psi of the initial state are wrapped into
[-pi, pi) before the first step, and after every step.  The scalar
plant and PID code evaluate in the same order as array arithmetic, so
their bits match an ndarray run.  The LQR law sums each row of K over
its non-zeros in column order (:class:`LqrController`), so the
nonlinear loop makes no BLAS call and its bits do not depend on the
BLAS kernel.  A controller is any object with ``reset(references,
dt)`` and ``control(state)`` returning u as 4 floats, stored with t
and x as one row of the run's table.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import model
from .linearize import hover_jacobians, zoh
from .model import NonFiniteState, QuadrotorParams
from .pid import CascadeConfig, CascadeMemory, Setpoints, cascade_step

PLANT_MODES = ("nonlinear", "linear")

# Stock scenario defaults shared by the three benchmark cases.
DEFAULT_DURATION = 15.0
DEFAULT_DT = 1e-3

# Largest duration/dt a Scenario accepts.  The grid holds 17 floats per
# sample, so 10**7 steps already take 1.4 GB; a longer grid is refused
# before any memory is allocated or any step is run.
MAX_STEPS = 10**7

# Settling band of compute_metrics, as a fraction of the step magnitude.
SETTLING_BAND = 0.02

CASE2_INITIAL_STATE = (1.0, 1.0, 0.2, 1.0, 1.0, 0.0,
                       1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


class ThetaOutOfRange(RuntimeError):
    """Pitch angle reached the singular bound of the model."""


class InitialThetaOutOfRange(ValueError):
    """Initial pitch outside the domain of the nonlinear plant."""


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: initial state, references, grid, plant mode.

    On the nonlinear plant the initial pitch must lie inside
    ``model.THETA_LIMIT``, the bound every later step is held to; the
    linear plant has no such bound.
    """

    initial_state: np.ndarray
    references: Setpoints
    duration: float = DEFAULT_DURATION
    dt: float = DEFAULT_DT
    plant_mode: str = "nonlinear"

    def __post_init__(self) -> None:
        # a read-only copy: the caller's array stays theirs and writable
        state = np.array(self.initial_state, dtype=float)
        state.setflags(write=False)
        if state.shape != (model.STATE_DIM,):
            raise ValueError(f"initial_state must have 12 entries, got {state.shape}")
        if not np.all(np.isfinite(state)):
            raise ValueError("initial_state must be finite")
        object.__setattr__(self, "initial_state", state)
        if not (0.0 < self.duration < math.inf and 0.0 < self.dt < math.inf):
            raise ValueError("duration and dt must be positive and finite")
        if self.dt > self.duration / 100.0:
            raise ValueError(
                f"dt={self.dt} too coarse for duration={self.duration} "
                "(need dt <= duration/100)"
            )
        if self.duration / self.dt > MAX_STEPS:
            raise ValueError(
                f"duration={self.duration} over dt={self.dt} is more than "
                f"{MAX_STEPS} steps"
            )
        if self.plant_mode not in PLANT_MODES:
            raise ValueError(
                f"plant_mode must be one of {PLANT_MODES}, got {self.plant_mode!r}")
        theta = float(state[model.THETA])
        if self.plant_mode == "nonlinear" and abs(theta) >= model.THETA_LIMIT:
            raise InitialThetaOutOfRange(
                f"theta={theta!r} is outside the nonlinear plant's domain "
                f"|theta| < {model.THETA_LIMIT!r}"
            )

    @property
    def sample_count(self) -> int:
        """Number of samples on the grid, duration/dt + 1."""
        return int(round(self.duration / self.dt)) + 1


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run: an (n, 17) table, one row per sample."""

    table: np.ndarray

    def __post_init__(self) -> None:
        if self.table.ndim != 2 or self.table.shape[1] != 1 + model.STATE_DIM + model.INPUT_DIM:
            raise ValueError(f"table must be 2-D with 17 columns, got {self.table.shape}")
        steps = np.diff(self.times)
        # each sample rounds by up to half an ulp of its time, so the steps
        # of a long or offset grid jitter by a few ulp of its largest |t|
        if len(self.table) > 1 and not (np.all(steps > 0.0) and np.allclose(
                steps, steps[0], rtol=1e-9, atol=4.0 * np.finfo(float).eps
                * max(abs(float(self.times[0])), abs(float(self.times[-1]))))):
            raise ValueError("time grid must be uniform and strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def states(self) -> np.ndarray:
        return self.table[:, 1:1 + model.STATE_DIM]

    @property
    def controls(self) -> np.ndarray:
        return self.table[:, 1 + model.STATE_DIM:]

    def channel(self, name: str) -> np.ndarray:
        if name not in model.STATE_LABELS:
            raise ValueError(
                f"unknown channel {name!r}; expected one of {model.STATE_LABELS}")
        return self.states[:, model.STATE_LABELS.index(name)]


@dataclass(frozen=True)
class Metrics:
    """Step-response metrics of one channel, named as its metrics.json keys.

    ``overshoot`` is the peak excursion past the steady state in the
    step direction, as a fraction of the step magnitude.
    ``peak_count`` counts local maxima of |signal - steady state| above
    the settling band after the signal first enters the band.
    ``settling_time`` is None when the signal never stays inside the
    band.
    """

    steady_state: float
    overshoot: float
    settling_time: float | None
    peak_count: int
    settled: bool


def rk4_step(derivative_fn, state, u, dt: float) -> list:
    """Classical fourth-order Runge-Kutta update with u held constant.

    Steps a float sequence to a new list of floats; raises
    :class:`NonFiniteState` as soon as a component becomes non-finite.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    half, sixth = 0.5 * dt, dt / 6.0
    try:
        k1 = derivative_fn(state, u)
        k2 = derivative_fn([s + half * k for s, k in zip(state, k1)], u)
        k3 = derivative_fn([s + half * k for s, k in zip(state, k2)], u)
        k4 = derivative_fn([s + dt * k for s, k in zip(state, k3)], u)
        new_state = [s + sixth * (a + 2.0 * b + 2.0 * c + d)
                     for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    except (ValueError, OverflowError) as exc:
        # math.sin/cos raise on inf/nan rather than propagating it
        raise NonFiniteState(f"state became non-finite during an RK4 stage: {exc}") from exc
    if not all(map(math.isfinite, new_state)):
        raise NonFiniteState("state became non-finite after an RK4 step")
    return new_state


def scenario_case(case_id: int, **overrides) -> Scenario:
    """Stock benchmark scenario for case 1, 2 or 3.

    1: climb to z = 1 m from rest (pure thrust command).
    2: regulate the disturbed initial state back to hover, all
       references zero.
    3: climb to z = 1 m while yawing to psi = 0.5 rad.

    Keyword overrides replace any Scenario field (for references, pass
    a full Setpoints).
    """
    if case_id == 1:
        base = dict(initial_state=np.zeros(model.STATE_DIM),
                    references=Setpoints(z_ref=1.0))
    elif case_id == 2:
        base = dict(initial_state=np.array(CASE2_INITIAL_STATE),
                    references=Setpoints())
    elif case_id == 3:
        base = dict(initial_state=np.zeros(model.STATE_DIM),
                    references=Setpoints(z_ref=1.0, psi_ref=0.5))
    else:
        raise ValueError(f"case_id must be 1, 2 or 3, got {case_id!r}")
    base.update(overrides)
    return Scenario(**base)


class LqrController:
    """Full-state feedback u = u_eq - K (x - x_ref), memoryless.

    The law is float code over the non-zeros of K, with no numpy call
    per step: u_i = u_eq,i - s_i, where s_i sums K[i, j] * d_j from 0.0
    left to right over the columns j with K[i, j] != 0, in increasing j.
    d = x - x_ref, except that the heading error is
    ``model.wrap_angle(psi - psi_ref)``.  The rows are bound here, once;
    ``reset`` binds x_ref into their terms once per run.  A K that is
    not 4 x 12 is refused with ValueError.
    """

    def __init__(self, K: np.ndarray, params: QuadrotorParams):
        K = np.asarray(K, dtype=float)
        if K.shape != (model.INPUT_DIM, model.STATE_DIM):
            raise ValueError(
                f"K must have shape ({model.INPUT_DIM}, {model.STATE_DIM}), "
                f"got {K.shape}")
        _, u_equilibrium = model.hover_equilibrium(params)
        self._rows = tuple(
            (u_eq, tuple((k, j) for j, k in enumerate(row) if k != 0.0))
            for u_eq, row in zip(u_equilibrium.tolist(), K.tolist()))

    def reset(self, references: Setpoints, dt: float) -> None:
        # each term carries its x_ref,j; the heading's carries 0.0, since
        # control puts the wrapped heading error in the heading's place
        x_ref = references.reference_state().tolist()
        self._psi_ref = x_ref[model.PSI]
        x_ref[model.PSI] = 0.0
        self._terms = tuple((u_eq, tuple((k, j, x_ref[j]) for k, j in row))
                            for u_eq, row in self._rows)

    def control(self, state: Sequence[float]) -> list[float]:
        x = list(state)
        x[model.PSI] = model.wrap_angle(state[model.PSI] - self._psi_ref)
        u = []
        for u_eq, terms in self._terms:
            s = 0.0
            for k, j, x_ref_j in terms:
                s += k * (x[j] - x_ref_j)
            u.append(u_eq - s)
        return u


class PidCascadeController:
    """Cascaded PID wrapper that owns the cascade's memory between steps."""

    def __init__(self, config: CascadeConfig, params: QuadrotorParams):
        self.config = config
        self.params = params

    def reset(self, references: Setpoints, dt: float) -> None:
        self._references, self._dt = references, dt
        self._memory = CascadeMemory()

    def control(self, state: Sequence[float]) -> list[float]:
        return cascade_step(
            self.config, state, self._references, self._memory, self._dt, self.params)


def _zoh_stepper(params: QuadrotorParams, dt: float):
    """The linear plant's step ``step(state, u) -> list`` on a fixed
    ``dt``: x+ = Phi x + Gamma (u - u_eq), with (Phi, Gamma) the exact
    zero-order-hold map of the hover pair, formed here once.  The step
    raises :class:`NonFiniteState` when a component becomes non-finite.
    """
    ss = hover_jacobians(params)
    Phi, Gamma = zoh(ss.A, ss.B, dt)
    _, u_eq = model.hover_equilibrium(params)

    def step(state, u) -> list:
        state = (Phi @ state + Gamma @ np.subtract(u, u_eq)).tolist()
        if not all(map(math.isfinite, state)):
            raise NonFiniteState("state became non-finite after a zero-order-hold step")
        return state
    return step


# A diverging run is reported by the finiteness checks alone, not also
# by numpy's overflow warnings on the way to inf.
@np.errstate(over="ignore", invalid="ignore")
def run_closed_loop(scenario: Scenario, controller, params: QuadrotorParams) -> Trajectory:
    """Simulate controller + plant over the scenario grid.

    The plant's step and the controller's ``control`` are bound once.
    The controller is reset to the scenario's references and dt, then
    stepped once per grid interval; the control computed at each sample
    is held across the following step.  In nonlinear mode phi and psi
    are wrapped into [-pi, pi) in the initial state and after every step
    (an angle already in range keeps its bits), and exceeding the pitch
    bound raises :class:`ThetaOutOfRange`; the linear plant needs neither.
    """
    n_steps = scenario.sample_count - 1
    table = np.empty((scenario.sample_count, 1 + model.STATE_DIM + model.INPUT_DIM))
    table[:, 0] = np.arange(scenario.sample_count) * scenario.dt
    # each sample's x and u are packed into its row in place, after t
    store = struct.Struct(f"{model.STATE_DIM + model.INPUT_DIM}d").pack_into
    row_bytes, theta = table.strides[0], model.THETA

    state = scenario.initial_state.tolist()
    if scenario.plant_mode == "nonlinear":
        step, theta_limit = model.stepper(params, scenario.dt), model.THETA_LIMIT
        state = model.normalize_state(state)
    else:
        # the linear plant has no pitch bound
        step, theta_limit = _zoh_stepper(params, scenario.dt), math.inf
    controller.reset(scenario.references, scenario.dt)
    control = controller.control
    for offset in range(table.itemsize, n_steps * row_bytes, row_bytes):
        u = control(state)
        store(table, offset, *state, *u)
        state = step(state, u)
        if abs(state[theta]) >= theta_limit:
            raise ThetaOutOfRange(
                f"|theta| reached {abs(state[theta]):.4f} rad "
                f"at t={table[offset // row_bytes + 1, 0]:.4f} s"
            )
    # control at the final sample, so every row carries its input
    store(table, n_steps * row_bytes + table.itemsize, *state, *control(state))
    return Trajectory(table)


def compute_metrics(trajectory: Trajectory, channel: str, reference: float) -> Metrics:
    """Step-response :class:`Metrics` of one state channel.

    The steady state is the mean of the final 5% of samples.  The
    settling band is ``SETTLING_BAND`` times the step magnitude around
    the steady state, with an absolute floor of 0.02 for regulation to a
    zero reference (where the relative band would collapse as the step
    does).  phi and psi are measured on the unwrapped angle when two
    adjacent samples jump by more than pi, so a heading that crosses
    +-pi is not clipped there; an angle that never jumps keeps its bits.
    """
    y = trajectory.channel(channel)
    if channel in ("phi", "psi") and np.any(np.abs(np.diff(y)) > math.pi):
        y = np.unwrap(y)
    times = trajectory.times
    n = y.shape[0]

    tail = max(1, int(math.ceil(0.05 * n)))
    steady = float(np.mean(y[n - tail:]))
    step = steady - float(y[0])

    tolerance = SETTLING_BAND * abs(step)
    if reference == 0.0:
        tolerance = max(tolerance, 0.02)
    if abs(step) < 1e-12:
        tolerance = max(tolerance, SETTLING_BAND * max(abs(reference), 1e-12), 1e-12)

    error = np.abs(y - steady)
    outside = np.flatnonzero(error > tolerance)
    if outside.size == 0:
        settled = True
        settling_time = 0.0
    elif outside[-1] == n - 1:
        settled = False
        settling_time = None
    else:
        settled = True
        settling_time = float(times[outside[-1] + 1] - times[0])

    if abs(step) < 1e-12:
        overshoot = 0.0
    else:
        direction = 1.0 if step > 0.0 else -1.0
        overshoot = max(0.0, float(np.max((y - steady) * direction)) / abs(step))

    peak_count = 0
    inside = np.flatnonzero(error <= tolerance)
    if inside.size:
        seg = error[inside[0]:]
        if seg.shape[0] >= 3:
            interior = seg[1:-1]
            peaks = (interior > tolerance) & (interior >= seg[:-2]) & (interior > seg[2:])
            peak_count = int(np.count_nonzero(peaks))

    return Metrics(steady_state=steady, overshoot=overshoot, settling_time=settling_time,
                   peak_count=peak_count, settled=settled)
