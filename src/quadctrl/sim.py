"""Fixed-step closed-loop simulation and step-response metrics.

Runs plant + controller on a uniform grid with a classical RK4
integrator (control held constant across each step), either against the
full nonlinear dynamics or the hover-linearized model, and extracts the
stability metrics used to compare controllers: steady state, overshoot,
settling time and the count of overshoot peaks outside the settling
band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, riccati
from .linearize import hover_jacobians
from .model import QuadrotorParams
from .pid import CascadeConfig, CascadeMemory, Setpoints, cascade_step

PLANT_MODES = ("nonlinear", "linear")

# Stock scenario defaults shared by the three benchmark cases.
DEFAULT_DURATION = 15.0
DEFAULT_DT = 1e-3

# Settling band of compute_metrics, as a fraction of the step magnitude.
SETTLING_BAND = 0.02

CASE2_INITIAL_STATE = (1.0, 1.0, 0.2, 1.0, 1.0, 0.0,
                       1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


class NonFiniteState(RuntimeError):
    """A state component became non-finite (simulation diverged)."""


class ThetaOutOfRange(RuntimeError):
    """Pitch angle reached the singular bound of the model."""


class UnknownCase(ValueError):
    """Benchmark case id outside {1, 2, 3}."""


class ChannelUnknown(ValueError):
    """Metric channel name is not a state label."""


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: initial state, references, grid, plant mode."""

    case_id: int
    initial_state: np.ndarray
    references: Setpoints
    duration: float = DEFAULT_DURATION
    dt: float = DEFAULT_DT
    plant_mode: str = "nonlinear"

    def __post_init__(self) -> None:
        state = np.asarray(self.initial_state, dtype=float)
        if state.shape != (model.STATE_DIM,):
            raise ValueError(f"initial_state must have 12 entries, got {state.shape}")
        if not np.all(np.isfinite(state)):
            raise ValueError("initial_state must be finite")
        object.__setattr__(self, "initial_state", state)
        if self.duration <= 0.0 or self.dt <= 0.0:
            raise ValueError("duration and dt must be positive")
        if self.dt > self.duration / 100.0:
            raise ValueError(
                f"dt={self.dt} too coarse for duration={self.duration} "
                "(need dt <= duration/100)"
            )
        if self.plant_mode not in PLANT_MODES:
            raise ValueError(f"plant_mode must be one of {PLANT_MODES}")

    @property
    def sample_count(self) -> int:
        """Number of samples on the grid, duration/dt + 1."""
        return int(round(self.duration / self.dt)) + 1


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run: times (n,), states (n,12), controls (n,4)."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self) -> None:
        n = self.times.shape[0]
        if self.states.shape != (n, model.STATE_DIM):
            raise ValueError("states length does not match time grid")
        if self.controls.shape != (n, model.INPUT_DIM):
            raise ValueError("controls length does not match time grid")
        steps = np.diff(self.times)
        if n > 1 and not (np.all(steps > 0.0)
                          and np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)):
            raise ValueError("time grid must be uniform and strictly increasing")

    def channel(self, name: str) -> np.ndarray:
        if name not in model.STATE_LABELS:
            raise ChannelUnknown(
                f"unknown channel {name!r}; expected one of {model.STATE_LABELS}")
        return self.states[:, model.STATE_LABELS.index(name)]


@dataclass(frozen=True)
class Metrics:
    """Step-response metrics of one channel.

    ``overshoot`` is the peak excursion past the steady state in the
    step direction, as a fraction of the step magnitude.
    ``overshoot_peak_count`` counts local maxima of |signal - steady
    state| above the settling band after the signal first enters the
    band.  ``settling_time`` is None when the signal never stays inside
    the band.
    """

    channel: str
    steady_state_value: float
    overshoot: float
    settling_time: float | None
    overshoot_peak_count: int
    settled: bool


def rk4_step(derivative_fn, state: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta update with u held constant.

    Raises :class:`NonFiniteState` as soon as the update produces a
    non-finite component.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = derivative_fn(state, u)
            k2 = derivative_fn(state + (0.5 * dt) * k1, u)
            k3 = derivative_fn(state + (0.5 * dt) * k2, u)
            k4 = derivative_fn(state + dt * k3, u)
            new_state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    except (ValueError, OverflowError) as exc:
        # math.sin/cos raise on inf/nan rather than propagating it
        raise NonFiniteState(f"state became non-finite during an RK4 stage: {exc}") from exc
    if not np.all(np.isfinite(new_state)):
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
        raise UnknownCase(f"case_id must be 1, 2 or 3, got {case_id!r}")
    base.update(overrides)
    return Scenario(case_id=case_id, **base)


class LqrController:
    """Full-state feedback u = u_hover - K (x - x_ref); stateless."""

    def __init__(self, K: np.ndarray, params: QuadrotorParams):
        self.K = np.asarray(K, dtype=float)
        _, self.u_equilibrium, _ = model.hover_equilibrium(params)

    def reset(self) -> None:
        pass

    def control(self, state: np.ndarray, references: Setpoints, dt: float) -> np.ndarray:
        del dt
        return riccati.feedback_control(
            self.K, state, references.reference_state(), self.u_equilibrium)


class PidCascadeController:
    """Cascaded PID wrapper that threads its memory between steps."""

    def __init__(self, config: CascadeConfig, params: QuadrotorParams):
        self.config = config
        self.params = params
        self._memory = CascadeMemory()

    def reset(self) -> None:
        self._memory = CascadeMemory()

    def control(self, state: np.ndarray, references: Setpoints, dt: float) -> np.ndarray:
        u, self._memory = cascade_step(
            self.config, state, references, self._memory, dt, self.params)
        return u


def run_closed_loop(scenario: Scenario, controller, params: QuadrotorParams) -> Trajectory:
    """Simulate controller + plant over the scenario grid.

    The controller is reset first, then stepped once per grid interval;
    the control computed at each sample is held across the following
    RK4 step.  In nonlinear mode phi and psi are wrapped into [-pi, pi)
    after every step and exceeding the pitch bound raises
    :class:`ThetaOutOfRange`; the linear plant needs neither.
    """
    n_steps = scenario.sample_count - 1
    times = np.arange(scenario.sample_count) * scenario.dt
    states = np.empty((scenario.sample_count, model.STATE_DIM))
    controls = np.empty((scenario.sample_count, model.INPUT_DIM))

    if scenario.plant_mode == "linear":
        ss = hover_jacobians(params)
        _, u_eq, _ = model.hover_equilibrium(params)

        def derivative(s, u):
            return ss.A @ s + ss.B @ (u - u_eq)
    else:
        def derivative(s, u):
            return model.dynamics(s, u, params)

    controller.reset()
    state = scenario.initial_state.copy()
    states[0] = state
    nonlinear = scenario.plant_mode == "nonlinear"
    for i in range(n_steps):
        u = controller.control(state, scenario.references, scenario.dt)
        controls[i] = u
        state = rk4_step(derivative, state, u, scenario.dt)
        if nonlinear:
            state = model.normalize_state(state)
            if abs(float(state[model.THETA])) >= model.THETA_LIMIT:
                raise ThetaOutOfRange(
                    f"|theta| reached {abs(float(state[model.THETA])):.4f} rad "
                    f"at t={times[i + 1]:.4f} s"
                )
        states[i + 1] = state
    # control at the final sample, so every row carries its input
    controls[n_steps] = controller.control(state, scenario.references, scenario.dt)
    return Trajectory(times=times, states=states, controls=controls)


def compute_metrics(trajectory: Trajectory, channel: str, reference: float) -> Metrics:
    """Step-response metrics of one state channel.

    The steady state is the mean of the final 5% of samples.  The
    settling band is ``SETTLING_BAND`` times the step magnitude around
    the steady state, with an absolute floor of 0.02 for regulation to a
    zero reference (where the relative band would collapse as the step
    does).
    """
    y = trajectory.channel(channel)
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

    return Metrics(
        channel=channel,
        steady_state_value=steady,
        overshoot=overshoot,
        settling_time=settling_time,
        overshoot_peak_count=peak_count,
        settled=settled,
    )
