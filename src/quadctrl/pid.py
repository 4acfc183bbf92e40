"""Discrete PID primitive and the cascaded flight controller.

Six PID loops map the four references (z, x, y, psi) onto the four
inputs: a single thrust loop on altitude, cascaded outer/inner loop
pairs for roll (y -> phi -> u2) and pitch (x -> theta -> u3), and a
single yaw loop.  The inner loops run every controller step; the outer
loops run once per ``outer_decimation`` steps at the correspondingly
longer sample time, holding their angle setpoints in between.

Discretization: rectangle-rule integral, backward-difference derivative
on the error signal.  Controller memory is one mutable record per
cascade, which every step updates in place.  The cascade works on
Python floats: it indexes the state sequence and returns u as a list.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import model
from .model import QuadrotorParams


# Bound on the outer loops' angle setpoints (rad), to stay in the
# small-angle regime.
ANGLE_LIMIT = 0.5


@dataclass(frozen=True)
class PidGains:
    """Proportional/integral/derivative gains.

    Signs are unrestricted (outer position loops use negative gains).
    The integrator is unbounded.
    """

    kp: float
    ki: float = 0.0
    kd: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class PidState:
    """Memory of one PID loop, updated in place by :func:`pid_step`.

    A fresh state behaves as if the loop had been regulating at zero
    error before the first step, so a reference step at t=0 passes
    through the derivative term.
    """

    integral: float = 0.0
    previous_error: float = 0.0


def pid_step(gains: PidGains, state: PidState, error: float, dt: float) -> float:
    """One discrete PID update of ``state``; returns the output.

    The accumulator only advances when ki is nonzero, so a pure P or PD
    loop stays memoryless apart from the stored previous error.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if gains.ki != 0.0:
        state.integral += error * dt
    derivative = (error - state.previous_error) / dt
    state.previous_error = error
    return gains.kp * error + gains.ki * state.integral + gains.kd * derivative


@dataclass(frozen=True)
class CascadeConfig:
    """Gain set and loop scheduling for the cascaded controller.

    Defaults are the tuned flight gains used by the benchmark
    scenarios.  Roll and pitch share one inner/outer tuning; the outer
    loops carry negative gains under the error convention
    ``setpoint - actual``.  Outer-loop outputs are angle setpoints in
    radians, clamped to ``ANGLE_LIMIT``.
    """

    thrust: PidGains = field(default_factory=lambda: PidGains(9.09, 1.94, 10.41))
    roll_inner: PidGains = field(default_factory=lambda: PidGains(4.04, 10.03, 0.33))
    roll_outer: PidGains = field(default_factory=lambda: PidGains(-2.92, -0.032, -4.68))
    pitch_inner: PidGains = field(default_factory=lambda: PidGains(4.04, 10.03, 0.33))
    pitch_outer: PidGains = field(default_factory=lambda: PidGains(-2.92, -0.032, -4.68))
    yaw: PidGains = field(default_factory=lambda: PidGains(1.3e-2, 7.6e-4, 4.9e-2))
    outer_decimation: int = 10
    gravity_feedforward: bool = True

    def __post_init__(self) -> None:
        if self.outer_decimation < 1:
            raise ValueError("outer_decimation must be >= 1")


@dataclass(frozen=True)
class Setpoints:
    """References for the four controlled channels."""

    z_ref: float = 0.0
    x_ref: float = 0.0
    y_ref: float = 0.0
    psi_ref: float = 0.0

    def reference_state(self) -> np.ndarray:
        """12-state reference vector (zeros outside x, y, z, psi)."""
        ref = np.zeros(model.STATE_DIM)
        ref[model.X] = self.x_ref
        ref[model.Y] = self.y_ref
        ref[model.Z] = self.z_ref
        ref[model.PSI] = self.psi_ref
        return ref


@dataclass
class CascadeMemory:
    """Memory of all six loops plus the held outer-loop setpoints.

    :func:`cascade_step` updates it in place.  Loops start at zero
    error: the cascade is assumed to have been holding hover before
    t=0, so initial reference or state offsets enter the derivative
    terms as genuine error steps (the derivative kick a step command
    produces on PID hardware).
    """

    thrust: PidState = field(default_factory=PidState)
    roll_inner: PidState = field(default_factory=PidState)
    roll_outer: PidState = field(default_factory=PidState)
    pitch_inner: PidState = field(default_factory=PidState)
    pitch_outer: PidState = field(default_factory=PidState)
    yaw: PidState = field(default_factory=PidState)
    step_count: int = 0
    phi_ref: float = 0.0
    theta_ref: float = 0.0


def cascade_step(
    config: CascadeConfig,
    state: Sequence[float],
    references: Setpoints,
    memory: CascadeMemory,
    dt: float,
    params: QuadrotorParams,
) -> list[float]:
    """One controller step; updates ``memory`` in place and returns u.

    ``state`` is indexed directly, so the simulator's list of 12 floats
    needs no conversion; u is a list of 4 floats.  u1 combines the
    gravity feedforward m*g with the thrust loop on the altitude error.
    The outer loops turn position errors into angle setpoints: a
    positive y error demands negative roll (lateral acceleration is
    -g*phi) while a positive x error demands positive pitch (+g*theta),
    so the pitch outer loop consumes the negated error to keep one
    shared gain sign for both axes.  The yaw loop takes the heading
    error through :func:`model.wrap_angle`.
    """
    # the thrust loop goes first: its pid_step refuses a non-positive dt
    # before any memory changes
    u1 = pid_step(config.thrust, memory.thrust, references.z_ref - state[model.Z], dt)
    if memory.step_count % config.outer_decimation == 0:
        outer_dt = dt * config.outer_decimation
        raw_phi = pid_step(config.roll_outer, memory.roll_outer,
                           references.y_ref - state[model.Y], outer_dt)
        raw_theta = pid_step(config.pitch_outer, memory.pitch_outer,
                             state[model.X] - references.x_ref, outer_dt)
        memory.phi_ref = max(-ANGLE_LIMIT, min(ANGLE_LIMIT, raw_phi))
        memory.theta_ref = max(-ANGLE_LIMIT, min(ANGLE_LIMIT, raw_theta))
    memory.step_count += 1

    thrust_ff = params.hover_thrust if config.gravity_feedforward else 0.0
    u2 = pid_step(config.roll_inner, memory.roll_inner,
                  memory.phi_ref - state[model.PHI], dt)
    u3 = pid_step(config.pitch_inner, memory.pitch_inner,
                  memory.theta_ref - state[model.THETA], dt)
    u4 = pid_step(config.yaw, memory.yaw,
                  model.wrap_angle(references.psi_ref - state[model.PSI]), dt)
    return [thrust_ff + u1, u2, u3, u4]
