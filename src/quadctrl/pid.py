"""Discrete PID primitive and the cascaded flight controller.

Six PID loops map the four references (z, x, y, psi) onto the four
inputs: a single thrust loop on altitude, cascaded outer/inner loop
pairs for roll (y -> phi -> u2) and pitch (x -> theta -> u3), and a
single yaw loop.  The inner loops run every controller step; the outer
loops run once per ``outer_decimation`` steps at the correspondingly
longer sample time, holding their angle setpoints in between.

Discretization: rectangle-rule integral, backward-difference derivative
on the error signal.  Controller memory is explicit and immutable;
every step returns the successor memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .model import QuadrotorParams


class ZeroIntegralTime(ValueError):
    """Integral time constant of zero cannot be converted to a gain."""


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


@dataclass(frozen=True)
class PidState:
    """Controller memory for one PID loop.

    A fresh (unprimed) state reports a zero derivative on its first
    step because no previous error exists yet.  A primed state
    (``initialized=True`` with ``previous_error=0``) behaves as if the
    loop had been regulating at zero error before the first step, so a
    reference step at t=0 passes through the derivative term.
    """

    integral: float = 0.0
    previous_error: float = 0.0
    initialized: bool = False


def pid_step(
    gains: PidGains,
    state: PidState,
    error: float,
    dt: float,
) -> tuple[float, PidState]:
    """One discrete PID update; returns (output, successor state).

    The accumulator only advances when ki is nonzero, so a pure P or PD
    loop stays memoryless apart from the stored previous error.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if gains.ki != 0.0:
        integral = state.integral + error * dt
    else:
        integral = state.integral
    derivative = (error - state.previous_error) / dt if state.initialized else 0.0
    output = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return output, PidState(integral=integral, previous_error=error, initialized=True)


def gains_from_time_constants(kp: float, ti: float, td: float) -> PidGains:
    """Build gains from time constants: ki = kp/ti, kd = kp*td."""
    if ti == 0.0:
        raise ZeroIntegralTime("integral time constant must be nonzero")
    return PidGains(kp=kp, ki=kp / ti, kd=kp * td)


@dataclass(frozen=True)
class CascadeConfig:
    """Gain set and loop scheduling for the cascaded controller.

    Defaults are the tuned flight gains used by the benchmark
    scenarios.  Roll and pitch share one inner/outer tuning; the outer
    loops carry negative gains under the error convention
    ``setpoint - actual``.  Outer-loop outputs are angle setpoints in
    radians, clamped to ``angle_limit`` to stay in the small-angle
    regime.
    """

    thrust: PidGains = field(default_factory=lambda: PidGains(9.09, 1.94, 10.41))
    roll_inner: PidGains = field(default_factory=lambda: PidGains(4.04, 10.03, 0.33))
    roll_outer: PidGains = field(default_factory=lambda: PidGains(-2.92, -0.032, -4.68))
    pitch_inner: PidGains = field(default_factory=lambda: PidGains(4.04, 10.03, 0.33))
    pitch_outer: PidGains = field(default_factory=lambda: PidGains(-2.92, -0.032, -4.68))
    yaw: PidGains = field(default_factory=lambda: PidGains(1.3e-2, 7.6e-4, 4.9e-2))
    outer_decimation: int = 10
    gravity_feedforward: bool = True
    angle_limit: float = 0.5

    def __post_init__(self) -> None:
        if self.outer_decimation < 1:
            raise ValueError("outer_decimation must be >= 1")
        if self.angle_limit <= 0.0:
            raise ValueError("angle_limit must be positive")


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


_PRIMED = PidState(integral=0.0, previous_error=0.0, initialized=True)


@dataclass(frozen=True)
class CascadeMemory:
    """Memory of all six loops plus the held outer-loop setpoints.

    Loops start primed at zero error: the cascade is assumed to have
    been holding hover before t=0, so initial reference or state
    offsets enter the derivative terms as genuine error steps (the
    derivative kick a step command produces on PID hardware).
    """

    thrust: PidState = _PRIMED
    roll_inner: PidState = _PRIMED
    roll_outer: PidState = _PRIMED
    pitch_inner: PidState = _PRIMED
    pitch_outer: PidState = _PRIMED
    yaw: PidState = _PRIMED
    step_count: int = 0
    phi_ref: float = 0.0
    theta_ref: float = 0.0


def cascade_step(
    config: CascadeConfig,
    state: np.ndarray,
    references: Setpoints,
    memory: CascadeMemory,
    dt: float,
    params: QuadrotorParams,
) -> tuple[np.ndarray, CascadeMemory]:
    """One controller step; returns (u, successor memory).

    u1 combines the gravity feedforward m*g with the thrust loop on the
    altitude error.  The outer loops turn position errors into angle
    setpoints: a positive y error demands negative roll (lateral
    acceleration is -g*phi) while a positive x error demands positive
    pitch (+g*theta), so the pitch outer loop consumes the negated
    error to keep one shared gain sign for both axes.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    s = np.asarray(state, dtype=float)

    phi_ref = memory.phi_ref
    theta_ref = memory.theta_ref
    roll_outer = memory.roll_outer
    pitch_outer = memory.pitch_outer
    if memory.step_count % config.outer_decimation == 0:
        outer_dt = dt * config.outer_decimation
        limit = config.angle_limit
        raw_phi, roll_outer = pid_step(
            config.roll_outer, roll_outer, references.y_ref - s[model.Y], outer_dt)
        raw_theta, pitch_outer = pid_step(
            config.pitch_outer, pitch_outer, s[model.X] - references.x_ref, outer_dt)
        phi_ref = max(-limit, min(limit, raw_phi))
        theta_ref = max(-limit, min(limit, raw_theta))

    thrust_ff = params.hover_thrust if config.gravity_feedforward else 0.0
    u1, thrust = pid_step(config.thrust, memory.thrust,
                          references.z_ref - s[model.Z], dt)
    u2, roll_inner = pid_step(config.roll_inner, memory.roll_inner,
                              phi_ref - s[model.PHI], dt)
    u3, pitch_inner = pid_step(config.pitch_inner, memory.pitch_inner,
                               theta_ref - s[model.THETA], dt)
    u4, yaw = pid_step(config.yaw, memory.yaw,
                       references.psi_ref - s[model.PSI], dt)

    new_memory = replace(
        memory,
        thrust=thrust,
        roll_inner=roll_inner,
        roll_outer=roll_outer,
        pitch_inner=pitch_inner,
        pitch_outer=pitch_outer,
        yaw=yaw,
        step_count=memory.step_count + 1,
        phi_ref=phi_ref,
        theta_ref=theta_ref,
    )
    return np.array([thrust_ff + u1, u2, u3, u4]), new_memory
