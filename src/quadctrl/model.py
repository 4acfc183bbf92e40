"""Nonlinear quadrotor rigid-body model.

The vehicle is described by a 12-dimensional state vector

    [x, y, z, phi, theta, psi, xdot, ydot, zdot, p, q, r]

with positions in metres, Euler angles in radians, linear velocities in
m/s and body rates in rad/s, and is driven by four generalized inputs

    u1  total thrust along the body z axis      (N)
    u2  roll torque                             (N*m)
    u3  pitch torque                            (N*m)
    u4  yaw torque                              (N*m)

Translational accelerations use the full Euler-angle thrust projection;
attitude kinematics use the small-angle identification phidot = p,
thetadot = q, psidot = r, which is the regime every controller in this
package is designed for.  theta must stay inside (-pi/2, pi/2) or the
thrust projection degenerates.  psi is an angle: the controllers take
their heading error through :func:`wrap_angle`, so a reference near
+-pi is approached the short way round.

:func:`dynamics`, :func:`normalize_state` and the step that
:func:`stepper` binds take float sequences and return lists of Python
floats, the form the simulator steps its state in.  ``stepper(params,
dt)`` is the nonlinear plant's one RK4 kernel, bound once per run: its
step is a whole RK4 step, phi/psi wrap included, with the four stage
derivatives written out as straight-line float code in its own frame.
:func:`dynamics` stays the readable model, and the generic
``sim.rk4_step`` on it followed by :func:`normalize_state` is the
kernel's bit-for-bit reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

STATE_DIM = 12
INPUT_DIM = 4

STATE_LABELS = (
    "x", "y", "z", "phi", "theta", "psi",
    "xdot", "ydot", "zdot", "p", "q", "r",
)

# Column indices into the state vector.
X, Y, Z, PHI, THETA, PSI, XDOT, YDOT, ZDOT, P, Q, R = range(STATE_DIM)

# theta values at or beyond this magnitude are treated as out of range.
THETA_LIMIT = math.pi / 2 - 1e-6


@dataclass(frozen=True)
class QuadrotorParams:
    """Physical constants of the vehicle, all strictly positive.

    Defaults describe the 1 kg test platform used throughout the test
    suite: diagonal inertia (0.0035, 0.0035, 0.005) kg m^2 under
    g = 9.81 m/s^2.
    """

    mass: float = 1.0
    inertia_xx: float = 0.0035
    inertia_yy: float = 0.0035
    inertia_zz: float = 0.005
    gravity: float = 9.81

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{field.name} must be strictly positive, got {value!r}")

    @property
    def hover_thrust(self) -> float:
        """Total thrust that balances gravity."""
        return self.mass * self.gravity


class NonFiniteState(RuntimeError):
    """A state component became non-finite (simulation diverged)."""


def dynamics(state, u, params: QuadrotorParams) -> list:
    """Time derivative of the 12-state vector under inputs u1..u4, as a list."""
    _, _, _, phi, theta, psi, xdot, ydot, zdot, p, q, r = state
    u1, u2, u3, u4 = u
    ixx, iyy, izz = params.inertia_xx, params.inertia_yy, params.inertia_zz
    accel = u1 / params.mass
    sph, cph = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)
    return [
        xdot, ydot, zdot, p, q, r,
        (cph * sth * cps + sph * sps) * accel,
        (cph * sth * sps - sph * cps) * accel,
        cph * cth * accel - params.gravity,
        ((iyy - izz) * q * r + u2) / ixx,
        ((izz - ixx) * p * r + u3) / iyy,
        ((ixx - iyy) * p * q + u4) / izz,
    ]


def stepper(params: QuadrotorParams, dt: float):
    """The nonlinear plant's step ``step(state, u) -> list`` on a fixed
    ``dt``: one classical RK4 step of :func:`dynamics` with u held, then
    phi and psi wrapped into [-pi, pi).

    ``params``, the inertia differences, ``dt/2``, ``dt/6`` and the trig
    functions are bound here, once per run, and u is unpacked once per
    step.  The four stage derivatives are straight-line float code in
    the step's own frame, with ``cos(phi)*sin(theta)`` formed once per
    stage.  Bit for bit the result of ``normalize_state(rk4_step(...))``
    on :func:`dynamics`: every expression keeps that reference's operand
    order, each stage state is ``s + h*k`` and the update
    ``s + dt/6*(k1 + 2*k2 + 2*k3 + k4)``.  The stage positions are not
    formed, since no derivative reads them.  The step raises
    :class:`NonFiniteState` as soon as a component becomes non-finite.
    """
    sin, cos, isfinite = math.sin, math.cos, math.isfinite
    mass, gravity = params.mass, params.gravity
    ixx, iyy, izz = params.inertia_xx, params.inertia_yy, params.inertia_zz
    jx, jy, jz = iyy - izz, izz - ixx, ixx - iyy
    half, sixth = 0.5 * dt, dt / 6.0

    def step(state, u) -> list:
        x, y, z, phi, theta, psi, xd1, yd1, zd1, p1, q1, r1 = state
        u1, u2, u3, u4 = u
        accel = u1 / mass
        try:
            sph, cph = sin(phi), cos(phi)
            sps, cps = sin(psi), cos(psi)
            cs = cph * sin(theta)
            ax1 = (cs * cps + sph * sps) * accel
            ay1 = (cs * sps - sph * cps) * accel
            az1 = cph * cos(theta) * accel - gravity
            pd1 = (jx * q1 * r1 + u2) / ixx
            qd1 = (jy * p1 * r1 + u3) / iyy
            rd1 = (jz * p1 * q1 + u4) / izz

            xd2, yd2, zd2 = xd1 + half * ax1, yd1 + half * ay1, zd1 + half * az1
            p2, q2, r2 = p1 + half * pd1, q1 + half * qd1, r1 + half * rd1
            ph, th, ps = phi + half * p1, theta + half * q1, psi + half * r1
            sph, cph = sin(ph), cos(ph)
            sps, cps = sin(ps), cos(ps)
            cs = cph * sin(th)
            ax2 = (cs * cps + sph * sps) * accel
            ay2 = (cs * sps - sph * cps) * accel
            az2 = cph * cos(th) * accel - gravity
            pd2 = (jx * q2 * r2 + u2) / ixx
            qd2 = (jy * p2 * r2 + u3) / iyy
            rd2 = (jz * p2 * q2 + u4) / izz

            xd3, yd3, zd3 = xd1 + half * ax2, yd1 + half * ay2, zd1 + half * az2
            p3, q3, r3 = p1 + half * pd2, q1 + half * qd2, r1 + half * rd2
            ph, th, ps = phi + half * p2, theta + half * q2, psi + half * r2
            sph, cph = sin(ph), cos(ph)
            sps, cps = sin(ps), cos(ps)
            cs = cph * sin(th)
            ax3 = (cs * cps + sph * sps) * accel
            ay3 = (cs * sps - sph * cps) * accel
            az3 = cph * cos(th) * accel - gravity
            pd3 = (jx * q3 * r3 + u2) / ixx
            qd3 = (jy * p3 * r3 + u3) / iyy
            rd3 = (jz * p3 * q3 + u4) / izz

            xd4, yd4, zd4 = xd1 + dt * ax3, yd1 + dt * ay3, zd1 + dt * az3
            p4, q4, r4 = p1 + dt * pd3, q1 + dt * qd3, r1 + dt * rd3
            ph, th, ps = phi + dt * p3, theta + dt * q3, psi + dt * r3
            sph, cph = sin(ph), cos(ph)
            sps, cps = sin(ps), cos(ps)
            cs = cph * sin(th)
            ax4 = (cs * cps + sph * sps) * accel
            ay4 = (cs * sps - sph * cps) * accel
            az4 = cph * cos(th) * accel - gravity
            pd4 = (jx * q4 * r4 + u2) / ixx
            qd4 = (jy * p4 * r4 + u3) / iyy
            rd4 = (jz * p4 * q4 + u4) / izz
        except (ValueError, OverflowError) as exc:
            # math.sin/cos raise on inf/nan rather than propagating it
            raise NonFiniteState(
                f"state became non-finite during an RK4 stage: {exc}") from exc
        new_state = [
            x + sixth * (xd1 + 2.0 * xd2 + 2.0 * xd3 + xd4),
            y + sixth * (yd1 + 2.0 * yd2 + 2.0 * yd3 + yd4),
            z + sixth * (zd1 + 2.0 * zd2 + 2.0 * zd3 + zd4),
            phi + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
            theta + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4),
            psi + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4),
            xd1 + sixth * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
            yd1 + sixth * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4),
            zd1 + sixth * (az1 + 2.0 * az2 + 2.0 * az3 + az4),
            p1 + sixth * (pd1 + 2.0 * pd2 + 2.0 * pd3 + pd4),
            q1 + sixth * (qd1 + 2.0 * qd2 + 2.0 * qd3 + qd4),
            r1 + sixth * (rd1 + 2.0 * rd2 + 2.0 * rd3 + rd4),
        ]
        # a finite sum has finite terms: the per-term test runs only when
        # the sum is not finite, which an overflowing sum can also be
        if not isfinite(sum(new_state)) and not all(map(isfinite, new_state)):
            raise NonFiniteState("state became non-finite after an RK4 step")
        new_state[PHI] = wrap_angle(new_state[PHI])
        new_state[PSI] = wrap_angle(new_state[PSI])
        return new_state
    return step


def hover_equilibrium(params: QuadrotorParams) -> tuple[np.ndarray, np.ndarray]:
    """State and input of the hover fixed point.

    At hover the state is identically zero and the thrust balances
    gravity with no torque.
    """
    state = np.zeros(STATE_DIM)
    u = np.array([params.hover_thrust, 0.0, 0.0, 0.0])
    return state, u


def wrap_angle(angle: float) -> float:
    """Wrap a single angle into [-pi, pi); an angle already inside is
    returned as it is.

    ``(angle + pi) % 2pi - pi`` carries the absolute error of argument
    reduction: it would round an in-range angle to the float spacing of
    pi and flush one under 2.2e-16 to zero.
    """
    if -math.pi <= angle < math.pi:
        return angle
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def normalize_state(state) -> list:
    """Return a list copy with phi and psi wrapped into [-pi, pi).

    theta is left untouched: its domain is the open interval
    (-pi/2, pi/2) and exceeding it is an error condition for the caller
    to handle, not something to wrap away silently.
    """
    out = list(state)
    out[PHI] = wrap_angle(out[PHI])
    out[PSI] = wrap_angle(out[PSI])
    return out
