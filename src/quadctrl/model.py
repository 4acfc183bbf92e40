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
their heading error through :func:`wrap_heading_error`, so a reference
near +-pi is approached the short way round.

:func:`dynamics` and :func:`normalize_state` take float sequences and
return lists of Python floats, the form the simulator steps its state in.
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


def dynamics(state, u, params: QuadrotorParams) -> list:
    """Time derivative of the 12-state vector under inputs u1..u4, as a list."""
    _, _, _, phi, theta, psi, xdot, ydot, zdot, p, q, r = state

    sph, cph = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)

    accel = u[0] / params.mass

    return [
        xdot, ydot, zdot,
        p, q, r,
        (cph * sth * cps + sph * sps) * accel,
        (cph * sth * sps - sph * cps) * accel,
        cph * cth * accel - params.gravity,
        ((params.inertia_yy - params.inertia_zz) * q * r + u[1]) / params.inertia_xx,
        ((params.inertia_zz - params.inertia_xx) * p * r + u[2]) / params.inertia_yy,
        ((params.inertia_xx - params.inertia_yy) * p * q
         + u[3]) / params.inertia_zz,
    ]


def hover_equilibrium(params: QuadrotorParams) -> tuple[np.ndarray, np.ndarray]:
    """State and input of the hover fixed point.

    At hover the state is identically zero and the thrust balances
    gravity with no torque.
    """
    state = np.zeros(STATE_DIM)
    u = np.array([params.hover_thrust, 0.0, 0.0, 0.0])
    return state, u


def wrap_angle(angle: float) -> float:
    """Wrap a single angle into [-pi, pi)."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def wrap_heading_error(difference: float) -> float:
    """A difference of two headings, wrapped into [-pi, pi).

    A difference already inside the range is returned as it is:
    :func:`wrap_angle` would move the last bits of some of those.
    """
    if -math.pi <= difference < math.pi:
        return difference
    return wrap_angle(difference)


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
