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
thrust projection degenerates.

:func:`dynamics` and :func:`normalize_state` take float sequences and
return lists of Python floats, the form the simulator steps its state in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_POSITIVE_FIELDS = (
    "mass", "arm_length", "thrust_factor", "drag_factor",
    "inertia_xx", "inertia_yy", "inertia_zz", "gravity",
)


class InfeasibleMix(ValueError):
    """Requested input needs a negative squared rotor speed."""


@dataclass(frozen=True)
class QuadrotorParams:
    """Physical constants of the vehicle.

    Defaults describe the 1 kg test platform used throughout the test
    suite: 22.5 cm arms, thrust factor 9.8e-6 N s^2/rad^2, drag factor
    1.6e-7 N m s^2/rad^2, diagonal inertia (0.0035, 0.0035, 0.005).
    The arm length and the two rotor factors only enter the rotor
    mixer; the dynamics take the generalized inputs directly.
    """

    mass: float = 1.0
    arm_length: float = 0.225
    thrust_factor: float = 9.8e-6
    drag_factor: float = 1.6e-7
    inertia_xx: float = 0.0035
    inertia_yy: float = 0.0035
    inertia_zz: float = 0.005
    gravity: float = 9.81

    def __post_init__(self) -> None:
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")

    @property
    def hover_thrust(self) -> float:
        """Total thrust that balances gravity."""
        return self.mass * self.gravity

    @property
    def hover_rotor_speed(self) -> float:
        """Per-rotor speed at hover, all four rotors equal."""
        return math.sqrt(self.hover_thrust / (4.0 * self.thrust_factor))


def rotor_mix(omega: np.ndarray, params: QuadrotorParams) -> np.ndarray:
    """Map four rotor speeds (rad/s) to the generalized inputs u1..u4.

    u1 = kf*(w1^2 + w2^2 + w3^2 + w4^2)
    u2 = l*kf*(w4^2 - w2^2)
    u3 = l*kf*(w1^2 - w3^2)
    u4 = km*(w1^2 - w2^2 + w3^2 - w4^2)

    The arm length keeps u2, u3 in torque units.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4,):
        raise ValueError(f"expected 4 rotor speeds, got shape {omega.shape}")
    if np.any(omega < 0.0):
        raise ValueError("rotor speeds must be non-negative")
    w = omega * omega
    kf = params.thrust_factor
    lever = params.arm_length * kf
    return np.array([
        kf * (w[0] + w[1] + w[2] + w[3]),
        lever * (w[3] - w[1]),
        lever * (w[0] - w[2]),
        params.drag_factor * (w[0] - w[1] + w[2] - w[3]),
    ])


def rotor_unmix(u: np.ndarray, params: QuadrotorParams) -> np.ndarray:
    """Invert :func:`rotor_mix`: recover the four rotor speeds from u1..u4.

    The induced linear system in the squared speeds has a unique
    solution; raises :class:`InfeasibleMix` when any squared speed would
    be negative, i.e. the commanded torques exceed what the available
    thrust can produce.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise ValueError(f"expected 4 inputs, got shape {u.shape}")
    kf = params.thrust_factor
    lever = params.arm_length * kf

    total = u[0] / kf                 # w1 + w2 + w3 + w4
    diff_roll = u[1] / lever          # w4 - w2
    diff_pitch = u[2] / lever         # w1 - w3
    diff_yaw = u[3] / params.drag_factor   # w1 - w2 + w3 - w4

    sum_13 = 0.5 * (total + diff_yaw)
    sum_24 = 0.5 * (total - diff_yaw)
    w = np.array([
        0.5 * (sum_13 + diff_pitch),
        0.5 * (sum_24 - diff_roll),
        0.5 * (sum_13 - diff_pitch),
        0.5 * (sum_24 + diff_roll),
    ])
    tol = 1e-12 * max(1.0, float(np.abs(w).max()))
    if np.any(w < -tol):
        raise InfeasibleMix(
            f"commanded input {u.tolist()} requires negative squared rotor speeds {w.tolist()}"
        )
    return np.sqrt(np.clip(w, 0.0, None))


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


def hover_equilibrium(
    params: QuadrotorParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State, input and rotor speeds of the hover fixed point.

    At hover the state is identically zero, thrust balances gravity and
    all four rotors spin at the same speed, so the yaw drag torques
    cancel exactly.
    """
    state = np.zeros(STATE_DIM)
    u = np.array([params.hover_thrust, 0.0, 0.0, 0.0])
    omega = np.full(4, params.hover_rotor_speed)
    return state, u, omega


def wrap_angle(angle: float) -> float:
    """Wrap a single angle into [-pi, pi)."""
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
