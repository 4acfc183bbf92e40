"""Hover linearization of the quadrotor model.

Produces the state-space pair (A, B) of the model linearized about the
hover equilibrium, both analytically and through a central-difference
oracle that differentiates the nonlinear dynamics directly, and its
exact zero-order-hold map, the linear plant the simulator steps.
Inputs of the linear model are deviations from hover, i.e.
du1 = u1 - m*g and du2..du4 = u2..u4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .model import QuadrotorParams

# Central-difference step of numeric_jacobians.
JACOBIAN_STEP = 1e-6


@dataclass(frozen=True)
class StateSpace:
    """Linear model dx/dt = A x + B du: A is 12x12, B is 12x4."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        if self.A.shape != (model.STATE_DIM, model.STATE_DIM):
            raise ValueError(f"A must be 12x12, got {self.A.shape}")
        if self.B.shape != (model.STATE_DIM, model.INPUT_DIM):
            raise ValueError(f"B must be 12x4, got {self.B.shape}")


def hover_jacobians(params: QuadrotorParams) -> StateSpace:
    """Analytic Jacobians of the dynamics at the hover equilibrium.

    Position/attitude rows copy their velocities; the only other state
    coupling is the thrust tilt: d(xddot)/d(theta) = +g and
    d(yddot)/d(phi) = -g at hover thrust u1 = m*g.  The input matrix has
    1/m on vertical acceleration and the inverse inertias on the body
    angular accelerations.
    """
    A = np.zeros((model.STATE_DIM, model.STATE_DIM))
    for i in range(6):
        A[i, i + 6] = 1.0
    A[model.XDOT, model.THETA] = params.gravity
    A[model.YDOT, model.PHI] = -params.gravity

    B = np.zeros((model.STATE_DIM, model.INPUT_DIM))
    B[model.ZDOT, 0] = 1.0 / params.mass
    B[model.P, 1] = 1.0 / params.inertia_xx
    B[model.Q, 2] = 1.0 / params.inertia_yy
    B[model.R, 3] = 1.0 / params.inertia_zz

    return StateSpace(A=A, B=B)


def numeric_jacobians(params: QuadrotorParams) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference Jacobians of the nonlinear dynamics at hover.

    Independent oracle for :func:`hover_jacobians`.
    """
    state0, u0 = model.hover_equilibrium(params)

    A = np.zeros((model.STATE_DIM, model.STATE_DIM))
    for j in range(model.STATE_DIM):
        bump = np.zeros(model.STATE_DIM)
        bump[j] = JACOBIAN_STEP
        fp = model.dynamics(state0 + bump, u0, params)
        fm = model.dynamics(state0 - bump, u0, params)
        A[:, j] = np.subtract(fp, fm) / (2.0 * JACOBIAN_STEP)

    B = np.zeros((model.STATE_DIM, model.INPUT_DIM))
    for j in range(model.INPUT_DIM):
        bump = np.zeros(model.INPUT_DIM)
        bump[j] = JACOBIAN_STEP
        fp = model.dynamics(state0, u0 + bump, params)
        fm = model.dynamics(state0, u0 - bump, params)
        B[:, j] = np.subtract(fp, fm) / (2.0 * JACOBIAN_STEP)

    return A, B


@np.errstate(over="ignore", invalid="ignore")   # an overflow is refused below
def zoh(A: np.ndarray, B: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold map (Phi, Gamma) of dx/dt = A x + B u over dt.

    Sums the exponential series of the Van Loan block
    M = [[A, B], [0, 0]] dt, whose exponential is [[Phi, Gamma], [0, I]],
    until a term is exactly zero.  That happens only for a nilpotent A:
    the hover A has A^4 = 0, so the sum stops after the M^4/4! term and
    equals both e^{A dt} and one RK4 step with u held.  Any other A
    raises ValueError, and so does a dt for which the sum overflows.
    """
    n, m = np.shape(B)
    M = np.zeros((n + m, n + m))
    M[:n, :n] = np.multiply(A, dt)
    M[:n, n:] = np.multiply(B, dt)
    total = term = np.eye(n + m)
    for k in range(1, n + 2):
        term = term @ M / k
        if not term.any():
            return total[:n, :n], total[:n, n:]
        total = total + term
        if not np.isfinite(total).all():
            raise ValueError(f"the zero-order-hold series overflows at dt={dt!r}")
    raise ValueError("A is not nilpotent; its exponential series has no last term")


def controllability_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Block matrix [B, AB, ..., A^(n-1) B]."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


@np.errstate(over="ignore", invalid="ignore")   # an overflow is refused below
def controllable_subspace(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, int]:
    """(U, rank) from the SVD of the controllability matrix, by numpy's ``matrix_rank`` rule.

    U's first ``rank`` columns span the controllable subspace of (A, B),
    the rest its orthogonal complement.  A controllability matrix, or a
    rank cutoff, that overflows raises ``OverflowError``.
    """
    ctrb = controllability_matrix(A, B)
    if np.isfinite(ctrb).all():
        u, sigma, _ = np.linalg.svd(ctrb)
        cutoff = sigma.max(initial=0.0) * max(ctrb.shape) * np.finfo(float).eps
        if np.isfinite(cutoff):
            return u, int(np.count_nonzero(sigma > cutoff))
    raise OverflowError("controllability matrix overflowed")


def is_controllable(A: np.ndarray, B: np.ndarray) -> bool:
    """Whether the controllability matrix has full rank, by :func:`controllable_subspace`."""
    return controllable_subspace(A, B)[1] == np.asarray(A).shape[0]
