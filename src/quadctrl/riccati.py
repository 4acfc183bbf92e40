"""Continuous algebraic Riccati equation solver and LQR gain synthesis.

Solves

    A' S + S A - S B R^-1 B' S + Q = 0

for the symmetric positive-semidefinite stabilizing solution S using
Kleinman's Newton iteration: each step solves the Lyapunov equation

    (A - B K)' S + S (A - B K) + Q + K' R K = 0

for the current gain K and updates K = R^-1 B' S.  The iteration is
warm-started from a stabilizing gain obtained by eigenvalue shifting
(solve a Lyapunov equation for the shifted pair, invert the Gramian),
so every iterate is stabilizing and S decreases monotonically to the
stabilizing solution.

The problem is first split into blocks: states and inputs are joined
by every nonzero of A, Q, B and R, and each connected component is a
CARE of its own.  The hover plant falls into four (z/zdot with thrust,
psi/r with yaw torque, and the x/theta and y/phi lateral chains with
pitch and roll torque).  Each block is iterated to its share of the
tolerance and S is assembled with exact zeros between blocks; the
assembled residual is checked against the full-system tolerance.

Lyapunov equations are solved as one n^2 x n^2 linear system, the
Kronecker sum I kron F' + F' kron I, by a single LU factorization that
also serves the iterative-refinement sweeps.  That costs O(n^6) time
and O(n^4) memory: microseconds for the hover blocks (n <= 4) and fine
up to n of about 20.  An eigenvector-based solver on the associated
2n x 2n Hamiltonian matrix is available as an independent cross-check
(``method="hamiltonian"``); it always solves the whole system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid
from scipy.linalg import lu_factor, lu_solve, schur

from . import model
from .linearize import controllability_matrix, is_controllable

# Default LQR weights for the 12-state hover model, in state order
# [x, y, z, phi, theta, psi, xdot, ydot, zdot, p, q, r].  Tuned so the
# altitude loop settles inside 5 s with no visible overshoot and the
# lateral loops are well damped; the resulting gain has altitude
# position gain sqrt(1.71) = 1.3077 and yaw row [100, 31.64].
DEFAULT_Q_DIAGONAL = (
    500.0, 200.0, 1.71,
    600.0, 1400.0, 10.0,
    60.0, 60.0, 2.0,
    0.25, 10.0, 1.0,
)
DEFAULT_R_DIAGONAL = (1.0, 0.001, 0.001, 0.001)


class NotStabilizable(ValueError):
    """The (A, B) pair fails the controllability rank check."""


class NoConvergence(RuntimeError):
    """Newton iteration exhausted max_iter without meeting tolerance."""


class GridMismatch(ValueError):
    """Trajectory and control samples do not share one time grid."""


@dataclass(frozen=True)
class LqrWeights:
    """State weight Q (symmetric PSD) and input weight R (symmetric PD)."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        for name, M in (("Q", Q), ("R", R)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square, got shape {M.shape}")
            if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(M).max()))):
                raise ValueError(f"{name} must be symmetric")
        if float(np.linalg.eigvalsh(Q).min()) < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if float(np.linalg.eigvalsh(R).min()) <= 0.0:
            raise ValueError("R must be positive definite")

    @classmethod
    def from_diagonals(cls, q_diagonal, r_diagonal) -> "LqrWeights":
        return cls(Q=np.diag(np.asarray(q_diagonal, dtype=float)),
                   R=np.diag(np.asarray(r_diagonal, dtype=float)))


@dataclass(frozen=True)
class CareSolution:
    """Stabilizing Riccati solution with its residual bookkeeping."""

    S: np.ndarray
    residual_norm: float
    iterations: int


def solve_lyapunov(F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve F' X + X F + C = 0 for symmetric C and stable F.

    With column-major stacking, vec(F' X + X F) = (I kron F' + F' kron I)
    vec(X), so the equation is one n^2 x n^2 linear system.  Its LU
    factor is computed once and reused by a few iterative-refinement
    sweeps that push the defect down to roundoff even for
    ill-conditioned spectra.
    """
    F = np.asarray(F, dtype=float)
    C = np.asarray(C, dtype=float)
    n = F.shape[0]
    if F.shape != (n, n) or C.shape != (n, n):
        raise ValueError(f"F and C must be square of equal size, got {F.shape}, {C.shape}")

    # I kron F' + F' kron I, indexed [j, i, l, k] for the coefficient of
    # X[k, l] in entry (i, j): F'[i, k] when j == l plus F'[j, l] when
    # i == k.  Filled by index, it costs a fraction of two np.kron calls.
    index = np.arange(n)
    kron_sum = np.zeros((n, n, n, n))
    kron_sum[index, :, index, :] = F.T
    kron_sum[:, index, :, index] += F.T
    factor = lu_factor(kron_sum.reshape(n * n, n * n))

    def solve(D: np.ndarray) -> np.ndarray:
        """Y with F' Y + Y F = -D, symmetrized."""
        Y = lu_solve(factor, -D.ravel(order="F")).reshape((n, n), order="F")
        return 0.5 * (Y + Y.T)

    X = solve(C)
    scale = max(1.0, float(np.linalg.norm(C, ord="fro")))
    defect_norm = np.inf
    for _ in range(3):
        defect = F.T @ X + X @ F + C
        norm = float(np.linalg.norm(defect, ord="fro"))
        if norm >= defect_norm or norm < 1e-15 * scale:
            break
        defect_norm = norm
        X = X + solve(defect)
    return X


def care_residual(A, B, S, weights: LqrWeights) -> float:
    """Frobenius norm of A'S + SA - S B R^-1 B' S + Q."""
    BtS = np.asarray(B).T @ S
    res = (np.asarray(A).T @ S + S @ np.asarray(A)
           - BtS.T @ np.linalg.solve(weights.R, BtS) + weights.Q)
    return float(np.linalg.norm(res, ord="fro"))


def stabilizing_gain(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gain K0 such that A - B K0 is Hurwitz, for controllable (A, B).

    Shift the spectrum into the open right half-plane, solve the
    Lyapunov equation (A + beta I) Z + Z (A + beta I)' = 2 B B' for the
    shifted Gramian Z > 0, and take K0 = B' Z^-1; then (A - B K0) obeys
    a strict Lyapunov inequality with certificate Z.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    eig = np.linalg.eigvals(A)
    # strict margin: marginally-stable spectra still go through the shift
    if float(eig.real.max()) < -1e-9:
        return np.zeros((B.shape[1], A.shape[0]))
    beta = 1.0 + max(0.0, -float(eig.real.min()))
    M = -(A + beta * np.eye(A.shape[0]))
    Z = solve_lyapunov(M.T, 2.0 * (B @ B.T))
    K0 = np.linalg.solve(Z, B).T
    closed = np.linalg.eigvals(A - B @ K0)
    if float(closed.real.max()) >= 0.0:
        raise NotStabilizable(
            "failed to construct a stabilizing initial gain; the pair is "
            "too close to uncontrollable"
        )
    return K0


def _solve_care_hamiltonian(A, B, weights: LqrWeights) -> np.ndarray:
    """Stable-eigenvector solution of the CARE, used as a cross-check."""
    n = A.shape[0]
    G = B @ np.linalg.solve(weights.R, B.T)
    H = np.block([[A, -G], [-weights.Q, -A.T]])
    eigvals, eigvecs = np.linalg.eig(H)
    stable = np.argsort(eigvals.real)[:n]
    U = eigvecs[:, stable]
    S = U[n:, :] @ np.linalg.inv(U[:n, :])
    S = S.real
    return 0.5 * (S + S.T)


def _decoupled_blocks(A, B, weights: LqrWeights) -> list[tuple[np.ndarray, np.ndarray]]:
    """(state indices, input indices) of each decoupled subproblem.

    States and inputs are the nodes of a graph with an edge for every
    nonzero of A, Q, B and R; each connected component is a CARE of its
    own, and the solution has exact zeros between components.  Inputs
    that touch no state drop out (their gain rows are zero).  When the
    graph is connected, or a component has states but no input to
    stabilize it, the whole system is one block.
    """
    n, m = B.shape
    linked = np.eye(n + m, dtype=bool)
    linked[:n, :n] |= (A != 0.0) | (weights.Q != 0.0)
    linked[:n, n:] = B != 0.0
    linked[n:, n:] |= weights.R != 0.0
    linked |= linked.T
    # transitive closure by repeated squaring
    while True:
        grown = (linked.astype(int) @ linked.astype(int)) > 0
        if np.array_equal(grown, linked):
            break
        linked = grown
    blocks, seen = [], np.zeros(n, dtype=bool)
    for node in range(n):
        if seen[node]:
            continue
        members = np.flatnonzero(linked[node])
        states, inputs = members[members < n], members[members >= n] - n
        if inputs.size == 0:
            return [(np.arange(n), np.arange(m))]
        seen[states] = True
        blocks.append((states, inputs))
    return blocks


def _newton(A, B, weights: LqrWeights, tol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Kleinman's Newton iteration from a stabilizing gain: (S, iterations).

    The residual of a Kleinman iterate is -dK' R dK for the gain update
    dK just taken, so it measures that step, not the error left.  Once it
    meets ``tol`` the iteration is in its quadratic phase, and one more
    step takes S to roundoff.
    """
    gain_map = np.linalg.solve(weights.R, B.T)     # K = gain_map @ S
    K = stabilizing_gain(A, B)
    for iteration in range(1, max_iter + 1):
        S = solve_lyapunov(A - B @ K, weights.Q + K.T @ (weights.R @ K))
        K = gain_map @ S
        residual = care_residual(A, B, S, weights)
        if residual <= tol:
            S = solve_lyapunov(A - B @ K, weights.Q + K.T @ (weights.R @ K))
            return S, iteration + 1
    raise NoConvergence(
        f"Riccati residual {residual:.3e} above tolerance {tol:.3e} "
        f"after {max_iter} Newton iterations"
    )


def solve_care(
    A: np.ndarray,
    B: np.ndarray,
    weights: LqrWeights,
    tol: float | None = None,
    max_iter: int = 100,
    method: str = "newton",
) -> CareSolution:
    """Solve the CARE for the stabilizing solution S.

    ``tol`` bounds the Frobenius norm of the Riccati residual and
    defaults to 1e-9 times the Frobenius norm of Q.  ``method`` selects
    the Newton iteration (default) or the Hamiltonian eigenvector
    cross-check path.  The Newton path solves each decoupled block on
    its own, and ``iterations`` counts its Newton steps over all blocks.

    Raises :class:`NotStabilizable` when the controllability rank check
    fails and :class:`NoConvergence` when max_iter Newton steps do not
    reach the tolerance.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n:
        raise ValueError(f"incompatible shapes A {A.shape}, B {B.shape}")
    if weights.Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {weights.Q.shape}")
    if weights.R.shape != (B.shape[1], B.shape[1]):
        raise ValueError(f"R must be {B.shape[1]}x{B.shape[1]}, got {weights.R.shape}")

    q_norm = float(np.linalg.norm(weights.Q, ord="fro"))
    if tol is None:
        tol = 1e-9 * q_norm
    elif tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    if not is_controllable(A, B):
        raise NotStabilizable(
            "controllability matrix is rank deficient; cannot guarantee a "
            "stabilizing solution"
        )

    if q_norm == 0.0:
        # Zero state weight: S = 0 solves the equation exactly (the
        # optimal policy applies no control).
        return CareSolution(S=np.zeros((n, n)), residual_norm=0.0, iterations=0)

    if method == "hamiltonian":
        S = _solve_care_hamiltonian(A, B, weights)
        residual = care_residual(A, B, S, weights)
        if residual > tol:
            raise NoConvergence(
                f"Hamiltonian-eigenvector residual {residual:.3e} above "
                f"tolerance {tol:.3e}")
        return CareSolution(S=S, residual_norm=residual, iterations=0)
    if method != "newton":
        raise ValueError(f"unknown method {method!r}")

    S = np.zeros((n, n))
    iterations = 0
    for states, inputs in _decoupled_blocks(A, B, weights):
        square = np.ix_(states, states)
        block_q = weights.Q[square]
        # The block's share of the tolerance, tol |Q_b| / |Q|: the shares
        # add up in squares to tol, and each block is solved to the same
        # relative accuracy.  An unweighted block keeps S = 0, as Q = 0 does.
        share = float(np.linalg.norm(block_q, ord="fro")) / q_norm
        if share == 0.0:
            continue
        block_weights = LqrWeights(Q=block_q, R=weights.R[np.ix_(inputs, inputs)])
        S[square], steps = _newton(A[square], B[np.ix_(states, inputs)], block_weights,
                                   tol * share, max_iter)
        iterations += steps
    residual = care_residual(A, B, S, weights)
    if residual > tol:
        raise NoConvergence(
            f"assembled Riccati residual {residual:.3e} above tolerance {tol:.3e}")
    return CareSolution(S=S, residual_norm=residual, iterations=iterations)


def lqr_gain(A: np.ndarray, B: np.ndarray, weights: LqrWeights) -> np.ndarray:
    """Optimal full-state feedback gain K = R^-1 B' S, one row per input.

    For a block-decoupled plant the gain is exactly zero between blocks,
    because the Newton solve assembles S block by block.  A nonzero Q
    must make (A, Q) detectable: a mode with Re >= 0 that Q does not see
    is left unstabilized by the optimal policy, so such weights are
    refused with :class:`NoConvergence` naming the state channels that
    carry the mode.  Q = 0 gives K = 0 (no control).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if np.any(weights.Q):
        unseen = _undetectable_states(A, weights.Q)
        if unseen.size:
            labels = (model.STATE_LABELS if A.shape[0] == model.STATE_DIM
                      else [f"state {i}" for i in range(A.shape[0])])
            raise NoConvergence(
                "(A, Q) is not detectable: Q does not weight a mode with "
                "Re >= 0 on " + ", ".join(labels[i] for i in unseen))
    solution = solve_care(A, B, weights)
    K = np.linalg.solve(weights.R, B.T @ solution.S)
    if np.any(K):
        closed_eigs = np.linalg.eigvals(A - B @ K)
        if float(closed_eigs.real.max()) >= 0.0:
            raise NoConvergence(
                "computed gain does not stabilize the plant "
                f"(max closed-loop real part {closed_eigs.real.max():.3e})"
            )
    return K


def _undetectable_states(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Indices of the states that carry a mode of A with Re >= 0 unseen by Q.

    The unobservable subspace of (A, Q) is the null space of the
    observability matrix [Q; Q A; ...; Q A^(n-1)], the transpose of the
    controllability matrix of (A', Q).  It is A-invariant, so A
    restricted to it is N' A N for an orthonormal basis N; its Schur
    form, sorted, splits off the modes that are not strictly stable.
    """
    observability = controllability_matrix(A.T, Q).T
    _, sigma, vt = np.linalg.svd(observability)
    # numpy's matrix_rank threshold: weights ~1e-13 below the largest count as zero
    cutoff = sigma[0] * max(observability.shape) * np.finfo(float).eps
    rank = int(np.count_nonzero(sigma > cutoff))
    unobservable = vt[rank:].T
    # the same strict margin as stabilizing_gain: marginal modes count
    _, Z, count = schur(unobservable.T @ A @ unobservable,
                        sort=lambda re, im: re >= -1e-9)
    modes = unobservable @ Z[:, :count]
    return np.flatnonzero(np.abs(modes).max(axis=1, initial=0.0) > 1e-8)


def feedback_control(
    K: np.ndarray,
    state: np.ndarray,
    reference: np.ndarray,
    u_equilibrium: np.ndarray,
) -> np.ndarray:
    """Control law u = u_eq - K (state - reference)."""
    deviation = np.asarray(state, dtype=float) - np.asarray(reference, dtype=float)
    return np.asarray(u_equilibrium, dtype=float) - K @ deviation


def evaluate_cost(
    times: np.ndarray,
    states: np.ndarray,
    controls: np.ndarray,
    weights: LqrWeights,
    reference: np.ndarray | None = None,
) -> float:
    """Trapezoidal approximation of the quadratic cost
    integral of (x' Q x + u' R u) dt over the sampled horizon.

    States are measured as deviations from ``reference`` when one is
    given.  Raises :class:`GridMismatch` when the three series do not
    share a common grid.
    """
    times = np.asarray(times, dtype=float)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if states.shape[0] != times.shape[0] or controls.shape[0] != times.shape[0]:
        raise GridMismatch(
            f"times ({times.shape[0]}), states ({states.shape[0]}) and "
            f"controls ({controls.shape[0]}) must share one grid"
        )
    if reference is not None:
        states = states - np.asarray(reference, dtype=float)
    integrand = (np.einsum("ij,jk,ik->i", states, weights.Q, states)
                 + np.einsum("ij,jk,ik->i", controls, weights.R, controls))
    return float(trapezoid(integrand, times))
