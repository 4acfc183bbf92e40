"""Continuous algebraic Riccati equation solver and LQR gain synthesis.

Solves

    A' S + S A - S B R^-1 B' S + Q = 0

for the symmetric positive-semidefinite stabilizing solution S using
Kleinman's Newton iteration: each step solves the Lyapunov equation

    (A - B K)' S + S (A - B K) + Q + K' R K = 0

for the current gain K and updates K = R^-1 B' S.  From any
stabilizing gain every iterate is stabilizing and S decreases
monotonically to the stabilizing solution.  The iteration is
warm-started from the direct solution: the stable eigenvectors of the
2n x 2n Hamiltonian matrix give S_H, and K0 = R^-1 B' S_H.  Newton
only refines it, so the start has to be close, not accurate.  If that
solve fails or K0 does not stabilize A - B K0, the start falls back to
a gain obtained by eigenvalue shifting (solve a Lyapunov equation for
the shifted pair, invert the Gramian), which needs (A, B) controllable.

The problem is first split into blocks: states and inputs are joined
by every nonzero of A, Q, B and R, and each connected component is a
CARE of its own.  The hover plant falls into four (z/zdot with thrust,
psi/r with yaw torque, and the x/theta and y/phi lateral chains with
pitch and roll torque).  Each block is iterated until its residual is
small against the size of the terms it sums, and S is assembled with
exact zeros between blocks; the assembled residual is checked against
the same normalized bound.

``solve_care`` splits the blocks once, cuts out each block's A, B, Q and
R, and decides each one: (A, Q) detectable, then (A, B) stabilizable
(Kucera 1972; one routine, numpy's rank rule), then the solve, so one
block's scale cannot hide another block's rank.

Lyapunov equations are solved as one n^2 x n^2 linear system, the
Kronecker sum I kron F' + F' kron I, with one call to
``np.linalg.solve`` and no refinement sweep.  Each solve costs O(n^6)
time and O(n^4) memory: microseconds for the hover blocks (n <= 4)
and fine up to n of about 20.  The Hamiltonian solution alone is
available as an independent cross-check (``method="hamiltonian"``); it
always solves the whole system.  The module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .linearize import controllable_subspace, is_controllable

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

# solve_care's bound on the Frobenius norm of the Riccati residual, as a
# fraction of the summed Frobenius norms of its terms (see
# care_residual), and its budget of Newton steps per decoupled block.
RESIDUAL_RTOL = 1e-9
MAX_NEWTON_STEPS = 100


class NotStabilizable(ValueError):
    """(A, B) is not stabilizable, or not controllable where a start needs it."""


class NoConvergence(RuntimeError):
    """No acceptable Riccati solution or gain for the weights."""


@dataclass(frozen=True)
class LqrWeights:
    """State weight Q (symmetric PSD) and input weight R (symmetric PD).

    Both are stored as read-only symmetric parts, so the checks keep holding.
    """

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        for name in ("Q", "R"):
            M = np.atleast_2d(np.array(getattr(self, name), dtype=float))
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must be finite")
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square, got shape {M.shape}")
            if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(M).max()))):
                raise ValueError(f"{name} must be symmetric")
            # halved before the sum, which then cannot overflow
            M = 0.5 * M + 0.5 * M.T
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        if float(np.linalg.eigvalsh(self.Q).min()) < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if float(np.linalg.eigvalsh(self.R).min()) <= 0.0:
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
    vec(X), so the equation is one n^2 x n^2 linear system, solved once
    by LU; refining in working precision would not improve the forward
    error of that backward-stable solve.  A singular Kronecker sum (F
    and -F share an eigenvalue) raises ``np.linalg.LinAlgError``, a
    ``ValueError``.
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
    kron_sum = kron_sum.reshape(n * n, n * n)
    X = np.linalg.solve(kron_sum, -C.ravel(order="F")).reshape((n, n), order="F")
    return 0.5 * (X + X.T)


def care_residual(A, B, S, Q, R) -> tuple[float, float]:
    """|A'S + SA - S B R^-1 B' S + Q| and its bound, Frobenius norms.

    The bound is RESIDUAL_RTOL (|Q| + |A'S + SA| + |S B R^-1 B' S|): the
    residual is measured against the size of the terms it sums, so its
    roundoff floor stays under the bound however S scales with the
    plant.  For a block-diagonal S the residual is the root-sum-square
    of the blocks' residuals, and by Minkowski's inequality the blocks'
    bounds have a root-sum-square no more than the bound of the whole,
    so every block meeting its own bound makes the assembled S meet the
    full-system bound.
    """
    A = np.asarray(A)
    BtS = np.asarray(B).T @ S
    linear = A.T @ S + S @ A
    quadratic = BtS.T @ np.linalg.solve(R, BtS)
    residual = float(np.linalg.norm(linear - quadratic + Q, ord="fro"))
    return residual, RESIDUAL_RTOL * (float(np.linalg.norm(Q, ord="fro"))
                                      + float(np.linalg.norm(linear, ord="fro"))
                                      + float(np.linalg.norm(quadratic, ord="fro")))


def stabilizing_gain(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gain K0 such that A - B K0 is Hurwitz, for controllable (A, B).

    Shift the spectrum into the open right half-plane, solve the
    Lyapunov equation (A + beta I) Z + Z (A + beta I)' = 2 B B' for the
    shifted Gramian Z > 0, and take K0 = B' Z^-1; then (A - B K0) obeys
    a strict Lyapunov inequality with certificate Z.  Z is singular for
    an uncontrollable pair, which raises :class:`NotStabilizable`.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    eig = np.linalg.eigvals(A)
    # strict margin: marginally-stable spectra still go through the shift
    if float(eig.real.max()) < -1e-9:
        return np.zeros((B.shape[1], A.shape[0]))
    if not is_controllable(A, B):
        raise NotStabilizable("the eigenvalue-shift gain needs a controllable (A, B)")
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


def _solve_care_hamiltonian(A, G, Q) -> np.ndarray:
    """Stable-eigenvector solution of the CARE with G = B R^-1 B': Newton's
    start, and a cross-check.

    May raise ``np.linalg.LinAlgError`` or return a non-finite or
    inaccurate S when the stable eigenvectors are ill conditioned.
    """
    n = A.shape[0]
    H = np.block([[A, -G], [-Q, -A.T]])
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
    that touch no state drop out (their gain rows are zero), and a
    component with states but no input is a block with no inputs.  When
    the graph is connected, the whole system is one block.  Shapes that
    do not fit together raise ``ValueError``.
    """
    n = A.shape[0]
    if A.shape != (n, n) or B.ndim != 2 or B.shape[0] != n:
        raise ValueError(f"incompatible shapes A {A.shape}, B {B.shape}")
    m = B.shape[1]
    if weights.Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {weights.Q.shape}")
    if weights.R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}, got {weights.R.shape}")
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
        seen[states] = True
        blocks.append((states, inputs))
    return blocks


def _newton(A, B, Q, R) -> tuple[np.ndarray, int]:
    """Kleinman's Newton iteration from the Hamiltonian solution: (S, iterations).

    The start is K0 = R^-1 B' S_H for the stable-eigenvector solution
    S_H, or the eigenvalue-shifting gain of :func:`stabilizing_gain`
    when that solve raises ``LinAlgError``, gives a non-finite S_H, or
    a K0 that leaves A - B K0 short of Hurwitz.  The residual of a
    Kleinman iterate is -dK' R dK for the gain update dK just taken, so
    it measures that step, not the error left.  Once it meets the bound
    of :func:`care_residual` the iteration is in its quadratic phase, and
    one more step takes S to roundoff.  A B R^-1 B' that overflows
    raises ``OverflowError``; one that is zero, which on a block's
    nonzero B only underflow makes, raises ``FloatingPointError``.
    """
    gain_map = np.linalg.solve(R, B.T)  # K = gain_map @ S
    G = B @ gain_map
    if not np.isfinite(G).all():
        raise OverflowError("B R^-1 B' overflowed")
    if not G.any():
        raise FloatingPointError("B R^-1 B' underflowed to zero")
    K = None
    try:
        S = _solve_care_hamiltonian(A, G, Q)
    except np.linalg.LinAlgError:
        pass
    else:
        if np.isfinite(S).all():
            K = gain_map @ S
    if K is None or float(np.linalg.eigvals(A - B @ K).real.max()) >= 0.0:
        K = stabilizing_gain(A, B)
    for iteration in range(1, MAX_NEWTON_STEPS + 1):
        S = solve_lyapunov(A - B @ K, Q + K.T @ (R @ K))
        K = gain_map @ S
        residual, tol = care_residual(A, B, S, Q, R)
        if residual <= tol:
            S = solve_lyapunov(A - B @ K, Q + K.T @ (R @ K))
            return S, iteration + 1
    raise NoConvergence(
        f"Riccati residual {residual:.3e} above tolerance {tol:.3e} "
        f"after {MAX_NEWTON_STEPS} Newton iterations"
    )


def solve_care(
    A: np.ndarray,
    B: np.ndarray,
    weights: LqrWeights,
    method: str = "newton",
) -> CareSolution:
    """Solve the CARE for the stabilizing solution S.

    The plant is split once into decoupled blocks, and each block is
    decided there, over all blocks in turn: (A, Q) detectability, then
    (A, B) stabilizability, then the solve.  ``method`` selects the
    Newton iteration on each block (default), warm-started from the
    block's Hamiltonian solution, or the whole-system Hamiltonian
    eigenvector solution alone.  An unweighted block keeps S = 0, and
    Q = 0 gives S = 0 with no detectability test.  A block with no
    inputs solves A'S + SA + Q = 0.  ``iterations``
    counts Newton steps over all blocks.  The Frobenius norm of the
    residual must come within ``RESIDUAL_RTOL`` times the summed norms
    of its terms, |Q| + |A'S + SA| + |S B R^-1 B' S| (:func:`care_residual`).

    Raises ``ValueError`` for an unknown ``method``, before any other
    check.  Raises :class:`NoConvergence` naming state channels when a
    nonzero Q leaves a mode with Re >= 0 unseen, or when a block's
    observability or controllability matrix or B R^-1 B' overflows (or
    B R^-1 B' underflows to zero); :class:`NotStabilizable` naming them
    when B leaves such a mode unreached; and :class:`NoConvergence` when
    ``MAX_NEWTON_STEPS`` Newton steps on a block do not reach the
    tolerance, or when the solution overflows or misses it.
    """
    if method not in ("newton", "hamiltonian"):
        raise ValueError(f"unknown method {method!r}")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    labels = (model.STATE_LABELS if n == model.STATE_DIM
              else [f"state {i}" for i in range(n)])

    def channels(states) -> str:
        return ", ".join(labels[i] for i in states)

    # each block's arrays, cut out once; principal blocks of the checked Q
    # and R are symmetric PSD and PD, so LqrWeights need not check them again
    blocks = []
    for states, inputs in _decoupled_blocks(A, B, weights):
        square = np.ix_(states, states)
        blocks.append((states, square, A[square], B[np.ix_(states, inputs)],
                       weights.Q[square], weights.R[np.ix_(inputs, inputs)]))
    checks = [(NotStabilizable, "(A, B) is not stabilizable: B does not reach",
               "controllability matrix", lambda A_b, B_b, Q_b: (A_b, B_b))]
    if weights.Q.any():
        checks.insert(0, (NoConvergence, "(A, Q) is not detectable: Q does not weight",
                          "observability matrix of (A, Q)",
                          lambda A_b, B_b, Q_b: (A_b.T, Q_b)))
    for error, refusal, matrix, pair in checks:
        unreached = []
        for states, _, A_b, B_b, Q_b, _ in blocks:
            try:
                unreached.extend(states[_unreached_states(*pair(A_b, B_b, Q_b))])
            except OverflowError as exc:
                raise NoConvergence(f"{matrix} overflowed on {channels(states)}") from exc
        if unreached:
            raise error(f"{refusal} a mode with Re >= 0 on {channels(sorted(unreached))}")

    S, iterations = np.zeros((n, n)), 0
    if method == "hamiltonian" and weights.Q.any():
        S = _solve_care_hamiltonian(A, B @ np.linalg.solve(weights.R, B.T), weights.Q)
    else:
        for states, square, A_b, B_b, Q_b, R_b in blocks:
            if not Q_b.any():
                continue
            if not B_b.size:
                S[square] = solve_lyapunov(A_b, Q_b)
                continue
            try:
                S[square], steps = _newton(A_b, B_b, Q_b, R_b)
            except ArithmeticError as exc:
                raise NoConvergence(f"{exc} on {channels(states)}") from exc
            iterations += steps
    residual, tol = care_residual(A, B, S, weights.Q, weights.R)
    # an overflowed residual meets its overflowed bound: inf <= inf
    if not np.isfinite(residual):
        raise NoConvergence(f"Riccati residual of the {method} solution overflowed")
    if not residual <= tol:
        raise NoConvergence(
            f"Riccati residual {residual:.3e} of the {method} solution above "
            f"tolerance {tol:.3e}")
    return CareSolution(S=S, residual_norm=residual, iterations=iterations)


# A refused gain is reported by its exception alone, not also by
# numpy's overflow warnings on the way to it.
@np.errstate(over="ignore", invalid="ignore")
def lqr_gain(A: np.ndarray, B: np.ndarray, weights: LqrWeights) -> np.ndarray:
    """Optimal full-state feedback gain K = R^-1 B' S, one row per input.

    S is :func:`solve_care`'s, with its refusals: weights that leave a
    mode with Re >= 0 unseen raise :class:`NoConvergence` naming its
    state channels.  The gain is exactly zero between decoupled blocks,
    and Q = 0 gives K = 0 (no control).  A nonzero K that leaves
    A - B K short of Hurwitz raises :class:`NoConvergence`.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    K = np.linalg.solve(weights.R, B.T @ solve_care(A, B, weights).S)
    if np.any(K):
        closed_eigs = np.linalg.eigvals(A - B @ K)
        if float(closed_eigs.real.max()) >= 0.0:
            raise NoConvergence(
                "computed gain does not stabilize the plant "
                f"(max closed-loop real part {closed_eigs.real.max():.3e})"
            )
    return K


def _unreached_states(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Indices of the states carrying a mode of F with Re >= 0 that G does not reach.

    On (A, B) these modes make the pair unstabilizable; on (A', Q), they
    make (A, Q) undetectable.  The orthogonal complement N of the
    controllable subspace of (F, G) is F'-invariant, so F' restricted to
    it is F_u = N' F' N, whose eigenvalues are the unreached modes.  The
    product of (F_u - lambda I) over the strictly stable eigenvalues
    lambda of F_u annihilates their invariant subspace, so its range is
    the invariant subspace of the other modes; its leading left singular
    vectors, as many as there are such modes, span it.  A controllability
    matrix or rank cutoff that overflows raises ``OverflowError``.
    """
    basis, rank = controllable_subspace(F, G)
    if rank == F.shape[0]:
        return np.empty(0, dtype=int)
    unreached = basis[:, rank:]
    reduced = unreached.T @ F.T @ unreached
    eigs = np.linalg.eigvals(reduced)
    # the same strict margin as stabilizing_gain: marginal modes count
    stable = eigs[eigs.real < -1e-9]
    product = np.eye(eigs.size, dtype=complex)
    for eig in stable:
        product = product @ (reduced - eig * np.eye(eigs.size))
    # conjugate eigenvalues come in exact pairs, so the product is real
    u, _, _ = np.linalg.svd(product.real)
    modes = unreached @ u[:, :eigs.size - stable.size]
    return np.flatnonzero(np.abs(modes).max(axis=1, initial=0.0) > 1e-8)
