"""Tests for the Riccati solver and LQR gains.

Every solver result is checked against independent oracles: direct
substitution into the defining equation, hand-derived closed forms for
double-integrator subsystems, matrix-exponential decay of the closed
loop, and the Hamiltonian eigenvector construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm, qr, schur, solve_continuous_are, solve_continuous_lyapunov

import quadctrl
from quadctrl import (
    DEFAULT_Q_DIAGONAL,
    DEFAULT_R_DIAGONAL,
    LqrController,
    LqrWeights,
    NoConvergence,
    NotStabilizable,
    QuadrotorParams,
    Setpoints,
    hover_equilibrium,
    hover_jacobians,
    lqr_gain,
    riccati,
    solve_care,
    solve_lyapunov,
)
from quadctrl.linearize import controllability_matrix
from quadctrl.riccati import (
    _decoupled_blocks,
    _unreached_states,
    care_residual,
    stabilizing_gain,
)

# The hover plant's decoupled subsystems, as (state indices, input index)
# in state order [x, y, z, phi, theta, psi, xdot, ydot, zdot, p, q, r].
HOVER_BLOCKS = (
    ((2, 8), 0),            # z, zdot; thrust
    ((1, 3, 7, 9), 1),      # y, phi, ydot, p; roll torque
    ((0, 4, 6, 10), 2),     # x, theta, xdot, q; pitch torque
    ((5, 11), 3),           # psi, r; yaw torque
)


def chain_care_closed_form(q1, q2, r, b):
    """Closed-form CARE solution for A=[[0,1],[0,0]], B=[[0],[b]].

    Expanding the 2x2 equation entrywise gives
        s2 = sqrt(q1 r) / b
        s3 = sqrt(r q2 + 2 r s2) / b
        s1 = b^2 s2 s3 / r
    and the gain K = (b/r) [s2, s3].
    """
    s2 = math.sqrt(q1 * r) / b
    s3 = math.sqrt(r * q2 + 2.0 * r * s2) / b
    s1 = b * b * s2 * s3 / r
    S = np.array([[s1, s2], [s2, s3]])
    K = (b / r) * np.array([s2, s3])
    return S, K


def double_integrator(b=1.0):
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [b]])
    return A, B


def random_controllable_system(rng, n, m):
    """Random controllable pair whose LQR problem is well conditioned.

    A is normal with eigenvalue real parts in +/-[0.8, 2.5] (a healthy
    mix of stable and unstable modes).  Draws are rejected using the
    Hamiltonian spectrum alone, which characterizes the problem without
    running the Newton solver under test: closed-loop poles faster than
    0.9 keep the 10 s decay oracle meaningful, and a cap on the
    solution norm keeps the absolute residual tolerance reachable in
    float64.
    """
    while True:
        blocks, k = [], 0
        while k < n:
            a = rng.uniform(0.8, 2.5) * (-1.0 if rng.random() < 0.6 else 1.0)
            if k + 1 < n and rng.random() < 0.5:
                w = rng.uniform(0.3, 3.0)
                blocks.append(np.array([[a, w], [-w, a]]))
                k += 2
            else:
                blocks.append(np.array([[a]]))
                k += 1
        V, _ = qr(rng.normal(size=(n, n)))
        A = V @ block_diag(*blocks) @ V.T
        B = rng.normal(size=(n, m))
        H = np.block([[A, -B @ B.T], [-np.eye(n), -A.T]])
        eigvals, eigvecs = np.linalg.eig(H)
        stable = np.argsort(eigvals.real)[:n]
        if np.max(eigvals.real[stable]) > -0.9:
            continue
        U = eigvecs[:, stable]
        S_estimate = np.real(U[n:, :] @ np.linalg.inv(U[:n, :]))
        if np.linalg.norm(S_estimate, "fro") > 200.0:
            continue
        return A, B, LqrWeights(Q=np.eye(n), R=np.eye(m))


def schur_undetectable_states(A, Q):
    """Reference for riccati._unreached_states on (A', Q): the same unobservable
    subspace, split by scipy's sorted real Schur form of A on it."""
    observability = controllability_matrix(A.T, Q).T
    _, sigma, vt = np.linalg.svd(observability)
    cutoff = sigma[0] * max(observability.shape) * np.finfo(float).eps
    unobservable = vt[int(np.count_nonzero(sigma > cutoff)):].T
    _, Z, count = schur(unobservable.T @ A @ unobservable,
                        sort=lambda re, im: re >= -1e-9)
    modes = unobservable @ Z[:, :count]
    return np.flatnonzero(np.abs(modes).max(axis=1, initial=0.0) > 1e-8)


def partly_unobservable_system(rng):
    """(A, Q) whose first k states, after an orthogonal change of basis V,
    span an A-invariant subspace that Q does not weight.

    Half the draws make A on that subspace triangular and V a
    permutation, so the unseen unstable modes touch only some states.
    Every eigenvalue of A lies at least 1e-3 from the -1e-9 margin.  A
    defective eigenvalue at the margin, such as a 2x2 Jordan block at 0,
    is left out: LAPACK may split its pair across the margin, and the
    two splits then name different states.
    """
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, n))
    while True:
        if rng.random() < 0.5:
            hidden = (np.triu(rng.normal(size=(k, k)), 1)
                      + np.diag(rng.choice([-1.0, 1.0], k) * rng.uniform(1e-3, 2.0, k)))
            V = np.eye(n)[rng.permutation(n)]
        else:
            hidden = rng.normal(size=(k, k))
            V = (qr(rng.normal(size=(n, n)))[0] if rng.random() < 0.5
                 else np.eye(n)[rng.permutation(n)])
        T = np.block([[hidden, rng.normal(size=(k, n - k))],
                      [np.zeros((n - k, k)), rng.normal(size=(n - k, n - k))]])
        A = V @ T @ V.T
        if np.abs(np.linalg.eigvals(A).real + 1e-9).min() >= 1e-3:
            break
    C = rng.normal(size=(n - k, n - k))
    Q = V @ block_diag(np.zeros((k, k)), C @ C.T) @ V.T
    return A, 0.5 * (Q + Q.T)


class TestLyapunovSolver:
    def test_scalar(self):
        # -2x + c = 0  for f = -1: f'x + xf + c = 0 -> x = c/2
        X = solve_lyapunov(np.array([[-1.0]]), np.array([[3.0]]))
        assert X == pytest.approx(np.array([[1.5]]))

    def test_residual_on_random_stable_systems(self, rng):
        for n in (2, 3, 5, 8, 12):
            for _ in range(10):
                F = rng.normal(size=(n, n))
                F -= (np.max(np.linalg.eigvals(F).real) + 0.5) * np.eye(n)
                C = rng.normal(size=(n, n))
                C = C + C.T
                X = solve_lyapunov(F, C)
                residual = F.T @ X + X @ F + C
                assert np.linalg.norm(residual, "fro") < 1e-9 * max(
                    1.0, np.linalg.norm(C, "fro"))
                assert X == pytest.approx(X.T)

    def test_complex_eigenvalue_blocks(self):
        # rotation-plus-damping: a complex-conjugate spectrum
        F = np.array([[-0.5, 4.0], [-4.0, -0.5]])
        C = np.array([[1.0, 0.2], [0.2, 2.0]])
        X = solve_lyapunov(F, C)
        assert np.linalg.norm(F.T @ X + X @ F + C, "fro") < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(np.eye(3), np.eye(2))

    def test_matches_scipy_on_stock_closed_loop_blocks(self, hover_ss, default_weights,
                                                       default_gain):
        # the last Newton step of each hover block: F = A - B K is the
        # closed loop, with poles up to |lambda| = 2.86e4 rad/s
        for states, u in HOVER_BLOCKS:
            square = np.ix_(states, states)
            B = hover_ss.B[list(states), u][:, None]
            K = default_gain[u, list(states)][None, :]
            R = default_weights.R[u, u]
            F = hover_ss.A[square] - B @ K
            C = default_weights.Q[square] + R * K.T @ K
            X = solve_lyapunov(F, C)
            X_ref = solve_continuous_lyapunov(F.T, -C)
            assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref), states

    def test_singular_kronecker_sum_rejected(self):
        # F and -F share the eigenvalue 0: the equation has no unique solution
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solve_lyapunov(np.zeros((2, 2)), np.eye(2))


class TestStabilizingGain:
    def test_already_stable_returns_zero(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        B = np.array([[1.0], [1.0]])
        assert not stabilizing_gain(A, B).any()

    def test_stabilizes_unstable_pairs(self, rng):
        for _ in range(20):
            A, B, _ = random_controllable_system(rng, 5, 2)
            K0 = stabilizing_gain(A, B)
            assert np.max(np.linalg.eigvals(A - B @ K0).real) < 0.0

    def test_stabilizes_hover_system(self, hover_ss):
        K0 = stabilizing_gain(hover_ss.A, hover_ss.B)
        assert np.max(np.linalg.eigvals(hover_ss.A - hover_ss.B @ K0).real) < 0.0

    def test_uncontrollable_pair_refused(self):
        # the shifted Gramian is singular unless every mode is reached
        with pytest.raises(NotStabilizable, match="needs a controllable"):
            stabilizing_gain(np.eye(2), np.array([[1.0], [0.0]]))


class TestSolveCare:
    def test_scalar_system(self):
        # a=0, b=1, q=r=1: 1 - s^2 = 0, picking the PSD root s=1
        sol = solve_care(np.array([[0.0]]), np.array([[1.0]]),
                         LqrWeights(Q=np.array([[1.0]]), R=np.array([[1.0]])))
        assert sol.S == pytest.approx(np.array([[1.0]]), abs=1e-12)

    def test_double_integrator_closed_form(self):
        A, B = double_integrator()
        weights = LqrWeights(Q=np.eye(2), R=np.array([[1.0]]))
        sol = solve_care(A, B, weights)
        root3 = math.sqrt(3.0)
        assert sol.S == pytest.approx(np.array([[root3, 1.0], [1.0, root3]]), abs=1e-10)
        assert care_residual(A, B, sol.S, weights.Q, weights.R)[0] < 1e-12

    def test_yaw_subsystem_closed_form(self):
        b = 200.0   # 1 / inertia_zz
        A, B = double_integrator(b)
        weights = LqrWeights(Q=np.diag([10.0, 1.0]), R=np.array([[0.001]]))
        sol = solve_care(A, B, weights)
        S_exact, K_exact = chain_care_closed_form(10.0, 1.0, 0.001, b)
        assert sol.S == pytest.approx(S_exact, rel=1e-9)
        K = lqr_gain(A, B, weights)
        assert K[0] == pytest.approx(K_exact, rel=1e-9)
        assert K[0] == pytest.approx([100.0, 31.64], abs=5e-3)

    def test_stock_weights_take_eight_newton_steps(self, hover_ss, default_weights):
        # two per hover block: the Hamiltonian start is inside the
        # quadratic phase, and one more step follows the tolerance
        assert solve_care(hover_ss.A, hover_ss.B, default_weights).iterations == 8

    def test_residual_below_tolerance(self, hover_ss, default_weights):
        sol = solve_care(hover_ss.A, hover_ss.B, default_weights)
        tol = 1e-9 * np.linalg.norm(default_weights.Q, "fro")
        assert sol.residual_norm <= tol
        assert care_residual(hover_ss.A, hover_ss.B, sol.S,
                             default_weights.Q, default_weights.R)[0] <= tol
        assert sol.S == pytest.approx(sol.S.T, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(sol.S)) > -1e-10

    def test_random_systems_residual_stability_decay(self, rng):
        horizons = []
        for _ in range(100):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(2, 5))
            A, B, weights = random_controllable_system(rng, n, m)
            sol = solve_care(A, B, weights)
            tol = 1e-9 * np.linalg.norm(weights.Q, "fro")
            assert care_residual(A, B, sol.S, weights.Q, weights.R)[0] <= tol
            K = lqr_gain(A, B, weights)
            closed = A - B @ K
            assert np.max(np.linalg.eigvals(closed).real) < -1e-9
            # matrix-exponential decay oracle over a 10 s horizon
            x0 = rng.normal(size=n)
            x_final = expm(10.0 * closed) @ x0
            horizons.append(np.linalg.norm(x_final) / np.linalg.norm(x0))
        assert max(horizons) < 1e-3

    def test_hamiltonian_cross_check(self, rng, hover_ss, default_weights):
        newton = solve_care(hover_ss.A, hover_ss.B, default_weights)
        hamilton = solve_care(hover_ss.A, hover_ss.B, default_weights,
                              method="hamiltonian")
        scale = np.linalg.norm(newton.S, "fro")
        assert np.linalg.norm(newton.S - hamilton.S, "fro") < 1e-8 * scale
        for _ in range(10):
            A, B, weights = random_controllable_system(rng, 6, 2)
            s_newton = solve_care(A, B, weights).S
            s_hamilton = solve_care(A, B, weights, method="hamiltonian").S
            assert s_hamilton == pytest.approx(s_newton, rel=1e-7, abs=1e-9)

    def test_weight_scaling_leaves_gain_unchanged(self, hover_ss, default_weights):
        K_base = lqr_gain(hover_ss.A, hover_ss.B, default_weights)
        scaled = LqrWeights(Q=37.5 * default_weights.Q, R=37.5 * default_weights.R)
        K_scaled = lqr_gain(hover_ss.A, hover_ss.B, scaled)
        assert K_scaled == pytest.approx(K_base, rel=1e-8)

    def test_raising_yaw_effort_weight_shrinks_yaw_row(self, hover_ss, default_weights):
        K_base = lqr_gain(hover_ss.A, hover_ss.B, default_weights)
        R_heavy = default_weights.R.copy()
        R_heavy[3, 3] *= 10.0
        K_heavy = lqr_gain(hover_ss.A, hover_ss.B,
                           LqrWeights(Q=default_weights.Q, R=R_heavy))
        assert np.linalg.norm(K_heavy[3]) < np.linalg.norm(K_base[3])

    def test_not_stabilizable_rejected(self, hover_ss, default_weights):
        A = np.diag([1.0, 1.0])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(NotStabilizable):
            solve_care(A, B, LqrWeights(Q=np.eye(2), R=np.eye(1)))
        # hover plant without the yaw torque: the psi/r block has no input
        B = hover_ss.B.copy()
        B[:, 3] = 0.0
        with pytest.raises(NotStabilizable):
            solve_care(hover_ss.A, B, default_weights)

    def test_no_convergence_when_iterations_exhausted(self, hover_ss, default_weights,
                                                       monkeypatch):
        # one step from the Hamiltonian start meets the tolerance, so a
        # zero tolerance makes the single step run out
        monkeypatch.setattr(riccati, "MAX_NEWTON_STEPS", 1)
        monkeypatch.setattr(riccati, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(NoConvergence):
            solve_care(hover_ss.A, hover_ss.B, default_weights)

    def test_shifted_start_gives_the_same_gain(self, rng, hover_ss, default_weights,
                                               monkeypatch):
        # a zero Hamiltonian solution gives K0 = 0, which leaves the hover
        # plant's marginal modes unstabilized, so Newton falls back to
        # stabilizing_gain's start
        systems = [(hover_ss.A, hover_ss.B, default_weights)]
        systems += [random_controllable_system(rng, int(rng.integers(2, 13)),
                                               int(rng.integers(2, 5))) for _ in range(20)]
        warm = [lqr_gain(*system) for system in systems]
        shifted_starts = []
        monkeypatch.setattr(riccati, "_solve_care_hamiltonian",
                            lambda A, G, Q: np.zeros(A.shape))
        monkeypatch.setattr(riccati, "stabilizing_gain",
                            lambda A, B: shifted_starts.append(A) or stabilizing_gain(A, B))
        for system, K in zip(systems, warm):
            assert relative_gap(K, lqr_gain(*system)) <= 1e-12
        # K0 = 0 stabilizes a Hurwitz draw, which then needs no fallback
        unstable = sum(np.linalg.eigvals(A).real.max() >= 0.0 for A, _, _ in systems[1:])
        assert len(shifted_starts) == len(HOVER_BLOCKS) + unstable

    def test_overflowed_residual_refused(self, hover_ss, default_weights):
        # the stock weights times 1e100: S stays finite, but its quadratic
        # term overflows, and an inf residual is not under an inf bound
        weights = LqrWeights(Q=default_weights.Q * 1e100, R=default_weights.R)
        with np.errstate(over="ignore", invalid="ignore"):
            for solve in (solve_care, lqr_gain):
                with pytest.raises(NoConvergence, match="overflowed"):
                    solve(hover_ss.A, hover_ss.B, weights)

    def test_zero_state_weight_gives_zero_solution(self, hover_ss):
        weights = LqrWeights(Q=np.zeros((12, 12)), R=np.diag([1.0, 0.001, 0.001, 0.001]))
        sol = solve_care(hover_ss.A, hover_ss.B, weights)
        assert not sol.S.any()
        assert not lqr_gain(hover_ss.A, hover_ss.B, weights).any()

    def test_bad_method_rejected(self, hover_ss, default_weights):
        # refused before the Q = 0 shortcut could answer
        zero_q = LqrWeights(Q=np.zeros((12, 12)), R=default_weights.R)
        for weights in (default_weights, zero_q):
            with pytest.raises(ValueError, match="method"):
                solve_care(hover_ss.A, hover_ss.B, weights, method="qz")

    def test_one_dimensional_input_matrix_rejected(self):
        # B is one column per input; a bare vector is refused, not reshaped
        weights = LqrWeights(Q=np.eye(1), R=np.eye(1))
        for solve in (solve_care, lqr_gain):
            with pytest.raises(ValueError, match="incompatible shapes"):
                solve(np.array([[1.0]]), np.array([1.0]), weights)


def hamiltonian_gain(A, B, weights):
    S = solve_care(A, B, weights, method="hamiltonian").S
    return np.linalg.solve(weights.R, B.T @ S)


def relative_gap(K, K_ref):
    return np.linalg.norm(K - K_ref) / np.linalg.norm(K_ref)


decades = st.floats(-1.0, 1.0)


class TestBlockSolve:
    """The Newton path splits the hover plant into its decoupled blocks;
    the Hamiltonian path always solves the whole system and is the oracle."""

    def test_hover_blocks_found(self, hover_ss, default_weights):
        blocks = _decoupled_blocks(hover_ss.A, hover_ss.B, default_weights)
        found = sorted((tuple(states), tuple(inputs)) for states, inputs in blocks)
        assert found == sorted((states, (u,)) for states, u in HOVER_BLOCKS)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(mass=st.floats(0.5, 2.0),
           inertia_scales=st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3),
           q_exponents=st.lists(decades, min_size=12, max_size=12),
           r_exponents=st.lists(decades, min_size=4, max_size=4))
    def test_block_gain_matches_hamiltonian(self, mass, inertia_scales,
                                            q_exponents, r_exponents):
        stock = QuadrotorParams()
        ss = hover_jacobians(QuadrotorParams(
            mass=mass,
            inertia_xx=stock.inertia_xx * inertia_scales[0],
            inertia_yy=stock.inertia_yy * inertia_scales[1],
            inertia_zz=stock.inertia_zz * inertia_scales[2]))
        weights = LqrWeights.from_diagonals(
            [q * 10.0 ** e for q, e in zip(DEFAULT_Q_DIAGONAL, q_exponents)],
            [r * 10.0 ** e for r, e in zip(DEFAULT_R_DIAGONAL, r_exponents)])
        tol = 1e-9 * np.linalg.norm(weights.Q, "fro")
        sol = solve_care(ss.A, ss.B, weights)
        assert sol.residual_norm <= tol
        assert care_residual(ss.A, ss.B, sol.S, weights.Q, weights.R)[0] <= tol
        K = lqr_gain(ss.A, ss.B, weights)
        assert relative_gap(K, hamiltonian_gain(ss.A, ss.B, weights)) <= 1e-8
        for states, u in HOVER_BLOCKS:
            outside = np.setdiff1d(np.arange(12), states)
            assert np.all(K[u, outside] == 0.0)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(q_exponents=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
           r_exponents=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    def test_residual_bound_and_its_block_split(self, hover_ss, q_exponents, r_exponents):
        A, B = hover_ss.A, hover_ss.B
        weights = LqrWeights.from_diagonals(
            [q * 10.0 ** e for q, e in zip(DEFAULT_Q_DIAGONAL, q_exponents)],
            [r * 10.0 ** e for r, e in zip(DEFAULT_R_DIAGONAL, r_exponents)])
        S = solve_care(A, B, weights).S
        residual, bound = care_residual(A, B, S, weights.Q, weights.R)
        terms = (weights.Q, A.T @ S + S @ A, S @ B @ np.linalg.inv(weights.R) @ B.T @ S)
        frobenius = sum(math.sqrt(np.sum(T * T)) for T in terms)
        assert bound == pytest.approx(riccati.RESIDUAL_RTOL * frobenius, rel=1e-12)
        assert residual <= bound
        # a block-diagonal residual is the root-sum-square of the blocks'
        # residuals, so blocks within their own bounds put the whole within
        # its bound when the blocks' bounds have a root-sum-square within
        # it, as Minkowski's inequality gives.  Their plain sum exceeds it.
        # The factor allows for the norms' rounding.
        block_bounds = [
            care_residual(A[np.ix_(states, states)], B[np.ix_(states, [u])],
                          S[np.ix_(states, states)], weights.Q[np.ix_(states, states)],
                          weights.R[np.ix_([u], [u])])[1]
            for states, u in HOVER_BLOCKS]
        assert math.hypot(*block_bounds) <= bound * (1.0 + 1e-12)

    def test_coupling_weight_merges_blocks(self, hover_ss, default_weights):
        # a z-psi cross weight joins the altitude and yaw blocks
        Q = default_weights.Q.copy()
        Q[2, 5] = Q[5, 2] = 0.5
        weights = LqrWeights(Q=Q, R=default_weights.R)
        assert len(_decoupled_blocks(hover_ss.A, hover_ss.B, weights)) == 3
        K = lqr_gain(hover_ss.A, hover_ss.B, weights)
        assert relative_gap(K, hamiltonian_gain(hover_ss.A, hover_ss.B, weights)) <= 1e-8
        assert K[0, 5] != 0.0 and K[3, 2] != 0.0
        roll_states, roll_input = HOVER_BLOCKS[1]
        assert not K[roll_input, np.setdiff1d(np.arange(12), roll_states)].any()

    def test_unweighted_block_keeps_zero_solution(self, hover_ss, default_weights):
        # no weight on psi or r: S = 0 on the yaw block would leave its
        # marginal modes unstabilized, so solve_care refuses it by name
        Q = default_weights.Q.copy()
        Q[5, 5] = Q[11, 11] = 0.0
        weights = LqrWeights(Q=Q, R=default_weights.R)
        with pytest.raises(NoConvergence, match="not detectable.* on psi, r$"):
            solve_care(hover_ss.A, hover_ss.B, weights)
        with pytest.raises(NoConvergence):
            lqr_gain(hover_ss.A, hover_ss.B, weights)

    def test_undetectable_weights_refused(self, hover_ss, default_weights):
        # psi weighted only through r: the heading drift mode (eigenvalue
        # 0) is unseen by Q, so the optimal policy would not remove it
        Q = default_weights.Q.copy()
        Q[5, 5] = 0.0
        with pytest.raises(NoConvergence, match="not detectable.* on psi$"):
            lqr_gain(hover_ss.A, hover_ss.B, LqrWeights(Q=Q, R=default_weights.R))

    def test_detectability_needs_only_unstable_modes_seen(self):
        B, R = np.eye(2), np.eye(2)
        Q = np.diag([0.0, 1.0])
        # an unweighted stable mode is fine and gets no feedback
        K = lqr_gain(np.diag([-1.0, 0.0]), B, LqrWeights(Q=Q, R=R))
        assert K[0, 0] == 0.0 and K[1, 1] == pytest.approx(1.0, rel=1e-9)
        # an unweighted unstable mode is refused, named by its index
        with pytest.raises(NoConvergence, match="on state 0$"):
            lqr_gain(np.diag([1.0, 0.0]), B, LqrWeights(Q=Q, R=R))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(mask=st.one_of(st.integers(1, 2 ** 12 - 1),
                          # x, y, z and psi weighted: detectable for every
                          # choice of the other eight
                          st.integers(0, 2 ** 12 - 1).map(lambda mask: mask | 0b100111)))
    def test_refused_exactly_when_undetectable(self, hover_ss, mask):
        weights = LqrWeights.from_diagonals([float(mask >> i & 1) for i in range(12)],
                                            DEFAULT_R_DIAGONAL)
        if _unreached_states(hover_ss.A.T, weights.Q).size:
            with pytest.raises(NoConvergence, match="not detectable"):
                solve_care(hover_ss.A, hover_ss.B, weights)
            return
        S = solve_care(hover_ss.A, hover_ss.B, weights).S
        K = np.linalg.solve(weights.R, hover_ss.B.T @ S)
        assert np.linalg.eigvals(hover_ss.A - hover_ss.B @ K).real.max() < 0.0
        for states, u in HOVER_BLOCKS:
            outside = np.setdiff1d(np.arange(12), states)
            assert np.all(K[u, outside] == 0.0)

    def test_undetectable_states_match_schur_on_hover_masks(self, hover_ss):
        # every nonzero diagonal 0/1 weight on the 12 hover states
        for mask in range(1, 2 ** 12):
            Q = np.diag([float(mask >> i & 1) for i in range(12)])
            assert np.array_equal(_unreached_states(hover_ss.A.T, Q),
                                  schur_undetectable_states(hover_ss.A, Q)), mask

    def test_undetectable_states_match_schur_on_seeded_systems(self):
        rng = np.random.default_rng(12)
        named = set()
        for _ in range(300):
            A, Q = partly_unobservable_system(rng)
            unseen = _unreached_states(A.T, Q)
            assert np.array_equal(unseen, schur_undetectable_states(A, Q))
            named.add(0 < unseen.size < A.shape[0])
        # some draws name a strict, nonempty subset of the states
        assert named == {False, True}

    def test_connected_graph_solved_whole(self):
        # two double integrators tied by one off-diagonal state weight
        A = block_diag(double_integrator()[0], double_integrator()[0])
        B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        Q = np.eye(4)
        Q[0, 2] = Q[2, 0] = 0.3
        weights = LqrWeights(Q=Q, R=np.eye(2))
        [(states, inputs)] = _decoupled_blocks(A, B, weights)
        assert list(states) == [0, 1, 2, 3] and list(inputs) == [0, 1]
        sol = solve_care(A, B, weights)
        assert sol.residual_norm <= 1e-9 * np.linalg.norm(Q, "fro")
        K = lqr_gain(A, B, weights)
        assert relative_gap(K, hamiltonian_gain(A, B, weights)) <= 1e-8
        assert K[0, 2] != 0.0


class TestExistenceConditions:
    """A stabilizing solution exists exactly when (A, Q) is detectable and
    (A, B) stabilizable (Kucera 1972): solve_care tests these, not
    controllability."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(gravity=st.floats(-12.0, 12.0), mass=st.floats(-3.0, 3.0),
           inertias=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_hover_chains_give_closed_form_at_any_scale(self, gravity, mass, inertias):
        # the draws are decimal exponents.  Every hover block is a chain of
        # integrators, controllable for any g > 0, whose first-state gain
        # is +-sqrt(q/r) however the chain is scaled
        ss = hover_jacobians(QuadrotorParams(
            mass=10.0 ** mass, inertia_xx=10.0 ** inertias[0],
            inertia_yy=10.0 ** inertias[1], inertia_zz=10.0 ** inertias[2],
            gravity=10.0 ** gravity))
        K = lqr_gain(ss.A, ss.B, LqrWeights.from_diagonals(DEFAULT_Q_DIAGONAL,
                                                           DEFAULT_R_DIAGONAL))
        q, r = DEFAULT_Q_DIAGONAL, DEFAULT_R_DIAGONAL
        for u, state, sign in ((0, 2, 1.0), (1, 1, -1.0), (2, 0, 1.0), (3, 5, 1.0)):
            assert K[u, state] == pytest.approx(sign * math.sqrt(q[state] / r[u]), rel=1e-9)

    def test_stabilizable_uncontrollable_pair_solved(self):
        # B does not reach the mode at -1, which is stable
        A = np.array([[-1.0, 0.0], [1.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        K = lqr_gain(A, B, LqrWeights(Q=np.eye(2), R=np.eye(1)))
        assert K == pytest.approx(np.array([[1.0, 1.0 + math.sqrt(2.0)]]), rel=1e-12)
        K_ref = B.T @ solve_continuous_are(A, B, np.eye(2), np.eye(1))
        assert K == pytest.approx(K_ref, rel=1e-9)

    def test_block_without_inputs(self):
        # state 0 is a block of its own, weighted, with no input
        B = np.array([[0.0], [1.0]])
        weights = LqrWeights(Q=np.eye(2), R=np.eye(1))
        S = solve_care(np.diag([-1.0, 1.0]), B, weights).S
        assert S == pytest.approx(np.diag([0.5, 1.0 + math.sqrt(2.0)]), rel=1e-12)
        S_ref = solve_continuous_are(np.diag([-1.0, 1.0]), B, np.eye(2), np.eye(1))
        assert S == pytest.approx(S_ref, rel=1e-9)
        # unstable, it is refused by name
        with pytest.raises(NotStabilizable,
                           match="not stabilizable: B does not reach .* on state 0$"):
            solve_care(np.diag([1.0, 1.0]), B, weights)


class TestLqrWeights:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            LqrWeights(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1))

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError, match="semidefinite"):
            LqrWeights(Q=np.diag([1.0, -0.1]), R=np.eye(1))

    def test_rejects_singular_r(self):
        with pytest.raises(ValueError, match="positive definite"):
            LqrWeights(Q=np.eye(2), R=np.zeros((1, 1)))

    def test_rejects_non_finite_weights(self):
        # an infinite entry would give eigvalsh NaN, which passes both
        # eigenvalue checks; a NaN one would be called asymmetric
        for Q, R, name in ((np.diag([np.inf, 1.0]), np.eye(1), "Q"),
                           (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(1), "Q"),
                           (np.eye(2), np.array([[np.nan]]), "R")):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                LqrWeights(Q=Q, R=R)

    def test_weights_are_read_only_copies(self):
        Q, R = np.eye(2), np.eye(1)
        w = LqrWeights(Q=Q, R=R)
        for M in (w.Q, w.R):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = -5.0
        Q[0, 0] = R[0, 0] = -5.0
        assert w.Q[0, 0] == w.R[0, 0] == 1.0

    def test_blocks_are_not_validated_again(self, hover_ss, default_weights, monkeypatch):
        # a principal block of a checked Q or R passes the same checks, so
        # the solver builds no LqrWeights of its own
        built = []
        post_init = LqrWeights.__post_init__
        monkeypatch.setattr(LqrWeights, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        lqr_gain(hover_ss.A, hover_ss.B, default_weights)
        assert len(built) == 0

    def test_near_symmetric_weights_reach_the_solver(self):
        # within the tolerance of the largest entry, 1e-4, but not within
        # that of the 2x2 block {1, 2} the solver cuts out
        Q = np.array([[1e6, 0.0, 0.0], [0.0, 1.0, 2e-5], [0.0, 0.0, 1.0]])
        w = LqrWeights(Q=Q, R=np.eye(3))
        assert np.array_equal(w.Q, w.Q.T)
        assert np.array_equal(w.Q, 0.5 * (Q + Q.T))
        A, B = -np.eye(3), np.eye(3)
        sol = solve_care(A, B, w)
        assert care_residual(A, B, sol.S, w.Q, w.R)[0] <= 1e-9 * np.linalg.norm(Q)
        K = lqr_gain(A, B, w)
        assert np.linalg.eigvals(A - B @ K).real.max() < 0.0

    def test_from_diagonals(self):
        w = LqrWeights.from_diagonals([1.0, 2.0], [3.0])
        assert np.array_equal(w.Q, np.diag([1.0, 2.0]))
        assert np.array_equal(w.R, np.array([[3.0]]))


class TestFeedbackControl:
    """The law u = u_eq - K (x - x_ref) of ``LqrController``."""

    def test_at_reference_outputs_equilibrium(self, params, default_gain, rng):
        # the law has no second home beside the controller
        assert not any(hasattr(module, "feedback_control") for module in (quadctrl, riccati))
        references = Setpoints(*rng.normal(size=4).tolist())
        controller = LqrController(default_gain, params)
        controller.reset(references, 0.001)
        u = controller.control(references.reference_state().tolist())
        assert u == pytest.approx(hover_equilibrium(params)[1], abs=1e-12)

    def test_zero_gain_passes_equilibrium_through(self, params, rng):
        controller = LqrController(np.zeros((4, 12)), params)
        controller.reset(Setpoints(), 0.001)
        u = controller.control(rng.normal(size=12).tolist())
        assert np.array_equal(u, hover_equilibrium(params)[1])

    def test_altitude_error_raises_thrust(self, params, default_gain):
        controller = LqrController(default_gain, params)
        controller.reset(Setpoints(z_ref=1.0), 0.001)
        u = controller.control([0.0] * 12)
        u_eq = hover_equilibrium(params)[1]
        assert u[0] - u_eq[0] == pytest.approx(default_gain[0, 2], rel=1e-12)
        assert u[0] - u_eq[0] == pytest.approx(1.3077, abs=2e-4)
