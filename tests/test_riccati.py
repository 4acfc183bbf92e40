"""Tests for the Riccati solver, LQR gains and the quadratic cost.

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
from scipy.linalg import block_diag, expm, qr

from quadctrl import (
    DEFAULT_Q_DIAGONAL,
    DEFAULT_R_DIAGONAL,
    LqrWeights,
    NoConvergence,
    NotStabilizable,
    QuadrotorParams,
    evaluate_cost,
    feedback_control,
    hover_jacobians,
    lqr_gain,
    solve_care,
    solve_lyapunov,
)
from quadctrl.riccati import (
    GridMismatch,
    _decoupled_blocks,
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
        assert care_residual(A, B, sol.S, weights) < 1e-12

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

    def test_residual_below_tolerance(self, hover_ss, default_weights):
        sol = solve_care(hover_ss.A, hover_ss.B, default_weights)
        tol = 1e-9 * np.linalg.norm(default_weights.Q, "fro")
        assert sol.residual_norm <= tol
        assert care_residual(hover_ss.A, hover_ss.B, sol.S, default_weights) <= tol
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
            assert care_residual(A, B, sol.S, weights) <= tol
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

    def test_no_convergence_when_iterations_exhausted(self, hover_ss, default_weights):
        with pytest.raises(NoConvergence):
            solve_care(hover_ss.A, hover_ss.B, default_weights, max_iter=1)

    def test_zero_state_weight_gives_zero_solution(self, hover_ss):
        weights = LqrWeights(Q=np.zeros((12, 12)), R=np.diag([1.0, 0.001, 0.001, 0.001]))
        sol = solve_care(hover_ss.A, hover_ss.B, weights)
        assert not sol.S.any()
        assert not lqr_gain(hover_ss.A, hover_ss.B, weights).any()

    def test_bad_method_rejected(self, hover_ss, default_weights):
        with pytest.raises(ValueError, match="method"):
            solve_care(hover_ss.A, hover_ss.B, default_weights, method="qz")


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
        assert care_residual(ss.A, ss.B, sol.S, weights) <= tol
        K = lqr_gain(ss.A, ss.B, weights)
        assert relative_gap(K, hamiltonian_gain(ss.A, ss.B, weights)) <= 1e-8
        for states, u in HOVER_BLOCKS:
            outside = np.setdiff1d(np.arange(12), states)
            assert np.all(K[u, outside] == 0.0)

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
        # no weight on psi or r: the yaw block keeps S = 0, so the gain
        # leaves its marginal modes unstabilized and is refused
        Q = default_weights.Q.copy()
        Q[5, 5] = Q[11, 11] = 0.0
        weights = LqrWeights(Q=Q, R=default_weights.R)
        S = solve_care(hover_ss.A, hover_ss.B, weights).S
        assert not S[[5, 11]].any()
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

    def test_from_diagonals(self):
        w = LqrWeights.from_diagonals([1.0, 2.0], [3.0])
        assert np.array_equal(w.Q, np.diag([1.0, 2.0]))
        assert np.array_equal(w.R, np.array([[3.0]]))


class TestFeedbackControl:
    def test_at_reference_outputs_equilibrium(self, default_gain, rng):
        state = rng.normal(size=12)
        u_eq = np.array([9.81, 0.0, 0.0, 0.0])
        u = feedback_control(default_gain, state, state, u_eq)
        assert u == pytest.approx(u_eq, abs=1e-12)

    def test_zero_gain_passes_equilibrium_through(self, rng):
        u_eq = np.array([9.81, 0.0, 0.0, 0.0])
        u = feedback_control(np.zeros((4, 12)), rng.normal(size=12), np.zeros(12), u_eq)
        assert np.array_equal(u, u_eq)

    def test_altitude_error_raises_thrust(self, default_gain):
        state = np.zeros(12)
        reference = np.zeros(12)
        reference[2] = 1.0
        u = feedback_control(default_gain, state, reference,
                             np.array([9.81, 0.0, 0.0, 0.0]))
        assert u[0] - 9.81 == pytest.approx(default_gain[0, 2], rel=1e-12)
        assert u[0] - 9.81 == pytest.approx(1.3077, abs=2e-4)


class TestEvaluateCost:
    def test_zero_trajectory_costs_nothing(self):
        times = np.linspace(0.0, 1.0, 101)
        weights = LqrWeights(Q=np.eye(2), R=np.eye(1))
        cost = evaluate_cost(times, np.zeros((101, 2)), np.zeros((101, 1)), weights)
        assert cost == 0.0

    def test_constant_unit_state(self):
        times = np.linspace(0.0, 2.0, 2001)
        weights = LqrWeights(Q=np.eye(1), R=np.eye(1))
        cost = evaluate_cost(times, np.ones((2001, 1)), np.zeros((2001, 1)), weights)
        assert cost == pytest.approx(2.0, rel=1e-12)

    def test_decaying_state_matches_analytic_integral(self):
        dt = 0.001
        times = np.arange(0.0, 10.0 + dt / 2, dt)
        states = np.exp(-times)[:, None]
        weights = LqrWeights(Q=np.eye(1), R=np.eye(1))
        cost = evaluate_cost(times, states, np.zeros_like(states), weights)
        assert cost == pytest.approx((1.0 - math.exp(-20.0)) / 2.0, abs=1e-4)

    def test_reference_shifts_deviation(self):
        times = np.linspace(0.0, 1.0, 101)
        states = np.ones((101, 1))
        weights = LqrWeights(Q=np.eye(1), R=np.eye(1))
        cost = evaluate_cost(times, states, np.zeros((101, 1)), weights,
                             reference=np.array([1.0]))
        assert cost == 0.0

    def test_grid_mismatch_rejected(self):
        times = np.linspace(0.0, 1.0, 11)
        weights = LqrWeights(Q=np.eye(1), R=np.eye(1))
        with pytest.raises(GridMismatch):
            evaluate_cost(times, np.zeros((11, 1)), np.zeros((10, 1)), weights)
