"""Tests for the hover linearization and its finite-difference oracle."""

import numpy as np
import pytest
from scipy.linalg import expm

from quadctrl import (
    QuadrotorParams,
    hover_equilibrium,
    hover_jacobians,
    numeric_jacobians,
    rk4_step,
)
from quadctrl.linearize import controllability_matrix, is_controllable, zoh
from quadctrl.model import Z, ZDOT


def random_params(rng):
    """Vehicle constants jittered within +/-50% of the defaults."""
    base = QuadrotorParams()
    scale = lambda v: v * rng.uniform(0.5, 1.5)
    return QuadrotorParams(
        mass=scale(base.mass),
        inertia_xx=scale(base.inertia_xx),
        inertia_yy=scale(base.inertia_yy),
        inertia_zz=scale(base.inertia_zz),
    )


class TestHoverJacobians:
    def test_roll_torque_entry(self, hover_ss):
        assert hover_ss.B[9, 1] == pytest.approx(1.0 / 0.0035, rel=1e-12)
        assert hover_ss.B[9, 1] == pytest.approx(285.714, abs=1e-3)

    def test_pitch_gravity_coupling(self, hover_ss):
        assert hover_ss.A[6, 4] == 9.81
        assert hover_ss.A[7, 3] == -9.81

    def test_velocity_identity_rows(self, hover_ss):
        for i in range(6):
            assert hover_ss.A[i, i + 6] == 1.0

    def test_sparsity(self, hover_ss):
        # exactly 6 identity couplings + 2 gravity entries in A, 4 in B
        assert np.count_nonzero(hover_ss.A) == 8
        assert np.count_nonzero(hover_ss.B) == 4


class TestNumericJacobians:
    def test_matches_analytic_at_hover(self, params, hover_ss):
        A_fd, B_fd = numeric_jacobians(params)
        assert np.max(np.abs(A_fd - hover_ss.A)) < 1e-5
        assert np.max(np.abs(B_fd - hover_ss.B)) < 1e-5

    def test_matches_for_randomized_params(self, rng):
        for _ in range(20):
            p = random_params(rng)
            ss = hover_jacobians(p)
            A_fd, B_fd = numeric_jacobians(p)
            assert np.max(np.abs(A_fd - ss.A)) < 1e-5
            assert np.max(np.abs(B_fd - ss.B)) < 1e-5

    def test_thrust_column_single_entry(self, params):
        _, B_fd = numeric_jacobians(params)
        column = B_fd[:, 0].copy()
        assert column[8] == pytest.approx(1.0 / params.mass, abs=1e-5)
        column[8] = 0.0
        assert np.max(np.abs(column)) < 1e-8

    def test_heading_column_vanishes_at_hover(self, params):
        # at level attitude the thrust projection does not depend on psi
        A_fd, _ = numeric_jacobians(params)
        assert np.max(np.abs(A_fd[:, 5])) < 1e-8


class TestControllability:
    def test_hover_pair_is_controllable(self, hover_ss):
        ctrb = controllability_matrix(hover_ss.A, hover_ss.B)
        assert ctrb.shape == (12, 48)
        assert is_controllable(hover_ss.A, hover_ss.B)

    def test_controllable_for_randomized_params(self, rng):
        for _ in range(10):
            ss = hover_jacobians(random_params(rng))
            assert is_controllable(ss.A, ss.B)

    def test_detects_uncontrollable_pair(self):
        A = np.diag([1.0, 2.0])
        B = np.array([[1.0], [0.0]])
        assert not is_controllable(A, B)

    @pytest.mark.parametrize("gravity", [1e-10, 1e10, 1e12])
    def test_rank_is_numpys_matrix_rank(self, gravity):
        # the hover pair's singular values spread with g; the rank counts
        # them by numpy's rule, which keeps 12 at 1e-10 and 1e10, 10 at 1e12
        ss = hover_jacobians(QuadrotorParams(gravity=gravity))
        rank = np.linalg.matrix_rank(controllability_matrix(ss.A, ss.B))
        assert is_controllable(ss.A, ss.B) == (rank == 12)

    def test_overflowing_rank_cutoff_refused(self):
        # sigma_max * max(shape) overflows at sigma_max = 1e308: a rank of 0
        # would call the pair uncontrollable
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(OverflowError, match="controllability matrix overflowed"):
            is_controllable(A, np.array([[0.0], [1e308]]))


def van_loan_expm(A, B, dt):
    """(Phi, Gamma) from scipy's expm of the Van Loan block."""
    n, m = B.shape
    block = np.zeros((n + m, n + m))
    block[:n, :n] = A * dt
    block[:n, n:] = B * dt
    exact = expm(block)
    return exact[:n, :n], exact[:n, n:]


class TestZoh:
    @pytest.mark.parametrize("dt", [5e-5, 1e-3, 1e-2])
    def test_matches_expm_of_van_loan_block(self, hover_ss, rng, dt):
        systems = [hover_ss] + [hover_jacobians(random_params(rng)) for _ in range(5)]
        for ss in systems:
            Phi, Gamma = zoh(ss.A, ss.B, dt)
            Phi_ref, Gamma_ref = van_loan_expm(ss.A, ss.B, dt)
            np.testing.assert_allclose(Phi, Phi_ref, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(Gamma, Gamma_ref, rtol=0.0, atol=1e-15)

    def test_one_step_equals_rk4_on_linear_derivative(self, rng):
        # A^4 = 0 and u is held, so one RK4 step is the exact map
        for _ in range(5):
            params = random_params(rng)
            ss = hover_jacobians(params)
            assert not np.linalg.matrix_power(ss.A, 4).any()
            _, u_eq = hover_equilibrium(params)

            def derivative(s, u):
                return (ss.A @ np.asarray(s) + ss.B @ (np.asarray(u) - u_eq)).tolist()

            dt = rng.choice([5e-5, 1e-3, 1e-2])
            Phi, Gamma = zoh(ss.A, ss.B, dt)
            for _ in range(10):
                state = rng.normal(scale=2.0, size=12)
                u = u_eq + rng.normal(scale=5.0, size=4)
                expected = np.array(rk4_step(derivative, state.tolist(), u.tolist(), dt))
                step = Phi @ state + Gamma @ (u - u_eq)
                np.testing.assert_allclose(step, expected, rtol=1e-12,
                                           atol=1e-12 * np.abs(expected).max())

    def test_refuses_non_nilpotent_a(self, hover_ss):
        A = hover_ss.A.copy()
        A[ZDOT, Z] = -1.0   # a spring on altitude: z oscillates, A^k never vanishes
        with pytest.raises(ValueError, match="not nilpotent"):
            zoh(A, hover_ss.B, 1e-3)

    def test_refuses_overflowing_dt(self, hover_ss):
        # the M^4/4! term of the hover block overflows to inf; the terms
        # after it are NaN (inf * 0), never exactly zero, so the sum is
        # refused as an overflow rather than as a non-nilpotent A
        with pytest.raises(ValueError, match=r"overflows at dt=1e\+77$"):
            zoh(hover_ss.A, hover_ss.B, 1e77)


class TestSampledLoopRadius:
    """Spectral radius of Phi - Gamma K for the stock gain.

    These are the figures the README's numerical notes and the
    acceptance suite's STIFF_DT quote (27.8, 1.86 and 0.99995).
    """

    @pytest.mark.parametrize("dt, radius, tol", [
        (1e-3, 27.795, 5e-4),
        (1e-4, 1.8594, 5e-5),
        (5e-5, 0.999946, 5e-7),
    ])
    def test_stock_gain(self, hover_ss, default_gain, dt, radius, tol):
        Phi, Gamma = zoh(hover_ss.A, hover_ss.B, dt)
        rho = np.max(np.abs(np.linalg.eigvals(Phi - Gamma @ default_gain)))
        assert rho == pytest.approx(radius, abs=tol)
