"""Tests for the hover linearization and its finite-difference oracle."""

import numpy as np
import pytest

from quadctrl import QuadrotorParams, hover_jacobians, numeric_jacobians
from quadctrl.linearize import controllability_matrix, is_controllable


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

    def test_rejects_bad_eps(self, params):
        with pytest.raises(ValueError, match="eps"):
            numeric_jacobians(params, eps=0.0)


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
