"""Tests for the nonlinear rigid-body model."""

import math

import numpy as np
import pytest

from quadctrl import QuadrotorParams, dynamics, hover_equilibrium
from quadctrl.model import (
    PHI,
    PSI,
    THETA,
    normalize_state,
    stepper,
    wrap_angle,
)


class TestQuadrotorParams:
    def test_defaults(self, params):
        assert params.mass == 1.0
        assert params.inertia_xx == 0.0035
        assert params.inertia_yy == 0.0035
        assert params.inertia_zz == 0.005
        assert params.gravity == 9.81

    @pytest.mark.parametrize("field", [
        "mass", "inertia_xx", "inertia_yy", "inertia_zz", "gravity",
    ])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            QuadrotorParams(**{field: -1.0})
        with pytest.raises(ValueError, match=field):
            QuadrotorParams(**{field: 0.0})


class TestDynamics:
    def test_hover_is_fixed_point(self, params):
        state, u = hover_equilibrium(params)
        deriv = dynamics(state, u, params)
        assert np.linalg.norm(deriv) < 1e-12

    def test_free_fall_acceleration(self, params):
        deriv = dynamics(np.zeros(12), np.zeros(4), params)
        expected = np.zeros(12)
        expected[8] = -9.81
        assert np.array_equal(deriv, expected)

    def test_pitch_tilts_thrust_forward(self, params):
        state = np.zeros(12)
        state[THETA] = 0.1
        deriv = dynamics(state, np.array([9.81, 0.0, 0.0, 0.0]), params)
        assert deriv[6] == pytest.approx(math.sin(0.1) * 9.81, rel=1e-12)
        assert deriv[6] == pytest.approx(0.97937, abs=5e-6)

    def test_vertical_acceleration_exact_at_level_attitude(self, params, rng):
        # with phi = theta = 0 the thrust projection degenerates to u1/m - g
        for _ in range(20):
            state = rng.normal(size=12)
            state[PHI] = 0.0
            state[THETA] = 0.0
            u1 = rng.uniform(0.0, 30.0)
            deriv = dynamics(state, np.array([u1, 0.0, 0.0, 0.0]), params)
            assert deriv[8] == u1 / params.mass - params.gravity

    def test_rates_depend_only_on_rates_and_torques(self, params, rng):
        # only the body rates and torques enter pdot/qdot/rdot
        u = np.array([5.0, 0.02, -0.01, 0.005])
        base = rng.normal(size=12)
        ref = dynamics(base, u, params)[9:12]
        for idx in range(9):
            bumped = base.copy()
            bumped[idx] += rng.normal()
            if idx in (3, 4):
                bumped[idx] = np.clip(bumped[idx], -1.2, 1.2)
            assert dynamics(bumped, u, params)[9:12] == pytest.approx(ref, rel=1e-12)


class TestHoverEquilibrium:
    def test_hover_thrust_balances_gravity(self, params):
        _, u = hover_equilibrium(params)
        assert u == pytest.approx([9.81, 0.0, 0.0, 0.0], abs=1e-15)

    def test_thrust_linear_in_mass(self):
        _, u = hover_equilibrium(QuadrotorParams(mass=2.0))
        assert u[0] == pytest.approx(19.62, rel=1e-12)


class TestAngles:
    def test_wrap_angle_range(self):
        assert wrap_angle(math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)
        assert wrap_angle(0.3) == pytest.approx(0.3)

    def test_heading_error_kept_in_range_and_wrapped_outside(self):
        # (a + pi) % 2pi - pi would round 0.1 and flush 1e-20 to zero
        for error in (0.1, 1e-20, -math.pi, math.nextafter(math.pi, 0.0), -3.0):
            assert wrap_angle(error) == error
        assert wrap_angle(math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(3.1 - (-3.1)) == pytest.approx(6.2 - 2.0 * math.pi)
        assert wrap_angle(-3.5) == pytest.approx(2.0 * math.pi - 3.5)

    def test_step_keeps_tiny_in_range_angles(self, params):
        # from hover with p = r = 0, phi and psi do not move, so the
        # per-step wrap must hand them back bit for bit
        state, u = hover_equilibrium(params)
        state = state.tolist()
        state[PHI], state[PSI] = 1e-20, -3e-17
        out = stepper(params, 1e-3)(state, u.tolist())
        assert out[PHI] == 1e-20 and out[PSI] == -3e-17

    def test_normalize_state_wraps_phi_psi_only(self):
        state = np.zeros(12)
        state[PHI] = 2.0 * math.pi + 0.25
        state[PSI] = -2.0 * math.pi - 0.5
        state[THETA] = 1.4
        out = normalize_state(state)
        assert out[PHI] == pytest.approx(0.25)
        assert out[PSI] == pytest.approx(-0.5)
        assert out[THETA] == 1.4
        assert not np.shares_memory(out, state)
