"""Tests for the nonlinear rigid-body model and rotor mixing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadctrl import (
    InfeasibleMix,
    QuadrotorParams,
    dynamics,
    hover_equilibrium,
    rotor_mix,
    rotor_unmix,
)
from quadctrl.model import PHI, PSI, THETA, normalize_state, wrap_angle


class TestQuadrotorParams:
    def test_defaults(self, params):
        assert params.mass == 1.0
        assert params.arm_length == 0.225
        assert params.thrust_factor == 9.8e-6
        assert params.drag_factor == 1.6e-7
        assert params.inertia_xx == 0.0035
        assert params.inertia_yy == 0.0035
        assert params.inertia_zz == 0.005
        assert params.gravity == 9.81

    @pytest.mark.parametrize("field", [
        "mass", "arm_length", "thrust_factor", "drag_factor",
        "inertia_xx", "inertia_yy", "inertia_zz", "gravity",
    ])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            QuadrotorParams(**{field: -1.0})
        with pytest.raises(ValueError, match=field):
            QuadrotorParams(**{field: 0.0})


class TestRotorMix:
    def test_zero_speeds_give_zero_input(self, params):
        assert np.array_equal(rotor_mix(np.zeros(4), params), np.zeros(4))

    def test_equal_speeds_give_pure_thrust(self, params):
        u = rotor_mix(np.full(4, 500.0), params)
        # kf * 4 * 500^2 = 9.8e-6 * 1e6
        assert u[0] == pytest.approx(9.8, abs=1e-12)
        assert u[1] == u[2] == u[3] == 0.0

    def test_roll_torque_from_rotor_four(self, params):
        u = rotor_mix(np.array([500.0, 500.0, 500.0, 510.0]), params)
        expected = 0.225 * 9.8e-6 * (510.0**2 - 500.0**2)
        assert u[1] == pytest.approx(expected, rel=1e-12)
        assert u[1] == pytest.approx(0.0222705, abs=1e-7)

    def test_thrust_invariant_under_rotor_permutation(self, params, rng):
        from itertools import permutations
        omega = rng.uniform(0.0, 800.0, size=4)
        u1 = rotor_mix(omega, params)[0]
        for perm in permutations(range(4)):
            assert rotor_mix(omega[list(perm)], params)[0] == pytest.approx(u1, rel=1e-12)

    def test_rejects_negative_speed(self, params):
        with pytest.raises(ValueError):
            rotor_mix(np.array([-1.0, 0.0, 0.0, 0.0]), params)


class TestRotorUnmix:
    def test_pure_thrust_round_trip(self, params):
        omega = rotor_unmix(np.array([9.8, 0.0, 0.0, 0.0]), params)
        assert omega == pytest.approx(np.full(4, 500.0), rel=1e-12)

    def test_zero_input(self, params):
        assert np.array_equal(rotor_unmix(np.zeros(4), params), np.zeros(4))

    def test_torque_without_thrust_is_infeasible(self, params):
        with pytest.raises(InfeasibleMix):
            rotor_unmix(np.array([0.0, 1.0, 0.0, 0.0]), params)

    def test_mix_unmix_round_trip(self, params, rng):
        for _ in range(50):
            omega = rng.uniform(50.0, 900.0, size=4)
            u = rotor_mix(omega, params)
            u_back = rotor_mix(rotor_unmix(u, params), params)
            assert u_back == pytest.approx(u, rel=1e-9)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(0.0, 2000.0), min_size=4, max_size=4))
    def test_round_trip_recovers_squared_speeds(self, params, speeds):
        omega = np.array(speeds)
        back = rotor_unmix(rotor_mix(omega, params), params)
        squared = omega * omega
        assert np.abs(back * back - squared).max() <= 1e-12 * squared.max()


class TestDynamics:
    def test_hover_is_fixed_point(self, params):
        state, u, _ = hover_equilibrium(params)
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
        _, u, _ = hover_equilibrium(params)
        assert u == pytest.approx([9.81, 0.0, 0.0, 0.0], abs=1e-15)

    def test_hover_rotor_speed(self, params):
        _, _, omega = hover_equilibrium(params)
        expected = math.sqrt(9.81 / (4.0 * 9.8e-6))
        assert omega == pytest.approx(np.full(4, expected), rel=1e-12)
        assert omega[0] == pytest.approx(500.255, abs=1e-3)

    def test_thrust_linear_in_mass(self):
        _, u, _ = hover_equilibrium(QuadrotorParams(mass=2.0))
        assert u[0] == pytest.approx(19.62, rel=1e-12)

    def test_rotor_speeds_reproduce_hover_thrust(self, params):
        state, u, omega = hover_equilibrium(params)
        assert rotor_mix(omega, params) == pytest.approx(u, rel=1e-12)
        assert np.linalg.norm(dynamics(state, u, params)) < 1e-12


class TestAngles:
    def test_wrap_angle_range(self):
        assert wrap_angle(math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)
        assert wrap_angle(0.3) == pytest.approx(0.3)

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
