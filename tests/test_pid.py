"""Tests for the discrete PID primitive and the cascaded controller."""

import dataclasses

import numpy as np
import pytest

from quadctrl import (
    CascadeConfig,
    CascadeMemory,
    PidCascadeController,
    PidGains,
    PidState,
    Setpoints,
    cascade_step,
    gains_from_time_constants,
    pid_step,
)
from quadctrl.pid import ZeroIntegralTime


class TestPidStep:
    def test_pure_proportional(self):
        out, _ = pid_step(PidGains(kp=1.0), PidState(), 0.5, dt=0.01)
        assert out == 0.5

    def test_integral_of_held_error(self):
        gains = PidGains(kp=0.0, ki=2.0, kd=0.0)
        state = PidState()
        out = 0.0
        for _ in range(500):
            out, state = pid_step(gains, state, 1.0, dt=0.001)
        assert out == pytest.approx(1.0, abs=0.002)

    def test_backward_difference_derivative(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=0.5)
        first, state = pid_step(gains, PidState(), 0.0, dt=0.1)
        assert first == 0.0
        second, _ = pid_step(gains, state, 1.0, dt=0.1)
        assert second == pytest.approx(5.0, rel=1e-12)

    def test_first_call_derivative_is_zero_when_unprimed(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=10.0)
        out, state = pid_step(gains, PidState(), 7.0, dt=0.001)
        assert out == 0.0
        assert state.initialized
        assert state.previous_error == 7.0

    def test_primed_state_differentiates_initial_step(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=0.5)
        primed = PidState(integral=0.0, previous_error=0.0, initialized=True)
        out, _ = pid_step(gains, primed, 1.0, dt=0.1)
        assert out == pytest.approx(5.0, rel=1e-12)

    def test_linear_in_error_history(self, rng):
        gains = PidGains(kp=1.3, ki=0.7, kd=0.2)
        errors = rng.normal(size=64)
        state_a = PidState()
        state_b = PidState()
        for e in errors:
            out_a, state_a = pid_step(gains, state_a, float(e), dt=0.01)
            out_b, state_b = pid_step(gains, state_b, 2.0 * float(e), dt=0.01)
            assert out_b == pytest.approx(2.0 * out_a, rel=1e-12, abs=1e-300)

    def test_proportional_only_is_memoryless(self):
        gains = PidGains(kp=2.0, ki=0.0, kd=0.0)
        state = PidState(integral=0.0, previous_error=0.3, initialized=True)
        out, new_state = pid_step(gains, state, 1.5, dt=0.01)
        assert out == 3.0
        assert new_state.integral == state.integral
        assert new_state.previous_error == 1.5

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            pid_step(PidGains(kp=1.0), PidState(), 1.0, dt=0.0)

    def test_deterministic(self, rng):
        gains = PidGains(kp=0.8, ki=0.4, kd=0.15)
        errors = [float(e) for e in rng.normal(size=32)]

        def run():
            state = PidState()
            outs = []
            for e in errors:
                out, state = pid_step(gains, state, e, dt=0.002)
                outs.append(out)
            return outs

        assert run() == run()


class TestGainsFromTimeConstants:
    def test_direct_arithmetic(self):
        gains = gains_from_time_constants(2.0, 4.0, 0.5)
        assert gains.ki == 0.5
        assert gains.kd == 1.0

    def test_zero_derivative_time(self):
        gains = gains_from_time_constants(1.0, 1.0, 0.0)
        assert gains.ki == 1.0
        assert gains.kd == 0.0

    def test_zero_kp_annihilates(self):
        gains = gains_from_time_constants(0.0, 5.0, 5.0)
        assert gains.ki == 0.0
        assert gains.kd == 0.0

    def test_zero_integral_time_rejected(self):
        with pytest.raises(ZeroIntegralTime):
            gains_from_time_constants(1.0, 0.0, 1.0)


ZERO_GAINS = PidGains(kp=0.0, ki=0.0, kd=0.0)


def all_zero_config():
    return CascadeConfig(
        thrust=ZERO_GAINS, roll_inner=ZERO_GAINS, roll_outer=ZERO_GAINS,
        pitch_inner=ZERO_GAINS, pitch_outer=ZERO_GAINS, yaw=ZERO_GAINS)


class TestCascadeConfig:
    def test_default_gains(self):
        config = CascadeConfig()
        assert (config.thrust.kp, config.thrust.ki, config.thrust.kd) == (9.09, 1.94, 10.41)
        assert (config.roll_inner.kp, config.roll_inner.ki, config.roll_inner.kd) == (4.04, 10.03, 0.33)
        assert (config.roll_outer.kp, config.roll_outer.ki, config.roll_outer.kd) == (-2.92, -0.032, -4.68)
        assert config.pitch_inner == config.roll_inner
        assert config.pitch_outer == config.roll_outer
        assert (config.yaw.kp, config.yaw.ki, config.yaw.kd) == (1.3e-2, 7.6e-4, 4.9e-2)
        assert config.outer_decimation == 10
        assert config.gravity_feedforward

    def test_rejects_bad_decimation(self):
        with pytest.raises(ValueError, match="outer_decimation"):
            CascadeConfig(outer_decimation=0)


class TestCascadeStep:
    def test_zero_error_gives_feedforward_only(self, params):
        u, _ = cascade_step(CascadeConfig(), np.zeros(12), Setpoints(),
                            CascadeMemory(), 0.001, params)
        assert u == pytest.approx([9.81, 0.0, 0.0, 0.0], abs=1e-15)

    def test_altitude_error_raises_thrust_only(self, params):
        u, _ = cascade_step(CascadeConfig(), np.zeros(12), Setpoints(z_ref=1.0),
                            CascadeMemory(), 0.001, params)
        assert u[0] > 9.81
        assert u[1] == u[2] == u[3] == 0.0

    def test_lateral_error_commands_negative_roll(self, params):
        # positive y error with lateral acceleration -g*phi needs phi < 0
        u, memory = cascade_step(CascadeConfig(), np.zeros(12), Setpoints(y_ref=1.0),
                                 CascadeMemory(), 0.001, params)
        assert memory.phi_ref < 0.0
        assert u[1] < 0.0   # torque drives phi toward the negative setpoint
        assert u[2] == 0.0

    def test_forward_error_commands_positive_pitch(self, params):
        # positive x error with forward acceleration +g*theta needs theta > 0
        _, memory = cascade_step(CascadeConfig(), np.zeros(12), Setpoints(x_ref=1.0),
                                 CascadeMemory(), 0.001, params)
        assert memory.theta_ref > 0.0

    def test_angle_setpoint_clamped(self, params):
        _, memory = cascade_step(CascadeConfig(), np.zeros(12), Setpoints(y_ref=50.0),
                                 CascadeMemory(), 0.001, params)
        assert abs(memory.phi_ref) == 0.5

    def test_outer_loop_decimation(self, params):
        config = CascadeConfig(outer_decimation=5)
        memory = CascadeMemory()
        state = np.zeros(12)
        outer_history = []
        for step in range(12):
            state[1] -= 0.01   # keep the outer error moving
            _, memory = cascade_step(config, state, Setpoints(), memory, 0.001, params)
            outer_history.append(memory.roll_outer)
        # the outer loop's memory advances only on decimation boundaries
        changes = [i for i in range(1, 12)
                   if outer_history[i] != outer_history[i - 1]]
        assert changes == [5, 10]

    def test_zero_gains_hold_feedforward_forever(self, params, rng):
        config = all_zero_config()
        memory = CascadeMemory()
        for _ in range(50):
            state = rng.normal(size=12)
            u, memory = cascade_step(config, state, Setpoints(z_ref=2.0),
                                     memory, 0.001, params)
            assert np.array_equal(u, [9.81, 0.0, 0.0, 0.0])

    def test_feedforward_disabled(self, params):
        config = CascadeConfig(gravity_feedforward=False)
        u, _ = cascade_step(config, np.zeros(12), Setpoints(),
                            CascadeMemory(), 0.001, params)
        assert u == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_deterministic(self, params, rng):
        states = rng.normal(size=(20, 12)) * 0.1

        def run():
            memory = CascadeMemory()
            outputs = []
            for s in states:
                u, memory = cascade_step(CascadeConfig(), s, Setpoints(z_ref=1.0),
                                         memory, 0.001, params)
                outputs.append(u.tolist())
            return outputs

        assert run() == run()


class TestCascadeReset:
    def test_reset_then_zero_error_is_feedforward_only(self, params):
        controller = PidCascadeController(CascadeConfig(), params)
        for _ in range(10):
            controller.control(np.ones(12) * 0.1, Setpoints(z_ref=1.0), 0.001)
        controller.reset()
        u = controller.control(np.zeros(12), Setpoints(), 0.001)
        assert u == pytest.approx([9.81, 0.0, 0.0, 0.0], abs=1e-15)

    def test_reset_is_idempotent(self, params, rng):
        states = rng.normal(size=(20, 12)) * 0.1

        def outputs(resets):
            controller = PidCascadeController(CascadeConfig(), params)
            for s in states:
                controller.control(s, Setpoints(z_ref=1.0), 0.001)
            for _ in range(resets):
                controller.reset()
            return [controller.control(s, Setpoints(z_ref=1.0), 0.001).tolist()
                    for s in states]

        assert outputs(2) == outputs(1)

    def test_reset_clears_saturated_integrator(self, params):
        controller = PidCascadeController(CascadeConfig(), params)
        controller._memory = dataclasses.replace(
            CascadeMemory(),
            thrust=PidState(integral=1e6, previous_error=3.0, initialized=True))
        controller.reset()
        u = controller.control(np.zeros(12), Setpoints(), 0.001)
        assert u == pytest.approx([9.81, 0.0, 0.0, 0.0], abs=1e-15)
