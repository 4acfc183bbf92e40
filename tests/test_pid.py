"""Tests for the discrete PID primitive and the cascaded controller."""

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
    pid_step,
)
from quadctrl.pid import ANGLE_LIMIT


class TestPidStep:
    def test_pure_proportional(self):
        assert pid_step(PidGains(kp=1.0), PidState(), 0.5, dt=0.01) == 0.5

    def test_integral_of_held_error(self):
        gains = PidGains(kp=0.0, ki=2.0, kd=0.0)
        state = PidState()
        out = 0.0
        for _ in range(500):
            out = pid_step(gains, state, 1.0, dt=0.001)
        assert out == pytest.approx(1.0, abs=0.002)
        assert state.integral == pytest.approx(0.5, rel=1e-12)

    def test_backward_difference_derivative(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=0.5)
        state = PidState()
        assert pid_step(gains, state, 0.0, dt=0.1) == 0.0
        second = pid_step(gains, state, 1.0, dt=0.1)
        assert second == pytest.approx(5.0, rel=1e-12)

    def test_fresh_state_differentiates_initial_step(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=0.5)
        state = PidState()
        out = pid_step(gains, state, 1.0, dt=0.1)
        assert out == pytest.approx(5.0, rel=1e-12)
        assert state.previous_error == 1.0

    def test_linear_in_error_history(self, rng):
        gains = PidGains(kp=1.3, ki=0.7, kd=0.2)
        errors = rng.normal(size=64)
        state_a = PidState()
        state_b = PidState()
        for e in errors:
            out_a = pid_step(gains, state_a, float(e), dt=0.01)
            out_b = pid_step(gains, state_b, 2.0 * float(e), dt=0.01)
            assert out_b == pytest.approx(2.0 * out_a, rel=1e-12, abs=1e-300)

    def test_proportional_only_is_memoryless(self):
        gains = PidGains(kp=2.0, ki=0.0, kd=0.0)
        state = PidState(integral=0.0, previous_error=0.3)
        out = pid_step(gains, state, 1.5, dt=0.01)
        assert out == 3.0
        assert state.integral == 0.0
        assert state.previous_error == 1.5

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
                outs.append(pid_step(gains, state, e, dt=0.002))
            return outs

        assert run() == run()


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
        u = cascade_step(CascadeConfig(), np.zeros(12), Setpoints(),
                         CascadeMemory(), 0.001, params)
        assert u == pytest.approx([9.81, 0.0, 0.0, 0.0], abs=1e-15)

    def test_altitude_error_raises_thrust_only(self, params):
        u = cascade_step(CascadeConfig(), np.zeros(12), Setpoints(z_ref=1.0),
                         CascadeMemory(), 0.001, params)
        assert u[0] > 9.81
        assert u[1] == u[2] == u[3] == 0.0

    def test_lateral_error_commands_negative_roll(self, params):
        # positive y error with lateral acceleration -g*phi needs phi < 0
        memory = CascadeMemory()
        u = cascade_step(CascadeConfig(), np.zeros(12), Setpoints(y_ref=1.0),
                         memory, 0.001, params)
        assert memory.phi_ref < 0.0
        assert u[1] < 0.0   # torque drives phi toward the negative setpoint
        assert u[2] == 0.0

    def test_forward_error_commands_positive_pitch(self, params):
        # positive x error with forward acceleration +g*theta needs theta > 0
        memory = CascadeMemory()
        cascade_step(CascadeConfig(), np.zeros(12), Setpoints(x_ref=1.0),
                     memory, 0.001, params)
        assert memory.theta_ref > 0.0

    def test_angle_setpoint_clamped(self, params):
        memory = CascadeMemory()
        cascade_step(CascadeConfig(), np.zeros(12), Setpoints(y_ref=50.0),
                     memory, 0.001, params)
        assert memory.phi_ref == -ANGLE_LIMIT == -0.5

    @pytest.mark.parametrize("dt", [0.0, -1e-3, -0.5])
    def test_refuses_non_positive_dt(self, params, dt):
        # refused by the thrust loop's pid_step before any loop's memory
        # or the step count moves
        memory = CascadeMemory()
        refs = Setpoints(z_ref=1.0, x_ref=0.5, y_ref=-0.5, psi_ref=0.3)
        with pytest.raises(ValueError) as info:
            cascade_step(CascadeConfig(), [0.1] * 12, refs, memory, dt, params)
        assert str(info.value) == f"dt must be positive, got {dt}"
        assert memory == CascadeMemory()

    def test_outer_loop_decimation(self, params):
        config = CascadeConfig(outer_decimation=5)
        memory = CascadeMemory()
        state = np.zeros(12)
        outer_history = []
        for step in range(12):
            state[1] -= 0.01   # keep the outer error moving
            cascade_step(config, state, Setpoints(), memory, 0.001, params)
            outer_history.append(
                (memory.roll_outer.integral, memory.roll_outer.previous_error))
        # the outer loop's memory advances only on decimation boundaries
        changes = [i for i in range(1, 12)
                   if outer_history[i] != outer_history[i - 1]]
        assert changes == [5, 10]

    def test_zero_gains_hold_feedforward_forever(self, params, rng):
        config = all_zero_config()
        memory = CascadeMemory()
        for _ in range(50):
            state = rng.normal(size=12)
            u = cascade_step(config, state, Setpoints(z_ref=2.0),
                             memory, 0.001, params)
            assert np.array_equal(u, [9.81, 0.0, 0.0, 0.0])

    def test_feedforward_disabled(self, params):
        config = CascadeConfig(gravity_feedforward=False)
        u = cascade_step(config, np.zeros(12), Setpoints(),
                         CascadeMemory(), 0.001, params)
        assert u == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_list_state_gives_list_of_floats(self, params):
        state = [0.01 * k for k in range(12)]
        refs = Setpoints(z_ref=1.0, x_ref=0.5, y_ref=-0.5, psi_ref=0.3)
        u = cascade_step(CascadeConfig(), state, refs, CascadeMemory(), 0.001, params)
        controller = PidCascadeController(CascadeConfig(), params)
        controller.reset(refs, 0.001)
        for out in (u, controller.control(state)):
            assert type(out) is list
            assert [type(v) for v in out] == [float] * 4

    def test_deterministic(self, params, rng):
        states = rng.normal(size=(20, 12)) * 0.1

        def run():
            memory = CascadeMemory()
            outputs = []
            for s in states:
                u = cascade_step(CascadeConfig(), s, Setpoints(z_ref=1.0),
                                 memory, 0.001, params)
                outputs.append(u)
            return outputs

        assert run() == run()


class TestCascadeReset:
    def test_reset_then_zero_error_is_feedforward_only(self, params):
        controller = PidCascadeController(CascadeConfig(), params)
        controller.reset(Setpoints(z_ref=1.0), 0.001)
        for _ in range(10):
            controller.control(np.ones(12) * 0.1)
        controller.reset(Setpoints(), 0.001)
        u = controller.control(np.zeros(12))
        assert u == pytest.approx([9.81, 0.0, 0.0, 0.0], abs=1e-15)

    def test_reset_is_idempotent(self, params, rng):
        states = rng.normal(size=(20, 12)) * 0.1

        def outputs(resets):
            controller = PidCascadeController(CascadeConfig(), params)
            controller.reset(Setpoints(z_ref=1.0), 0.001)
            for s in states:
                controller.control(s)
            for _ in range(resets):
                controller.reset(Setpoints(z_ref=1.0), 0.001)
            return [controller.control(s) for s in states]

        assert outputs(2) == outputs(1)

    def test_fresh_memories_share_no_loop_state(self, params):
        stepped, fresh = CascadeMemory(), CascadeMemory()
        cascade_step(CascadeConfig(), np.ones(12), Setpoints(z_ref=2.0, y_ref=1.0),
                     stepped, 0.001, params)
        assert stepped.thrust.integral != 0.0
        assert fresh == CascadeMemory()
        assert fresh.thrust is not stepped.thrust

    def test_reset_clears_saturated_integrator(self, params):
        controller = PidCascadeController(CascadeConfig(), params)
        controller.reset(Setpoints(), 0.001)
        controller._memory.thrust = PidState(integral=1e6, previous_error=3.0)
        controller.reset(Setpoints(), 0.001)
        u = controller.control(np.zeros(12))
        assert u == pytest.approx([9.81, 0.0, 0.0, 0.0], abs=1e-15)
