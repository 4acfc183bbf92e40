"""Tests for the integrator, closed-loop runner and response metrics."""

import math

import numpy as np
import pytest

from quadctrl import (
    CascadeConfig,
    LqrController,
    NonFiniteState,
    PidCascadeController,
    PidGains,
    Setpoints,
    ThetaOutOfRange,
    Trajectory,
    compute_metrics,
    dynamics,
    evaluate_cost,
    hover_equilibrium,
    rk4_step,
    run_closed_loop,
    scenario_case,
    solve_care,
)
from quadctrl.sim import UnknownCase

ZERO_GAINS = PidGains(kp=0.0, ki=0.0, kd=0.0)


def zero_gain_controller(params):
    config = CascadeConfig(
        thrust=ZERO_GAINS, roll_inner=ZERO_GAINS, roll_outer=ZERO_GAINS,
        pitch_inner=ZERO_GAINS, pitch_outer=ZERO_GAINS, yaw=ZERO_GAINS)
    return PidCascadeController(config, params)


def synthetic_trajectory(times, values):
    """Wrap a scalar signal into the z channel of a Trajectory."""
    times = np.asarray(times, dtype=float)
    states = np.zeros((times.shape[0], 12))
    states[:, 2] = values
    return Trajectory(times=times, states=states,
                      controls=np.zeros((times.shape[0], 4)))


class TestRk4Step:
    def test_zero_derivative_keeps_state(self, rng):
        state = rng.normal(size=12)
        new = rk4_step(lambda s, u: np.zeros(12), state, np.zeros(4), 0.1)
        assert np.array_equal(new, state)

    def test_free_fall_matches_kinematics(self, params):
        state = np.zeros(12)
        u = np.zeros(4)
        deriv = lambda s, _u: dynamics(s, _u, params)
        for _ in range(1000):
            state = rk4_step(deriv, state, u, 0.001)
        assert state[2] == pytest.approx(-4.905, abs=1e-9)
        assert state[8] == pytest.approx(-9.81, abs=1e-9)

    def test_exponential_decay_fourth_order_accurate(self):
        state = np.array([1.0])
        deriv = lambda s, u: -s
        for _ in range(1000):
            state = rk4_step(deriv, state, None, 0.001)
        assert state[0] == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_convergence_order_on_tumbling_free_fall(self, params):
        # body rates make the gyroscopic terms nonlinear, so the local
        # truncation error is genuinely O(dt^5)
        initial = np.zeros(12)
        initial[9:12] = [2.0, -1.5, 1.0]
        u = np.zeros(4)
        deriv = lambda s, _u: dynamics(s, _u, params)

        def integrate(dt):
            state = initial.copy()
            for _ in range(int(round(1.0 / dt))):
                state = rk4_step(deriv, state, u, dt)
            return state

        reference = integrate(1e-4)
        err_coarse = np.linalg.norm(integrate(0.02) - reference)
        err_fine = np.linalg.norm(integrate(0.01) - reference)
        assert err_coarse / err_fine >= 8.0

    def test_divergence_raises(self):
        deriv = lambda s, u: s * s * 1e3
        state = np.array([1.0])
        with pytest.raises(NonFiniteState):
            for _ in range(10000):
                state = rk4_step(deriv, state, None, 0.1)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            rk4_step(lambda s, u: s, np.zeros(2), None, 0.0)


class TestScenarioCase:
    def test_case1_starts_at_rest_with_altitude_step(self):
        sc = scenario_case(1)
        assert not sc.initial_state.any()
        assert sc.references == Setpoints(z_ref=1.0)
        assert sc.duration == 15.0
        assert sc.dt == 1e-3
        assert sc.plant_mode == "nonlinear"

    def test_case2_initial_state_vector(self):
        sc = scenario_case(2)
        expected = [1, 1, 0.2, 1, 1, 0, 1, 1, 1, 1, 1, 1]
        assert sc.initial_state.tolist() == expected
        assert sc.references == Setpoints()

    def test_case3_couples_altitude_and_heading(self):
        sc = scenario_case(3)
        assert not sc.initial_state.any()
        assert sc.references.psi_ref == 0.5
        assert sc.references.z_ref == 1.0
        assert sc.references.x_ref == 0.0
        assert sc.references.y_ref == 0.0

    def test_unknown_case_rejected(self):
        with pytest.raises(UnknownCase):
            scenario_case(4)

    def test_overrides(self):
        sc = scenario_case(1, dt=5e-5, duration=10.0, plant_mode="linear")
        assert sc.dt == 5e-5
        assert sc.duration == 10.0
        assert sc.plant_mode == "linear"

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="dt"):
            scenario_case(1, duration=1.0, dt=0.5)
        with pytest.raises(ValueError, match="plant_mode"):
            scenario_case(1, plant_mode="hybrid")


class TestRunClosedLoop:
    def test_zero_gain_controller_holds_hover(self, params):
        sc = scenario_case(1, duration=2.0, dt=0.001,
                           references=Setpoints())
        trajectory = run_closed_loop(sc, zero_gain_controller(params), params)
        assert trajectory.times.shape == (2001,)
        assert not trajectory.states.any()
        assert np.all(trajectory.controls == [9.81, 0.0, 0.0, 0.0])

    def test_sample_count_matches_grid(self, params, default_gain):
        sc = scenario_case(1, duration=2.0, dt=0.01)
        trajectory = run_closed_loop(sc, LqrController(default_gain, params), params)
        assert trajectory.times.shape[0] == sc.sample_count == 201
        assert trajectory.states.shape == (201, 12)
        assert trajectory.controls.shape == (201, 4)
        steps = np.diff(trajectory.times)
        assert np.allclose(steps, 0.01, rtol=1e-12)

    def test_deterministic_reruns(self, params, default_gain):
        sc = scenario_case(1, duration=2.0, dt=0.01)
        controller = LqrController(default_gain, params)
        first = run_closed_loop(sc, controller, params)
        second = run_closed_loop(sc, controller, params)
        assert np.array_equal(first.states, second.states)
        assert np.array_equal(first.controls, second.controls)

    def test_pid_reruns_reset_memory(self, params):
        sc = scenario_case(1, duration=2.0, dt=0.001)
        controller = PidCascadeController(CascadeConfig(), params)
        first = run_closed_loop(sc, controller, params)
        second = run_closed_loop(sc, controller, params)
        assert np.array_equal(first.states, second.states)

    def test_destabilizing_gain_diverges(self, params, default_gain):
        flipped = -default_gain
        sc = scenario_case(2, duration=5.0, dt=0.001, plant_mode="linear")
        with pytest.raises(NonFiniteState):
            run_closed_loop(sc, LqrController(flipped, params), params)

    def test_pitch_bound_raises(self, params):
        # unforced tumble: theta passes pi/2 shortly after t = pi/4
        start = np.zeros(12)
        start[10] = 2.0   # q = 2 rad/s
        sc = scenario_case(2, initial_state=start, duration=2.0, dt=0.001)
        with pytest.raises(ThetaOutOfRange):
            run_closed_loop(sc, zero_gain_controller(params), params)

    def test_linear_mode_matches_nonlinear_near_hover(self, params, default_gain):
        controller = LqrController(default_gain, params)
        start = np.zeros(12)
        start[2] = 0.01
        nonlinear = run_closed_loop(
            scenario_case(2, initial_state=start, duration=2.0, dt=0.001),
            controller, params)
        linear = run_closed_loop(
            scenario_case(2, initial_state=start, duration=2.0, dt=0.001,
                          plant_mode="linear"),
            controller, params)
        # altitude dynamics is exactly linear in this regime
        assert linear.states[-1] == pytest.approx(nonlinear.states[-1], abs=1e-12)

    def test_lyapunov_decay_in_linear_mode(self, params, hover_ss, default_weights,
                                           default_gain):
        sol = solve_care(hover_ss.A, hover_ss.B, default_weights)
        sc = scenario_case(2, duration=3.0, dt=5e-5, plant_mode="linear")
        trajectory = run_closed_loop(sc, LqrController(default_gain, params), params)
        v = np.einsum("ij,jk,ik->i", trajectory.states, sol.S, trajectory.states)
        assert np.all(np.diff(v) <= 1e-6)


class TestRunCost:
    def test_lqr_run_cost_matches_value_function(self, params, hover_ss, default_weights,
                                                 default_gain):
        # along the optimal closed loop the cost accrued over [0, T] is
        # V(x0) - V(xT) with V(x) = x' S x; the held control and the
        # trapezoid rule account for the 2e-4 left over
        S = solve_care(hover_ss.A, hover_ss.B, default_weights).S
        # case 2 excites the stiff attitude modes, so use the fine grid
        sc = scenario_case(2, duration=3.0, dt=5e-5, plant_mode="linear")
        trajectory = run_closed_loop(sc, LqrController(default_gain, params), params)
        _, u_hover, _ = hover_equilibrium(params)
        cost = evaluate_cost(trajectory.times, trajectory.states,
                             trajectory.controls - u_hover, default_weights)
        x0, x_final = trajectory.states[0], trajectory.states[-1]
        assert cost == pytest.approx(x0 @ S @ x0 - x_final @ S @ x_final, rel=1e-3)


class TestTrajectory:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.arange(3.0), states=np.zeros((4, 12)),
                       controls=np.zeros((3, 4)))

    def test_nonuniform_grid_rejected(self):
        times = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError, match="uniform"):
            Trajectory(times=times, states=np.zeros((3, 12)),
                       controls=np.zeros((3, 4)))

    def test_channel_lookup(self, rng):
        states = rng.normal(size=(5, 12))
        trajectory = Trajectory(times=np.arange(5.0), states=states,
                                controls=np.zeros((5, 4)))
        assert np.array_equal(trajectory.channel("theta"), states[:, 4])


class TestComputeMetrics:
    def test_constant_signal_at_reference(self):
        times = np.arange(0.0, 10.0, 0.01)
        trajectory = synthetic_trajectory(times, np.ones_like(times))
        m = compute_metrics(trajectory, "z", reference=1.0)
        assert m.overshoot == 0.0
        assert m.settling_time == 0.0
        assert m.overshoot_peak_count == 0
        assert m.settled

    def test_first_order_rise_settling_time(self):
        # 1 - e^-t crosses the 2% band at t = ln(50) and never leaves
        dt = 0.001
        times = np.arange(0.0, 20.0 + dt / 2, dt)
        trajectory = synthetic_trajectory(times, 1.0 - np.exp(-times))
        m = compute_metrics(trajectory, "z", reference=1.0)
        assert m.settled
        assert m.settling_time == pytest.approx(math.log(50.0), abs=dt)
        assert m.overshoot == pytest.approx(0.0, abs=1e-4)

    def test_damped_oscillation_overshoot_against_dense_oracle(self):
        signal = lambda t: 1.0 - np.exp(-t) * (np.cos(3.0 * t) + np.sin(3.0 * t) / 3.0)
        dt = 0.001
        times = np.arange(0.0, 15.0 + dt / 2, dt)
        trajectory = synthetic_trajectory(times, signal(times))
        m = compute_metrics(trajectory, "z", reference=1.0)
        dense = signal(np.arange(0.0, 5.0, 1e-6))
        oracle_peak = float(dense.max()) - 1.0
        assert oracle_peak == pytest.approx(math.exp(-math.pi / 3.0), abs=1e-6)
        assert m.overshoot == pytest.approx(oracle_peak, abs=1e-3)
        assert m.overshoot_peak_count >= 1

    def test_time_shift_invariance(self):
        dt = 0.01
        times = np.arange(0.0, 12.0, dt)
        values = 1.0 - np.exp(-times) * (np.cos(3.0 * times) + np.sin(3.0 * times) / 3.0)
        base = compute_metrics(synthetic_trajectory(times, values), "z", 1.0)
        shifted = compute_metrics(synthetic_trajectory(times + 37.5, values), "z", 1.0)
        assert shifted.steady_state_value == base.steady_state_value
        assert shifted.overshoot == base.overshoot
        assert shifted.overshoot_peak_count == base.overshoot_peak_count
        assert shifted.settled == base.settled
        # the shifted grid itself carries rounding, so compare to fp accuracy
        assert shifted.settling_time == pytest.approx(base.settling_time, abs=1e-9)

    def test_regulation_band_floor(self):
        # regulation to zero uses the 0.02 absolute floor
        dt = 0.001
        times = np.arange(0.0, 10.0 + dt / 2, dt)
        trajectory = synthetic_trajectory(times, 0.2 * np.exp(-times))
        m = compute_metrics(trajectory, "z", reference=0.0)
        # 0.2 e^-t = 0.02  =>  t = ln(10)
        assert m.settling_time == pytest.approx(math.log(10.0), abs=2 * dt)

    def test_never_settling_signal(self):
        times = np.arange(0.0, 10.0, 0.01)
        trajectory = synthetic_trajectory(times, np.sin(3.0 * times))
        m = compute_metrics(trajectory, "z", reference=0.0)
        assert not m.settled
        assert m.settling_time is None

    def test_unknown_channel_rejected(self):
        times = np.arange(0.0, 1.0, 0.01)
        trajectory = synthetic_trajectory(times, np.zeros_like(times))
        from quadctrl.sim import ChannelUnknown
        with pytest.raises(ChannelUnknown):
            compute_metrics(trajectory, "altitude", reference=0.0)
