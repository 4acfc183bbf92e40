"""Tests for the integrator, closed-loop runner and response metrics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadctrl import (
    CascadeConfig,
    LqrController,
    NonFiniteState,
    PidCascadeController,
    PidGains,
    QuadrotorParams,
    Setpoints,
    ThetaOutOfRange,
    Trajectory,
    compute_metrics,
    dynamics,
    hover_equilibrium,
    rk4_step,
    run_closed_loop,
    scenario_case,
    solve_care,
)
from quadctrl.model import (PHI, PSI, THETA, THETA_LIMIT, X, XDOT, Y, Z,
                            normalize_state, stepper, wrap_angle)
from quadctrl.pid import ANGLE_LIMIT, CascadeMemory, pid_step
from quadctrl.sim import CASE2_INITIAL_STATE, InitialThetaOutOfRange, UnknownCase

ZERO_GAINS = PidGains(kp=0.0, ki=0.0, kd=0.0)
LONG_DT = 0.003312880880880881


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
    return Trajectory(np.column_stack([times, states, np.zeros((times.shape[0], 4))]))


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
        deriv = lambda s, u: [-v for v in s]
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
        err_coarse = np.linalg.norm(np.subtract(integrate(0.02), reference))
        err_fine = np.linalg.norm(np.subtract(integrate(0.01), reference))
        assert err_coarse / err_fine >= 8.0

    def test_divergence_raises(self):
        deriv = lambda s, u: [v * v * 1e3 for v in s]
        state = [1.0]
        with pytest.raises(NonFiniteState):
            for _ in range(10000):
                state = rk4_step(deriv, state, None, 0.1)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            rk4_step(lambda s, u: s, np.zeros(2), None, 0.0)

    def test_float_overflow_raises(self):
        # a Python float product overflows to inf without raising, so
        # only the finiteness check can catch it
        deriv = lambda s, u: [v * 1e10 for v in s]
        with pytest.raises(NonFiniteState, match="after an RK4 step"):
            rk4_step(deriv, [1e300], None, 1.0)

    def test_stage_reaching_sin_of_inf_raises(self, params):
        # the second stage puts phi at 0.5 * 10 * 1e308 = inf, where
        # math.sin raises instead of returning nan
        state = [0.0] * 12
        state[9] = 1e308
        deriv = lambda s, u: dynamics(s, u, params)
        with pytest.raises(NonFiniteState, match="during an RK4 stage"):
            rk4_step(deriv, state, [9.81, 0.0, 0.0, 0.0], 10.0)


def generic_step(state, u, dt, params):
    """The nonlinear plant step through the generic integrator."""
    return normalize_state(rk4_step(lambda s, _u: dynamics(s, _u, params), state, u, dt))


finite = st.floats(-50.0, 50.0)


class TestStepKernel:
    """model.stepper must be the generic RK4 step of dynamics plus the
    phi/psi wrap, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(state=st.lists(finite, min_size=12, max_size=12),
           theta=st.floats(-THETA_LIMIT, THETA_LIMIT, exclude_min=True, exclude_max=True),
           u=st.lists(finite, min_size=4, max_size=4),
           dt=st.floats(1e-5, 1e-2),
           params=st.builds(QuadrotorParams, mass=st.floats(0.1, 10.0),
                            inertia_xx=st.floats(1e-4, 1.0),
                            inertia_yy=st.floats(1e-4, 1.0),
                            inertia_zz=st.floats(1e-4, 1.0),
                            gravity=st.floats(0.1, 30.0)))
    def test_matches_generic_rk4_step(self, state, theta, u, dt, params):
        state[THETA] = theta
        assert stepper(params, dt)(state, u) == generic_step(state, u, dt, params)

    def test_divergence_messages_match_generic_step(self, params):
        # sin of inf in the second stage, then a velocity sum past the
        # largest float, which no trig call sees
        in_stage = [0.0] * 12
        in_stage[9] = 1e308
        after_step = [0.0] * 12
        after_step[X] = after_step[XDOT] = 1e308
        for state, dt, phase in ((in_stage, 10.0, "during an RK4 stage"),
                                 (after_step, 1.0, "after an RK4 step")):
            u = [9.81, 0.0, 0.0, 0.0]
            with pytest.raises(NonFiniteState, match=phase) as generic:
                generic_step(state, u, dt, params)
            with pytest.raises(NonFiniteState, match=phase) as kernel:
                stepper(params, dt)(state, u)
            assert str(kernel.value) == str(generic.value)

    def test_stock_lqr_case2_at_1ms_diverges(self, params, default_gain):
        # the sampled full-state loop is unstable on the 1 ms grid
        sc = scenario_case(2)
        with pytest.raises(ThetaOutOfRange) as info:
            run_closed_loop(sc, LqrController(default_gain, params), params)
        assert str(info.value) == "|theta| reached 11.3032 rad at t=0.0020 s"


class TestInitialWrap:
    def test_initial_phi_psi_wrapped_on_nonlinear_plant(self, params):
        start = np.array(CASE2_INITIAL_STATE)
        start[PHI], start[PSI] = 7.0, -4.0
        sc = scenario_case(2, initial_state=start, duration=1.0)
        trajectory = run_closed_loop(sc, PidCascadeController(CascadeConfig(), params),
                                     params)
        row0 = trajectory.states[0]
        assert -math.pi <= row0[PHI] < math.pi
        assert -math.pi <= row0[PSI] < math.pi
        assert row0[PHI] == wrap_angle(7.0) and row0[PSI] == wrap_angle(-4.0)
        # the controller sees the wrapped angles too: the run is the one
        # that starts there
        wrapped = start.copy()
        wrapped[PHI], wrapped[PSI] = row0[PHI], row0[PSI]
        same = run_closed_loop(scenario_case(2, initial_state=wrapped, duration=1.0),
                               PidCascadeController(CascadeConfig(), params), params)
        assert np.array_equal(trajectory.states, same.states)
        assert np.array_equal(trajectory.controls, same.controls)

    def test_in_range_initial_state_keeps_its_bits(self, params):
        # (a + pi) % 2pi - pi would move the last bits of 0.2 and 3.1, and
        # flush 1e-20 to zero, at the start or after a step
        start = np.array(CASE2_INITIAL_STATE)
        start[PHI], start[PSI] = 0.2, 3.1
        tiny = np.zeros(12)
        tiny[PHI] = 1e-20
        for initial_state in (CASE2_INITIAL_STATE, start, -start, tiny):
            sc = scenario_case(2, initial_state=np.array(initial_state), duration=0.1)
            trajectory = run_closed_loop(sc, zero_gain_controller(params), params)
            assert trajectory.states[0].tolist() == list(initial_state)
        # no rate or torque moves phi, so each step must hand it back
        assert np.all(trajectory.states[:, PHI] == 1e-20)

    def test_linear_plant_keeps_initial_angles(self, params):
        start = np.zeros(12)
        start[PHI] = 7.0
        sc = scenario_case(2, initial_state=start, duration=1.0, plant_mode="linear")
        trajectory = run_closed_loop(sc, zero_gain_controller(params), params)
        assert trajectory.states[0, PHI] == 7.0


# The ndarray dynamics, RK4 update and angle wrap that the simulator
# ran before its state became a list of Python floats.  The float path
# must reproduce them bit for bit: same expressions, same order.
def ndarray_dynamics(state, u, params):
    s = np.asarray(state, dtype=float)
    phi = float(s[PHI])
    theta = float(s[THETA])
    psi = float(s[PSI])
    p = float(s[9])
    q = float(s[10])
    r = float(s[11])

    sph, cph = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)

    accel = float(u[0]) / params.mass

    return np.array([
        s[6], s[7], s[8],
        p, q, r,
        (cph * sth * cps + sph * sps) * accel,
        (cph * sth * sps - sph * cps) * accel,
        cph * cth * accel - params.gravity,
        ((params.inertia_yy - params.inertia_zz) * q * r + float(u[1])) / params.inertia_xx,
        ((params.inertia_zz - params.inertia_xx) * p * r + float(u[2])) / params.inertia_yy,
        ((params.inertia_xx - params.inertia_yy) * p * q
         + float(u[3])) / params.inertia_zz,
    ])


def ndarray_rk4_step(derivative_fn, state, u, dt):
    k1 = derivative_fn(state, u)
    k2 = derivative_fn(state + (0.5 * dt) * k1, u)
    k3 = derivative_fn(state + (0.5 * dt) * k2, u)
    k4 = derivative_fn(state + dt * k3, u)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ndarray_run(scenario, controller, params):
    n = scenario.sample_count
    states = np.empty((n, 12))
    controls = np.empty((n, 4))
    deriv = lambda s, u: ndarray_dynamics(s, u, params)
    controller.reset()
    state = scenario.initial_state.copy()
    states[0] = state
    for i in range(n - 1):
        u = controller.control(state, scenario.references, scenario.dt)
        controls[i] = u
        state = ndarray_rk4_step(deriv, state, u, scenario.dt)
        state[PHI] = wrap_angle(float(state[PHI]))
        state[PSI] = wrap_angle(float(state[PSI]))
        states[i + 1] = state
    controls[n - 1] = controller.control(state, scenario.references, scenario.dt)
    return states, controls


# The ndarray cascade step and LQR law that the controllers ran before
# they took and returned lists: the reference controllers of the oracle.
def ndarray_cascade_step(config, state, references, memory, dt, params):
    s = np.asarray(state, dtype=float)
    if memory.step_count % config.outer_decimation == 0:
        outer_dt = dt * config.outer_decimation
        raw_phi = pid_step(config.roll_outer, memory.roll_outer,
                           references.y_ref - s[Y], outer_dt)
        raw_theta = pid_step(config.pitch_outer, memory.pitch_outer,
                             s[X] - references.x_ref, outer_dt)
        memory.phi_ref = max(-ANGLE_LIMIT, min(ANGLE_LIMIT, raw_phi))
        memory.theta_ref = max(-ANGLE_LIMIT, min(ANGLE_LIMIT, raw_theta))
    memory.step_count += 1

    thrust_ff = params.hover_thrust if config.gravity_feedforward else 0.0
    u1 = pid_step(config.thrust, memory.thrust, references.z_ref - s[Z], dt)
    u2 = pid_step(config.roll_inner, memory.roll_inner, memory.phi_ref - s[PHI], dt)
    u3 = pid_step(config.pitch_inner, memory.pitch_inner, memory.theta_ref - s[THETA], dt)
    u4 = pid_step(config.yaw, memory.yaw, references.psi_ref - s[PSI], dt)
    return np.array([thrust_ff + u1, u2, u3, u4])


class NdarrayPid:
    """The ndarray cascade; records the largest held roll/pitch setpoint."""

    def __init__(self, config, params):
        self.config, self.params = config, params
        self.largest_angle_ref = 0.0

    def reset(self):
        self.memory = CascadeMemory()

    def control(self, state, references, dt):
        u = ndarray_cascade_step(self.config, state, references, self.memory, dt,
                                 self.params)
        self.largest_angle_ref = max(self.largest_angle_ref,
                                     abs(self.memory.phi_ref), abs(self.memory.theta_ref))
        return u


class NdarrayLqr:
    """The ndarray LQR law, x_ref rebuilt every step."""

    def __init__(self, K, params):
        self.K = K
        _, self.u_equilibrium = hover_equilibrium(params)

    def reset(self):
        pass

    def control(self, state, references, dt):
        deviation = (np.asarray(state, dtype=float)
                     - np.asarray(references.reference_state(), dtype=float))
        return np.asarray(self.u_equilibrium, dtype=float) - self.K @ deviation


class TestFloatPathOracle:
    def test_nonlinear_pid_run_matches_ndarray_path_bit_for_bit(self, params):
        # lateral steps drive the outer loops into the angle clamp, so
        # every trig argument is nonzero
        sc = scenario_case(3, duration=2.0, dt=0.001,
                           references=Setpoints(z_ref=1.0, x_ref=1.0, y_ref=-1.0,
                                                psi_ref=0.5))
        reference = NdarrayPid(CascadeConfig(), params)
        states, controls = ndarray_run(sc, reference, params)
        trajectory = run_closed_loop(sc, PidCascadeController(CascadeConfig(), params),
                                     params)
        assert reference.largest_angle_ref == ANGLE_LIMIT
        assert np.all(np.abs(states[:, [PHI, THETA, PSI]]).max(axis=0) > 0.1)
        assert np.array_equal(trajectory.states, states)
        assert np.array_equal(trajectory.controls, controls)

    def test_nonlinear_lqr_run_matches_ndarray_path_bit_for_bit(self, params,
                                                                 default_gain):
        # every reference is nonzero, so all four gain blocks act; 5e-5
        # is the grid on which the sampled full-state loop is stable
        sc = scenario_case(3, duration=0.2, dt=5e-5,
                           references=Setpoints(z_ref=1.0, x_ref=0.7, y_ref=-0.4,
                                                psi_ref=0.5))
        states, controls = ndarray_run(sc, NdarrayLqr(default_gain, params), params)
        trajectory = run_closed_loop(sc, LqrController(default_gain, params), params)
        assert sc.sample_count == 4001
        _, u_eq = hover_equilibrium(params)
        assert np.all(np.abs(controls - u_eq).min(axis=0) > 0.0)
        assert np.array_equal(trajectory.states, states)
        assert np.array_equal(trajectory.controls, controls)


class TestControllerOutput:
    def test_lqr_list_state_gives_list_of_floats(self, params, default_gain):
        controller = LqrController(default_gain, params)
        controller.reset(Setpoints(z_ref=1.0, x_ref=0.5), 0.001)
        u = controller.control([0.01 * k for k in range(12)])
        assert type(u) is list
        assert [type(v) for v in u] == [float] * 4

    def test_lqr_follows_a_change_of_setpoints(self, params, default_gain):
        state = [0.0] * 12
        first, second = Setpoints(z_ref=1.0), Setpoints(z_ref=1.0, x_ref=0.5)
        controller = LqrController(default_gain, params)
        outputs = []
        for refs in (first, second, first, Setpoints(z_ref=1.0)):
            controller.reset(refs, 0.001)
            outputs.append(controller.control(state))
        fresh = []
        for refs in (first, second):
            other = LqrController(default_gain, params)
            other.reset(refs, 0.001)
            fresh.append(other.control(state))
        assert outputs == [fresh[0], fresh[1], fresh[0], fresh[0]]
        assert fresh[0] != fresh[1]

    def test_lqr_heading_error_wraps_across_pi(self, params, default_gain):
        # psi and psi_ref on either side of +-pi are a small error apart
        controller = LqrController(default_gain, params)
        small = 6.2 - 2.0 * math.pi
        for psi, psi_ref, error in ((3.1, -3.1, small), (-3.1, 3.1, -small)):
            state = [0.0] * 12
            state[PSI] = psi
            equivalent = [0.0] * 12
            equivalent[PSI] = error
            controller.reset(Setpoints(psi_ref=psi_ref), 0.001)
            u = controller.control(state)
            controller.reset(Setpoints(), 0.001)
            assert u == pytest.approx(controller.control(equivalent), rel=1e-12)


# Floats over many decades, subnormals and both zeros included, small
# enough that K times the deviation cannot overflow; draws of one
# magnitude make every product count in the matvec's sums.
decades = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-10.0, 10.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-320, 290)))
# Headings on both sides of +-pi, the points where the wrap acts.
headings = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0), -0.0]))


class TestLqrLaw:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(state=st.lists(decades, min_size=12, max_size=12), psi=headings,
           psi_ref=headings, refs=st.lists(decades, min_size=3, max_size=3))
    def test_control_is_the_array_law_bit_for_bit(self, params, default_gain, state,
                                                  psi, psi_ref, refs):
        # the ndarray formula: deviation as an array, its psi entry wrapped
        # there, then u_eq - K @ deviation
        state[PSI] = psi
        references = Setpoints(z_ref=refs[0], x_ref=refs[1], y_ref=refs[2],
                               psi_ref=psi_ref)
        deviation = np.asarray(state, dtype=float) - references.reference_state()
        deviation[PSI] = wrap_angle(deviation[PSI])
        _, u_eq = hover_equilibrium(params)
        expected = u_eq - default_gain @ deviation
        controller = LqrController(default_gain, params)
        controller.reset(references, 0.001)
        assert np.array(controller.control(state)).tobytes() == expected.tobytes()


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
        for duration, dt in ((math.inf, 1e-3), (1.0, math.nan), (math.nan, 1e-3)):
            with pytest.raises(ValueError, match="finite"):
                scenario_case(1, duration=duration, dt=dt)
        with pytest.raises(ValueError, match="plant_mode"):
            scenario_case(1, plant_mode="hybrid")
        # a grid past MAX_STEPS is refused before anything is allocated
        for duration, dt in ((1e308, 1e-3), (1e9, 1e-3), (15.0, 1e-300)):
            with pytest.raises(ValueError, match="more than 10000000 steps"):
                scenario_case(1, duration=duration, dt=dt)
        assert scenario_case(1, duration=1e4, dt=1e-3).sample_count == 10**7 + 1
        # the nonlinear plant is defined only for |theta| < THETA_LIMIT
        for theta in (1.6, -THETA_LIMIT):
            start = np.zeros(12)
            start[THETA] = theta
            with pytest.raises(InitialThetaOutOfRange, match="theta"):
                scenario_case(1, initial_state=start)
            assert scenario_case(1, initial_state=start,
                                 plant_mode="linear").initial_state[THETA] == theta

    def test_initial_state_is_a_read_only_copy(self):
        start = np.zeros(12)
        sc = scenario_case(1, initial_state=start)
        with pytest.raises(ValueError, match="read-only"):
            sc.initial_state[THETA] = 1.6
        start[THETA] = 0.3
        assert sc.initial_state[THETA] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            scenario_case(1).initial_state[THETA] = 1.6


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

    def test_pid_heading_near_pi_settles(self, params):
        # psi overshoots past pi and is wrapped to -pi; an unwrapped
        # heading error then jumps by 2 pi and spins the vehicle up
        sc = scenario_case(3, references=Setpoints(z_ref=1.0, psi_ref=3.1))
        trajectory = run_closed_loop(sc, PidCascadeController(CascadeConfig(), params),
                                     params)
        assert trajectory.states[:, PSI].min() < -3.1
        psi = compute_metrics(trajectory, "psi", 3.1)
        assert psi.settled
        assert psi.steady_state == pytest.approx(3.1, abs=0.01)
        assert abs(trajectory.states[-1, 11]) < 0.01

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


class TestSampleRows:
    @pytest.mark.parametrize("as_sequence", [tuple, np.array], ids=["tuple", "ndarray"])
    def test_controller_may_return_any_4_sequence(self, params, as_sequence):
        sc = scenario_case(3, duration=0.5, dt=0.001)
        listed = run_closed_loop(sc, PidCascadeController(CascadeConfig(), params), params)
        seen = []

        class Wrapped(PidCascadeController):
            def control(self, state):
                u = super().control(state)
                seen.append([*state, *u])
                return as_sequence(u)

        trajectory = run_closed_loop(sc, Wrapped(CascadeConfig(), params), params)
        assert np.array_equal(trajectory.table, listed.table)
        # row i is (t_i, x_i, u_i), u_i returned at x_i, the last row too
        assert len(seen) == sc.sample_count
        assert np.array_equal(trajectory.times, np.arange(sc.sample_count) * sc.dt)
        assert np.array_equal(trajectory.table[:, 1:], seen)


class TestRunCost:
    def test_lqr_run_cost_matches_value_function(self, params, hover_ss, default_weights,
                                                 linear_case2_lqr):
        # along the optimal closed loop the cost accrued over [0, T] is
        # V(x0) - V(xT) with V(x) = x' S x; the held control and the
        # trapezoid rule account for the 2e-4 left over
        S = solve_care(hover_ss.A, hover_ss.B, default_weights).S
        trajectory = linear_case2_lqr
        _, u_hover = hover_equilibrium(params)
        x, u = trajectory.states, trajectory.controls - u_hover
        integrand = (np.einsum("ij,jk,ik->i", x, default_weights.Q, x)
                     + np.einsum("ij,jk,ik->i", u, default_weights.R, u))
        cost = float(np.sum(np.diff(trajectory.times) * (integrand[1:] + integrand[:-1])) / 2)
        x0, x_final = trajectory.states[0], trajectory.states[-1]
        assert cost == pytest.approx(x0 @ S @ x0 - x_final @ S @ x_final, rel=1e-3)


class TestTrajectory:
    def test_table_not_2d_with_17_columns_rejected(self):
        for shape in [(17,), (3, 16), (3, 18), (1, 3, 17)]:
            with pytest.raises(ValueError, match="2-D with 17 columns"):
                Trajectory(np.zeros(shape))

    def test_nonuniform_grid_rejected(self):
        times = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError, match="uniform"):
            Trajectory(np.column_stack([times, np.zeros((3, 16))]))

    @pytest.mark.parametrize("start, dt, n", [
        # the simulator's grid for t_final 33095.68 at this dt: 9.99e6
        # steps, under MAX_STEPS, whose samples round by ~ulp(t_final)
        (0.0, LONG_DT, scenario_case(1, duration=33095.68, dt=LONG_DT).sample_count),
        (1e6, 1e-3, 1000),
    ], ids=["long", "offset"])
    def test_long_and_offset_grids_accepted(self, start, dt, n):
        times = start + np.arange(n) * dt
        # every column a view of the grid: only the times are checked
        Trajectory(np.broadcast_to(times[:, None], (n, 17)))

    def test_channel_lookup(self, rng):
        states = rng.normal(size=(5, 12))
        trajectory = Trajectory(np.column_stack([np.arange(5.0), states, np.zeros((5, 4))]))
        assert np.array_equal(trajectory.channel("theta"), states[:, 4])


class TestComputeMetrics:
    def test_constant_signal_at_reference(self):
        times = np.arange(0.0, 10.0, 0.01)
        trajectory = synthetic_trajectory(times, np.ones_like(times))
        m = compute_metrics(trajectory, "z", reference=1.0)
        assert m.overshoot == 0.0
        assert m.settling_time == 0.0
        assert m.peak_count == 0
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
        assert m.peak_count >= 1

    def test_time_shift_invariance(self):
        dt = 0.01
        times = np.arange(0.0, 12.0, dt)
        values = 1.0 - np.exp(-times) * (np.cos(3.0 * times) + np.sin(3.0 * times) / 3.0)
        base = compute_metrics(synthetic_trajectory(times, values), "z", 1.0)
        shifted = compute_metrics(synthetic_trajectory(times + 37.5, values), "z", 1.0)
        assert shifted.steady_state == base.steady_state
        assert shifted.overshoot == base.overshoot
        assert shifted.peak_count == base.peak_count
        assert shifted.settled == base.settled
        # the shifted grid itself carries rounding, so compare to fp accuracy
        assert shifted.settling_time == pytest.approx(base.settling_time, abs=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(-10.0, 10.0),
           b=st.one_of(st.floats(-10.0, -0.1), st.floats(0.1, 10.0)),
           c=st.floats(1.0, 5.0), w=st.floats(0.0, 20.0),
           reference=st.one_of(st.floats(-10.0, -1e-3), st.floats(1e-3, 10.0)),
           k=st.integers(-30, 30))
    def test_exact_rescaling_and_negation_invariance(self, a, b, c, w, reference, k):
        # y -> 2^k y and y -> -y, the reference moved alongside, are exact
        # in IEEE arithmetic, so every metric but the steady state keeps
        # its bits; an arbitrary a y + b is not exact and is not tested.
        # A zero reference is excluded: its absolute 0.02 band floor does
        # not scale.  |b| >= 0.1 and c >= 1 keep the step (about -b) clear
        # of the absolute 1e-12 floors of a vanishing step at every k.
        times = np.arange(0.0, 10.0, 0.01)
        y = a + b * np.exp(-c * times) * np.cos(w * times)
        base = compute_metrics(synthetic_trajectory(times, y), "z", reference)
        scale = 2.0 ** k
        scaled = compute_metrics(synthetic_trajectory(times, scale * y), "z",
                                 scale * reference)
        assert scaled == dataclasses.replace(base, steady_state=scale * base.steady_state)
        negated = compute_metrics(synthetic_trajectory(times, -y), "z", -reference)
        assert negated == dataclasses.replace(base, steady_state=-base.steady_state)

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

    def test_heading_across_pi_measured_unwrapped(self, params):
        # psi overshoots past pi to about 3.175 and is stored wrapped near
        # -3.11; the metrics see the overshoot, not a 2 pi excursion
        sc = scenario_case(3, references=Setpoints(z_ref=1.0, psi_ref=3.1))
        trajectory = run_closed_loop(sc, PidCascadeController(CascadeConfig(), params),
                                     params)
        assert trajectory.states[:, PSI].min() < -3.1
        assert trajectory.states[:, PSI].max() < math.pi
        psi = compute_metrics(trajectory, "psi", 3.1)
        assert psi.overshoot == pytest.approx(0.0238, abs=1e-4)
        assert psi.settling_time == pytest.approx(1.69, abs=1e-9)
        assert psi.peak_count == 1

    def test_unknown_channel_rejected(self):
        times = np.arange(0.0, 1.0, 0.01)
        trajectory = synthetic_trajectory(times, np.zeros_like(times))
        from quadctrl.sim import ChannelUnknown
        with pytest.raises(ChannelUnknown):
            compute_metrics(trajectory, "altitude", reference=0.0)
