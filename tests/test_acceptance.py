"""End-to-end acceptance checks for the toolkit.

Each test covers one numbered criterion at its stated tolerance and
prints a PASS/FAIL line (visible with ``pytest -s``).  The expensive
closed-loop benchmark runs are shared through module-scoped fixtures,
and the README's PID-vs-LQR table is checked against them.

The benchmark regulator is deliberately aggressive (cheap-control
weights push closed-loop modes up to ~2.9e4 rad/s), and cases 2 and 3
excite those modes.  The simulator holds u across each step, so the
closed loop is a sampled-data system: it is stable only while the
zero-order-hold loop matrix Phi - Gamma K has spectral radius below 1.
For the benchmark gain that radius is 27.8 at the stock 1 ms and
0.99995 at dt = 5e-5 (tests/test_linearize.py pins both), so cases 2
and 3 run at dt = 5e-5.  The integrator is not the limit: the linear
plant is its exact zero-order-hold map (Phi, Gamma) = linearize.zoh,
and the radius belongs to the sampled loop itself.  Case 1 leaves the
stiff channels quiescent and runs on the stock 1 ms grid.
"""

import hashlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from quadctrl import (
    CascadeConfig,
    LqrController,
    LqrWeights,
    PidCascadeController,
    QuadrotorParams,
    compute_metrics,
    hover_jacobians,
    lqr_gain,
    model,
    numeric_jacobians,
    run_closed_loop,
    scenario_case,
    solve_care,
)
from quadctrl.cli import cmd_run, parse_config
from quadctrl.riccati import DEFAULT_Q_DIAGONAL, DEFAULT_R_DIAGONAL, care_residual

import readme_table

STIFF_DT = 5e-5   # sampled loop rho(Phi - Gamma K) = 0.99995 < 1 for the benchmark gain

# The paper's case-2 and case-3 runs at STIFF_DT, pinned by the SHA-256
# of each controller's (300001, 17) table.  The nonlinear loop makes no
# BLAS call, so these bits depend on the gain (numpy's LAPACK and BLAS,
# and the OpenBLAS kernel that computed it), libm's sin and cos, and
# numpy.  They hold only under the fingerprint they were recorded with:
# the gain's SHA-256, sin and cos at SIN_COS_PROBES, and the numpy
# release (here: OpenBLAS's SkylakeX kernel, glibc 2.36, numpy 2.4.6).
SIN_COS_PROBES = (0.5, 1.0, 3.0, 1e-3, 1e22)
PAPER_RUN_FINGERPRINT = (
    "bcc6c11637aae9117b3180b44d17032816663695fc79ffe43820b55d5bf740cd",
    ("0x1.eaee8744b05f0p-2", "0x1.c1528065b7d50p-1",
     "0x1.aed548f090ceep-1", "0x1.14a280fb5068cp-1",
     "0x1.210386db6d55bp-3", "-0x1.fae04be85e5d2p-1",
     "0x1.0624da5218a62p-10", "0x1.ffffef390876cp-1",
     "-0x1.b453ab76bf397p-1", "0x1.0be2cef01c8f4p-1"),
    "2.4.6",
)
PAPER_RUN_DIGESTS = {
    "case 2 lqr": "425f10cbea6d1e74e436016a0810903e824ceabbf0f414ab687f64d45e6020f2",
    "case 2 pid": "0260f18932b3b0bfd852f2c46066df93de2ec026560c348bc0ae7cb9d62a893b",
    "case 3 lqr": "5e06ea3bf6eb22bd8d6ce98aec692e5592683091b1a91ae7047f657898948295",
    "case 3 pid": "d8c7cef7ebebc029b115f051db9b9c02b329d49b8b11c4377beb812d1fde552b",
}


def paper_run_fingerprint(gain):
    return (hashlib.sha256(gain.tobytes()).hexdigest(),
            tuple(f(x).hex() for x in SIN_COS_PROBES for f in (math.sin, math.cos)),
            np.__version__)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{title}]: FAIL")
        raise
    else:
        print(f"criterion {number:2d} [{title}]: PASS")


@pytest.fixture(scope="module")
def bench_params():
    return QuadrotorParams()


@pytest.fixture(scope="module")
def bench_system(bench_params):
    ss = hover_jacobians(bench_params)
    weights = LqrWeights.from_diagonals(DEFAULT_Q_DIAGONAL, DEFAULT_R_DIAGONAL)
    return ss, weights


@pytest.fixture(scope="module")
def bench_gain(bench_system):
    ss, weights = bench_system
    return lqr_gain(ss.A, ss.B, weights)


@pytest.fixture(scope="module")
def case1_trajectories(bench_params, bench_gain):
    """Criterion 6's (lqr, pid) runs and the seconds they took together."""
    scenario = scenario_case(1)   # stock grid, nonlinear plant
    start = time.perf_counter()
    lqr = run_closed_loop(scenario, LqrController(bench_gain, bench_params),
                          bench_params)
    pid = run_closed_loop(scenario, PidCascadeController(CascadeConfig(), bench_params),
                          bench_params)
    return lqr, pid, time.perf_counter() - start


@pytest.fixture(scope="module")
def case2_trajectories(bench_params, bench_gain):
    scenario = scenario_case(2, dt=STIFF_DT)
    lqr = run_closed_loop(scenario, LqrController(bench_gain, bench_params),
                          bench_params)
    pid = run_closed_loop(scenario, PidCascadeController(CascadeConfig(), bench_params),
                          bench_params)
    return lqr, pid


@pytest.fixture(scope="module")
def case3_trajectories(bench_params, bench_gain):
    scenario = scenario_case(3, dt=STIFF_DT)
    lqr = run_closed_loop(scenario, LqrController(bench_gain, bench_params),
                          bench_params)
    pid = run_closed_loop(scenario, PidCascadeController(CascadeConfig(), bench_params),
                          bench_params)
    return lqr, pid


def chain_gain_closed_form(q1, q2, r, b):
    """Independent 2x2 oracle for A=[[0,1],[0,0]], B=[[0],[b]]:
    s2 = sqrt(q1 r)/b, s3 = sqrt(r q2 + 2 r s2)/b, K = (b/r)[s2, s3]."""
    s2 = math.sqrt(q1 * r) / b
    s3 = math.sqrt(r * q2 + 2.0 * r * s2) / b
    return (b / r) * np.array([s2, s3])


def test_criterion_1_riccati_residual_and_stability(bench_system):
    with criterion(1, "riccati residual + closed-loop stability"):
        ss, weights = bench_system
        start = time.perf_counter()
        solution = solve_care(ss.A, ss.B, weights)
        gain = lqr_gain(ss.A, ss.B, weights)
        elapsed = time.perf_counter() - start
        tolerance = 1e-9 * np.linalg.norm(weights.Q, "fro")
        assert solution.residual_norm < tolerance
        assert care_residual(ss.A, ss.B, solution.S, weights.Q, weights.R)[0] < tolerance
        closed = np.linalg.eigvals(ss.A - ss.B @ gain)
        assert float(closed.real.max()) < -1e-9
        assert elapsed < 1.0


def test_criterion_2_gain_reproduction(bench_gain, bench_params):
    with criterion(2, "yaw and altitude gain reproduction"):
        K = bench_gain
        yaw_psi, yaw_rate = K[3, 5], K[3, 11]
        # reference targets: yaw row [100, 32], altitude position gain 1.3
        assert abs(yaw_psi - 100.0) / 100.0 < 0.02
        assert abs(yaw_rate - 32.0) / 32.0 < 0.02
        assert abs(K[0, 2] - 1.3) / 1.3 < 0.01
        assert K[0, 2] == pytest.approx(1.3077, abs=2e-4)
        # independent closed-form oracle on the decoupled subsystems
        yaw_oracle = chain_gain_closed_form(
            DEFAULT_Q_DIAGONAL[5], DEFAULT_Q_DIAGONAL[11],
            DEFAULT_R_DIAGONAL[3], 1.0 / bench_params.inertia_zz)
        assert np.array([yaw_psi, yaw_rate]) == pytest.approx(yaw_oracle, rel=1e-6)
        alt_oracle = chain_gain_closed_form(
            DEFAULT_Q_DIAGONAL[2], DEFAULT_Q_DIAGONAL[8],
            DEFAULT_R_DIAGONAL[0], 1.0 / bench_params.mass)
        assert np.array([K[0, 2], K[0, 8]]) == pytest.approx(alt_oracle, rel=1e-6)


def test_criterion_3_double_integrator_oracle():
    with criterion(3, "double-integrator gain"):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        K = lqr_gain(A, B, LqrWeights(Q=np.eye(2), R=np.eye(1)))
        assert K[0] == pytest.approx([1.0, math.sqrt(3.0)], abs=1e-8)


def test_criterion_4_jacobian_oracle(bench_params):
    with criterion(4, "analytic vs finite-difference Jacobians"):
        rng = np.random.default_rng(42)

        def check(p):
            ss = hover_jacobians(p)
            A_fd, B_fd = numeric_jacobians(p)
            assert np.max(np.abs(A_fd - ss.A)) < 1e-5
            assert np.max(np.abs(B_fd - ss.B)) < 1e-5

        check(bench_params)
        for _ in range(20):
            jitter = lambda v: v * rng.uniform(0.5, 1.5)
            check(QuadrotorParams(
                mass=jitter(1.0), inertia_xx=jitter(0.0035), inertia_yy=jitter(0.0035),
                inertia_zz=jitter(0.005)))


def test_criterion_5_integrator_accuracy(bench_params):
    with criterion(5, "integrator accuracy and order"):
        # the nonlinear plant's own step: RK4 on the dynamics, then the
        # phi/psi wrap, which the tumbling start below never reaches
        # (|phi|, |psi| stay under 2.26 rad over the second)
        u = [0.0] * 4

        state = [0.0] * 12
        step = model.stepper(bench_params, 0.001)
        for _ in range(1000):
            state = step(state, u)
        assert state[2] == pytest.approx(-4.905, abs=1e-9)

        # quiescent free fall is integrated exactly, so the order check
        # tumbles the body to create genuine truncation error
        initial = [0.0] * 9 + [2.0, -1.5, 1.0]

        def integrate(dt):
            s, step = initial, model.stepper(bench_params, dt)
            for _ in range(int(round(1.0 / dt))):
                s = step(s, u)
            return s

        reference = integrate(1e-4)
        err_coarse = np.linalg.norm(np.subtract(integrate(0.02), reference))
        err_fine = np.linalg.norm(np.subtract(integrate(0.01), reference))
        assert err_coarse / err_fine >= 8.0


def test_criterion_6_case1_step_comparison(case1_trajectories):
    with criterion(6, "case 1: altitude step, PID vs LQR"):
        lqr_traj, pid_traj, elapsed = case1_trajectories
        lqr_z = compute_metrics(lqr_traj, "z", reference=1.0)
        pid_z = compute_metrics(pid_traj, "z", reference=1.0)
        assert lqr_z.overshoot < 0.01
        assert pid_z.overshoot > 0.02
        assert pid_z.peak_count >= lqr_z.peak_count + 1
        assert lqr_z.settled and lqr_z.settling_time < 5.0
        assert pid_z.settled and pid_z.settling_time < 5.0
        assert elapsed < 5.0


def test_criterion_7_case2_regulation(case2_trajectories):
    with criterion(7, "case 2: disturbed-state regulation"):
        lqr_traj, pid_traj = case2_trajectories
        lqr_settling = []
        for channel in ("x", "y", "z", "phi", "theta", "psi",
                        "xdot", "ydot", "zdot", "p", "q", "r"):
            metric = compute_metrics(lqr_traj, channel, reference=0.0)
            assert metric.settled, f"{channel} never settled"
            lqr_settling.append(metric.settling_time)
        assert 3.0 <= max(lqr_settling) <= 11.0
        for channel in ("x", "y"):
            lqr_peaks = compute_metrics(lqr_traj, channel, 0.0).peak_count
            pid_peaks = compute_metrics(pid_traj, channel, 0.0).peak_count
            assert lqr_peaks <= pid_peaks


def test_case2_lqr_heading_regulates_below_the_spacing_of_pi(case2_trajectories):
    # the per-step wrap keeps psi's bits, so psi decays past 4.4e-16,
    # the float spacing of pi, without being rounded to a multiple of it
    psi = compute_metrics(case2_trajectories[0], "psi", reference=0.0)
    assert psi.overshoot == 0.0
    assert abs(psi.steady_state) < 1e-20


def test_criterion_8_case3_yaw_transient(case3_trajectories):
    with criterion(8, "case 3: yaw step and rate transient"):
        lqr_traj, pid_traj = case3_trajectories
        for trajectory in (lqr_traj, pid_traj):
            psi = compute_metrics(trajectory, "psi", reference=0.5)
            assert psi.settled and psi.settling_time <= 5.0
        lqr_rate_peak = float(np.abs(lqr_traj.channel("r")).max())
        pid_rate_peak = float(np.abs(pid_traj.channel("r")).max())
        assert pid_rate_peak >= 2.0 * lqr_rate_peak


def test_criterion_9_lyapunov_decay(bench_system, linear_case2_lqr):
    with criterion(9, "quadratic Lyapunov decay in linear mode"):
        ss, weights = bench_system
        solution = solve_care(ss.A, ss.B, weights)
        trajectory = linear_case2_lqr
        v = np.einsum("ij,jk,ik->i", trajectory.states, solution.S,
                      trajectory.states)
        assert np.all(np.diff(v) <= 1e-6)


def test_criterion_10_byte_identical_reruns(tmp_path):
    with criterion(10, "deterministic artifact emission"):
        config = parse_config("{}")
        first, second = tmp_path / "first", tmp_path / "second"
        assert cmd_run(config, "lqr", first) == 0
        assert cmd_run(config, "lqr", second) == 0
        for name in ("trajectory.csv", "metrics.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        # the emitted metrics stay parseable
        json.loads((first / "metrics.json").read_text())


def test_paper_runs_keep_their_bits(bench_gain, case2_trajectories, case3_trajectories):
    fingerprint = paper_run_fingerprint(bench_gain)
    if fingerprint != PAPER_RUN_FINGERPRINT:
        pytest.skip("the case-2/3 digests were recorded under another gain, libm "
                    f"sin/cos or numpy release; this host reads {fingerprint}")
    digests = {}
    for case, runs in ((2, case2_trajectories), (3, case3_trajectories)):
        for name, run in zip(("lqr", "pid"), runs):
            assert run.table.shape == (300001, 17)
            digests[f"case {case} {name}"] = hashlib.sha256(run.table.tobytes()).hexdigest()
    assert digests == PAPER_RUN_DIGESTS


def test_readme_table_matches_the_acceptance_runs(case1_trajectories, case2_trajectories,
                                                  case3_trajectories):
    # a value on a rounding boundary of its 3 digits shows in the diff
    text = readme_table.README.read_text(encoding="utf-8")
    rendered = readme_table.render(
        {1: case1_trajectories[:2], 2: case2_trajectories, 3: case3_trajectories})
    assert text[readme_table.block_span(text)] == rendered
