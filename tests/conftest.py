import numpy as np
import pytest

from quadctrl import (
    DEFAULT_Q_DIAGONAL,
    DEFAULT_R_DIAGONAL,
    LqrController,
    LqrWeights,
    QuadrotorParams,
    hover_jacobians,
    lqr_gain,
    run_closed_loop,
    scenario_case,
)


@pytest.fixture(scope="session")
def params():
    return QuadrotorParams()


@pytest.fixture(scope="session")
def hover_ss(params):
    return hover_jacobians(params)


@pytest.fixture(scope="session")
def default_weights():
    return LqrWeights.from_diagonals(DEFAULT_Q_DIAGONAL, DEFAULT_R_DIAGONAL)


@pytest.fixture(scope="session")
def default_gain(hover_ss, default_weights):
    return lqr_gain(hover_ss.A, hover_ss.B, default_weights)


@pytest.fixture(scope="session")
def linear_case2_lqr(params, default_gain):
    """The stock LQR flying case 2 on the linear plant at dt = 5e-5 for 15 s.

    Case 2 excites the stiff attitude modes, which the stock 1 ms grid
    does not hold, so the run takes the fine grid.
    """
    return run_closed_loop(scenario_case(2, dt=5e-5, plant_mode="linear"),
                           LqrController(default_gain, params), params)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
