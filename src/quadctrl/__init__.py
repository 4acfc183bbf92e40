"""Quadrotor flight-control simulation toolkit.

Nonlinear rigid-body model, hover linearization with a
finite-difference oracle, an LQR synthesized through a from-scratch
continuous Riccati solver, a cascaded PID flight controller, and
fixed-step closed-loop benchmark scenarios with step-response metrics.
"""

from .linearize import StateSpace, hover_jacobians, numeric_jacobians
from .model import (
    InfeasibleMix,
    QuadrotorParams,
    dynamics,
    hover_equilibrium,
    rotor_mix,
    rotor_unmix,
)
from .pid import (
    CascadeConfig,
    CascadeMemory,
    PidGains,
    PidState,
    Setpoints,
    cascade_step,
    gains_from_time_constants,
    pid_step,
)
from .riccati import (
    DEFAULT_Q_DIAGONAL,
    DEFAULT_R_DIAGONAL,
    CareSolution,
    LqrWeights,
    NoConvergence,
    NotStabilizable,
    evaluate_cost,
    feedback_control,
    lqr_gain,
    solve_care,
    solve_lyapunov,
)
from .sim import (
    LqrController,
    Metrics,
    NonFiniteState,
    PidCascadeController,
    Scenario,
    ThetaOutOfRange,
    Trajectory,
    compute_metrics,
    rk4_step,
    run_closed_loop,
    scenario_case,
)

__version__ = "0.1.0"

__all__ = [
    "CareSolution",
    "CascadeConfig",
    "CascadeMemory",
    "DEFAULT_Q_DIAGONAL",
    "DEFAULT_R_DIAGONAL",
    "InfeasibleMix",
    "LqrController",
    "LqrWeights",
    "Metrics",
    "NoConvergence",
    "NonFiniteState",
    "NotStabilizable",
    "PidCascadeController",
    "PidGains",
    "PidState",
    "QuadrotorParams",
    "Scenario",
    "Setpoints",
    "StateSpace",
    "ThetaOutOfRange",
    "Trajectory",
    "cascade_step",
    "compute_metrics",
    "dynamics",
    "evaluate_cost",
    "feedback_control",
    "gains_from_time_constants",
    "hover_equilibrium",
    "hover_jacobians",
    "lqr_gain",
    "numeric_jacobians",
    "pid_step",
    "rk4_step",
    "rotor_mix",
    "rotor_unmix",
    "run_closed_loop",
    "scenario_case",
    "solve_care",
    "solve_lyapunov",
]
