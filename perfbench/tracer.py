"""Tracing from outside the program: wrap quadctrl's functions at the
bindings the program calls them through, record spans and self times,
and derive the per-layer metrics.

Coarse calls (a CLI command, ``lqr_gain``, ``solve_care``,
``run_closed_loop``, ``compute_metrics``, ``trajectory_csv``, ...) each
get one span with a parent.  Per-step and per-iteration functions
(``dynamics``, ``rk4_step``, ``cascade_step``, controller ``control``,
``solve_lyapunov``, ``care_residual``) would make millions of spans on
a stiff op, so they only add a call count and self time to their
nearest enclosing span.  A function's self time is its duration minus
the time spent in wrapped functions it called.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter

SPAN, AGGREGATE = "span", "aggregate"

# (module, attribute path inside it, layer.function name, kind).  Each
# entry is a binding the program looks up at call time, so replacing it
# intercepts the program's own calls.
BINDINGS = (
    ("quadctrl.cli", "main", "cli.main", SPAN),
    ("quadctrl.cli", "cmd_run", "cli.cmd_run", SPAN),
    ("quadctrl.cli", "cmd_compare", "cli.cmd_compare", SPAN),
    ("quadctrl.cli", "cmd_gain", "cli.cmd_gain", SPAN),
    ("quadctrl.cli", "parse_config", "cli.parse_config", SPAN),
    ("quadctrl.cli", "metrics_report", "cli.metrics_report", SPAN),
    ("quadctrl.cli", "trajectory_csv", "cli.trajectory_csv", SPAN),
    ("quadctrl.cli", "hover_jacobians", "linearize.hover_jacobians", SPAN),
    ("quadctrl.cli", "run_closed_loop", "sim.run_closed_loop", SPAN),
    ("quadctrl.sim", "hover_jacobians", "linearize.hover_jacobians", SPAN),
    ("quadctrl.sim", "compute_metrics", "sim.compute_metrics", SPAN),
    ("quadctrl.sim", "rk4_step", "sim.rk4_step", AGGREGATE),
    ("quadctrl.sim", "cascade_step", "pid.cascade_step", AGGREGATE),
    ("quadctrl.sim", "LqrController.control", "sim.control", AGGREGATE),
    ("quadctrl.sim", "PidCascadeController.control", "sim.control", AGGREGATE),
    ("quadctrl.model", "dynamics", "model.dynamics", AGGREGATE),
    ("quadctrl.model", "normalize_state", "model.normalize_state", AGGREGATE),
    ("quadctrl.riccati", "lqr_gain", "riccati.lqr_gain", SPAN),
    ("quadctrl.riccati", "solve_care", "riccati.solve_care", SPAN),
    ("quadctrl.riccati", "is_controllable", "linearize.is_controllable", SPAN),
    ("quadctrl.riccati", "stabilizing_gain", "riccati.stabilizing_gain", SPAN),
    ("quadctrl.riccati", "solve_lyapunov", "riccati.solve_lyapunov", AGGREGATE),
    ("quadctrl.riccati", "care_residual", "riccati.care_residual", AGGREGATE),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    self_s: float = 0.0
    ok: bool = True
    # per-step callee name -> [calls, self seconds]
    aggregates: dict[str, list] = field(default_factory=dict)


def _owner_and_attr(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and per-step aggregates of every op run while installed."""

    def __init__(self) -> None:
        self.root = Span(id=0, name="trace", parent=None)
        self.spans: list[Span] = [self.root]
        self._open: list[Span] = [self.root]
        # one [child seconds] cell per active wrapped call
        self._frames: list[list[float]] = [[0.0]]

    def _span_wrapper(self, name: str, fn):
        spans, open_spans, frames = self.spans, self._open, self._frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(id=len(spans), name=name, parent=open_spans[-1].id)
            spans.append(span)
            open_spans.append(span)
            frame = [0.0]
            frames.append(frame)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = perf_counter()
                frames.pop()
                open_spans.pop()
                duration = span.end - span.start
                span.self_s = duration - frame[0]
                frames[-1][0] += duration
        return wrapper

    def _aggregate_wrapper(self, name: str, fn):
        open_spans, frames = self._open, self._frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                frames.pop()
                frames[-1][0] += duration
                totals = open_spans[-1].aggregates.setdefault(name, [0, 0.0])
                totals[0] += 1
                totals[1] += duration - frame[0]
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding in :data:`BINDINGS` by a timing wrapper
        and restore the originals on exit, whatever happens inside."""
        saved = []
        try:
            for module_name, path, name, kind in BINDINGS:
                owner, attr = _owner_and_attr(module_name, path)
                original = vars(owner)[attr]
                make = self._span_wrapper if kind == SPAN else self._aggregate_wrapper
                saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, list]:
        """name -> [calls, self seconds] over spans and aggregates."""
        totals: dict[str, list] = {}
        for span in self.spans[1:]:
            entry = totals.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += span.self_s
        for span in self.spans:
            for name, (calls, self_s) in span.aggregates.items():
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        return totals

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


def current_bindings() -> dict:
    """(module, attribute path) -> the object bound there now."""
    return {(m, p): vars(_owner_and_attr(m, p)[0])[p.split(".")[-1]]
            for m, p, _, _ in BINDINGS}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of everything the tracer saw: name -> (value, unit)."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0])[1]

    def ok_ratio(name):
        spans = tracer.named(name)
        return sum(span.ok for span in spans) / len(spans) if spans else 0.0

    runs = tracer.named("sim.run_closed_loop")
    cares = tracer.named("riccati.solve_care")
    metrics = {
        "model.dynamics.calls": (calls("model.dynamics"), "count"),
        "model.dynamics.self_s": (self_s("model.dynamics"), "s"),
        "model.normalize_state.self_s": (self_s("model.normalize_state"), "s"),
        "sim.rk4_step.calls": (calls("sim.rk4_step"), "count"),
        "sim.rk4_step.self_s": (self_s("sim.rk4_step"), "s"),
        "sim.run_closed_loop.calls": (len(runs), "count"),
        "sim.run_closed_loop.self_s": (self_s("sim.run_closed_loop"), "s"),
        "sim.steps": (sum(span.aggregates.get("sim.rk4_step", [0])[0]
                          for span in runs if span.ok), "count"),
        "sim.completed_ratio": (ok_ratio("sim.run_closed_loop"), "ratio"),
        "sim.control.self_s": (self_s("sim.control"), "s"),
        "pid.cascade_step.calls": (calls("pid.cascade_step"), "count"),
        "pid.cascade_step.self_s": (self_s("pid.cascade_step"), "s"),
        "riccati.lqr_gain.calls": (calls("riccati.lqr_gain"), "count"),
        "riccati.lqr_gain.self_s": (self_s("riccati.lqr_gain"), "s"),
        "riccati.solve_care.self_s": (self_s("riccati.solve_care"), "s"),
        "riccati.stabilizing_gain.self_s": (self_s("riccati.stabilizing_gain"), "s"),
        "riccati.solve_lyapunov.calls": (calls("riccati.solve_lyapunov"), "count"),
        "riccati.solve_lyapunov.self_s": (self_s("riccati.solve_lyapunov"), "s"),
        "riccati.care_residual.self_s": (self_s("riccati.care_residual"), "s"),
        # Lyapunov solves directly under solve_care: the Newton steps, not
        # the one inside stabilizing_gain (which is a span of its own).
        "riccati.newton_iters": (sum(span.aggregates.get("riccati.solve_lyapunov", [0])[0]
                                     for span in cares), "count"),
        "riccati.converged_ratio": (ok_ratio("riccati.solve_care"), "ratio"),
        "linearize.hover_jacobians.calls": (calls("linearize.hover_jacobians"), "count"),
        "linearize.is_controllable.self_s": (self_s("linearize.is_controllable"), "s"),
        "cli.parse_config.self_s": (self_s("cli.parse_config"), "s"),
        "cli.trajectory_csv.calls": (calls("cli.trajectory_csv"), "count"),
        "cli.trajectory_csv.self_s": (self_s("cli.trajectory_csv"), "s"),
        "cli.metrics_report.self_s": (self_s("cli.metrics_report"), "s"),
        "sim.compute_metrics.self_s": (self_s("sim.compute_metrics"), "s"),
    }
    return metrics
