"""The benchmark's own checks: tracing does not perturb the program, its
wrappers are gone once a traced op ends, and traced counts repeat.

    python3 -m pytest perfbench
"""

import pytest

import run
import tracer
import workloads


def _all_original(originals: dict) -> bool:
    return all(bound is originals[key] for key, bound in tracer.current_bindings().items())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_artifacts_are_byte_identical(workload):
    run.WORK.mkdir(exist_ok=True)
    op = run.trace_ops(workload, run.DEFAULT_SEED)[0]
    originals = tracer.current_bindings()
    _, code, plain = run.execute(op)

    trace = tracer.Tracer()
    with trace.installed():
        assert not any(bound is originals[key]
                       for key, bound in tracer.current_bindings().items())
        _, traced_code, traced = run.execute(op)

    assert _all_original(originals)
    assert code == traced_code == 0
    assert traced == plain
    assert len(trace.named("cli.main")) == 1
    assert not workloads.problems(op, traced_code, traced)


def test_wrappers_removed_when_the_op_raises():
    originals = tracer.current_bindings()
    with pytest.raises(RuntimeError), tracer.Tracer().installed():
        raise RuntimeError("op failed")
    assert _all_original(originals)


def test_traced_counts_repeat_exactly():
    run.WORK.mkdir(exist_ok=True)
    ops = run.trace_ops("synthesis_sweep", run.DEFAULT_SEED)[:2]
    counts = []
    for _ in range(2):
        trace = tracer.Tracer()
        for op in ops:
            with trace.installed():
                run.execute(op)
        metrics = tracer.layer_metrics(trace)
        counts.append({name: value for name, (value, unit) in metrics.items()
                       if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["riccati.newton_iters"] > 0
