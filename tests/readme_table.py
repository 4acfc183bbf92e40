"""The README's PID-vs-LQR table, rendered from the benchmark runs.

:func:`render` formats the table from each case's (lqr, pid)
trajectories; ``tests/test_acceptance.py`` compares it with the README
block between the two marker comments.  Run as a script, it flies the
runs itself and rewrites that block::

    PYTHONPATH=src python tests/readme_table.py
"""

from pathlib import Path

from quadctrl import (
    DEFAULT_Q_DIAGONAL,
    DEFAULT_R_DIAGONAL,
    CascadeConfig,
    LqrController,
    LqrWeights,
    PidCascadeController,
    QuadrotorParams,
    compute_metrics,
    hover_jacobians,
    lqr_gain,
    model,
    run_closed_loop,
    scenario_case,
)

README = Path(__file__).resolve().parents[1] / "README.md"
BEGIN = "<!-- paper-table:begin (python tests/readme_table.py rewrites it) -->\n"
END = "<!-- paper-table:end -->\n"
# (case, channel) rows, and the grid each case flies on: case 1 on the
# stock 1 ms, cases 2 and 3 at 5e-5, where the sampled LQR loop is stable
ROWS = [(1, "z"), (2, "x"), (2, "y"), (2, "z"), (2, "phi"), (3, "psi")]
CASE_DT = {1: 1e-3, 2: 5e-5, 3: 5e-5}


def _cells(trajectory, case_id: int, channel: str) -> list[str]:
    reference = scenario_case(case_id).references.reference_state()[
        model.STATE_LABELS.index(channel)]
    metrics = compute_metrics(trajectory, channel, reference)
    settling = ("never settles" if metrics.settling_time is None
                else f"{metrics.settling_time:#.3g} s")
    return [settling, f"{100.0 * metrics.overshoot:#.3g}%", str(metrics.peak_count)]


def render(runs: dict) -> str:
    """The table for ``runs``, which maps each case id to its (lqr, pid)."""
    lines = ["| case | channel | dt | PID settling | PID overshoot | PID peaks "
             "| LQR settling | LQR overshoot | LQR peaks |",
             "|---|---|---|---|---|---|---|---|---|"]
    for case_id, channel in ROWS:
        lqr, pid = runs[case_id]
        cells = [str(case_id), channel, f"{lqr.times[1]:g} s",
                 *_cells(pid, case_id, channel), *_cells(lqr, case_id, channel)]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def block_span(text: str) -> slice:
    """Where the README's text between its two marker comments lies."""
    return slice(text.index(BEGIN) + len(BEGIN), text.index(END))


def fly(case_id: int) -> tuple:
    """The stock LQR and PID runs of one case on its ``CASE_DT`` grid."""
    params = QuadrotorParams()
    ss = hover_jacobians(params)
    gain = lqr_gain(ss.A, ss.B, LqrWeights.from_diagonals(DEFAULT_Q_DIAGONAL,
                                                          DEFAULT_R_DIAGONAL))
    scenario = scenario_case(case_id, dt=CASE_DT[case_id])
    return (run_closed_loop(scenario, LqrController(gain, params), params),
            run_closed_loop(scenario, PidCascadeController(CascadeConfig(), params), params))


if __name__ == "__main__":
    text = README.read_text(encoding="utf-8")
    span = block_span(text)
    table = render({case_id: fly(case_id) for case_id in CASE_DT})
    README.write_text(text[:span.start] + table + text[span.stop:], encoding="utf-8",
                      newline="\n")
