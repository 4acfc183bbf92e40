"""quadctrl benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one ``quadctrl.cli.main(argv)`` call, issued after the
previous one finished, on inputs drawn from ``--seed``; every op's
output is checked.  ``--trace 0`` runs ops for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` runs a fixed op list once
untraced and once traced and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report with the machine metadata.  See perfbench/README.md.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads them; the
# setup subprocesses inherit the same environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

sys.path.insert(0, str(SRC))
try:
    import numpy
    import scipy
    from quadctrl import cli
except ImportError as exc:
    sys.exit(f"perfbench: cannot import quadctrl from {SRC}: {exc}")
if not Path(cli.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: quadctrl was imported from {cli.__file__}, not from {SRC}")

import tracer as tracing
import workloads

DEFAULT_SEED = 0
SETUP_SAMPLES = 5
SETUP_CODE = "import quadctrl.cli as c; c.parse_config('{}')"

# Median wall time of calibrate() on the reference host: a shared 2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6 (README, "Host speed").
CALIBRATION_REF_S = 0.027
_CALIBRATION_MATRIX = numpy.eye(12) * 0.5 + 0.02


def calibrate() -> float:
    """Wall time of a fixed loop of 12-vector numpy steps, scalar Python
    work and a small LAPACK solve: the mix of a simulation step.  It runs
    no quadctrl code, so only the host's speed moves it."""
    x, total = numpy.ones(12), 0.0
    start = perf_counter()
    for step in range(6000):
        x = numpy.tanh(_CALIBRATION_MATRIX @ x) + 0.1
        total += float(x[step % 12]) ** 2
        if step % 100 == 0:
            x = numpy.linalg.solve(_CALIBRATION_MATRIX, x)
    return perf_counter() - start


class HostSpeed:
    """Rescales wall times to the reference host's speed.

    A shared host's speed drifts by +-20% within a minute, as wide as the
    largest bound a gated metric may have.  Each timed interval lies
    between two calibrations, and its time is scaled by
    ``CALIBRATION_REF_S`` over their mean.
    """

    def __init__(self) -> None:
        self.calibrations = [calibrate()]

    def scale(self, seconds: float) -> float:
        before = self.calibrations[-1]
        self.calibrations.append(calibrate())
        return seconds * 2.0 * CALIBRATION_REF_S / (before + self.calibrations[-1])


def measure_setup() -> tuple[float, float]:
    """Median time of fresh interpreters that import the CLI and parse
    the default config, after one unmeasured run that fills the bytecode
    cache; as wall time and scaled to the reference host speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    host, wall, scaled = None, [], []
    for _ in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
        elapsed = perf_counter() - start
        if host:
            wall.append(elapsed)
            scaled.append(host.scale(elapsed))
        else:
            host = HostSpeed()
    return statistics.median(wall), statistics.median(scaled)


def execute(op: workloads.Op) -> tuple[float, int, dict[str, bytes]]:
    """Run one op; return its wall time, exit code and artifacts.

    Only the ``cli.main`` call is timed.  Artifacts are the files the
    command wrote plus, when not empty, what it printed.  An exception
    escaping the CLI is an op failure with exit code -1.
    """
    config, out = WORK / "config.json", WORK / "out"
    config.write_text(workloads.config_text(op), encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    argv = ["--config", str(config), *op.command]
    if op.kind != "gain":
        argv += ["--out", str(out)]
    printed = io.StringIO()
    gc.collect()        # the previous op's garbage is not this op's cost
    with contextlib.redirect_stdout(printed):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed = perf_counter() - start
    artifacts = {path.name: path.read_bytes()
                 for path in sorted(out.iterdir())} if out.is_dir() else {}
    if printed.getvalue():
        artifacts["stdout"] = printed.getvalue().encode()
    return elapsed, code, artifacts


def digests(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}


def trace_ops(workload: str, seed: int) -> list[workloads.Op]:
    return list(itertools.islice(workloads.ops(workload, seed),
                                 workloads.TRACE_OPS[workload]))


def warm_up() -> None:
    for op in workloads.warmup_ops():
        _, code, _ = execute(op)
        if code != 0:
            sys.exit(f"perfbench: warm-up op {op.command} exited {code}")


def check(op: workloads.Op, index: int, code: int, artifacts: dict, log: list) -> bool:
    found = workloads.problems(op, code, artifacts)
    for problem in found:
        log.append(f"FAILED op {index} {' '.join(op.command)}: {problem}")
    return not found


def timed_run(workload: str, seed: int, seconds: float, log: list) -> dict:
    """Closed loop with one client for ``seconds``, ended on a whole round."""
    setup_wall, setup_s = measure_setup()
    warm_up()
    times, scaled, steps, failed = [], [], 0, 0
    ops = workloads.ops(workload, seed)
    host = HostSpeed()
    start = perf_counter()
    while True:
        op = next(ops)
        elapsed, code, artifacts = execute(op)
        times.append(elapsed)
        scaled.append(host.scale(elapsed))
        if check(op, len(times) - 1, code, artifacts, log):
            steps += op.steps
        else:
            failed += 1
        if (perf_counter() - start >= seconds
                and len(times) % workloads.ROUND[workload] == 0):
            break

    busy = sum(times)
    # Throughput of each round of op kinds, then the median over rounds,
    # so a slow spell of a shared host moves it no more than op_p50_s.
    size = workloads.ROUND[workload]
    round_rates = [size / sum(scaled[i:i + size]) for i in range(0, len(scaled), size)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(round_rates), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    log.append(f"wall time: setup_s {setup_wall:.6g} s, op_p50_s {statistics.median(times):.6g} s; "
               f"calibration median {statistics.median(host.calibrations):.6g} s "
               f"(reference {CALIBRATION_REF_S} s)")
    # Report-only, in wall time: zero on some workloads or without a tail
    # on others, so they are not in BENCHMARK.json (see README).
    log.append(f"failed_ratio {failed / len(times):.6g} ({failed}/{len(times)} ops)")
    if steps:
        log.append(f"sim_steps_per_s {steps / busy:.6g} 1/s ({steps} steps)")
    tail_rank = len(times) - 11          # 10 samples lie beyond this one
    if tail_rank > len(times) // 2:
        percentile = 100.0 * (tail_rank + 1) / len(times)
        log.append(f"op_tail_s {sorted(times)[tail_rank]:.6g} s "
                   f"(p{percentile:.0f} of {len(times)} ops)")
    else:
        log.append(f"op_tail_s omitted: {len(times)} ops leave no tail "
                   "percentile with 10 samples beyond it")
    return {"attempted": len(times), "failed": failed, "metrics": metrics,
            "op_seconds": times, "calibration_seconds": host.calibrations}


def traced_run(workload: str, seed: int, log: list) -> dict:
    """The fixed trace op list; each op runs untraced, then traced."""
    warm_up()
    ops = trace_ops(workload, seed)
    stored = []
    if seed == DEFAULT_SEED and DIGESTS.is_file():
        stored = json.loads(DIGESTS.read_text())["workloads"].get(workload, [])
    tracer = tracing.Tracer()
    untraced, traced, failed, artifact_bytes, digest_match = 0.0, 0.0, 0, 0, 0
    for index, op in enumerate(ops):
        untraced += execute(op)[0]
        with tracer.installed():
            elapsed, code, artifacts = execute(op)
        traced += elapsed
        failed += not check(op, index, code, artifacts, log)
        artifact_bytes += sum(len(data) for data in artifacts.values())
        digest_match += index < len(stored) and digests(artifacts) == stored[index]

    metrics = tracing.layer_metrics(tracer)
    metrics["cli.artifact_bytes"] = (artifact_bytes, "B")
    metrics["cli.digest_match"] = (digest_match, "count")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    log.append(f"traced {len(ops)} ops: {traced:.6g} s traced, {untraced:.6g} s untraced; "
               f"{digest_match}/{len(ops)} artifact digests match the stored ones"
               + ("" if seed == DEFAULT_SEED else f" (stored for seed {DEFAULT_SEED} only)"))
    spans_path = WORK / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps([dataclasses.asdict(span) for span in tracer.spans]))
    log.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return {"attempted": len(ops), "failed": failed, "metrics": metrics}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_metadata() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    log: list[str] = []
    if args.trace:
        result = traced_run(args.workload, args.seed, log)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, log)
    meta = machine_metadata()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    for line in log:
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "meta": meta, "report": log,
                    "op_seconds": result.get("op_seconds"),
                    "calibration_seconds": result.get("calibration_seconds")}, indent=2))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
