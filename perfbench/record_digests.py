"""Write perfbench/digests.json: the SHA-256 digest of every artifact of
each workload's traced op list for the default seed.

    python3 perfbench/record_digests.py

Run it on the commit whose artifacts are the reference.  Traced runs on
the default seed then report how many ops still match as the per-layer
count ``cli.digest_match``; a moved digest is visible there without
failing the op, whose correctness the oracles judge.
"""

import json
import sys

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = []
        for index, op in enumerate(run.trace_ops(workload, run.DEFAULT_SEED)):
            _, code, artifacts = run.execute(op)
            found = workloads.problems(op, code, artifacts)
            if found:
                sys.exit(f"{workload} op {index} is wrong, not recording: {found}")
            table[workload].append(run.digests(artifacts))
    document = {"seed": run.DEFAULT_SEED, "meta": run.machine_metadata(),
                "workloads": table}
    run.DIGESTS.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
