"""Fresh-interpreter helpers that run.py starts, one at a time.

    python3 benchmarks/child.py setup <workload> <seed>
        Prepare the workload as run.py does and print the seconds it took.
        Import time only shows in a fresh interpreter, so repeated set-up
        samples each need one.

    python3 benchmarks/child.py trace-cli <quatlat arguments...>
        Run the quatlat CLI with the tracer installed.  The CLI's stdout and
        exit code pass through unchanged; the trace summary, the ball check's
        distinct elements and each certificate's elapsed_ms go to the last
        line of stderr as JSON.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def setup(workload: str, seed: str) -> int:
    from workloads import WORKLOADS

    w = WORKLOADS[workload]()
    start = perf_counter()
    w.setup(int(seed))
    print(perf_counter() - start)
    return 0


def trace_cli(argv: list[str]) -> int:
    from tracer import Tracer
    from workloads import import_quatlat

    cli = import_quatlat("quatlat.cli")
    tracer = Tracer()
    tracer.install()
    results = []
    run_all = cli.run_all

    def capture(*args, **kwargs):
        out = run_all(*args, **kwargs)
        results.extend(out)
        return out

    cli.run_all = capture
    try:
        code = cli.main(argv)
    finally:
        cli.run_all = run_all
        tracer.uninstall()
        sys.stdout.flush()
    ball = next((r.details for r in results if r.name == "ball-check"), {})
    report = {
        "summary": tracer.summary(),
        "ball_elements": ball.get("distinct_elements", 0),
        "suite_ms": {r.name: r.elapsed_ms for r in results},
    }
    print(json.dumps(report), file=sys.stderr)
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        return setup(argv[1], argv[2])
    if argv and argv[0] == "trace-cli":
        return trace_cli(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
