"""quatlat benchmark: run one workload under a seed and print its metrics.

    python3 benchmarks/run.py --workload {verify-cli,ball-r5,arith-mix} \
        --seed N --seconds S --trace {0,1}

Run it from anywhere; it measures the quatlat in this checkout's src/.  One
client runs ops in a closed loop for S seconds after set-up; every op checks
its output, and a failed check counts toward fail_rate.  A fixed pure-Python
calibration loop runs before and after every op and set-up sample, and
op_s.p50 and setup_s are given at a fixed reference speed of that loop,
which cancels the host's drifting speed; the table also prints the raw
seconds.  With --trace 0 the result carries the end-to-end metrics; with
--trace 1 it first runs a fixed number of ops under the tracer (tracer.py)
and carries the per-layer metrics, including the tracing overhead against
the untraced ops of the same run.

Output: a table of every metric with its unit, a `meta` line (seed, Python,
CPU, nproc, git sha and dirty flag), then as the last line one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, merge, per_layer
from workloads import CHILD, CHILD_TIMEOUT_S, ROOT, SRC, WORKLOADS, SetupError, child_env, compile_sources

P90_MIN_OPS = 100  # p90 is reported only with at least 10 samples beyond it
CAL_ROUNDS = 6000  # one calibration loop: 10-13 ms on 2 vCPUs of a shared Xeon under Python 3.11
CAL_REF_S = 0.010  # the reference speed: one calibration loop in 10 ms


def calibration_loop(rounds: int = CAL_ROUNDS) -> int:
    """Fixed pure-Python work that runs no quatlat code: carry-less products
    of 10-bit ints, the kind of work the scalar tower does, counted under
    tuple keys in a dict small enough to add nothing to peak memory.  Its
    time measures how fast the host runs Python at the moment."""
    seen: dict = {}
    x = 0x5DEECE66D
    for i in range(rounds):
        a, b = x & 0x3FF, (x >> 10) & 0x3FF
        p = 0
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            b >>= 1
        key = (p & 0xF, i & 15)
        seen[key] = seen.get(key, 0) + 1
        x = (x * 25214903917 + 11) & 0xFFFFFFFFFFFF
    return len(seen)


def calibrate(loops: int) -> float:
    """Seconds per calibration loop, over `loops` of them.  The collector is
    off meanwhile, so the time does not depend on how many objects the
    program holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(loops):
            calibration_loop()
        return (perf_counter() - start) / loops
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    """`seconds` measured between two calibration samples, scaled to what they
    would be on a host that runs one calibration loop in CAL_REF_S."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2)


def setup_sample(workload, seed: int) -> float:
    """One more set-up duration, from scratch: in a fresh child interpreter
    for workloads that import quatlat into this process (import only costs
    once per process), else here (verify-cli, whose set-up is itself a fresh
    interpreter)."""
    if not workload.fresh_setup:
        start = perf_counter()
        workload.setup(seed)
        return perf_counter() - start
    out = subprocess.run(
        [sys.executable, str(CHILD), "setup", workload.name, str(seed)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise SetupError(f"set-up in a child interpreter exited with {out.returncode}")
    return float(out.stdout.split()[-1])


def closed_loop(workload, seconds: float, seed: int, setups: int):
    """Run ops back to back for `seconds` (at least one op), pausing between
    ops for `setups` set-up samples spread evenly over those seconds.

    The host's speed drifts over seconds to minutes, so set-up samples taken
    in one burst would catch one moment of it; spread out, their median spans
    the run as the op times do.  Time spent on set-up samples does not count
    toward `seconds`.

    Every op and set-up sample lies between two calibration samples
    (`calibrate`), each shared with the neighbouring op; they count toward
    `seconds`.

    Returns (op durations, op durations at reference speed, failed ops, peak
    RSS in MB, set-up durations, set-up durations at reference speed)."""
    times: list[float] = []
    ref_times: list[float] = []
    setup: list[float] = []
    ref_setup: list[float] = []
    failed = 0
    rss = None
    start = perf_counter()
    paused = 0.0
    cal = calibrate(workload.cal_loops)

    def elapsed() -> float:
        return perf_counter() - start - paused

    def sample_setup(cal_before: float) -> float:
        setup.append(setup_sample(workload, seed))
        cal_after = calibrate(workload.cal_loops)
        ref_setup.append(at_reference_speed(setup[-1], cal_before, cal_after))
        return cal_after

    while True:
        while len(setup) < setups and elapsed() >= len(setup) * seconds / setups:
            pause = perf_counter()
            cal = sample_setup(cal)
            paused += perf_counter() - pause
        inputs = workload.inputs(len(times))
        op_start = perf_counter()
        try:
            ok = workload.op(inputs)
        except Exception:  # a crashing op is a failed op; keep measuring
            traceback.print_exc()
            ok = False
        times.append(perf_counter() - op_start)
        cal_after = calibrate(workload.cal_loops)
        ref_times.append(at_reference_speed(times[-1], cal, cal_after))
        cal = cal_after
        failed += not ok
        if len(times) == workload.rss_after_ops:
            rss = workload.peak_rss_mb()
        if elapsed() >= seconds:
            break
    while len(setup) < setups:  # a run shorter than one op per sample
        cal = sample_setup(cal)
    rss = rss if rss is not None else workload.peak_rss_mb()
    return times, ref_times, failed, rss, setup, ref_setup


def traced_ops(workload) -> dict:
    """The workload's fixed number of ops under the tracer, before any
    untraced op, so the program state they meet depends only on the seed."""
    traced = {"times": [], "summaries": [], "ball_elements": 0, "suite_runs": [], "failed": 0}
    for _ in range(workload.traced_ops):
        try:
            seconds, ok, summary, ball_elements, suite_ms = workload.traced_op()
        except Exception:  # a crashing traced op is a failed op
            traceback.print_exc()
            traced["failed"] += 1
            continue
        traced["times"].append(seconds)
        if summary is not None:
            first = traced["summaries"][0]["calls"] if traced["summaries"] else summary["calls"]
            if workload.identical_ops and summary["calls"] != first:
                print("trace check failed: identical ops made different calls", file=sys.stderr)
                ok = False
            traced["summaries"].append(summary)
            traced["ball_elements"] += ball_elements
            traced["suite_runs"].append(suite_ms)
        traced["failed"] += not ok
    return traced


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result and the
    table rows, which also show what the result's metrics leave out."""
    cal_before = calibrate(workload.cal_loops)
    start = perf_counter()
    workload.setup(seed)  # the set-up this run's ops use
    first_setup = perf_counter() - start
    ref_first_setup = at_reference_speed(first_setup, cal_before, calibrate(workload.cal_loops))
    traced = traced_ops(workload) if trace else None
    times, ref_times, failed, rss, setup, ref_setup = closed_loop(workload, seconds, seed, workload.setup_samples - 1)
    setup.append(first_setup)
    ref_setup.append(ref_first_setup)
    attempted = len(times)
    if traced:
        attempted += workload.traced_ops
        failed += traced["failed"]
    p50 = statistics.median(times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) >= P90_MIN_OPS else None
    rows = [
        ("op_s.p50", statistics.median(ref_times), "s", f"n={len(ref_times)}, at reference speed"),
        ("op_s.p50.raw", p50, "s", f"n={len(times)}"),
        ("op_s.p90", p90, "s", f"n={len(times)}" if p90 is not None else f"needs >= {P90_MIN_OPS} ops"),
        ("fail_rate", failed / attempted, "ratio", f"{failed}/{attempted}"),
        ("setup_s", statistics.median(ref_setup), "s", f"median of {len(ref_setup)}, at reference speed"),
        ("setup_s.raw", statistics.median(setup), "s", f"median of {len(setup)}"),
        ("peak_rss_mb", rss, "MB", ""),
    ]
    if not traced:
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name in END_TO_END}
    else:
        t_p50 = statistics.median(traced["times"]) if traced["times"] else None
        rows.append(("trace.op_s.p50", t_p50, "s", f"n={len(traced['times'])}"))
        runs = traced["suite_runs"]
        suite_ms = {name: statistics.fmean(ms[name] for ms in runs if name in ms) for name in {n for ms in runs for n in ms}}
        metrics = per_layer(
            merge(traced["summaries"]),
            max(len(traced["summaries"]), 1),
            traced["ball_elements"],
            suite_ms,
            t_p50 - p50 if t_p50 is not None else 0.0,
        )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "rows": rows}


def metadata(args) -> dict:
    def git(*argv):
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.decode().strip() if out.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        # uncommitted changes to the measured code (src/, pyproject.toml)
        "git_dirty": bool(git("status", "--porcelain", "--", "src", "pyproject.toml")) if in_repo else None,
        "src_sha256": digest.hexdigest(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def print_report(meta: dict, outcome: dict, trace: bool) -> None:
    print(f"quatlat benchmark  workload={meta['workload']}  seed={meta['seed']}  seconds={meta['seconds']}  trace={int(trace)}")
    rows = list(outcome["rows"])
    if trace:
        rows += [(name, m["value"], m["unit"], "per op") for name, m in outcome["result"]["metrics"].items()]
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>12s} {unit:9s} {note}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(outcome["result"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "quatlat" / "__init__.py").is_file():
        print(f"no quatlat sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    compile_sources()
    meta = metadata(args)
    try:
        outcome = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    print_report(meta, outcome, bool(args.trace))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
