"""Repeat run.py over seeds and summarise each metric's spread.

    python3 benchmarks/collect.py [--seeds 1-10] [--trace 0|1] [--out FILE]

Runs run.py once per (workload, seed) for every workload in BENCHMARK.json,
one run at a time, each for BENCHMARK.json's run_seconds.  For every metric it
prints the median over the runs and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median.  End-to-end metrics are compared with a third of their bound, the
steadiness the benchmark aims for.  --out writes every run's result and meta
line plus the summary as JSON; benchmarks/baseline.json was made this way.
Exits 1 if any run failed or any checked spread reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


# printed by run.py in raw seconds, not declared: they show what calibration removes
RAW = ("op_s.p50.raw", "setup_s.raw")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict | None, dict | None, dict]:
    """run.py's exit code, result, meta line and the RAW rows of its table."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), None)
    raw = {row[0]: float(row[1]) for row in map(str.split, lines) if row[:1] and row[0] in RAW}
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result, meta, raw


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs, summary, ok = [], {}, True
    seconds = bench["run_seconds"]
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            code, result, meta, raw = run_once(workload, seed, seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, "exit": code, "result": result, "meta": meta, "raw": raw})
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {code}, result {result and result['correct']}")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if args.trace == 0:
                for name, value in raw.items():
                    values.setdefault(name, []).append(value)
            shown = {n: m["value"] for n, m in result["metrics"].items() if n in bounds}
            print(f"{workload} seed {seed}: {result['attempted']} ops  " + "  ".join(f"{n}={v:.6g}" for n, v in shown.items()))
        summary[workload] = {}
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            entry = {"median": med, "q1": q1, "q3": q3, "spread": rel, "runs": len(vals)}
            note = ""
            if args.trace == 0 and name in bounds:
                entry["bound"] = bounds[name]
                steady = rel < bounds[name] / 3
                ok &= rel < bounds[name]
                note = f"bound {bounds[name]:.2f}" + ("" if steady else "  NOT below bound/3")
            summary[workload][name] = entry
            if args.trace == 0 or name.endswith(".calls") or name == "trace.overhead_s":
                print(f"  {workload:11s} {name:44s} median {med:<12.6g} spread {rel:7.2%}  {note}")

    if args.out:
        args.out.write_text(json.dumps({"seconds": seconds, "trace": args.trace, "summary": summary, "runs": runs},
                                       indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
