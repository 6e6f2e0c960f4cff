"""Quick self-test of the benchmark: every workload at toy size.

    python3 benchmarks/selftest.py

Runs one verify, ball_check(2) and a one-pair arith-mix batch through the
same code as run.py: once untraced and twice traced, each run in its own
interpreter so no cache carries over.  Asserts that every run passed its
output checks, that each run reports exactly the metrics BENCHMARK.json
declares, with their units, and that the traced counts and the ratios made
from them repeat exactly between the two traced runs.  Takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOY_SEED = 7
# values measured in time; everything else in a traced run is an exact count or ratio
TIMED_SUFFIXES = ("self_s", ".ms", "overhead_s")


def toy(name: str):
    from workloads import ArithMix, BallR5, VerifyCli

    workload = {"verify-cli": VerifyCli, "ball-r5": lambda: BallR5(radius=2), "arith-mix": lambda: ArithMix(pairs=1)}[name]()
    workload.setup_samples = 1
    return workload


def run_toy(name: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--toy", name, str(trace)], stdout=subprocess.PIPE, text=True
    )
    assert out.returncode == 0, f"{name} trace={trace}: exit {out.returncode}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(bench: dict) -> None:
    from workloads import WORKLOADS

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads differ from WORKLOADS"
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in WORKLOADS:
        results = {trace: run_toy(name, trace) for trace in (0, 1)}
        again = run_toy(name, 1)
        for trace, result in results.items():
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, trace, result)
            units = {metric: value["unit"] for metric, value in result["metrics"].items()}
            assert units == declared[trace], f"{name} trace={trace}: metrics differ from BENCHMARK.json"
        for metric, value in results[0]["metrics"].items():
            assert value["value"] > 0, f"{name}: {metric} is not positive"
        exact = {m: v["value"] for m, v in results[1]["metrics"].items() if not m.endswith(TIMED_SUFFIXES)}
        repeat = {m: v["value"] for m, v in again["metrics"].items() if not m.endswith(TIMED_SUFFIXES)}
        differ = sorted(m for m in exact if exact[m] != repeat[m])
        assert not differ, f"{name}: traced counts did not repeat: {differ}"
        print(f"ok  {name}: {len(units)} per-layer metrics, {len(exact)} exact, repeated")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--toy"]:
        from run import run

        outcome = run(toy(argv[1]), TOY_SEED, 0.0, bool(int(argv[2])))
        print(json.dumps(outcome["result"]))
        return 0 if outcome["result"]["correct"] else 1
    check(json.loads((HERE.parent / "BENCHMARK.json").read_text()))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
