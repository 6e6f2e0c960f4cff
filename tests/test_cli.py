import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quatlat import cli, presentations, suite
from quatlat.cli import main
from quatlat.places import PLACE_ONE

FIXTURES = Path(__file__).parent / "fixtures"
METRICS = Path(__file__).resolve().parent.parent / "benchmarks" / "metrics.py"
SELFTEST = METRICS.with_name("selftest.py")
SRC = METRICS.parent.parent / "src"


def test_verify_passes(capsys):
    assert main(["verify", "--radius", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 12
    assert "FAIL" not in out


def test_verify_json_is_stable(capsys):
    assert main(["verify", "--radius", "1", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["verify", "--radius", "1", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["all_passed"] is True
    assert first["failures"] == []
    assert len(first["results"]) == 12


def test_verify_reports_a_failing_certificate(monkeypatch, capsys):
    monkeypatch.setattr("quatlat.certify.ramified_places", lambda: [PLACE_ONE])
    assert main(["verify", "--radius", "1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["all_passed"] is False
    assert data["failures"] == ["ramification"]
    others = [r for r in data["results"] if r["name"] != "ramification"]
    assert len(others) == 11 and all(r["passed"] for r in others)
    assert main(["verify", "--radius", "1"]) == 1
    assert "FAIL  ramification" in capsys.readouterr().out


def test_run_all_keeps_the_contract_the_benchmark_reads():
    spec = importlib.util.spec_from_file_location("benchmark_metrics", METRICS)
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    results = cli.run_all(1)
    assert tuple(r.name for r in results) == metrics.CERTIFICATES
    for r in results:
        assert r.elapsed_ms >= 0
        assert set(r.as_json()) == {"name", "passed", "details"}


def _count_rs_builds(monkeypatch) -> list[int]:
    """Count Reidemeister-Schreier kernel builds through every binding of it."""
    calls = [0]
    build = presentations.reidemeister_schreier

    def counted(*args):
        calls[0] += 1
        return build(*args)

    for module in (presentations, suite):
        monkeypatch.setattr(module, "reidemeister_schreier", counted)
    return calls


def test_each_run_all_builds_the_rs_kernel_once(monkeypatch):
    """Nothing caches Gamma^ab across runs, so a second run in one process
    does the first run's work again rather than reading it back."""
    calls = _count_rs_builds(monkeypatch)
    for run in (1, 2):
        assert all(r.passed for r in suite.run_all(1))
        assert calls[0] == run


# The first certificate records both tables' row counts as it starts, after
# run_all's set-up and once its clock runs; the twelfth has ended at the end.
FRESH_RUN_ALL = """
import json
from quatlat import suite
from quatlat.embeddings import RHO_T, RHO_Y

def rows():
    return [len(RHO_Y._rows), len(RHO_T._rows)]

built, first, seen = rows(), suite.ramification_certificate, []

def recorded():
    seen.append(rows())
    return first()

suite.ramification_certificate = recorded
passed = all(r.passed for r in suite.run_all(1))
print(json.dumps({"passed": passed, "built": built, "start": seen, "end": rows()}))
"""


def test_first_run_all_grows_neither_splitting_table():
    """In a fresh interpreter each splitting is built with the rows the
    named elements read, and the first run_all's twelve certificates grow
    neither table, so no certificate's time includes their growth."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN_ALL], env=env, capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["passed"]
    assert [report["built"]] == report["start"] == [report["end"]]
    assert min(report["end"]) > 1


def test_invariants_command_reads_gamma_ab_without_the_rs_kernel(monkeypatch, capsys):
    calls = _count_rs_builds(monkeypatch)
    assert main(["invariants", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma_ab"] == {"factors": [15], "free_rank": 0}
    assert calls[0] == 0


def test_only_the_abelianization_certificate_reads_the_rs_route(monkeypatch):
    """An RS kernel that abelianizes to Z/3 turns `abelianization` red and
    leaves `albanese`, which reads Gamma's own presentation, as it was."""
    before = {r.name: r for r in suite.run_all(1)}
    monkeypatch.setattr(suite, "reidemeister_schreier", lambda *args: presentations.Presentation(("x",), ((1, 1, 1),)))
    after = {r.name: r for r in suite.run_all(1)}
    assert [name for name, r in after.items() if not r.passed] == ["abelianization"]
    assert after["abelianization"].details["rs_kernel"] == {"factors": (3,), "free_rank": 0}
    assert after["albanese"].passed and after["albanese"].details == before["albanese"].details


@pytest.mark.parametrize("workload", ["verify-cli", "ball-r5", "arith-mix"])
def test_traced_benchmark_workload_passes_its_checks(workload):
    """Each workload at toy size, traced, in a fresh interpreter: the traced
    checks (ball products, tree.act calls, no stray references to the
    tracer) must hold, not only the untraced outputs."""
    out = subprocess.run(
        [sys.executable, str(SELFTEST), "--toy", workload, "1"], stdout=subprocess.PIPE, text=True, timeout=120
    )
    assert out.returncode == 0, out.stdout[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result


PRESENT_TEXT = {
    "lambda": "< b1, b2, c1, c2 | c1^2, c2^2, c1c2c1^-1c2^-1, b1b2c1b2, b1c2b1b2^-1 >",
    "gr": "< b1, b2, c1, c2, d | c1^2, c2^2, d^2, c1c2c1^-1c2^-1, c1dc1^-1d^-1, c2dc2^-1d^-1, b1b2c1b2, b1c2b1b2^-1,"
    " db1db1, db2db2 >",
    "gamma": "< a1, a2 | a2a1^-1a2^2a1a2a1a2^2a1^-1a2a1, a1a2^2a1^-1a2^2a1^-1a2^2a1a2a1^-1a2 >",
    "orbifold": "< b1, c1, b2, c2 | c1^2, c2^2, b1b2c1b2, b1b2^-1b1c2, c1c2c1c2 >",
}


@pytest.mark.parametrize("which", list(PRESENT_TEXT))
def test_present_text(which, capsys):
    assert main(["present", which]) == 0
    assert capsys.readouterr().out == PRESENT_TEXT[which] + "\n"


def test_ball_check_command(capsys):
    assert main(["ball-check", "--radius", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["distinct_elements"] == data["expected_vertices"] == 28
    assert data["injective"] is True


def test_invariants_command(capsys):
    assert main(["invariants", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["c1_squared"] == 8 and data["c2"] == 4 and data["chi"] == 1
    assert data["kernel_dims"] == {"5": 0, "7": 0}
    assert data["gamma_ab"] == {"factors": [15], "free_rank": 0}
    assert main(["invariants", "--N", "1", "--q", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["c1_squared"] == 8 and data["c2"] == 4
    assert "kernel_dims" not in data


def _fixture_case(argv, fixture, positional=None):
    """A CLI call and the fixture its output must equal, with the fixture's
    name as id, so adding a case renames no other.  The cases that had
    positional ids before keep them as a prefix ("argv<k>-<fixture>"), so
    recorded test names stay valid."""
    return pytest.param(argv, fixture, id=fixture if positional is None else f"argv{positional}-{fixture}")


@pytest.mark.parametrize(
    "argv, fixture",
    (
        _fixture_case(["verify", "--radius", "3", "--json"], "verify-r3.json", 0),
        _fixture_case(["ball-check", "--radius", "5", "--json"], "ball-check-r5.json", 1),
        _fixture_case(["export", "--what", "complex", "--format", "json"], "complex.json", 2),
        _fixture_case(["export", "--what", "links", "--format", "dot"], "links.dot", 3),
        _fixture_case(["invariants", "--ell", "2", "3", "5", "7", "11", "13", "--json"], "invariants-ell.json", 4),
        _fixture_case(["present", "lambda", "--json"], "present-lambda.json", 5),
        _fixture_case(["present", "gr", "--json"], "present-gr.json", 6),
        _fixture_case(["present", "gamma", "--json"], "present-gamma.json", 7),
        _fixture_case(["present", "orbifold", "--json"], "present-orbifold.json", 8),
        _fixture_case(["verify", "--radius", "1", "--json"], "verify-r1.json", 9),
        _fixture_case(["verify", "--radius", "5", "--json"], "verify-r5.json", 10),
        _fixture_case(["ball-check", "--radius", "6", "--json"], "ball-check-r6.json"),
    ),
)
def test_json_output_matches_fixture_byte_for_byte(argv, fixture, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / fixture).read_bytes()


def test_invariants_text_matches_fixture_byte_for_byte(capsys):
    """The text path keeps --ell's order and prints a repeated prime once."""
    assert main(["invariants", "--ell", "3", "2", "5", "5"]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / "invariants-ell-3-2-5-5.txt").read_bytes()


def test_invariants_decides_a_large_prime_at_once(capsys):
    start = time.perf_counter()
    assert main(["invariants", "--ell", "1000000000000000003", "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["kernel_dims"] == {"1000000000000000003": 0}


def test_export_to_file(tmp_path, capsys):
    out_file = tmp_path / "links.dot"
    assert main(["export", "--what", "links", "--format", "dot", "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("graph links {")


def test_export_format_mismatch(capsys):
    assert main(["export", "--what", "complex", "--format", "dot"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["present", "nonexistent"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    (
        ["ball-check", "--radius", "-1"],
        ["verify", "--radius", "-2"],
        ["invariants", "--ell", "4"],
        ["invariants", "--N", "5", "--q", "2"],
        ["export", "--what", "complex", "--format", "json", "--out", "/nonexistent/dir/x.json"],
        ["invariants", "--ell", "3317044064679887385961981"],  # where Miller-Rabin stops being exact
    ),
)
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("quatlat: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    (
        pytest.param([], id="no-subcommand"),
        pytest.param(["frobnicate"], id="unknown-subcommand"),
        pytest.param(["verify", "--bogus"], id="unknown-option"),
        pytest.param(["verify", "--rad", "3"], id="abbreviated-option"),
        pytest.param(["ball-check", "--radius"], id="missing-value"),
        pytest.param(["verify", "--radius", "three"], id="int-does-not-parse"),
        pytest.param(["invariants", "--ell", "5", "x"], id="list-int-does-not-parse"),
        pytest.param(["export", "--what", "cells", "--format", "json"], id="bad-choice"),
        pytest.param(["present", "nonexistent"], id="bad-positional-choice"),
        pytest.param(["ball-check", "--json"], id="missing-required-option"),
        pytest.param(["present"], id="missing-positional"),
        pytest.param(["present", "gr", "extra"], id="extra-argument"),
        pytest.param(["verify", "--json=yes"], id="flag-given-a-value"),
    ),
)
def test_parse_error_exits_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("quatlat: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", (["--help"], ["-h"], ["verify", "--help"], ["export", "--what", "links", "-h"]))
def test_help_prints_the_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == cli.__doc__ + "\n"
    assert "quatlat ball-check --radius L [--json]" in out


@pytest.mark.parametrize(
    "argv",
    (
        ["export", "--what", "links", "--format", "dot"],
        ["invariants", "--json"],
        ["verify", "--json", "--radius", "1"],
        ["present", "lambda"],
        ["--help"],
    ),
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    """A reader that leaves early (`quatlat ... | head -1`) closes the pipe;
    the CLI then exits 1 and writes nothing to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-m", "quatlat", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_option_value_after_equals_sign(capsys):
    assert main(["ball-check", "--radius", "2", "--json"]) == 0
    spaced = capsys.readouterr().out
    assert main(["ball-check", "--radius=2", "--json"]) == 0
    assert capsys.readouterr().out == spaced
    assert main(["ball-check", "--radius", "5", "--radius=2", "--json"]) == 0  # the last value wins
    assert capsys.readouterr().out == spaced


def test_invariants_ell_without_values(capsys):
    assert main(["invariants", "--ell", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["kernel_dims"] == {}
