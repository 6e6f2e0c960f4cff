import json
import os
from pathlib import Path

import pytest

from quatlat.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_dir() -> Path:
    return Path(os.environ.get("QUATLAT_FIXTURE_DIR", FIXTURES))


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


def test_present_lambda(capsys):
    assert main(["present", "lambda"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "< b1, b2, c1, c2 | c1^2, c2^2, c1c2c1^-1c2^-1, b1b2c1b2, b1c2b1b2^-1 >"


def test_present_gamma_and_gr(capsys):
    assert main(["present", "gamma"]) == 0
    out = capsys.readouterr().out
    assert "a2a1^-1a2^2a1a2a1a2^2a1^-1a2a1" in out
    assert main(["present", "gr", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "db1db1" in data["relator_text"] and "db2db2" in data["relator_text"]


def test_present_orbifold(capsys):
    assert main(["present", "orbifold"]) == 0
    out = capsys.readouterr().out
    assert "c1^2" in out and "c2^2" in out


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


def test_export_complex_matches_fixture(capsys):
    assert main(["export", "--what", "complex", "--format", "json"]) == 0
    exported = json.loads(capsys.readouterr().out)
    golden = json.loads((fixture_dir() / "complex.json").read_text())
    assert exported == golden


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
    ),
)
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("quatlat: error: ") and captured.err.count("\n") == 1
