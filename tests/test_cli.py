"""End-to-end tests for the command line interface (run in process)."""

import json

import mpmath
import pytest

from agplate import cli
from agplate.cli import main
from agplate.constants import CSV_HEADER, c_constant
from agplate.errors import NoRootFound


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_eig_reports_the_mode(capsys):
    payload = run_json(capsys, ["eig", "--n", "2", "--R", "1.0"])
    assert set(payload) == {"n", "R", "l", "lambda", "Lambda", "G_R"}
    assert payload["Lambda"] == payload["lambda"] ** 2
    assert payload["l"] == 0
    assert payload["Lambda"] > 0.0


def test_eig_rejects_bad_dimension(capsys):
    assert main(["eig", "--n", "1", "--R", "1.0"]) == 2
    assert "agplate:" in capsys.readouterr().err


def test_eig_reports_missing_root(capsys, monkeypatch):
    def no_root(n, l, R):
        raise NoRootFound("no sign change found")

    monkeypatch.setattr(cli, "lowest_eigenvalue", no_root)
    assert main(["eig", "--n", "2", "--R", "1.0"]) == 3
    assert "agplate:" in capsys.readouterr().err


def test_eig_reports_failed_precision_repair(capsys, monkeypatch):
    # the root scan at R = 5 meets cancelling series that go to mpmath
    def fail(*args, **kwargs):
        raise ValueError("hypsum failed to converge")

    monkeypatch.setattr(mpmath, "hyp1f1", fail)
    assert main(["eig", "--n", "2", "--R", "5.0"]) == 3
    assert "agplate:" in capsys.readouterr().err


def test_precision_env_is_validated(capsys, monkeypatch):
    monkeypatch.setenv("CPLD_PRECISION", "bogus")
    assert main(["eig", "--n", "2", "--R", "1.0"]) == 2
    assert "CPLD_PRECISION" in capsys.readouterr().err


def test_precision_env_accepts_known_modes(capsys, monkeypatch):
    monkeypatch.setenv("CPLD_PRECISION", "double")
    payload = run_json(capsys, ["eig", "--n", "2", "--R", "1.0"])
    assert payload["Lambda"] > 0.0


def test_curve_emits_csv(capsys):
    rc = main(
        ["curve", "--n", "2", "--r-min", "0.5", "--r-max", "1.0", "--steps", "3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,l,lambda,status"
    assert len(lines) == 4
    roots = [float(line.split(",")[2]) for line in lines[1:]]
    assert roots[0] > roots[1] > roots[2]
    assert all(line.endswith(",ok") for line in lines[1:])


def test_curve_writes_file(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    rc = main(
        [
            "curve", "--n", "3", "--r-min", "0.6", "--r-max", "0.9",
            "--steps", "2", "--out", str(target),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = target.read_bytes().decode("ascii")
    assert text.startswith("R,l,lambda,status\n")
    assert text.endswith("\n") and "\r" not in text


def test_jab_reports_the_pair(capsys):
    payload = run_json(capsys, ["jab", "--n", "2", "--A", "0.5", "--B", "0.8"])
    assert set(payload) == {"n", "A", "B", "lambda", "mu"}
    assert payload["mu"] == payload["lambda"] ** 2


def test_minjab_prints_profile(capsys):
    rc = main(["minjab", "--n", "2", "--R", "0.7", "--grid-points", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "A,B,sqrtJ,status"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.7


def test_minjab_profile_file_and_summary(capsys, tmp_path):
    target = tmp_path / "profile.csv"
    rc = main(
        [
            "minjab", "--n", "2", "--R", "0.7",
            "--grid-points", "20", "--profile", str(target),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "R", "A_min", "B_min", "J_min"}
    text = target.read_bytes().decode("ascii")
    assert text.startswith("A,B,sqrtJ,status\n")
    assert len(text.strip().split("\n")) == 21


def test_const_reports_all_fields(capsys):
    payload = run_json(
        capsys, ["const", "--n", "2", "--R", "1.0", "--grid-points", "32"]
    )
    assert set(payload) == set(CSV_HEADER.split(","))
    assert payload["status"] == "ok"
    assert payload["C"] == pytest.approx(1.0, abs=1e-6)


def test_const_default_grid_matches_library_default(capsys):
    # no --grid-points: the CLI runs the same grid as c_constant's default
    payload = run_json(capsys, ["const", "--n", "2", "--R", "1.5"])
    record = c_constant(2, 1.5)
    assert payload["C"] == record.C
    assert payload["A_min"] == record.A_min
    assert payload["J_min"] == record.J_min


def test_sweep_outputs_are_deterministic(capsys, tmp_path):
    argv = [
        "sweep", "--n", "2", "--r-min", "0.6", "--r-max", "0.9",
        "--steps", "3", "--grid-points", "32",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    third = tmp_path / "c.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert main(argv + ["--parallel", "--out", str(third)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == third.read_bytes()
    assert first.read_bytes().decode("ascii").startswith(CSV_HEADER + "\n")


def test_sweep_stdout_and_n_list(capsys):
    rc = main(
        [
            "sweep", "--n", "2,3", "--r-min", "0.7", "--r-max", "0.8",
            "--steps", "2", "--grid-points", "32",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "2", "3", "3"]


def test_oracle_reports_the_estimate(capsys):
    payload = run_json(
        capsys, ["oracle", "--n", "2", "--R", "1.0", "--mesh", "200"]
    )
    assert set(payload) == {"n", "l", "R", "mesh", "weight", "Lambda"}
    assert payload["weight"] == "antigauss"
    assert payload["Lambda"] > 0.0


def test_oracle_weight_changes_the_answer(capsys):
    base = ["oracle", "--n", "2", "--R", "1.0", "--mesh", "200"]
    weighted = run_json(capsys, base)
    flat = run_json(capsys, base + ["--weight", "none"])
    assert weighted["Lambda"] != flat["Lambda"]
    assert flat["weight"] == "none"


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
