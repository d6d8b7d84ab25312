import csv
import io
import json

import pytest

from lattice_spectra import cli, lattice_oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_thresholds_csv(capsys):
    code, out, err = run(capsys, "thresholds", "--model", "laplacian")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["gamma_es"]) == pytest.approx(0.5, rel=1e-6)


def test_thresholds_json_with_couplings(capsys):
    code, out, err = run(capsys, "thresholds", "--format", "json",
                         "-a", "1", "-b", "1")
    assert code == 0
    data = json.loads(out)
    assert data["mu0"]["es"] == pytest.approx(2.5, rel=1e-6)
    assert data["threshold_solutions"]["os"] == "resonance"
    assert data["metadata"]["tolerances"]["radial"] == 1e-10


def test_solve_json(capsys):
    code, out, err = run(capsys, "solve", "-a", "1", "-b", "3", "--mu", "1")
    assert code == 0
    data = json.loads(out)
    assert data["total_count"] == 4
    assert data["sector_counts"] == {"os": 1, "oa": 1, "ea": 1, "es": 1}
    assert len(data["records"]) == 4


def test_solve_zero_coupling_exit_1(capsys):
    code, out, err = run(capsys, "solve", "-a", "0", "-b", "1", "--mu", "1")
    assert code == 1
    assert "nonzero" in err


def test_unknown_subcommand_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 3


def test_missing_required_flag_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "-a", "1"])
    assert exc.value.code == 3


def test_unknown_model_exit_3(capsys):
    code, out, err = run(capsys, "validate", "--model", "nonsense")
    assert code == 3
    assert "config error" in err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "--model", "stepped:0.5")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_validate_failure_exit_1(capsys):
    # A = 1 stepped profile has a non-unique maximum
    code, out, err = run(capsys, "validate", "--model", "stepped:1.0")
    assert code == 1
    assert json.loads(out)["passed"] is False


def assert_deterministic(tmp_path, command):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = cli.main(command + ["--output", str(f)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_determinism(tmp_path, capsys):
    assert_deterministic(tmp_path, ["solve", "-a", "1", "-b", "3", "--mu", "1"])


def test_oracle_determinism(tmp_path, capsys):
    # Lanczos-size sector blocks, and exactly degenerate os and oa states
    assert_deterministic(tmp_path, ["oracle", "-a", "1", "-b", "3", "--mu", "1",
                                    "--L", "20,22,24"])


def test_curve_csv(capsys):
    code, out, err = run(capsys, "curve", "--sector", "ea", "-b", "1",
                         "--mu-min", "2.0", "--mu-max", "2.2", "-n", "3",
                         "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "mu,energy"
    assert len(lines) == 4


def test_phase_diagram_csv(capsys):
    code, out, err = run(capsys, "phase-diagram", "--mu", "3",
                         "--a-min", "-1", "--a-max", "1", "--a-n", "2",
                         "--b-min", "-1", "--b-max", "1", "--b-n", "2",
                         "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,b,count"
    assert len(lines) == 5


def test_multiplicity_json(capsys):
    code, out, err = run(capsys, "multiplicity", "--z0", "1.5")
    assert code == 0
    data = json.loads(out)
    assert data["A0"] == pytest.approx(0.6862262237980128, abs=1e-6)
    assert max(data["verification"]) < 1e-8


def test_oracle_json(capsys):
    code, out, err = run(capsys, "oracle", "-a", "1", "-b", "3", "--mu", "1",
                         "--L", "10,12,14")
    assert code == 0
    data = json.loads(out)
    assert [b["L"] for b in data["boxes"]] == [10, 12, 14]
    assert all(b["total"] == 4 for b in data["boxes"])
    assert len(data["extrapolated"]) == 4


def test_oracle_diagonalizes_each_box_once(capsys, monkeypatch):
    calls = []
    original = lattice_oracle.sector_count_above

    def counting(h, *args, **kwargs):
        calls.append(h.L)
        return original(h, *args, **kwargs)

    monkeypatch.setattr(lattice_oracle, "sector_count_above", counting)
    code, out, err = run(capsys, "oracle", "-a", "1", "-b", "3", "--mu", "1",
                         "--L", "10,12,14", "--format", "csv")
    assert code == 0
    assert calls == [10, 12, 14]
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["L"]) for r in rows] == [10] * 4 + [12] * 4 + [14] * 4


def test_resonance_json(capsys):
    code, out, err = run(capsys, "resonance", "--sector", "ea")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "convergent"


def test_tol_override_in_metadata(capsys):
    code, out, err = run(capsys, "solve", "-a", "1", "-b", "3", "--mu", "1",
                         "--tol-radial", "1e-8")
    assert code == 0
    assert json.loads(out)["metadata"]["tolerances"]["radial"] == 1e-8
