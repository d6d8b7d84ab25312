import csv
import io
import json

import pytest

from lattice_spectra import cli, lattice_oracle, spectrum


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def loads(text):
    # strict JSON: json.dumps writes a non-finite float as NaN or Infinity,
    # which no JSON parser need accept
    return json.loads(text, parse_constant=_reject)


def test_thresholds_csv(capsys):
    code, out, err = run(capsys, "thresholds", "--model", "laplacian")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["gamma_es"]) == pytest.approx(0.5, rel=1e-6)
    assert float(rows[0]["kappa1"]) == pytest.approx(2.0, rel=1e-6)


def test_thresholds_json_with_couplings(capsys):
    code, out, err = run(capsys, "thresholds", "--format", "json",
                         "-a", "1", "-b", "1")
    assert code == 0
    data = loads(out)
    assert data["mu0"]["es"] == pytest.approx(2.5, rel=1e-6)
    assert data["threshold_solutions"]["os"] == "resonance"
    assert data["metadata"]["tolerances"]["radial"] == 1e-10


def test_solve_json(capsys):
    code, out, err = run(capsys, "solve", "-a", "1", "-b", "3", "--mu", "1")
    assert code == 0
    data = loads(out)
    assert data["total_count"] == 4
    assert data["sector_counts"] == {"os": 1, "oa": 1, "ea": 1, "es": 1}
    assert len(data["records"]) == 4
    assert all(list(r) == ["sector", "mu", "energy", "multiplicity", "c1",
                           "c2", "residual", "log_alpha"]
               for r in data["records"])


def test_csv_offered_only_where_written(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("solve ran before the format was rejected")

    monkeypatch.setattr(spectrum, "solve", fail)
    for argv in (["solve", "-a", "1", "-b", "3", "--mu", "1"], ["validate"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--format", "csv"])
        assert exc.value.code == 3


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
    assert loads(out)["passed"] is True


def test_validate_failure_exit_1(capsys):
    # A = 1 stepped profile has a non-unique maximum
    code, out, err = run(capsys, "validate", "--model", "stepped:1.0")
    assert code == 1
    assert loads(out)["passed"] is False
    assert "not unique" in loads(out)["failures"][0]


def test_validate_stepped_near_one_exit_0(capsys):
    # the maximum at (pi, pi) is unique for every A < 1, however close the
    # origin's lower local maximum A comes to it
    code, out, err = run(capsys, "validate", "--model", "stepped:0.997")
    assert code == 0, out
    assert loads(out)["passed"] is True


def assert_deterministic(tmp_path, command):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = cli.main(command + ["--output", str(f)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    loads(f1.read_text())


def test_determinism(tmp_path, capsys):
    assert_deterministic(tmp_path, ["solve", "-a", "1", "-b", "3", "--mu", "1"])


def test_oracle_determinism(tmp_path, capsys):
    # exactly degenerate os and oa states, from the secular equation
    assert_deterministic(tmp_path, ["oracle", "-a", "1", "-b", "3", "--mu", "1",
                                    "--L", "20,22,24"])


def test_oracle_table_box_determinism(tmp_path, capsys):
    # the same states from the Lanczos-size sector blocks of a table box,
    # which the oracle reads off the hopping table of --model alone
    spec = tmp_path / "table.json"
    spec.write_text(_LAP_TABLE)
    assert_deterministic(tmp_path, ["oracle", "-a", "1", "-b", "3", "--mu", "1",
                                    "--L", "20,22,24", "--model", str(spec)])


def test_oracle_swap_asymmetric_table_exit_3(capsys, tmp_path):
    # e(p) = 1 - cos p1: the sector split needs the coordinate swap
    spec = tmp_path / "table.json"
    spec.write_text('{"kind": "hopping", "params": {"table": '
                    '[[0, 0, 1.0], [1, 0, -0.5], [-1, 0, -0.5]]}}')
    code, out, err = run(capsys, "oracle", "-a", "1", "-b", "3", "--mu", "1",
                         "--L", "10", "--model", str(spec))
    assert code == 3
    assert out == ""
    assert err.startswith("config error:") and "Traceback" not in err
    assert "swap" in err


def test_solve_swap_asymmetric_table_exit_3(capsys, tmp_path):
    # e(p) = 2 - cos p1 - 0.5 cos p2: the torus quadrature folds every node
    # set over the coordinate swap, so solve rejects it as the oracle does
    spec = tmp_path / "table.json"
    spec.write_text('{"kind": "hopping", "params": {"table": [[0, 0, 2.0], '
                    '[1, 0, -0.5], [-1, 0, -0.5], [0, 1, -0.25], [0, -1, -0.25]]}}')
    code, out, err = run(capsys, "solve", "-a", "1", "-b", "3", "--mu", "1",
                         "--model", str(spec))
    assert code == 3
    assert out == ""
    assert err.startswith("config error:") and "Traceback" not in err
    assert "swap" in err


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
    data = loads(out)
    assert data["A0"] == pytest.approx(0.6862262237980128, abs=1e-6)
    assert max(data["verification"]) < 1e-8


@pytest.mark.parametrize("argv", [
    ("curve", "--sector", "es", "-a", "1", "-b", "1", "--mu-min", "2",
     "--mu-max", "3", "-n", "3", "--branch", "0"),
    ("curve", "--sector", "es", "-a", "1", "-b", "1", "--mu-min", "2",
     "--mu-max", "3", "-n", "3", "--branch", "-1"),
    ("multiplicity", "--z0", "1.5", "--scan", "--scan-step", "0"),
    ("multiplicity", "--z0", "1.5", "--scan", "--scan-step", "-0.5"),
], ids=["branch-0", "branch-neg", "scan-step-0", "scan-step-neg"])
def test_invalid_branch_or_scan_step_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "config error" in err and "Traceback" not in err


def test_oracle_json(capsys):
    code, out, err = run(capsys, "oracle", "-a", "1", "-b", "3", "--mu", "1",
                         "--L", "10,12,14")
    assert code == 0
    data = loads(out)
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
    data = loads(out)
    assert data["classification"] == "convergent"


def test_tol_override_in_metadata(capsys):
    code, out, err = run(capsys, "solve", "-a", "1", "-b", "3", "--mu", "1",
                         "--tol-radial", "1e-8")
    assert code == 0
    metadata = loads(out)["metadata"]
    assert metadata["tolerances"]["radial"] == 1e-8
    assert "threads" not in metadata


PHASE_ARGV = ("phase-diagram", "--a-min", "-1", "--a-max", "1", "--a-n", "2",
              "--b-min", "-1", "--b-max", "1", "--b-n", "2")


def test_phase_diagram_has_no_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*PHASE_ARGV, "--mu", "3", "--threads", "2"])
    assert exc.value.code == 3
    code, out, err = run(capsys, *PHASE_ARGV, "--mu", "3")
    assert code == 0
    assert "threads" not in loads(out)["metadata"]


def test_phase_diagram_nonpositive_mu_exit_3(capsys):
    code, out, err = run(capsys, *PHASE_ARGV, "--mu", "0")
    assert code == 3
    assert out == ""
    assert err == "config error: mu must be positive\n"


@pytest.mark.parametrize("argv", [
    ("solve", "-a", "1", "-b", "inf", "--mu", "1"),
    ("solve", "-a", "nan", "-b", "1", "--mu", "1"),
    ("multiplicity", "--z0", "1.5", "--mu", "nan"),
    (*PHASE_ARGV, "--mu", "nan"),
    ("oracle", "-a", "1", "-b", "3", "--mu", "1", "--L", "10",
     "--margin", "inf"),
], ids=["solve-b-inf", "solve-a-nan", "multiplicity-mu-nan",
        "phase-diagram-mu-nan", "oracle-margin-inf"])
def test_non_finite_number_exit_3(capsys, argv):
    # argparse's float takes "nan" and "inf"; every float option is finite
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 3
    assert out == ""
    assert "not a finite number" in err and "Traceback" not in err


_LAP_TABLE = ('{"kind": "hopping", "params": {"table": [[0, 0, 2.0], [1, 0, -0.5], '
              '[-1, 0, -0.5], [0, 1, -0.5], [0, -1, -0.5]]}}')


@pytest.mark.parametrize("spec, why", [
    ('{"kind": "piecewise_phi"}', "KeyError"),
    ('{"kind": "stepped_phi", "params": {"A": null}}', "TypeError"),
    ('[1, 2]', "AttributeError"),
    # a hopping table is checked when it is built: before, the first passed
    # as the Laplacian, the second printed "passed": true with non-JSON
    # Infinity, the third failed as asymmetric, the fourth kept -0.25
    (_LAP_TABLE.replace("[1, 0, -0.5], [-1, 0, -0.5]",
                        "[1.5, 0, -0.5], [-1.5, 0, -0.5]"), "offsets must be integers"),
    (_LAP_TABLE.replace("[0, 0, 2.0]", "[0, 0, Infinity]"), "values must be finite"),
    (_LAP_TABLE.replace("[1, 0, -0.5], [-1, 0, -0.5]", "[1, 0, NaN], [-1, 0, NaN]"),
     "values must be finite"),
    (_LAP_TABLE.replace("[1, 0, -0.5], [-1, 0, -0.5]",
                        "[1, 0, -0.5], [-1, 0, -0.5], [1, 0, -0.25], [-1, 0, -0.25]"),
     "offsets must not repeat"),
], ids=["missing-key", "null-number", "not-an-object", "half-offset",
        "infinite-value", "nan-value", "repeated-offset"])
def test_malformed_model_spec_exit_3(capsys, tmp_path, spec, why):
    path = tmp_path / "model.json"
    path.write_text(spec)
    code, out, err = run(capsys, "validate", "--model", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("config error: bad model spec") and "Traceback" not in err
    assert why in err


@pytest.mark.parametrize("a,b,es", [("-1", "-1", None), ("-1", "1", 0.0)])
def test_thresholds_json_es_without_a_threshold(capsys, a, b, es):
    # a, b < 0: no es root at any mu (null); a b < 0 <= a + 4b: a root at
    # every mu (0.0)
    code, out, err = run(capsys, "thresholds", "--format", "json",
                         "-a", a, "-b", b)
    assert code == 0
    assert loads(out)["mu0"]["es"] == es


def test_es_asymptotics_without_a_threshold_exit_1(capsys):
    # a + 4b = 0: es has neither branch; the threshold slope divided by zero
    code, out, err = run(capsys, "asymptotics", "--sector", "es",
                         "-a", "-4", "-b", "1")
    assert code == 1
    assert err == "domain error: exponential branch requires a + 4b > 0\n"


def test_es_asymptotics_zero_coupling_exit_1(capsys):
    code, out, err = run(capsys, "asymptotics", "--sector", "es", "-a", "0")
    assert code == 1
    assert err.startswith("domain error:") and "nonzero" in err


def test_quadrature_options_only_where_integrals_run(capsys):
    for argv in (["validate"], ["oracle", "-a", "1", "-b", "3", "--mu", "1",
                                "--L", "10"]):
        for option in (["--grid-n", "64"], ["--tol-radial", "1e-8"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + option)
            assert exc.value.code == 3
    code, out, err = run(capsys, "oracle", "-a", "1", "-b", "3", "--mu", "1",
                         "--L", "10")
    assert code == 0
    data = loads(out)
    # the oracle diagonalizes boxes: no quadrature settings to report
    assert data["metadata"] == {"model": {"kind": "laplacian", "params": {}}}
    assert list(data["boxes"][0]) == ["L", "total", "counts", "entries"]


# each CSV subcommand: its argv, its CSV header, and its rows read off the JSON
CSV_CASES = {
    "thresholds": (
        ["thresholds"],
        "model,gamma_os,gamma_oa,gamma_ea,gamma_es,theta_star,theta_2star,kappa1",
        lambda d: [["laplacian"] + [d[k] for k in (
            "gamma_os", "gamma_oa", "gamma_ea", "gamma_es",
            "theta_star", "theta_2star", "kappa1")]]),
    "curve": (
        ["curve", "--sector", "ea", "-b", "1", "--mu-min", "2.0",
         "--mu-max", "2.2", "-n", "3"],
        "mu,energy",
        lambda d: [list(r) for r in zip(d["mus"], d["energies"])]),
    "phase-diagram": (
        ["phase-diagram", "--mu", "3", "--a-min", "-1", "--a-max", "1",
         "--a-n", "2", "--b-min", "-1", "--b-max", "1", "--b-n", "2"],
        "a,b,count",
        lambda d: [[c["a"], c["b"], c["count"]] for c in d["cells"]]),
    "asymptotics": (
        ["asymptotics", "--sector", "ea"],
        "x,opening,predicted",
        lambda d: d["samples"]),
    "oracle": (
        ["oracle", "-a", "1", "-b", "3", "--mu", "1", "--L", "10,12,14"],
        "L,index,value,sector",
        lambda d: [[b["L"], i, v, s] for b in d["boxes"]
                   for i, (v, s) in enumerate(b["entries"])]),
    "resonance": (
        ["resonance", "--sector", "ea"],
        "r,I_r",
        lambda d: [list(r) for r in zip(d["rs"], d["values"])]),
}


@pytest.mark.parametrize("command", list(CSV_CASES))
def test_csv_carries_the_json_numbers(capsys, command):
    argv, header, rows_of = CSV_CASES[command]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0
    expected = rows_of(loads(out))
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0
    head, *rows = list(csv.reader(io.StringIO(out)))
    assert ",".join(head) == header
    assert len(rows) == len(expected) > 0
    for row, want in zip(rows, expected):
        assert len(row) == len(want)
        for field, value in zip(row, want):
            if isinstance(value, str):
                assert field == value
            else:
                # .17g round-trips every float exactly
                assert float(field) == value


# each subcommand that writes a result dataclass whole: its argv, and its JSON
# key order at the top level and in the nested objects named by a key path
KEY_ORDER_CASES = {
    "thresholds": (
        ["thresholds", "--format", "json", "-a", "1", "-b", "1"],
        {(): ["metadata", "gamma_os", "gamma_oa", "gamma_ea", "gamma_es",
              "theta_star", "theta_2star", "kappa1", "mu0",
              "threshold_solutions"],
         ("mu0",): ["os", "oa", "ea", "es"],
         ("threshold_solutions",): ["os", "oa", "ea", "es"]}),
    "curve": (
        CSV_CASES["curve"][0],
        {(): ["metadata", "sector", "strictly_increasing",
              "min_first_difference", "min_second_difference", "mus",
              "energies"]}),
    "phase-diagram": (
        CSV_CASES["phase-diagram"][0],
        {(): ["metadata", "mu", "cells", "boundaries"],
         ("cells", 0): ["a", "b", "count"],
         ("boundaries",): ["b_os", "b_oa", "b_ea", "es_hyperbola"]}),
    "multiplicity": (
        ["multiplicity", "--z0", "1.5"],
        {(): ["z0", "mu", "A0", "a0", "b0", "g_residual", "verification"]}),
    "resonance": (
        ["resonance", "--sector", "ea"],
        {(): ["metadata", "sector", "classification", "slope", "r_squared",
              "rs", "values", "cauchy_diffs"]}),
}


@pytest.mark.parametrize("command", list(KEY_ORDER_CASES))
def test_json_key_order(capsys, command):
    # the payloads are the result dataclasses in field order, so reordering
    # a dataclass's fields would change the output bytes
    argv, orders = KEY_ORDER_CASES[command]
    code, out, err = run(capsys, *argv)
    assert code == 0
    data = loads(out)
    for path, keys in orders.items():
        node = data
        for step in path:
            node = node[step]
        assert list(node) == keys, path
