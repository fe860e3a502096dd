"""End-to-end checks of the command-line pipeline and file formats."""

import concurrent.futures
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import henon_morse
from henon_morse import io as hio
from henon_morse import cli, radial_bvp, spectral
from henon_morse.cli import main
from henon_morse.io import (
    load_profile,
    load_transformed,
    params_from_dict,
    params_to_dict,
    save_profile,
    save_transformed,
)
from henon_morse.halfline import transform_profile
from henon_morse.nonlinearity import pure_power
from henon_morse.pencil import load_scipy_file
from henon_morse.radial_bvp import (
    ProblemParams,
    RadialProfile,
    integrate_radial_ivp,
    shoot_positive,
)
from henon_morse.spectral import morse_index


def write_params(path, **overrides):
    base = {"N": 3, "alpha": 0.0, "mu1": 0.0, "mu2": 0.0,
            "family": "pure_power", "p": 4, "a1": 1.0, "a2": 1.0, "b": 0.0,
            "branch": "positive"}
    base.update(overrides)
    path.write_text(json.dumps(base))
    return base


def strip_created(text):
    return "\n".join(line for line in text.splitlines() if '"created"' not in line)


def test_params_round_trip():
    d = {"N": 2, "alpha": 4.0, "mu1": 0.1, "mu2": 0.2,
         "family": "quartic_coupled", "p": 4, "a1": 1.0, "a2": 1.0, "b": 0.5}
    params = params_from_dict(d)
    assert params_to_dict(params) == d


def test_write_csv_is_csv_writers(tmp_path):
    # blocks of repr floats: the bytes csv.writer gives, "\r\n" included, over
    # more rows than one block
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16,
               1e-5, 0.1, -3.0, 1.0 / 3.0]
    n = 601
    columns = [np.resize(special, n), np.arange(n), np.linspace(-1.0, 1.0, n) * 1e300,
               np.resize(special[::-1], n)]
    header = ["t", "u", "du", "w"]
    hio._write_csv(tmp_path / "ours.csv", header, columns)
    with open(tmp_path / "csv.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(x)) for x in row])
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()
    hio._write_csv(tmp_path / "ints.csv", ["i"], [np.arange(3)])
    assert (tmp_path / "ints.csv").read_bytes() == b"i\r\n0.0\r\n1.0\r\n2.0\r\n"


def test_profile_file_round_trip(tmp_path, solve):
    prof = solve(2, 4.0)
    save_profile(prof, tmp_path / "p")
    loaded = load_profile(tmp_path / "p")
    assert np.allclose(loaded.u, prof.u)
    assert np.allclose(loaded.du, prof.du)
    assert loaded.params == prof.params
    assert loaded.amplitude == prof.amplitude


@pytest.mark.parametrize("alpha, nodes", [(4.0, 0), (2.0, 2)])
def test_saved_profile_transforms_bit_for_bit(tmp_path, solve, alpha, nodes):
    # the transform reads only the stored grid and slopes, which repr round-trips
    prof = solve(2, alpha, nodes=nodes)
    save_profile(prof, tmp_path / "p")
    loaded, in_memory = transform_profile(load_profile(tmp_path / "p")), transform_profile(prof)
    for name in ("tgrid", "u", "v", "du", "dv"):
        assert np.array_equal(getattr(loaded, name), getattr(in_memory, name)), name


def test_transformed_file_round_trip(tmp_path, solve):
    tp = transform_profile(solve(2, 4.0), T=30.0, grid_size=2000)
    save_transformed(tp, tmp_path / "t")
    loaded = load_transformed(tmp_path / "t")
    assert np.allclose(loaded.u, tp.u)
    assert loaded.beta == tp.beta
    assert loaded.gamma == tp.gamma
    header = json.loads((tmp_path / "t.json").read_text())
    assert header["pohozaev"]["lhs"] > 0
    assert "rhs" in header["pohozaev"]


def test_solve_writes_certified_profile(tmp_path):
    pfile = tmp_path / "params.json"
    write_params(pfile)
    rc = main(["solve", "--params", str(pfile), "--out", str(tmp_path / "run"),
               "--grid", "2000"])
    assert rc == 0
    header = json.loads((tmp_path / "run" / "profile.json").read_text())
    assert header["relative_residual"] <= 1e-6
    assert header["amplitude"][0] == pytest.approx(6.8968486, rel=1e-6)


def test_solve_flags_uncertified_profile(tmp_path, capsys):
    # relative residual 2.19e-5 at grid 4000, above the 1e-5 certification gate
    pfile = tmp_path / "params.json"
    write_params(pfile, N=2, alpha=20.0, branch="nodal:1")
    rc = main(["solve", "--params", str(pfile), "--out", str(tmp_path / "run"),
               "--grid", "4000"])
    assert rc == 1
    assert "profile not certified: relative residual" in capsys.readouterr().err
    assert (tmp_path / "run" / "profile.csv").exists()
    rc = main(["verify", "--profile", str(tmp_path / "run" / "profile"),
               "--out", str(tmp_path / "report.json"), "--mesh", "600"])
    assert rc == 1


def test_solve_deterministic_modulo_timestamp(tmp_path):
    pfile = tmp_path / "params.json"
    write_params(pfile, alpha=1.0)
    main(["solve", "--params", str(pfile), "--out", str(tmp_path / "a"),
          "--grid", "1000"])
    main(["solve", "--params", str(pfile), "--out", str(tmp_path / "b"),
          "--grid", "1000"])
    ja = strip_created((tmp_path / "a" / "profile.json").read_text())
    jb = strip_created((tmp_path / "b" / "profile.json").read_text())
    assert ja == jb
    assert (tmp_path / "a" / "profile.csv").read_text() == \
        (tmp_path / "b" / "profile.csv").read_text()


def test_solve_malformed_params(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--params", str(bad), "--out", str(tmp_path / "x")]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"N": 3}))
    assert main(["solve", "--params", str(missing), "--out", str(tmp_path / "y")]) == 2
    # values that parse but that the solver rejects are parameter errors too,
    # and so are a fractional N (not truncated) and a non-finite alpha or mu
    # (not read as "no solution")
    for i, overrides in enumerate(({"branch": "nodal:x"}, {"branch": "nodal:0"},
                                   {"family": "quartic_coupled", "a2": 2.0, "b": 0.5},
                                   {"N": 2.6}, {"alpha": float("nan")},
                                   {"alpha": float("inf")}, {"mu1": float("nan")},
                                   {"branch": 3}, {"branch": None})):
        pfile = tmp_path / f"params{i}.json"
        write_params(pfile, **overrides)
        assert main(["solve", "--params", str(pfile), "--out", str(tmp_path / f"z{i}")]) == 2


@pytest.mark.parametrize("overrides", [{"a2": 2.0}, {"mu2": 1.0}], ids=["a1-a2", "mu1-mu2"])
def test_solve_rejects_asymmetric_coupled_system(tmp_path, capsys, overrides):
    pfile = tmp_path / "params.json"
    write_params(pfile, family="quartic_coupled", b=0.5, **overrides)
    assert main(["solve", "--params", str(pfile), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "shot on the diagonal u = v, which needs a1 = a2 and mu1 = mu2" in err


def test_solve_unsolvable_regime(tmp_path):
    pfile = tmp_path / "params.json"
    write_params(pfile, p=8)  # ball-supercritical
    rc = main(["solve", "--params", str(pfile), "--out", str(tmp_path / "run"),
               "--grid", "1000", "--tol", "1e-8"])
    assert rc == 1


def test_verify_certified_profile(tmp_path, solve):
    # a positive profile and a nodal one, both read from their stored grids
    for name, alpha, nodes in (("positive", 4.0, 0), ("nodal2", 2.0, 2)):
        save_profile(solve(2, alpha, nodes=nodes), tmp_path / name)
        rc = main(["verify", "--profile", str(tmp_path / name),
                   "--out", str(tmp_path / f"{name}.json"), "--mesh", "600"])
        assert rc == 0, name
        report = json.loads((tmp_path / f"{name}.json").read_text())
        assert report["pass"] is True
        assert report["checks"]["radial_residual"]["pass"]
        assert report["checks"]["transformed_residual"]["pass"]
        assert report["checks"]["pohozaev_slack"]["pass"]
        assert report["checks"]["pohozaev_lower_bound"]["pass"]
        sector = report["checks"]["stable_sector"]
        assert sector["pass"] and sector["halfline"] == sector["radial"]
        assert sector["radial"][0] >= 1 and sector["radial"][1] == 0
        assert sector["ell"] == next(e["ell"] for e in report["morse"]["per_ell"]
                                     if e["negatives"] == 0)


def test_verify_short_horizon(tmp_path, capsys, solve):
    # at T = 2 the half line still holds sector 2's negative direction, so the
    # stable-sector counts agree, while the truncated Pohozaev identity fails
    # honestly: the report is written and verify exits 1
    save_profile(solve(2, 4.0), tmp_path / "profile")
    rc = main(["verify", "--profile", str(tmp_path / "profile"), "--T", "2",
               "--out", str(tmp_path / "report.json"), "--mesh", "600"])
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert checks["stable_sector"] == {"ell": 3, "halfline": [1, 0], "radial": [1, 0],
                                       "pass": True}
    assert checks["transformed_residual"]["pass"]
    assert not checks["pohozaev_identity"]["pass"]


def test_verify_fails_when_the_half_line_loses_a_sector(tmp_path, capsys, solve):
    # at T = 1 the half line is too short to hold sector 2's negative direction:
    # the counts at (l* - 1, l*) = (2, 3) read [0, 0] against the r-pencils' [1, 0]
    save_profile(solve(2, 4.0), tmp_path / "profile")
    argv = ["verify", "--profile", str(tmp_path / "profile"), "--mesh", "600"]
    assert main(argv + ["--T", "1"]) == 1
    assert ('[FAIL] stable_sector: {"ell": 3, "halfline": [0, 0], "radial": [1, 0]}'
            in capsys.readouterr().out)


def test_verify_fails_on_a_spurious_half_line_direction(tmp_path, capsys, solve, monkeypatch):
    # the other side: a half line that counts one negative direction too many at
    # both sectors fails the check on a profile that otherwise passes every check
    save_profile(solve(2, 4.0), tmp_path / "profile")
    argv = ["verify", "--profile", str(tmp_path / "profile"), "--mesh", "600"]
    assert main(argv) == 0
    real = cli.qk_negative_count
    monkeypatch.setattr(cli, "qk_negative_count", lambda tp, lam: real(tp, lam) + 1)
    capsys.readouterr()
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert '[FAIL] stable_sector: {"ell": 3, "halfline": [2, 1], "radial": [1, 0]}' in out
    assert out.count("[FAIL]") == 1


@pytest.mark.parametrize("T", ["0", "-1", "nan", "inf", "x"])
def test_horizon_must_be_finite_and_positive(tmp_path, capsys, solve, T):
    save_profile(solve(2, 4.0), tmp_path / "profile")
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"N": 2, "mu1": 0.0, "mu2": 0.0, "family": "pure_power",
                                 "p": 4, "alphas": [0.0], "branches": ["positive"]}))
    assert main(["verify", "--profile", str(tmp_path / "profile"), "--T", T]) == 2
    assert main(["sweep", "--params", str(pfile), "--out", str(tmp_path / "sw"), "--T", T]) == 2
    assert "--T" in capsys.readouterr().err
    assert not (tmp_path / "sw" / "sweep.json").exists()


@pytest.mark.parametrize("command, option, value", [
    ("solve", "--tol", "-1"), ("solve", "--tol", "0"), ("solve", "--tol", "nan"),
    ("solve", "--tol", "inf"), ("solve", "--grid", "50"), ("sweep", "--tol", "-1"),
    ("sweep", "--mesh", "10"), ("sweep", "--grid", "50"), ("sweep", "--workers", "0"),
    ("sweep", "--workers", "-3"),
])
def test_rejects_bad_numeric_options(tmp_path, capsys, command, option, value):
    pfile = tmp_path / "params.json"
    write_params(pfile, N=2, alpha=4.0, alphas=[4.0], branches=["positive"])
    out = tmp_path / "run"
    assert main([command, "--params", str(pfile), "--out", str(out), option, value]) == 2
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err
    assert not (out / "sweep.json").exists() and not (out / "profile.json").exists()


def test_verify_detects_corruption(tmp_path, solve):
    prof = solve(2, 4.0)
    bad = RadialProfile(prof.params, prof.grid, 1.1 * prof.u, prof.v,
                        1.1 * prof.du, prof.dv,
                        (1.1 * prof.amplitude[0], 0.0))
    # relative residual 2.2e-5: above the certification gate that morse_index applies
    coarse = solve(2, 20.0, nodes=1)
    for name, profile in (("corrupted", bad), ("coarse", coarse)):
        save_profile(profile, tmp_path / name)
        rc = main(["verify", "--profile", str(tmp_path / name),
                   "--out", str(tmp_path / f"{name}.json"), "--mesh", "600"])
        assert rc == 1
        report = json.loads((tmp_path / f"{name}.json").read_text())
        assert not report["checks"]["radial_residual"]["pass"]
        assert not report["checks"]["transformed_residual"]["pass"]


@pytest.mark.parametrize("field, value", [("N", 2.6), ("alpha", float("nan")), ("mu1", None),
                                          ("amplitude", None), ("amplitude", [])])
def test_verify_rejects_malformed_stored_params(tmp_path, capsys, solve, field, value):
    # a parameter or the amplitude of the header
    save_profile(solve(2, 4.0), tmp_path / "profile")
    header = json.loads((tmp_path / "profile.json").read_text())
    (header["params"] if field in header["params"] else header)[field] = value
    (tmp_path / "profile.json").write_text(json.dumps(header))
    assert main(["verify", "--profile", str(tmp_path / "profile")]) == 2
    assert "profile load error: " in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["four columns", "header only", "nonuniform grid"])
def test_verify_rejects_malformed_stored_csv(tmp_path, capsys, solve, damage):
    # a file error, not an IndexError: residual differences on h = r[1] - r[0]
    # and reads five columns
    save_profile(solve(2, 4.0), tmp_path / "profile")
    path = tmp_path / "profile.csv"
    lines = path.read_text().splitlines()
    if damage == "four columns":
        lines = [line.rsplit(",", 1)[0] for line in lines]
    elif damage == "header only":
        lines = lines[:1]
    else:
        r1, rest = lines[2].split(",", 1)
        lines[2] = f"{float(r1) + 1e-6!r},{rest}"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--profile", str(tmp_path / "profile")]) == 2
    err = capsys.readouterr().err
    assert "profile load error: " in err and "Traceback" not in err


def test_verify_trivial_profile(tmp_path):
    params = ProblemParams(N=3, alpha=0.0, mu1=0.0, mu2=0.0, f=pure_power(4))
    zero = integrate_radial_ivp(params, (0.0, 0.0), 500)
    save_profile(zero, tmp_path / "profile")
    rc = main(["verify", "--profile", str(tmp_path / "profile"),
               "--out", str(tmp_path / "report.json")])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["trivial"] is True


def test_verify_missing_profile(tmp_path):
    assert main(["verify", "--profile", str(tmp_path / "nope")]) == 2


def test_sweep_rows_and_summary(tmp_path):
    pfile = tmp_path / "params.json"
    base = {"N": 2, "mu1": 0.0, "mu2": 0.0, "family": "pure_power", "p": 4,
            "a1": 1.0, "a2": 1.0, "b": 0.0,
            "alphas": [2.0, 0.0], "branches": ["positive"]}
    pfile.write_text(json.dumps(base))
    rc = main(["sweep", "--params", str(pfile), "--out", str(tmp_path / "sw"),
               "--grid", "2000", "--mesh", "500"])
    assert rc == 0
    payload = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    rows = payload["rows"]
    assert [r["alpha"] for r in rows] == [0.0, 2.0]  # sorted ascending
    for row in rows:
        assert row["status"] == "ok"
        assert row["total_morse_index"] >= 1
        assert row["mesh_stable"] is True
        # the certified truncation degree appears with zero count
        last = row["morse"]["per_ell"][-1]
        assert last["negatives"] == 0
    assert payload["summary"]["smallest_alpha_with_index_above_1"] == 2.0
    csv_lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 3


def test_sweep_nodal_branch(tmp_path):
    pfile = tmp_path / "params.json"
    base = {"N": 2, "mu1": 0.0, "mu2": 0.0, "family": "pure_power", "p": 4,
            "a1": 1.0, "a2": 1.0, "b": 0.0,
            "alphas": [2.0], "branches": ["nodal:1"]}
    pfile.write_text(json.dumps(base))
    rc = main(["sweep", "--params", str(pfile), "--out", str(tmp_path / "sw"),
               "--grid", "2000", "--mesh", "500"])
    assert rc == 0
    payload = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    row = payload["rows"][0]
    assert row["status"] == "ok"
    assert row["total_morse_index"] >= 2.0 + 3  # cited planar bound
    # an index above 1 breaks symmetry only on the positive branch
    assert payload["summary"]["smallest_alpha_with_index_above_1"] is None


def test_sweep_empty_alphas(tmp_path):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"N": 2, "family": "pure_power", "p": 4,
                                 "alphas": [], "branches": ["positive"]}))
    rc = main(["sweep", "--params", str(pfile), "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert not (tmp_path / "sw" / "sweep.json").exists()


def test_sweep_records_failures(tmp_path):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"N": 3, "mu1": 0.0, "mu2": 0.0,
                                 "family": "pure_power", "p": 8,
                                 "a1": 1.0, "a2": 1.0, "b": 0.0,
                                 "alphas": [0.0], "branches": ["positive"]}))
    rc = main(["sweep", "--params", str(pfile), "--out", str(tmp_path / "sw"),
               "--grid", "1000", "--tol", "1e-8"])
    assert rc == 0  # partial failures do not abort the sweep
    payload = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert payload["rows"][0]["status"] == "failed"
    assert "NoBracket" in payload["rows"][0]["reason"]


def test_sweep_records_parameter_errors(tmp_path):
    # a negative alpha and a zero-node branch fail their rows, not the sweep
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"N": 2, "family": "pure_power", "p": 4,
                                 "alphas": [-0.5, 1.0], "branches": ["nodal:0"]}))
    rc = main(["sweep", "--params", str(pfile), "--out", str(tmp_path / "sw")])
    assert rc == 0
    rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())["rows"]
    assert len(rows) == 2
    assert all(r["status"] == "failed" and r["reason"].startswith("ValueError: ")
               for r in rows)


def test_sweep_fails_rows_with_a_nonfinite_alpha(tmp_path):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"N": 2, "family": "pure_power", "p": 4,
                                 "alphas": [float("nan"), float("inf")],
                                 "branches": ["positive"]}))
    assert main(["sweep", "--params", str(pfile), "--out", str(tmp_path / "sw")]) == 0
    rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())["rows"]
    assert len(rows) == 2
    assert all(r["status"] == "failed" and r["reason"].startswith("ValueError: ")
               for r in rows)


@pytest.mark.parametrize("field, value", [("alphas", ["x"]), ("branches", "positive")])
def test_sweep_rejects_bad_parameter_types(tmp_path, capsys, field, value):
    # a non-numeric alpha and a branch string (iterated by character) are
    # caught before any row runs
    params = {"N": 2, "family": "pure_power", "p": 4,
              "alphas": [1.0], "branches": ["positive"], field: value}
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params))
    rc = main(["sweep", "--params", str(pfile), "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "parameter file error: " in capsys.readouterr().err
    assert not (tmp_path / "sw" / "sweep.json").exists()


def test_liouville_windows(tmp_path):
    rc = main(["liouville", "--energy", "0.5", "--windows", "0,25",
               "--length", "20", "--out", str(tmp_path / "li"), "--mesh", "400"])
    assert rc == 0
    payload = json.loads((tmp_path / "li" / "liouville.json").read_text())
    assert payload["all_windows_unstable"] is True
    for w in payload["windows"]:
        assert w["q_min"] < 0
        assert w["sound"]
    assert (tmp_path / "li" / "witness_0.csv").exists()


def test_liouville_narrow_window_fails(tmp_path):
    rc = main(["liouville", "--energy", "0.5", "--windows", "50",
               "--length", "0.1", "--out", str(tmp_path / "li"), "--mesh", "200"])
    assert rc == 1


def test_liouville_zero_energy(tmp_path):
    rc = main(["liouville", "--energy", "0", "--out", str(tmp_path / "li")])
    assert rc == 0
    payload = json.loads((tmp_path / "li" / "liouville.json").read_text())
    assert payload["trivial"] is True


@pytest.mark.parametrize("option, value", [("--p", "2"), ("--p", "inf"), ("--p", "nan"),
                                           ("--mesh", "0"), ("--mesh", "2"),
                                           ("--energy", "inf")])
def test_liouville_rejects_bad_options(tmp_path, capsys, option, value):
    argv = ["liouville", "--energy", "1", "--out", str(tmp_path / "li"), option, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    assert not (tmp_path / "li" / "liouville.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_liouville_blow_up_exits_1(tmp_path, capsys):
    rc = main(["liouville", "--energy", "1e300", "--out", str(tmp_path / "li")])
    assert rc == 1
    assert "no bounded trajectory: limit trajectory exceeded" in capsys.readouterr().err
    assert not (tmp_path / "li" / "liouville.json").exists()


def test_usage_errors(tmp_path, capsys, solve):
    assert main(["solve"]) == 2
    assert main(["unknown-command"]) == 2
    # invalid option values are reported on stderr, not as a traceback
    save_profile(solve(2, 4.0), tmp_path / "profile")
    li = ["liouville", "--energy", "1", "--out", str(tmp_path / "li")]
    for argv in (li + ["--windows", "a,b"], li + ["--length", "-5"],
                 ["verify", "--profile", str(tmp_path / "profile"), "--mesh", "100"]):
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err


PLANAR = {"N": 2, "mu1": 0.0, "mu2": 0.0, "family": "pure_power", "p": 4,
          "a1": 1.0, "a2": 1.0, "b": 0.0}
HEADLINE = {**PLANAR, "alphas": [float(a) for a in range(0, 21, 2)], "branches": ["positive"]}


def count_work(monkeypatch):
    """Calls of solve_ivp in radial_bvp and of the sector count, as a running tally."""
    work = {"ivp": 0, "count": 0}
    ivp, count = radial_bvp.solve_ivp, spectral.count_negative_eigenvalues

    def counted_ivp(*args, **kwargs):
        work["ivp"] += 1
        return ivp(*args, **kwargs)

    def counted_count(*args, **kwargs):
        work["count"] += 1
        return count(*args, **kwargs)

    monkeypatch.setattr(radial_bvp, "solve_ivp", counted_ivp)
    monkeypatch.setattr(spectral, "count_negative_eigenvalues", counted_count)
    return work


def run_sweep(tmp_path, name, params, *options):
    pfile = tmp_path / f"{name}.json"
    pfile.write_text(json.dumps(params))
    assert main(["sweep", "--params", str(pfile), "--out", str(tmp_path / name),
                 *options]) == 0
    return json.loads((tmp_path / name / "sweep.json").read_text())


def test_headline_sweep_shoots_once(tmp_path, monkeypatch):
    # every planar row maps to the one (2, 0) shot and its singular spectrum:
    # one IVP for the eleven rows, and the counts of one pencil pair
    work = count_work(monkeypatch)
    payload = run_sweep(tmp_path, "headline", HEADLINE)
    assert [r["total_morse_index"] for r in payload["rows"]] == \
        [1, 3, 5, 7, 7, 9, 11, 13, 13, 15, 17]
    assert payload["summary"]["smallest_alpha_with_index_above_1"] == 2.0
    assert work["ivp"] == 1
    assert work["count"] <= 100


def test_back_to_back_sweeps_do_identical_work(tmp_path, monkeypatch):
    # the shot and the spectrum live for one sweep call: a second call in the
    # same process shoots and counts again, and writes the same file
    params = {**PLANAR, "alphas": [0.0, 4.0, 8.0], "branches": ["positive", "nodal:1"]}
    work = count_work(monkeypatch)
    tallies, files = [], []
    for name in ("first", "second"):
        before = dict(work)
        run_sweep(tmp_path, name, params, "--grid", "2000", "--mesh", "500")
        tallies.append({k: work[k] - before[k] for k in work})
        files.append(strip_created((tmp_path / name / "sweep.json").read_text()))
    assert tallies[0] == tallies[1]
    assert tallies[0]["ivp"] == 2  # one shot per branch
    assert files[0] == files[1]


def test_sweep_workers_write_identical_rows(tmp_path):
    # each group is one pool task, so two workers write the serial rows
    params = {**PLANAR, "alphas": [0.0, 2.0, 4.0], "branches": ["positive", "nodal:1"]}
    payloads = [run_sweep(tmp_path, f"w{n}", params, "--grid", "2000", "--mesh", "500",
                          "--workers", str(n)) for n in (1, 2)]
    assert payloads[0]["rows"] == payloads[1]["rows"]
    assert payloads[0]["summary"] == payloads[1]["summary"]


MIXED = {**PLANAR, "alphas": [0.0, 2.0], "branches": ["positive", "nodal:1"]}


@pytest.mark.parametrize("N, alpha, p, branch, certified", [
    # half-line defects 25.9, 1.15, 1.51, 3.2e-2 and 4.2e-3 at the default
    # grid, above the 1e-3 gate, while their relative residuals pass
    (8, 2.0, 2.5, "nodal:1", False), (2, 2.0, 2.5, "nodal:1", False),
    (3, 2.0, 2.2, "positive", False), (2, 2.0, 2.2, "positive", False),
    (2, 6.0, 4, "nodal:2", False),
    (2, 2.0, 4, "positive", True), (2, 20.0, 4, "positive", True),
])
def test_solve_sweep_and_verify_agree(tmp_path, capsys, N, alpha, p, branch, certified):
    params = {**PLANAR, "N": N, "p": p}
    row = run_sweep(tmp_path, "sweep", {**params, "alphas": [alpha],
                                        "branches": [branch]})["rows"][0]
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({**params, "alpha": alpha, "branch": branch}))
    capsys.readouterr()
    solved = main(["solve", "--params", str(pfile), "--out", str(tmp_path / "run")])
    solve_err = capsys.readouterr().err
    verified = main(["verify", "--profile", str(tmp_path / "run" / "profile"),
                     "--out", str(tmp_path / "report.json")])
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    if certified:
        assert (row["status"], solved, verified) == ("ok", 0, 0)
        assert all(c["pass"] for c in checks.values())
        return
    assert (row["status"], solved, verified) == ("uncertified", 1, 1)
    assert "transformed_residual" in row["reason"] and "transformed_residual" in solve_err
    assert "total_morse_index" not in row  # the counts of an uncertified profile
    # sweep names the checks of certify that verify fails: all but its stable-sector check
    failed = [name for name, c in checks.items() if not c["pass"] and name != "stable_sector"]
    assert [name for name in checks if f"{name}: " in row["reason"]] == failed


def test_sweep_onset_comes_from_the_positive_branch(tmp_path):
    # the nodal:1 row at alpha = 0 has index 8, yet symmetry breaks at the
    # first positive row of index above 1
    payload = run_sweep(tmp_path, "mixed", MIXED, "--grid", "2000", "--mesh", "500")
    index = {(r["branch"], r["alpha"]): r["total_morse_index"] for r in payload["rows"]}
    assert index[("nodal:1", 0.0)] > 1
    assert (index[("positive", 0.0)], index[("positive", 2.0)]) == (1, 3)
    assert payload["summary"]["smallest_alpha_with_index_above_1"] == 2.0


# the same one-liner runs in the CI "Console script" step
HEAVY_IMPORT_CHECK = (
    "import sys, henon_morse.cli; "
    "heavy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
    "assert not heavy, heavy"
)


def test_cli_import_loads_no_scipy_module():
    # any scipy module costs start-up on every CLI run: a bare `import scipy`
    # about 18 ms, scipy.linalg alone (numpy.f2py, numpy.testing) more than
    # doubles it, and .integrate, .interpolate and .optimize cost more again;
    # pencil and radial_bvp load the two files they need by path
    src = str(Path(henon_morse.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
                    + HEAVY_IMPORT_CHECK], check=True, capture_output=True, timeout=120)


def test_missing_scipy_file_is_a_named_import_error(tmp_path):
    # a scipy with no linalg/ (a stub package first on the path): the import
    # fails with the wrapper's name and the paths it looked for
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    src = str(Path(henon_morse.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path[:0] = [{str(tmp_path)!r}, "
                          f"{src!r}]; import henon_morse.cli"], capture_output=True, text=True, timeout=120)
    assert out.returncode == 1 and "\nImportError: _flapack: no file " in out.stderr, out.stderr


def test_missing_tableau_is_a_named_import_error():
    # radial_bvp loads the DOP853 tableau through the same helper
    with pytest.raises(ImportError, match=r"_dop853: no file \S+integrate/_ivp/dop853_moved\.py"):
        load_scipy_file("_dop853", "integrate/_ivp/dop853_moved.py")


def test_sweep_pool_has_one_worker_per_group_at_most(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)  # imported at use
    payload = run_sweep(tmp_path, "pooled", MIXED, "--grid", "2000", "--mesh", "500",
                        "--workers", "64")
    assert sizes == [2]  # two groups, one per branch
    assert len(payload["rows"]) == 4


def test_onset_alphas_match_direct_counts(tmp_path):
    # N = 2: sector k turns negative where beta^2 nu_1(2) = -k^2, at
    # alpha_k = 2k / sqrt(|nu_1|) - 2 = 0.6005, 3.2010, 5.8016 (the Richardson
    # value of nu_1 is -0.591479); each reported enclosure gives it to four
    # decimals (mesh 1000 moves it by about 1.2e-5), and the r-variable count
    # of sector k is 0 just below the enclosure and positive just above
    payload = run_sweep(tmp_path, "onsets", {**PLANAR, "alphas": [0.0, 8.0],
                                             "branches": ["positive"]})
    onsets = payload["summary"]["onset_alphas"]["positive"]
    assert len(onsets) >= 3
    for k, (lo, hi) in enumerate(onsets[:3], 1):
        assert hi - lo <= 1e-4
        assert abs(0.5 * (lo + hi) - (2.0 * k / 0.591479 ** 0.5 - 2.0)) <= 1e-4
        for alpha, negative in ((lo - 0.05, False), (hi + 0.05, True)):
            params = ProblemParams(N=2, alpha=alpha, mu1=0.0, mu2=0.0, f=pure_power(4))
            assert (morse_index(shoot_positive(params), mesh=1000).counts()[k] > 0) == negative
