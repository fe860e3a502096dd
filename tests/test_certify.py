"""Certification on the components that carry data, against the two-component formulas.

The checks skip a component whose samples and slopes are all 0, and every
term multiplied by mu = 0; they must still give the two-component formulas'
values bit for bit, zeros' signs included.  Also here: the NaN and
short-horizon edges of ``certify`` and ``verify``, and the split of a
symmetric coupled system's index into two scalar indices.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from henon_morse import cli
from henon_morse.errors import HypothesisViolated
from henon_morse.gates import RESIDUAL_GATE
from henon_morse.halfline import (
    certify,
    pohozaev_check,
    pohozaev_identity_residual,
    transform_profile,
    transformed_residual,
)
from henon_morse.io import load_profile, read_json, save_profile
from henon_morse.nonlinearity import pure_power
from henon_morse.radial_bvp import (
    ProblemParams,
    RadialProfile,
    quadratic_part,
    relative_residual,
    residual,
)
from henon_morse.spectral import build_sector, count_negative_eigenvalues

from oracles import (
    two_component_pohozaev_check,
    two_component_pohozaev_identity,
    two_component_quadratic_part,
    two_component_residual,
    two_component_transform,
    two_component_transformed_residual,
)

CASES = {
    "N2-a0": dict(N=2, alpha=0.0),
    "N2-a4": dict(N=2, alpha=4.0),
    "N2-a20": dict(N=2, alpha=20.0),
    "N2-a4-nodal2": dict(N=2, alpha=4.0, nodes=2),
    "N3-a1-mu1-nodal1": dict(N=3, alpha=1.0, mu=1.0, nodes=1),
    "N3-a2-mu0.5": dict(N=3, alpha=2.0, mu=0.5),  # gamma > 0
    "N3-a6-mu0.5": dict(N=3, alpha=6.0, mu=0.5),  # gamma > 0 within the Pohozaev hypothesis
    "N2-a4-coupled": dict(N=2, alpha=4.0, family="quartic_coupled", b=0.5),
}


def swapped(profile):
    """The same solution carried by v, with u = 0: the scalar families are symmetric in (u, v)."""
    return dataclasses.replace(profile, u=profile.v, v=profile.u, du=profile.dv, dv=profile.du,
                               amplitude=profile.amplitude[::-1])


def identical(ours, theirs):
    """Equal values and equal sign bits, for floats and arrays alike."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return np.array_equal(ours, theirs) and np.array_equal(np.signbit(ours), np.signbit(theirs))


def outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisViolated:
        return HypothesisViolated


@pytest.fixture(params=[*CASES, "N2-a4-reloaded", "N2-a4-swapped", "N3-a1-mu1-nodal1-swapped"])
def profile(request, solve, tmp_path):
    name = request.param
    if name == "N2-a4-reloaded":
        save_profile(solve(**CASES["N2-a4"]), tmp_path / "p")
        return load_profile(tmp_path / "p")
    if name.endswith("-swapped"):
        return swapped(solve(**CASES[name[:-len("-swapped")]]))
    return solve(**CASES[name])


def test_certification_is_the_two_component_formulas_bit_for_bit(profile):
    fresh = dataclasses.replace(profile)  # no residual kept from another test
    assert (residual(fresh), relative_residual(fresh)) == two_component_residual(
        fresh, math.sqrt(RESIDUAL_GATE))
    assert quadratic_part(fresh) == two_component_quadratic_part(fresh)
    tp = transform_profile(fresh)
    for ours, theirs in zip((tp.tgrid, tp.u, tp.v, tp.du, tp.dv), two_component_transform(fresh)):
        assert identical(ours, theirs)
    assert transformed_residual(tp) == two_component_transformed_residual(tp)
    assert pohozaev_identity_residual(tp) == two_component_pohozaev_identity(tp)
    check = outcome(pohozaev_check, tp)
    if check is not HypothesisViolated:
        assert (check.lhs, check.rhs, check.tail_band) == two_component_pohozaev_check(tp)


def test_the_cases_cover_what_the_skips_decide(solve):
    # scalar rows carry v = 0 and coupled rows carry both; the Pohozaev check runs
    # with mu = 0 and gamma = 0 (N = 2, alpha >= 2) and with mu > 0 and gamma > 0
    assert all(not solve(**c).v.any() for k, c in CASES.items() if "coupled" not in k)
    assert solve(**CASES["N2-a4-coupled"]).v.any()
    checked = {k for k, c in CASES.items()
               if outcome(pohozaev_check, transform_profile(solve(**c))) is not HypothesisViolated}
    assert checked == {"N2-a4", "N2-a20", "N2-a4-nodal2", "N3-a6-mu0.5", "N2-a4-coupled"}
    tp = transform_profile(solve(**CASES["N3-a6-mu0.5"]))
    assert tp.gamma > 0 and tp.params.mu1 > 0


@pytest.mark.parametrize("case", [
    dict(N=3, alpha=6.0, mu=0.5),  # mu > 0, gamma > 0
    dict(N=2, alpha=4.0, mu=1.0),  # mu > 0, gamma = 0
    dict(N=2, alpha=4.0, p=3.0),
    dict(N=2, alpha=4.0, family="quartic_coupled", b=0.5),
], ids=["N3-a6-mu0.5", "N2-a4-mu1", "N2-a4-p3", "N2-a4-coupled"])
def test_an_r_grid_certificate_is_pohozaev_check_bit_for_bit(solve, case):
    # an r-grid profile is certified by its own Certificate, lam = 1: at the
    # default horizon 30/beta its records are pohozaev_check's and
    # pohozaev_identity_residual's bit for bit, since the fitted tail that
    # identity (b) adds to int g (4e-26 and less here) is below int g's last bit
    profile = solve(**case)
    checks, tp = certify(profile)
    pc, slack = pohozaev_check(tp), checks["pohozaev_slack"]
    assert (slack["lhs"], slack["rhs"], slack["slack"], slack["band"]) == \
        (pc.lhs, pc.rhs, pc.slack, pc.tail_band)
    assert checks["pohozaev_identity"]["value"] == pohozaev_identity_residual(tp)


def test_identity_b_reads_the_fitted_tail_at_a_short_horizon(solve):
    # at T = 1 the tail beyond the horizon is not negligible: the certificate
    # reads int g plus the fitted tail, 0.67387, where the identity on int g
    # alone reads 0.66575; both fail the gate (N = 2, alpha = 4, mu = 1, positive)
    checks, tp = certify(solve(2, 4.0, mu=1.0), T=1.0)
    assert checks["pohozaev_identity"]["value"] == pytest.approx(0.6738746521938501, rel=1e-6)
    assert pohozaev_identity_residual(tp) == pytest.approx(0.6657485762246989, rel=1e-6)
    assert not checks["pohozaev_identity"]["pass"]


def test_a_nan_slope_fails_the_radial_residual(solve):
    profile = solve(2, 4.0)
    du = profile.du.copy()
    du[len(du) // 2] = math.nan  # r = 0.5
    checks, _ = certify(dataclasses.replace(profile, du=du))
    assert math.isnan(checks["radial_residual"]["value"])
    assert not checks["radial_residual"]["pass"]
    tp = transform_profile(profile)
    tp.du[len(du) // 2] = math.nan
    assert math.isnan(transformed_residual(tp))


def test_verify_rejects_a_stored_nan_sample(solve, tmp_path, capsys):
    save_profile(solve(2, 4.0), tmp_path / "p")
    csv = tmp_path / "p.csv"
    lines = csv.read_text().splitlines(keepends=True)
    row = 1 + (len(lines) - 1) // 2  # r = 0.5
    r, u, v, du, dv = lines[row].rstrip("\r\n").split(",")
    assert float(r) == 0.5
    lines[row] = ",".join([r, u, v, "nan", dv]) + "\r\n"
    csv.write_text("".join(lines))
    with pytest.raises(ValueError, match="not finite"):
        load_profile(tmp_path / "p")
    assert cli.main(["verify", "--profile", str(tmp_path / "p")]) == 2
    assert "profile load error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # h * h underflows to 0, silently
def test_a_horizon_too_short_to_fit_fails_its_checks_without_a_crash(solve, tmp_path, capsys):
    # at T = 1e-200 the tail's decay rate cannot be fitted; the band falls back to g(T) T
    profile = solve(2, 4.0)
    check = pohozaev_check(transform_profile(profile, T=1e-200))
    assert check.tail_band > 0.0 and math.isfinite(check.tail_band)
    save_profile(profile, tmp_path / "p")
    assert cli.main(["verify", "--profile", str(tmp_path / "p"), "--T", "1e-200"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] transformed_residual" in out and "[FAIL] pohozaev_slack" in out
    params = tmp_path / "sweep.json"
    params.write_text('{"N": 2, "mu1": 0.0, "mu2": 0.0, "family": "pure_power", "p": 4, '
                      '"alphas": [4], "branches": ["positive"]}')
    assert cli.main(["sweep", "--params", str(params), "--out", str(tmp_path / "o"),
                     "--T", "1e-300"]) == 0
    (row,) = read_json(tmp_path / "o" / "sweep.json")["rows"]
    assert row["status"] == "uncertified" and "transformed_residual" in row["reason"]


def test_a_tiny_horizon_fails_quietly(solve, tmp_path, capfd):
    # verify --T 1e-200 in a fresh interpreter prints its FAIL lines and nothing
    # else: no LAPACK "DLASCL parameter number 4" message from a tail fit, and no
    # RuntimeWarning from a grid spacing that squares to 0 (warnings shown as by default)
    save_profile(solve(2, 4.0), tmp_path / "p")
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-W", "default", "-m", "henon_morse.cli", "verify",
                          "--profile", str(tmp_path / "p"), "--T", "1e-200"],
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    out, err = capfd.readouterr()
    assert run.returncode == 1
    for name in ("transformed_residual", "pohozaev_slack", "pohozaev_identity", "stable_sector"):
        assert f"[FAIL] {name}" in out, out
    assert '"error": "persistent zero pivot near shift 0.0"' in out
    for noise in ("DLASCL", "Warning", "Traceback"):
        assert noise not in out + err, out + err


@pytest.mark.parametrize("N, alpha, mu", [(2, 4.0, 0.0), (3, 1.0, 1.0)])
def test_symmetric_index_is_two_scalar_indices(solve, N, alpha, mu):
    # at u = v the linearization of quartic_coupled(a1 = a2 = 1, b) rotates into the scalar
    # operators with potentials 3(a1 + b) u^2 and (3 a1 - b) u^2: each sector's coupled
    # count is the sum of the counts of pure_power(4, a1 + b) and pure_power(4, a1 - b/3)
    a1, b = 1.0, 0.5
    coupled = solve(N, alpha, mu=mu, family="quartic_coupled", b=b)
    assert np.array_equal(coupled.u, coupled.v)
    zero = np.zeros_like(coupled.u)

    def reduced(a):
        params = ProblemParams(N=N, alpha=alpha, mu1=mu, mu2=mu, f=pure_power(4, a))
        return RadialProfile(params, coupled.grid, coupled.u, zero, coupled.du, zero,
                             (coupled.amplitude[0], 0.0))

    scalar, second = reduced(a1 + b), reduced(a1 - b / 3.0)
    totals = []
    for ell in range(6):
        counts = [count_negative_eigenvalues(build_sector(p, ell), mesh=1000)
                  for p in (coupled, scalar, second)]
        assert counts[0] == counts[1] + counts[2]
        totals.append(counts)
    assert totals[0][1] >= 1 and any(c[2] for c in totals)  # both operators count something
