"""Sector counting, multiplicities and Morse index assembly."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from henon_morse import spectral
from henon_morse.errors import DegenerateInput
from henon_morse.nonlinearity import pure_power
from henon_morse.pencil import bisect_eigenvalue
from henon_morse.radial_bvp import (
    ProblemParams,
    image_shot,
    integrate_radial_ivp,
    mapped_profile,
    shoot_nodal,
    shoot_positive,
)
from henon_morse.spectral import (
    SingularSpectrum,
    SturmLiouvilleSpec,
    build_sector,
    count_negative_eigenvalues,
    ell_truncation,
    lambda_ell,
    morse_index,
    onset_alphas,
    sector_nonneg_certificate,
    sh_multiplicity,
)

from oracles import harmonic_dimension, oscillation_count, spherical_bessel_j1_zeros

RNG = np.random.default_rng(515151)


def scalar_spec(N, ell, V_func, n=2001):
    r = np.linspace(0.0, 1.0, n)
    z = np.zeros_like(r)
    return SturmLiouvilleSpec(N=N, ell=ell, lambda_ell=lambda_ell(ell, N),
                              rgrid=r, v11=V_func(r), v12=z, v22=z)


def test_lambda_ell_values():
    assert lambda_ell(0, 2) == 0.0
    assert lambda_ell(0, 7) == 0.0
    # l (l + N - 2): the degree-1 eigenvalue on the 2-sphere is l(l+1) = 2
    assert lambda_ell(1, 3) == 2.0
    assert lambda_ell(2, 2) == 4.0
    assert lambda_ell(1, 4) == 3.0
    with pytest.raises(ValueError):
        lambda_ell(-1, 3)


def test_multiplicity_values():
    assert sh_multiplicity(0, 2) == 1
    assert sh_multiplicity(0, 9) == 1
    assert sh_multiplicity(1, 3) == 3
    assert sh_multiplicity(3, 2) == 2


def test_multiplicity_against_harmonic_polynomial_rank():
    for N in (2, 3, 4, 5):
        for ell in range(7):
            assert sh_multiplicity(ell, N) == harmonic_dimension(N, ell)


def test_zero_potential_counts():
    for N in (2, 3, 5):
        for ell in (0, 1, 3):
            spec = scalar_spec(N, ell, lambda r: np.zeros_like(r))
            assert count_negative_eigenvalues(spec, 800) == 0


def test_constant_potential_anchor_ell0():
    # radial Dirichlet eigenvalues on the unit ball at N=3 are (j pi)^2
    spec = scalar_spec(3, 0, lambda r: 50.0 * np.ones_like(r))
    assert count_negative_eigenvalues(spec, 1000) == 2


def test_constant_potential_anchor_ell1():
    # thresholds are the squared zeros of the first spherical Bessel function
    z1, z2 = spherical_bessel_j1_zeros(2)
    assert z1 ** 2 == pytest.approx(20.19, abs=0.01)
    assert z2 ** 2 == pytest.approx(59.68, abs=0.01)
    spec = scalar_spec(3, 1, lambda r: 50.0 * np.ones_like(r))
    assert z1 ** 2 < 50.0 < z2 ** 2
    assert count_negative_eigenvalues(spec, 1000) == 1


def random_potentials(count):
    out = []
    for _ in range(count):
        a = RNG.uniform(-30.0, 90.0)
        b = RNG.uniform(-40.0, 40.0)
        k = RNG.uniform(0.5, 3.0)
        phase = RNG.uniform(0.0, 2 * np.pi)
        c = RNG.uniform(-20.0, 20.0)
        out.append(lambda r, a=a, b=b, k=k, phase=phase, c=c:
                   a + b * np.sin(k * np.pi * r + phase) + c * r)
    return out


def test_sector_nodes_are_made_once_per_mesh(monkeypatch):
    # the ladder specs ``replace`` derives share their parent's interpolated
    # potentials; new potential arrays get their own, never a stale copy
    spec = scalar_spec(3, 0, lambda r: 40.0 * np.cos(3.0 * r))
    fresh = [count_negative_eigenvalues(scalar_spec(3, ell, lambda r: 40.0 * np.cos(3.0 * r)),
                                        mesh, shift)
             for ell in (0, 1) for mesh in (400, 800) for shift in (-5.0, 0.0, 5.0)]
    real, calls = np.interp, []

    def interp(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(np, "interp", interp)
    counts = [count_negative_eigenvalues(replace(spec, ell=ell, lambda_ell=lambda_ell(ell, 3)),
                                         mesh, shift)
              for ell in (0, 1) for mesh in (400, 800) for shift in (-5.0, 0.0, 5.0)]
    assert counts == fresh
    assert calls == [399] * 3 + [799] * 3
    deeper = replace(spec, v11=10.0 * spec.v11)
    assert count_negative_eigenvalues(deeper, 400) == count_negative_eigenvalues(
        scalar_spec(3, 0, lambda r: 400.0 * np.cos(3.0 * r)), 400) > counts[1]


def test_inertia_counts_match_oscillation_oracle():
    cases = 0
    seen = set()
    for V in random_potentials(20):
        N = int(RNG.choice([2, 3, 5]))
        ell = int(RNG.choice([0, 1, 2, 5]))
        spec = scalar_spec(N, ell, V)
        ours = count_negative_eigenvalues(spec, 1500)
        oracle = oscillation_count(N, ell, lambda r: float(V(np.asarray(r))))
        assert ours == oracle, (N, ell, ours, oracle)
        seen.add(ours)
        cases += 1
    assert cases == 20
    assert len(seen) >= 2  # the sample actually exercises several counts


def test_counts_stable_under_mesh_doubling():
    for V in random_potentials(5):
        spec = scalar_spec(3, 1, V)
        assert (count_negative_eigenvalues(spec, 800)
                == count_negative_eigenvalues(spec, 1600))


def test_count_monotone_in_ell():
    V = random_potentials(1)[0]
    counts = []
    for ell in range(6):
        spec = scalar_spec(3, ell, V)
        counts.append(count_negative_eigenvalues(spec, 800))
    assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))


# certified profiles as ``solve`` arguments: positive, nodal, mu > 0, coupled
CERTIFIED = [dict(N=2, alpha=4.0), dict(N=2, alpha=2.0, nodes=2),
             dict(N=3, alpha=1.0, mu=1.0, nodes=1),
             dict(N=2, alpha=4.0, family="quartic_coupled", b=0.5)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CERTIFIED), ell=st.integers(0, 30), gap=st.integers(1, 8),
       mesh=st.sampled_from([400, 1000]))
def test_sector_counts_never_increase_with_ell(solve, case, ell, gap, mesh):
    # the centrifugal term lambda_l / r^2 only grows with l
    profile = solve(**case)
    low, high = (count_negative_eigenvalues(build_sector(profile, k), mesh)
                 for k in (ell, ell + gap))
    assert low >= high


def test_count_monotone_in_potential_shift():
    V = random_potentials(1)[0]
    base = count_negative_eigenvalues(scalar_spec(3, 0, V), 800)
    shifted = count_negative_eigenvalues(
        scalar_spec(3, 0, lambda r: V(r) + 30.0), 800)
    assert shifted >= base


def test_embedded_scalar_decouples():
    # scalar problems embedded as (u, 0) add a nonnegative second block
    r = np.linspace(0.0, 1.0, 2001)
    V = 40.0 + 10.0 * np.sin(2 * np.pi * r)
    for mu2 in (0.0, 0.5, 2.0):
        spec = SturmLiouvilleSpec(N=3, ell=0, lambda_ell=0.0, rgrid=r,
                                  v11=V, v12=np.zeros_like(r),
                                  v22=-mu2 * np.ones_like(r))
        scalar_only = scalar_spec(3, 0, lambda rr: np.interp(rr, r, V))
        assert (count_negative_eigenvalues(spec, 900)
                == count_negative_eigenvalues(scalar_only, 900))


def params_for(N, alpha, p=4.0, mu=0.0):
    return ProblemParams(N=N, alpha=alpha, mu1=mu, mu2=mu, f=pure_power(p))


def test_build_sector_values(solve):
    prof = solve(3, 2.0)
    spec = build_sector(prof, 1)
    p = prof.params
    expected = prof.grid ** p.alpha * (p.f.p - 1) * np.abs(prof.u) ** (p.f.p - 2)
    assert np.allclose(spec.v11, expected, atol=1e-12)
    assert np.all(spec.v12 == 0)
    assert np.allclose(spec.v22, 0.0, atol=1e-12)
    # boundary value of the potential is the negative mass shift
    assert spec.v11[-1] == pytest.approx(0.0, abs=1e-15)


def test_build_sector_mu_shift():
    params = ProblemParams(N=3, alpha=1.0, mu1=0.3, mu2=0.7, f=pure_power(4))
    prof = integrate_radial_ivp(params, (0.0, 0.0), 500)
    spec = build_sector(prof, 0)
    assert np.allclose(spec.v11, -0.3)
    assert np.allclose(spec.v22, -0.7)


def test_certificate_zero_profile():
    prof = integrate_radial_ivp(params_for(3, 0.0), (0.0, 0.0), 500)
    assert sector_nonneg_certificate(build_sector(prof, 0)) == 0.0
    report = morse_index(prof, mesh=400)
    assert report.total_index == 0


def test_certificate_scalar_formula(solve):
    prof = solve(3, 2.0)
    p = prof.params
    expected = float(np.max(
        prof.grid ** (p.alpha + 2) * (p.f.p - 1) * np.abs(prof.u) ** (p.f.p - 2)))
    assert sector_nonneg_certificate(build_sector(prof, 0)) == pytest.approx(expected, rel=1e-12)


def test_first_certified_sector_counts_zero(solve):
    for prof in (solve(3, 0.0), solve(2, 2.0)):
        ell_max, cert = ell_truncation(build_sector(prof, 0))
        assert lambda_ell(ell_max, prof.params.N) >= cert
        assert count_negative_eigenvalues(build_sector(prof, ell_max), 800) == 0
        report = morse_index(prof, mesh=800)
        assert report.ell_max == ell_max and report.per_ell[-1][2] == 0
        assert report.warnings == []


def test_ground_state_index_one(solve):
    report = morse_index(solve(3, 0.0), mesh=1000)
    assert report.total_index == 1
    assert report.mesh_stable
    assert report.counts()[0] == 1
    assert all(neg == 0 for ell, _, neg in report.per_ell if ell >= 1)


def test_morse_index_rejects_uncertified_profile(solve):
    # the single certification gate sits at morse_index entry
    with pytest.raises(DegenerateInput):
        morse_index(solve(2, 4.0).scaled(1.1), mesh=400)


def test_morse_index_count_budget(solve, monkeypatch):
    # the ladder stops at its first zero, and the margin bisects only the
    # eigenvalues that decide a count
    real = spectral.count_negative_eigenvalues
    calls = []

    def counted(spec, mesh=1000, shift=0.0):
        calls.append(spec)
        return real(spec, mesh, shift)

    monkeypatch.setattr(spectral, "count_negative_eigenvalues", counted)
    report = morse_index(solve(2, 4.0), mesh=400)
    assert len(calls) <= 3 * report.ell_max
    first_zero = next(ell for ell, _, neg in report.per_ell if ell >= 1 and neg == 0)
    assert first_zero < report.ell_max
    assert max(spec.lambda_ell for spec in calls) <= lambda_ell(first_zero, 2)


def test_morse_report_shape(solve):
    report = morse_index(solve(2, 2.0), mesh=800)
    ells = [ell for ell, _, _ in report.per_ell]
    assert ells == list(range(report.ell_max + 1))
    # the certified truncation row is present and counts zero
    assert report.per_ell[-1][2] == 0
    assert report.total_index == sum(m * n for _, m, n in report.per_ell)
    assert report.total_index >= 1


def test_mesh_requirement():
    spec = scalar_spec(3, 0, lambda r: np.zeros_like(r))
    with pytest.raises(ValueError):
        count_negative_eigenvalues(spec, 100)


@pytest.mark.parametrize("alpha_k, ell", [(0.600515, 1), (3.201031, 2), (5.801546, 3)])
def test_margin_flags_degenerate_alphas(alpha_k, ell):
    # N=2, p=4: the index jumps where nu_1 = -l^2, at alpha_k = 2k/0.769078 - 2
    # (the planar substitution s = r^(1 + alpha/2)); given to 6 digits the
    # crossing lies inside the discretization error, 0.05 away it does not
    for alpha, warned in ((alpha_k, [ell]), (alpha_k - 0.05, []), (alpha_k + 0.05, [])):
        report = morse_index(shoot_positive(params_for(2, alpha)), mesh=1000)
        assert [int(w.split("ell=")[1].split()[0]) for w in report.warnings] == warned


@pytest.mark.parametrize("N, alpha, nodes", [(3, 2.0, 0), (2, 0.0, 1)])
def test_ladder_counts_match_oscillation_oracle(solve, N, alpha, nodes):
    # every sector count read off the ladder against the independent
    # Sturm oscillation count of the same sector
    prof = solve(N, alpha, nodes=nodes)
    report = morse_index(prof, mesh=1000)
    p = prof.params

    def V(r):
        u = np.interp(r, prof.grid, prof.u)
        return r ** p.alpha * (p.f.p - 1) * abs(u) ** (p.f.p - 2)

    assert [neg for _, _, neg in report.per_ell] == [
        oscillation_count(N, ell, V) for ell in range(report.ell_max + 1)]


@pytest.mark.parametrize("N, alpha", [(3, 2.0), (2, 8.0)])
def test_singular_eigenvalue_scales_by_beta_squared(solve, N, alpha):
    # nu_1(N, alpha) = beta^2 nu_1(M), M = 2.5 and 2: bisected on the
    # profile's own r-pencil and on its (M, 0) image's, each extrapolated
    # from mesh 1000 and 2000 (they agree to 1.6e-8 and 2.0e-6)
    prof = solve(N, alpha)
    image = image_shot(prof.params, 0).profile
    assert image.params.N == 2.0 * (N + alpha) / (2.0 + alpha)

    def nu_1(profile):
        a, b = (0.5 * sum(bisect_eigenvalue(count, 1, -1e3, 0.0, rtol=1e-10)[:2])
                for count in SingularSpectrum(profile, 1000).singular)
        return b + (b - a) / 3.0

    assert nu_1(prof) == pytest.approx((1.0 + 0.5 * alpha) ** 2 * nu_1(image), rel=1e-5)


@pytest.mark.parametrize("nodes", [0, 1])
def test_mapped_counts_match_own_pencil(nodes):
    # one (2, 0) spectrum serves the images at alpha = 8, 2, 0 in turn, each
    # row starting from brackets the rows before it narrowed; every count,
    # warning and mesh flag is that of the row's r-grid profile on its own
    # pencils, and each bracket of an eigenvalue below -l(l+N-2) at l = 1
    # overlaps the r-grid's (above it, N = 2 puts the continuous spectrum,
    # [0, inf), which the two discretizations sample differently)
    shot = image_shot(params_for(2, 8.0), nodes)
    spectrum = SingularSpectrum(shot.profile, 1000)
    for alpha in (8.0, 2.0, 0.0):
        params = params_for(2, alpha)
        image = mapped_profile(params, nodes, shot)
        prof = shoot_nodal(params, nodes, shot=shot)
        mapped, own = morse_index(image, 1000, spectrum), morse_index(prof, 1000)
        assert (mapped.per_ell, mapped.warnings, mapped.mesh_stable) == \
            (own.per_ell, own.warnings, own.mesh_stable)
        assert [j for j, *_ in mapped.nu_hat] == [j for j, *_ in own.nu_hat]
        for (j, a, _), (_, b, _) in zip(mapped.nu_hat, own.nu_hat):
            if j <= own.counts()[1]:
                assert max(a[0], b[0]) < min(a[1], b[1])
    # an image of another Lane-Emden problem (M = 2.5), and an r-grid profile,
    # which is its own image (2, 8): neither is counted on the (2, 0) spectrum
    params = params_for(3, 2.0)
    with pytest.raises(ValueError, match="not of the profile's image"):
        morse_index(mapped_profile(params, 0, image_shot(params, 0)), 1000, spectrum)
    with pytest.raises(ValueError, match="not of the profile's image"):
        morse_index(shoot_positive(params_for(2, 8.0)), 1000, spectrum)


def test_onset_alphas_need_a_planar_lane_emden_image(solve):
    # alpha_k = 2k/sqrt(|nu_1|) - 2 holds for the rows of the (2, 0) image alone: a
    # planar mu = 1 spectrum lists no enclosure, even with nu_1 bracketed below 0
    spectrum = SingularSpectrum(solve(2, 4.0, mu=1.0), 500)
    for nu in (-10.0, -1.0, -0.5):
        spectrum.singular[0](nu)
    lo, hi = spectrum.singular[0].bracket(1)
    assert -math.inf < lo < hi < 0.0
    assert onset_alphas(spectrum, 20.0) == []


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(N=st.sampled_from([2, 3, 4]), alpha=st.floats(0.0, 8.0), nodes=st.sampled_from([0, 1]))
def test_mu_zero_map_keeps_the_index(N, alpha, nodes):
    # the (M, 0) image counted against the ladder scaled by 1/beta^2 gives the
    # r-grid counts sector by sector, for every N (not only N = 2, where one
    # image serves every alpha); p = 3 is subcritical for every N <= 4.  An
    # example is skipped only when either side warns of a near-degenerate
    # sector or is not mesh-stable: there the two discretizations may differ
    params = params_for(N, alpha, p=3.0)
    shot = image_shot(params, nodes)
    mapped = morse_index(mapped_profile(params, nodes, shot), 400,
                         SingularSpectrum(shot.profile, 400))
    own = morse_index(shoot_nodal(params, nodes, shot=shot), 400)
    assume(not (mapped.warnings or own.warnings) and mapped.mesh_stable and own.mesh_stable)
    assert mapped.per_ell == own.per_ell
