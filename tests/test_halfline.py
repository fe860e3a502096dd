"""Half-line transform, boundary-derivative estimates and stability forms."""

import math

import numpy as np
import pytest

from henon_morse import pencil
from henon_morse.errors import HypothesisViolated
from henon_morse.halfline import (
    MatrixPotential,
    TransformedProfile,
    _weighted_blocks,
    beta_of,
    c_np_constant,
    eval_Qk,
    gamma_of,
    inverse_transform,
    pohozaev_check,
    pohozaev_identity_residual,
    pohozaev_lower_bound,
    qk_negative_count,
    stability_potential,
    transform_profile,
    transformed_residual,
    weighted_eigen_min,
)
from henon_morse.io import load_profile, save_profile
from henon_morse.nonlinearity import pure_power, quartic_coupled
from henon_morse.radial_bvp import (
    LANE_EMDEN_TOL,
    ProblemParams,
    _scaling_amplitude,
    integrate_radial_ivp,
)
from henon_morse.spectral import lambda_ell, morse_index

from oracles import build_weighted_forms, simpson_integral, smooth_bump


def test_transform_constants():
    assert beta_of(2, 0.0) == 1.0
    assert gamma_of(2, 0.0) == 0.0
    assert beta_of(3, 3.0) == 0.5
    assert gamma_of(3, 3.0) == 0.5
    assert beta_of(2, 4.0) == pytest.approx(1.0 / 3.0)


def test_transform_alpha_zero_is_plain_substitution(solve):
    # N = 2, alpha = 0: beta = 1 and the scaling factor is 1
    prof = solve(2, 0.0)
    tp = transform_profile(prof, T=5.0, grid_size=500)
    assert tp.kappa == 1.0
    rs = np.exp(-tp.tgrid)
    # at alpha = 0 the (M, 0) problem is the problem itself: the shot's own evaluator
    src = _scaling_amplitude(prof.params, 0, 1e-10, ivp_tol=LANE_EMDEN_TOL)[1](rs)
    assert np.allclose(tp.u, src[0], atol=1e-12)


@pytest.mark.parametrize("case", [dict(N=2, alpha=2.0, nodes=2),
                                  dict(N=3, alpha=1.0, mu=1.0, nodes=1)])
def test_transform_is_scipys_cubic_hermite_spline(tmp_path, solve, case):
    # a solved profile and the same profile stored and reloaded, against
    # CubicHermiteSpline on the stored grid and slopes, bit for bit
    from scipy.interpolate import CubicHermiteSpline

    save_profile(solve(**case), tmp_path / "p")
    for prof in (solve(**case), load_profile(tmp_path / "p")):
        tp = transform_profile(prof)
        r = np.exp(-tp.beta * tp.tgrid)
        spline = CubicHermiteSpline(prof.grid, np.array([prof.u, prof.v]),
                                    np.array([prof.du, prof.dv]), axis=1)
        u, v = tp.kappa * spline(r)
        du, dv = -tp.kappa * tp.beta * r * spline.derivative()(r)
        for ours, theirs in ((tp.u, u), (tp.v, v), (tp.du, du), (tp.dv, dv)):
            assert np.array_equal(ours, theirs)


def test_transform_dirichlet_image(solve):
    for tp in (transform_profile(solve(2, 4.0)), transform_profile(solve(3, 6.0))):
        assert abs(tp.u[0]) <= 1e-10
        assert abs(tp.v[0]) <= 1e-10


def test_round_trip(solve):
    for (N, alpha) in ((2, 4.0), (3, 6.0)):
        prof = solve(N, alpha)
        tp = transform_profile(prof)
        r, u, v, du, dv = inverse_transform(tp)
        src = _scaling_amplitude(prof.params, 0, 1e-10)[1](r)  # a shot in r
        assert float(np.max(np.abs(u - src[0]))) <= 1e-8
        assert float(np.max(np.abs(du - src[2]))) <= 1e-8


def test_transformed_residual_certified(solve):
    for (N, alpha) in ((2, 4.0), (3, 6.0)):
        tp = transform_profile(solve(N, alpha))
        assert transformed_residual(tp) <= 1e-7


def test_zero_profile_transform():
    params = ProblemParams(N=3, alpha=6.0, mu1=0.0, mu2=0.0, f=pure_power(4))
    prof = integrate_radial_ivp(params, (0.0, 0.0), 500)
    tp = transform_profile(prof, T=10.0, grid_size=500)
    assert np.all(tp.u == 0) and np.all(tp.du == 0)
    assert transformed_residual(tp) == 0.0
    pc = pohozaev_check(tp)
    assert pc.lhs == 0.0 and pc.rhs == 0.0


def test_wrong_gamma_detected(solve):
    tp = transform_profile(solve(2, 4.0))
    wrong = TransformedProfile(tp.params, tp.beta, tp.gamma + 0.1, tp.tgrid,
                               tp.u, tp.v, tp.du, tp.dv)
    assert transformed_residual(wrong) >= 1e-3


def test_pohozaev_equality_without_mass_terms(solve):
    # with mu1 = mu2 = 0 the estimate chain collapses to an identity
    for (N, alpha) in ((2, 4.0), (3, 6.0)):
        tp = transform_profile(solve(N, alpha))
        pc = pohozaev_check(tp)
        assert pc.lhs > 0
        assert abs(pc.slack) <= 1e-6 * (1.0 + pc.lhs) + pc.tail_band
        assert pohozaev_identity_residual(tp) <= 1e-6


def test_pohozaev_strict_slack_with_mass(solve):
    tp = transform_profile(solve(3, 6.0, mu=0.5))
    pc = pohozaev_check(tp)
    assert pc.slack > 0
    assert pc.lhs >= pc.rhs
    assert pohozaev_identity_residual(tp) <= 1e-6


def test_pohozaev_hypothesis_guard(solve):
    # N = 3, alpha = 0 sits outside the exponent condition
    tp = transform_profile(solve(3, 0.0))
    with pytest.raises(HypothesisViolated):
        pohozaev_check(tp)


def test_pohozaev_scaling_invariance(solve):
    # both sides are quadratic, so the ratio is scale invariant
    tp = transform_profile(solve(2, 4.0))
    pc = pohozaev_check(tp)
    s = 3.7
    scaled = TransformedProfile(tp.params, tp.beta, tp.gamma, tp.tgrid,
                                s * tp.u, s * tp.v, s * tp.du, s * tp.dv)
    pcs = pohozaev_check(scaled)
    assert pcs.lhs == pytest.approx(s * s * pc.lhs, rel=1e-12)
    assert pcs.rhs == pytest.approx(s * s * pc.rhs, rel=1e-12)


def test_lower_bound_constant_chain():
    assert c_np_constant(3, 4) == pytest.approx(2.0 / math.e, rel=1e-14)
    assert c_np_constant(2, 4) == pytest.approx(3.0 / math.e, rel=1e-14)
    C = pohozaev_lower_bound(pure_power(4), 3)
    # independent evaluation of the closed-form chain
    CF = 0.25
    Cnp = 2.0 / math.e
    expected = (2.0 * 3.0 / 4.0) * (3.0 / (3 * 4 * CF * Cnp ** 2)) ** 1.0
    assert C == pytest.approx(expected, rel=1e-12)
    assert C == pytest.approx(2.771, abs=2e-3)


def test_lower_bound_decreasing_in_growth_constant():
    vals = [pohozaev_lower_bound(quartic_coupled(b=b), 3) for b in (0.0, 1.0, 2.0)]
    assert vals[0] >= vals[1] >= vals[2]
    assert vals[0] > vals[2]


def test_lower_bound_holds_in_admissible_regime(solve):
    # gamma = 0 <= N/(3p) for the planar case
    for alpha in (4.0, 8.0):
        prof = solve(2, alpha)
        tp = transform_profile(prof)
        assert tp.gamma <= 2.0 / 12.0
        pc = pohozaev_check(tp)
        C = pohozaev_lower_bound(prof.params.f, 2)
        assert pc.lhs >= C - pc.tail_band - 1e-9


def test_eval_Qk_basics(solve):
    params = ProblemParams(N=3, alpha=2.0, mu1=0.0, mu2=0.0, f=pure_power(4))
    zero = integrate_radial_ivp(params, (0.0, 0.0), 500)
    tp = transform_profile(zero, T=20.0, grid_size=2000)
    z = np.zeros_like(tp.tgrid)
    assert eval_Qk(tp, 0.0, (z, z), (z, z)) == 0.0
    phi, dphi = smooth_bump(tp.tgrid, 2.0, 8.0)
    q = eval_Qk(tp, 0.0, (phi, z), (dphi, z))
    # with U identically zero only the gradient term survives
    expected = simpson_integral(np.exp(-tp.gamma * tp.tgrid) * dphi ** 2, tp.tgrid)
    assert q == pytest.approx(expected, rel=1e-10)
    assert q > 0


def test_Qk_nonnegative_on_stable_sector(solve):
    # the ground state has no negative eigenvalue in any sector ell >= 1
    prof = solve(3, 0.0)
    report = morse_index(prof, mesh=800)
    assert report.counts()[1] == 0
    tp = transform_profile(prof)
    lam = lambda_ell(1, 3)
    rng = np.random.default_rng(33)
    worst = np.inf
    for _ in range(100):
        a = rng.uniform(0.0, 0.6 * tp.T)
        b = a + rng.uniform(0.5, 12.0)
        phi, dphi = smooth_bump(tp.tgrid, a, min(b, tp.T))
        c1, c2 = rng.uniform(-2.0, 2.0, 2)
        worst = min(worst, eval_Qk(tp, lam, (c1 * phi, c2 * phi),
                                   (c1 * dphi, c2 * dphi)))
    assert worst >= -1e-8


@pytest.mark.parametrize("N, alpha, p, mu, nodes, b", [
    (2, 2.0, 4.0, 0.0, 0, None), (2, 2.0, 4.0, 0.0, 2, None), (2, 4.0, 4.0, 0.0, 0, 0.5),
    (3, 2.0, 4.0, 0.5, 0, None), (3, 2.0, 4.0, 0.0, 2, None), (3, 1.0, 4.0, 1.0, 0, 0.5),
    (4, 2.0, 4.0, 1.0, 1, None), (4, 10.0, 4.0, 0.0, 0, None), (8, 2.0, 2.5, 0.0, 1, None),
])
def test_qk_negative_count_is_the_sector_count(solve, N, alpha, p, mu, nodes, b):
    # Q_k on [0, T] and sector l's r-pencil discretize one form in two variables:
    # their negative counts agree at every degree up to the first stable one l*,
    # the half-line side built with nothing from spectral (b: a coupled system).
    # On 1000 cells over [0, T] instead of the t-grid's 4000, the half line finds a
    # spurious negative direction at l* on N=3 alpha=2 nodal:2, N=4 alpha=2 mu=1
    # nodal:1 and N=4 alpha=10 positive
    family = "pure_power" if b is None else "quartic_coupled"
    prof = solve(N, alpha, p=p, mu=mu, nodes=nodes, family=family, b=b or 0.0)
    counts = morse_index(prof).counts()
    stable = next(ell for ell, neg in counts.items() if neg == 0)
    tp = transform_profile(prof)
    half = [qk_negative_count(tp, lambda_ell(ell, N)) for ell in range(stable + 1)]
    assert half == [counts[ell] for ell in range(stable + 1)]
    assert stable >= 1 and half[-2] >= 1 and half[-1] == 0
    if b is not None:
        assert np.any(tp.potential.m12)


def _weighted_instance(tp):
    """Potential and weights of the weighted eigenproblem for a transform."""
    U = stability_potential(tp)
    grow = np.exp(tp.beta * tp.params.N * U.tgrid)
    return MatrixPotential(U.tgrid, grow * U.m11, grow * U.m12, grow * U.m22)


def test_weighted_eigen_sign_bridge(solve):
    # unstable radial sector (ell = 0) vs stable sector (ell = 1)
    prof = solve(3, 0.0)
    tp = transform_profile(prof)
    Ul = _weighted_instance(tp)
    delta = tp.beta * 3.0
    mu0, (ts, h1, h2) = weighted_eigen_min(Ul, tp.gamma, delta, 0.0, mesh=1000)
    assert mu0 < 0
    mu1, _ = weighted_eigen_min(Ul, tp.gamma, delta,
                                lambda_ell(1, 3) * tp.beta ** 2, mesh=1000)
    assert mu1 >= 0

    # the negative eigenfunction, tapered into a test pair, makes Q_k negative
    taper = np.minimum(1.0, np.maximum(0.0, (ts[-1] - ts) / (0.1 * ts[-1])))
    phi1 = np.interp(tp.tgrid, ts, h1 * taper)
    phi2 = np.interp(tp.tgrid, ts, h2 * taper)
    q = eval_Qk(tp, 0.0, (phi1, phi2))
    assert q < 0


def test_weighted_eigen_count_budget(solve, solve_shifts):
    # the twin of test_witness_count_budget: the bisection stops once a bracket
    # of width 1e-3 (1 + |hi|) isolates mu_min, and the Kato-Temple bound on
    # the Rayleigh quotient certifies it: 16 inertia counts on the stable
    # sector ell = 1, where bisecting to width 1e-13 took 49
    tp = transform_profile(solve(3, 0.0))
    mu, _ = weighted_eigen_min(_weighted_instance(tp), tp.gamma, tp.beta * 3.0,
                               lambda_ell(1, 3) * tp.beta ** 2, mesh=1000)
    assert mu >= 0
    assert 1 <= len(solve_shifts) <= 20, len(solve_shifts)


@pytest.mark.parametrize("ell", [0, 1])
def test_weighted_pencil_counts_agree_on_both_routes(solve, ell, solve_shifts):
    # the weighted form of the N=3 alpha=0 profile has masses down to about
    # 1e-41 at the horizon.  At every shift the eigen-solve visits, the LAPACK
    # count equals the pivot recursion's, but within 1e-12 (1 + |mu|) of
    # mu_min: on the unstable sector l = 0 the bisection runs on to width
    # 1e-13, and there a shift 5e-14 (1 + |mu|) from mu_min reads 0 against 1
    # by rounding alone
    tp = transform_profile(solve(3, 0.0))
    lam = lambda_ell(ell, 3) * tp.beta ** 2
    args = (_weighted_instance(tp), tp.gamma, tp.beta * 3.0, lam, 1000)
    pen = _weighted_blocks(*args)[0]
    d11, d12, d22, off, bw = pen
    assert not np.any(d12) and 1e-43 < np.min(bw) < 1e-39
    mu, _ = weighted_eigen_min(*args)
    assert (mu < 0) == (ell == 0) and len(solve_shifts) > 10
    clear = [s for s in solve_shifts if abs(s - mu) > 1e-12 * (1.0 + abs(mu))]
    assert len(clear) >= len(solve_shifts) - 6
    for s in clear:
        assert (pencil.count_below(pen, s)
                == pencil._negative_pivots(d11 - s * bw, d12, d22 - s * bw, off))


@pytest.mark.parametrize("alpha, mu", [(0.0, 0.0), (1.0, 0.5)])
def test_unstable_weighted_sector_is_the_midpoint_of_a_sturm_bracket(solve, alpha, mu,
                                                                     monkeypatch):
    # on the unstable sector l = 0 of N=3 no eigenvector meets the Kato-Temple
    # bound (masses down to about 1e-41), so mu_min is the midpoint of the
    # Sturm bracket bisected to width 1e-13 from just below the Gershgorin
    # floor, every count of the solve made on the one split form it builds
    tp = transform_profile(solve(3, alpha, mu=mu))
    args = (_weighted_instance(tp), tp.gamma, tp.beta * 3.0, 0.0, 1000)
    pen = _weighted_blocks(*args)[0]
    forms, real = [], pencil.split_form
    monkeypatch.setattr(pencil, "split_form", lambda p: forms.append(p) or real(p))
    mu_min, _ = weighted_eigen_min(*args)
    assert len(forms) == 1

    def count(s):
        return pencil.count_below(pen, s)

    g = pencil.gershgorin_floor(pen)
    lo = g - 1e-6 * (1.0 + abs(g))
    hi = max(1.0, lo + 1.0)
    while count(hi) < 1:
        hi = 2.0 * hi + 1.0
    lo, hi, _ = pencil.bisect_eigenvalue(count, 1, lo, hi)
    assert mu_min < 0 and mu_min == 0.5 * (lo + hi)


def test_weighted_eigen_zero_potential():
    tg = np.linspace(0.0, 40.0, 401)
    z = np.zeros_like(tg)
    U = MatrixPotential(tg, z, z, z)
    mu, _ = weighted_eigen_min(U, gamma=0.1, delta=0.2, lam=0.0, mesh=600)
    assert mu >= 0


def test_weighted_eigen_negative_for_large_bump():
    # quadrature oracle first: a fixed bump makes the form negative
    tg = np.linspace(0.0, 40.0, 4001)
    z = np.zeros_like(tg)
    c = 1000.0
    bump = np.where(tg <= 1.0, c, 0.0)
    U = MatrixPotential(tg, bump, z, bump)
    phi, dphi = smooth_bump(tg, 0.05, 0.95)
    gamma, delta = 0.1, 0.2
    quad = simpson_integral(
        np.exp(-gamma * tg) * dphi ** 2 - np.exp(-delta * tg) * bump * phi ** 2, tg)
    assert quad < 0  # the oracle certifies a negative direction exists

    mu, (ts, h1, h2) = weighted_eigen_min(U, gamma, delta, 0.0, mesh=1000)
    assert mu < 0

    # the eigenpair satisfies the discrete equation and reproduces mu
    A, B, ts2 = build_weighted_forms(U, gamma, delta, 0.0, 1000)
    y = np.empty(2 * (len(h1) - 1))
    y[0::2] = h1[1:]
    y[1::2] = h2[1:]
    res = np.linalg.norm(A @ y - mu * (B * y)) / np.linalg.norm(B * y)
    assert res <= 1e-8
    rq = float(y @ (A @ y)) / float(y @ (B * y))
    assert abs(rq - mu) <= 1e-8 * (1.0 + abs(mu))

    # the discrete growth bound at the horizon, which holds for every vector with
    # h(0) = 0: Cauchy-Schwarz on h(T) = sum of its increments gives |h(T)|^2 <=
    # star * S, S = sum ht e^(gamma t_(j+1/2)) <= (e^(gamma T) - 1)/gamma (midpoint
    # rule of a convex integrand), a quarter of the continuous bound's square
    ht = ts[1] - ts[0]
    mid = ts[:-1] + 0.5 * ht
    star = float(np.sum(np.exp(-gamma * mid) / ht * (np.diff(h1) ** 2 + np.diff(h2) ** 2)))
    S = float(np.sum(ht * np.exp(gamma * mid)))
    assert S <= math.expm1(gamma * ts[-1]) / gamma
    assert h1[-1] ** 2 + h2[-1] ** 2 <= star * S * (1.0 + 1e-12)
    # and it is sharp: increments ht e^(gamma t_(j+1/2)) attain it
    inc = ht * np.exp(gamma * mid)
    assert np.sum(inc) ** 2 == pytest.approx(np.sum(np.exp(-gamma * mid) / ht * inc ** 2) * S,
                                             rel=1e-12)


def test_weighted_eigen_monotone_in_bump_height():
    tg = np.linspace(0.0, 40.0, 2001)
    z = np.zeros_like(tg)
    vals = []
    for c in (0.0, 10.0, 100.0, 1000.0):
        bump = np.where(tg <= 1.0, c, 0.0)
        U = MatrixPotential(tg, bump, z, bump)
        mu, _ = weighted_eigen_min(U, gamma=0.1, delta=0.2, lam=0.0, mesh=800)
        vals.append(mu)
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def test_weighted_eigen_hypothesis_validation():
    tg = np.linspace(0.0, 10.0, 101)
    z = np.zeros_like(tg)
    U = MatrixPotential(tg, z, z, z)
    with pytest.raises(ValueError):
        weighted_eigen_min(U, gamma=0.3, delta=0.2, lam=0.0, mesh=300)
    with pytest.raises(ValueError):
        weighted_eigen_min(U, gamma=0.0, delta=0.2, lam=0.0, mesh=300)
