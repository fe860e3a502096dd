"""Shooting, certification and Nehari machinery for the radial problem."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from henon_morse import liouville, radial_bvp
from henon_morse.errors import DegenerateInput, NoBracket, OverflowBlowUp
from henon_morse.nonlinearity import pure_power, quartic_coupled
from henon_morse.radial_bvp import (
    EPS_ORIGIN,
    RESIDUAL_GATE,
    ProblemParams,
    RadialProfile,
    _integrate_dense,
    _scaling_amplitude,
    _taylor_start,
    action_energy,
    dop853_evaluator,
    integrate_radial_ivp,
    lane_emden_shot,
    nehari_defect,
    nehari_project,
    nonlinear_mass,
    quadratic_part,
    relative_residual,
    require_certified,
    residual,
    shoot_nodal,
    shoot_positive,
    shoot_system_newton,
)

from oracles import collocation_positive_amplitude, rk4_radial_ivp, rk4_shot


def params_for(N, alpha, p=4.0, mu=0.0):
    return ProblemParams(N=N, alpha=alpha, mu1=mu, mu2=mu, f=pure_power(p))


def interior_zeros(prof):
    """Sign changes of the stored u between the grid nodes strictly inside (0, 1)."""
    u = prof.u[1:-1]
    return int(np.count_nonzero(u[:-1] * u[1:] < 0.0))


def test_zero_data_gives_zero_profile():
    prof = integrate_radial_ivp(params_for(3, 0.0), (0.0, 0.0), 500)
    assert np.all(prof.u == 0) and np.all(prof.v == 0)
    assert np.all(prof.du == 0) and np.all(prof.dv == 0)
    assert residual(prof) == 0.0
    assert prof.is_trivial


def test_small_amplitude_undershoots():
    # small data stays positive up to the boundary
    prof = integrate_radial_ivp(params_for(3, 0.0), (0.1, 0.0), 500)
    assert np.all(prof.u[:-1] > 0)
    assert prof.u[-1] > 0


def test_ivp_matches_fixed_step_oracle():
    params = params_for(3, 0.0)
    prof = integrate_radial_ivp(params, (0.1, 0.0), 500)
    oracle = rk4_radial_ivp(params, (0.1, 0.0), n_steps=100_000)
    assert prof.u[-1] == pytest.approx(oracle[0], abs=1e-11)
    assert prof.du[-1] == pytest.approx(oracle[2], abs=1e-11)


def test_ivp_matches_oracle_with_weight_and_mu():
    params = ProblemParams(N=2, alpha=3.0, mu1=0.7, mu2=0.0, f=pure_power(4))
    prof = integrate_radial_ivp(params, (1.5, 0.0), 500)
    oracle = rk4_radial_ivp(params, (1.5, 0.0), n_steps=100_000)
    assert prof.u[-1] == pytest.approx(oracle[0], rel=1e-9)


def test_taylor_start_consistency():
    # integrating from eps/2 reproduces the series value at 2 eps
    params = params_for(3, 1.5, mu=0.4)
    d = (2.0, 0.0)
    dense = _integrate_dense(params, d, eps=EPS_ORIGIN / 2)
    series = _taylor_start(params, d, 2 * EPS_ORIGIN)
    integrated = dense(2 * EPS_ORIGIN)
    assert integrated[0] == pytest.approx(series[0], abs=1e-9)
    assert integrated[2] == pytest.approx(series[2], abs=1e-9)


@pytest.mark.parametrize("params, d", [
    (ProblemParams(N=2, alpha=20.0, mu1=0.0, mu2=0.0, f=pure_power(4)), (7.3, 0.0)),
    (ProblemParams(N=3, alpha=1.0, mu1=0.5, mu2=0.5, f=pure_power(4)), (12.1, 0.0)),
    (ProblemParams(N=3, alpha=1.0, mu1=1.0, mu2=1.0, f=quartic_coupled(b=0.5)), (3.3, 3.3)),
])
def test_dense_evaluator_below_and_above_origin_cutoff(params, d):
    # one array call covers the series region r < eps and the integrated one
    dense = _integrate_dense(params, d)
    r = np.geomspace(1e-9, 1e-4, 301)
    vals = dense(r)
    assert vals.shape == (4, r.size)
    pointwise = np.array([dense(x) for x in r]).T
    np.testing.assert_allclose(vals, pointwise, rtol=1e-12, atol=0.0)
    small = r < EPS_ORIGIN
    assert np.array_equal(vals[:, small], _taylor_start(params, d, r[small]))


def test_blowup_guard():
    # with the nonlinearity suppressed by a strong weight, a large linear term
    # drives exponential growth past the guard well before the boundary
    params = ProblemParams(N=3, alpha=20.0, mu1=1e6, mu2=0.0, f=pure_power(4))
    with pytest.raises(OverflowBlowUp):
        integrate_radial_ivp(params, (1.0, 0.0), 500)


def test_positive_shoot_against_collocation(solve):
    # independent relaxation/collocation oracle on three parameter sets
    cases = [(3, 0.0), (2, 4.0), (3, 6.0)]
    for N, alpha in cases:
        prof = solve(N, alpha)
        oracle_amp = collocation_positive_amplitude(params_for(N, alpha))
        assert prof.amplitude[0] == pytest.approx(oracle_amp, rel=1e-6)


def test_mu_positive_shoot_against_collocation(solve):
    # mu > 0 solves mu' r_k(mu')^2 = mu over unit-amplitude shots, unlike the
    # single mu = 0 shot
    for alpha in (1.0, 2.0):
        prof = solve(3, alpha, mu=1.0)
        oracle_amp = collocation_positive_amplitude(params_for(3, alpha, mu=1.0))
        assert prof.amplitude[0] == pytest.approx(oracle_amp, rel=1e-7)


def count_integrations(monkeypatch):
    """List that records the centre values of every adaptive integration."""
    real = radial_bvp._integrate_dense
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(radial_bvp, "_integrate_dense", counted)
    return calls


def test_mu_positive_shot_budget(monkeypatch):
    # Newton in log mu' on the mu'-sensitivity: the mu' = 0 shot and three
    # Newton shots, where secant and Illinois steps took 6; the profile is
    # the best shot rescaled, not integrated again
    calls = count_integrations(monkeypatch)
    params = params_for(3, 1.0, mu=1.0)
    for shoot in (lambda: shoot_positive(params), lambda: shoot_nodal(params, 1)):
        calls.clear()
        shoot()
        assert len(calls) <= 4, calls


@pytest.mark.parametrize("mu, amplitude, shots", [(40.0, 34.68209391826684, 25),
                                                  (100.0, 68.93318003720418, 35)])
def test_large_mu_converges_within_the_old_shot_count(monkeypatch, mu, amplitude, shots):
    # near the mu' where the unit shot loses its zero, r_k grows like
    # -log(mu'_c - mu'); Newton may take no more shots than the secant and
    # Illinois steps it replaced, and lands on their amplitudes
    calls = count_integrations(monkeypatch)
    prof = shoot_positive(params_for(3, 1.0, mu=mu))
    assert len(calls) <= shots, calls
    assert prof.amplitude[0] == pytest.approx(amplitude, rel=1e-10)


def test_mu_positive_diagonal_amplitude():
    # the diagonal carries w in two extra components; amplitude of the
    # secant and Illinois steps, at 1e-10
    f = quartic_coupled(b=0.5)
    prof = shoot_positive(ProblemParams(N=3, alpha=1.0, mu1=1.0, mu2=1.0, f=f))
    assert prof.amplitude[0] == pytest.approx(7.0518948040189695, rel=1e-10)
    assert prof.amplitude[1] == prof.amplitude[0]


def unit_shot(f, mu_p, d, sensitivity):
    def zero(r, y):
        return y[0]

    zero.terminal = 2
    return _integrate_dense(ProblemParams(N=3, alpha=1.0, mu1=mu_p, mu2=mu_p, f=f), d,
                            1e-12, 1e-14, r_end=20.0, events=[zero], sensitivity=sensitivity)


@pytest.mark.parametrize("f", [pure_power(4), pure_power(3), pure_power(2.5),
                               quartic_coupled(b=0.5)])
def test_sensitivity_leaves_the_scalar_shot_bit_for_bit(f):
    # w rides in the idle v slot at an infinite atol, so it never steers the
    # step size: u, its zeros and the (u, 0, u', 0) evaluator stay bit for bit
    plain = unit_shot(f, 0.0567, (1.0, 0.0), False)
    carried = unit_shot(f, 0.0567, (1.0, 0.0), True)
    r = np.linspace(0.0, plain.t_events[0][-1], 2001)
    assert np.array_equal(plain(r), carried(r))
    assert np.array_equal(plain.t_events[0], carried.t_events[0])
    assert np.array_equal(plain.y_events[0][:, [0, 2]], carried.y_events[0][:, [0, 2]])


@pytest.mark.parametrize("f, d, slot", [(pure_power(4), (1.0, 0.0), 1),
                                        (pure_power(3), (1.0, 0.0), 1),
                                        (quartic_coupled(b=0.5), (1.0, 1.0), 4)])
def test_sensitivity_gives_the_zero_drift(f, d, slot):
    # dr_k/dmu' = -w(r_k)/u'(r_k) against a centred difference of two shots
    mu_p, h = 0.2, 1e-5
    y = unit_shot(f, mu_p, d, True).y_events[0][0]
    drift = -y[slot] / y[2]
    fd = (unit_shot(f, mu_p + h, d, False).t_events[0][0]
          - unit_shot(f, mu_p - h, d, False).t_events[0][0]) / (2.0 * h)
    assert drift == pytest.approx(fd, rel=1e-6)


def test_mu_zero_shoot_integrates_once(monkeypatch):
    calls = count_integrations(monkeypatch)
    shoot_positive(params_for(2, 4.0))
    assert len(calls) == 1, calls


def test_shoot_rhs_budget(monkeypatch):
    # the DOP853 unit shot: about 1,230 RHS evaluations where RK45 took 2,546
    real = radial_bvp.solve_ivp
    nfev = []

    def counted(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(radial_bvp, "solve_ivp", counted)
    shoot_positive(params_for(2, 20.0))
    assert len(nfev) == 1 and nfev[0] <= 1400, nfev


def test_shoot_evaluates_dense_output_once(monkeypatch):
    # one call on the 4x grid serves the stored profile and the zero count
    real = radial_bvp._scaling_amplitude
    sizes = []

    def counted(*args, **kwargs):
        amplitude, dense = real(*args, **kwargs)

        def evaluate(r):
            sizes.append(np.size(r))
            return dense(r)

        return amplitude, evaluate

    monkeypatch.setattr(radial_bvp, "_scaling_amplitude", counted)
    prof = shoot_nodal(params_for(2, 4.0), 2, grid_size=1000)
    assert sizes == [4001]
    assert np.array_equal(prof.grid, np.linspace(0.0, 1.0, 1001))
    assert interior_zeros(prof) == 2


def captured_solutions(monkeypatch, module):
    """The OdeSolution of every solve_ivp call the module makes from now on."""
    real = module.solve_ivp
    sols = []

    def captured(*args, **kwargs):
        result = real(*args, **kwargs)
        sols.append(result.sol)
        return result

    monkeypatch.setattr(module, "solve_ivp", captured)
    return sols


def assert_evaluator_is_scipys(sol, grid):
    # grid points, every step boundary, points outside [t_min, t_max] and
    # the same points unsorted, then 0-d inputs: bit for bit OdeSolution.__call__
    evaluate = dop853_evaluator(sol)
    span = sol.t_max - sol.t_min
    outside = [sol.t_min - span, sol.t_min - 1e-9, sol.t_max + 1e-9, sol.t_max + span]
    points = np.concatenate([grid, sol.ts, outside])
    for t in (points, np.random.default_rng(7).permutation(points)):
        assert np.array_equal(evaluate(t), sol(t))
    for t in (sol.ts[0], sol.ts[len(sol.ts) // 2], grid[len(grid) // 3], *outside):
        assert evaluate(np.asarray(t)).shape == evaluate(float(t)).shape == (4,)
        assert np.array_equal(evaluate(np.asarray(t)), sol(t))


def test_dop853_evaluator_on_a_lane_emden_shot(monkeypatch):
    sols = captured_solutions(monkeypatch, radial_bvp)
    lane_emden_shot(params_for(2, 4.0), 1)
    (sol,) = sols
    assert len(sol.ts) > 20
    assert_evaluator_is_scipys(sol, np.linspace(sol.t_min, sol.t_max, 4001))


def test_dop853_evaluator_on_a_liouville_period(monkeypatch):
    sols = captured_solutions(monkeypatch, liouville)
    traj = liouville.integrate_limit_system(pure_power(4), 1.0, liouville.HALF_LINE,
                                            (0.0, 0.0, math.sqrt(2.0), 0.0), T=125.0, steps=2500)
    (sol,) = sols
    assert traj.period == pytest.approx(sol.t_max)
    assert_evaluator_is_scipys(sol, np.mod(traj.tgrid, traj.period))


def test_dop853_evaluator_refuses_other_interpolants():
    sol = solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], method="RK45", dense_output=True)
    with pytest.raises(TypeError):
        dop853_evaluator(sol.sol)


def test_positive_shoot_certificates(solve):
    # the last case sits below the Henon critical exponent 2(N+alpha)/(N-2) = 8;
    # its steeper profile needs the finer grid for the O(h^2) residual floor
    for N, alpha, p, grid in ((3, 0.0, 4.0, 4000), (2, 4.0, 4.0, 4000), (3, 1.0, 6.0, 8000)):
        prof = solve(N, alpha, p=p, grid=grid)
        assert np.all(prof.u[:-1] >= 0)
        assert abs(prof.u[-1]) <= 1e-9
        assert residual(prof) <= 1e-4
        assert relative_residual(prof) <= 1e-6


def test_supercritical_has_no_bracket():
    # p >= 2(N+alpha)/(N-2): ball-supercritical, and exactly critical for N = 4, p = 4
    from henon_morse.radial_bvp import shoot_positive

    for N, p in ((3, 8), (4, 4)):
        params = ProblemParams(N=N, alpha=0.0, mu1=0.0, mu2=0.0, f=pure_power(p))
        with pytest.raises(NoBracket):
            shoot_positive(params, tol=1e-8)


def test_nodal_shoot(solve):
    prof = solve(2, 2.0, nodes=1)
    assert interior_zeros(prof) == 1
    assert abs(prof.u[-1]) <= 1e-9
    assert relative_residual(prof) <= 2e-6
    # nodal amplitude exceeds the positive amplitude at identical parameters
    pos = solve(2, 2.0)
    assert prof.amplitude[0] > pos.amplitude[0]


def rk4_brackets(params, amplitude, nodes, diagonal=False, rel=1e-9):
    """Whether fixed-step RK4 puts the root of u(1; d) with k zeros in amplitude (1 +- rel)."""
    d = amplitude * np.array([1.0 - rel, 1.0 + rel])
    u1, zeros = rk4_shot(params, (d, d if diagonal else 0.0 * d))
    parity = (-1.0) ** nodes
    return bool(parity * u1[0] > 0.0 > parity * u1[1] and np.all(zeros == nodes))


@pytest.mark.parametrize("N, alpha, nodes, f", [
    (2, 4.0, 0, pure_power(4)),
    (2, 2.0, 2, pure_power(4)),
    (3, 1.0, 0, pure_power(4)),
    (2, 4.0, 0, quartic_coupled(b=0.5)),
])
def test_scaling_solve_matches_bisection(N, alpha, nodes, f):
    # an independent fixed-step integration brackets the one-shot mu = 0
    # amplitude as a bisection on the sign of u(1) would, to rel 1e-9
    params = ProblemParams(N=N, alpha=alpha, mu1=0.0, mu2=0.0, f=f)
    diagonal = f.b > 0
    amplitude = _scaling_amplitude(params, nodes, tol=1e-10, diagonal=diagonal)[0]
    assert rk4_brackets(params, amplitude, nodes, diagonal)


@pytest.mark.parametrize("N, alpha, nodes, f", [
    (3, 2.0, 0, pure_power(4)),
    (3, 2.0, 1, pure_power(3)),
    (2, 8.0, 1, pure_power(4)),
    (2, 4.0, 0, quartic_coupled(b=0.5)),
])
def test_lane_emden_map_matches_bisection(N, alpha, nodes, f):
    # a mu = 0 profile is mapped from the (M, 0) shot (M = 2.5 and 2 here):
    # the shared shot and a fresh one give the same profile, and the fixed-step
    # RK4 integration in r brackets its amplitude to rel 1e-9
    params = ProblemParams(N=N, alpha=alpha, mu1=0.0, mu2=0.0, f=f)
    shared = shoot_nodal(params, nodes, shot=lane_emden_shot(params, nodes))
    alone = shoot_nodal(params, nodes)
    assert shared.amplitude == alone.amplitude
    assert np.array_equal(shared.u, alone.u) and np.array_equal(shared.du, alone.du)
    assert rk4_brackets(params, shared.amplitude[0], nodes, diagonal=f.b > 0)


def test_mu_positive_nodal_amplitude_matches_rk4(solve):
    prof = solve(3, 1.0, mu=1.0, nodes=1)
    assert prof.amplitude[0] == pytest.approx(35.5512891848, rel=1e-10)
    assert rk4_brackets(prof.params, prof.amplitude[0], 1)


@pytest.mark.parametrize("N, alpha, mu, nodes", [(2, 4.0, 0.0, 1), (3, 1.0, 1.0, 1)])
def test_scaled_profile_matches_direct_integration(solve, N, alpha, mu, nodes):
    # the rescaled unit shot and a fresh integration from its amplitude agree
    prof = solve(N, alpha, mu=mu, nodes=nodes)
    direct = integrate_radial_ivp(prof.params, prof.amplitude, len(prof.grid) - 1,
                                  rtol=1e-12, atol=1e-12)
    for ours, theirs in ((prof.u, direct.u), (prof.du, direct.du)):
        assert np.max(np.abs(ours - theirs)) <= 1e-10 * np.max(np.abs(theirs))


def test_planar_substitution_scales_amplitude(solve):
    # N = 2: s = r^((2+alpha)/2) maps the alpha problem to alpha = 0 and
    # multiplies the centre value by (1 + alpha/2)^(2/(p-2)): 1 + alpha/2 for
    # p = 4, and 256 for p = 3 at alpha = 30, an amplitude of about 2e5 whose
    # u(1) is bounded relative to it
    for p, nodes, alphas in ((4.0, 0, (4.0, 20.0)), (3.0, 4, (30.0,))):
        base = solve(2, 0.0, p=p, nodes=nodes).amplitude[0]
        for alpha in alphas:
            prof = solve(2, alpha, p=p, nodes=nodes)
            assert interior_zeros(prof) == nodes
            factor = (1.0 + alpha / 2.0) ** (2.0 / (p - 2.0))
            assert prof.amplitude[0] == pytest.approx(factor * base, rel=1e-10)


def test_nodal_delegates_to_positive(solve):
    from henon_morse.radial_bvp import shoot_nodal

    prof = shoot_nodal(params_for(3, 0.0), nodes=0, tol=1e-10, grid_size=1000)
    assert interior_zeros(prof) == 0
    assert prof.amplitude[0] == pytest.approx(6.8968486195, rel=1e-8)


def test_residual_detects_corruption(solve):
    prof = solve(3, 0.0)
    u = prof.u.copy()
    u[len(u) // 2] += 1e-3
    bad = RadialProfile(prof.params, prof.grid, u, prof.v, prof.du, prof.dv,
                        prof.amplitude)
    assert residual(bad) >= 1e-2


def test_residual_second_order_convergence(solve):
    prof = solve(3, 0.0)
    amp = prof.amplitude
    vals = []
    for grid in (500, 1000, 2000, 4000):
        p = integrate_radial_ivp(prof.params, amp, grid, rtol=1e-12, atol=1e-12)
        vals.append(residual(p))
    orders = [np.log2(vals[i] / vals[i + 1]) for i in range(3)]
    assert all(o >= 1.8 for o in orders)


def plain_residual(profile):
    """The ODE defect with u'' from the centred difference at every node."""
    p, r = profile.params, profile.grid
    h = r[1] - r[0]
    out = 0.0
    for y, dy, mu, g in zip((profile.u, profile.v), (profile.du, profile.dv),
                            (p.mu1, p.mu2), p.f.grad(profile.u, profile.v)):
        d2 = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (h * h)
        defect = (-d2 - (p.N - 1.0) * dy[1:-1] / r[1:-1] + mu * y[1:-1]
                  - r[1:-1] ** p.alpha * g[1:-1])
        out = max(out, float(np.max(np.abs(defect))))
    return out


@pytest.mark.parametrize("alpha", [0.3, 0.55, 0.600515, 0.9])
def test_small_alpha_profiles_certify(solve, alpha):
    # u'' ~ r^alpha at the origin, so the plain difference carries an
    # O(h^alpha) error at the first nodes that fails the gate at any grid
    prof = solve(2, alpha)
    assert plain_residual(prof) > residual(prof)
    assert relative_residual(prof) <= RESIDUAL_GATE
    require_certified(prof)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 4.0, 20.0])
def test_origin_series_term_does_not_raise_residual(solve, alpha):
    prof = solve(2, alpha)
    assert residual(prof) <= plain_residual(prof)


def test_action_energy(solve):
    zero = integrate_radial_ivp(params_for(3, 0.0), (0.0, 0.0), 500)
    assert action_energy(zero) == 0.0

    prof = solve(3, 0.0)
    # critical points satisfy I = (1/2 - 1/p) * nonlinear mass
    p = prof.params.f.p
    expected = (0.5 - 1.0 / p) * nonlinear_mass(prof)
    assert action_energy(prof) == pytest.approx(expected, rel=1e-6)

    # quadrature stability under grid doubling
    fine = integrate_radial_ivp(prof.params, prof.amplitude, 8000,
                                rtol=1e-12, atol=1e-12)
    assert action_energy(fine) == pytest.approx(action_energy(prof), rel=1e-7)


def test_nehari_projection(solve):
    prof = solve(3, 0.0)
    _, t = nehari_project(prof)
    assert t == pytest.approx(1.0, abs=1e-8)

    # homogeneity: scaling the input by 2 scales t by 1/2
    doubled = prof.scaled(2.0)
    _, t2 = nehari_project(doubled)
    assert t2 == pytest.approx(t / 2.0, abs=1e-10)


def test_nehari_projection_generic_profile():
    # a smooth non-solution test profile projects onto the manifold
    params = params_for(3, 1.0)
    r = np.linspace(0.0, 1.0, 2001)
    u = np.cos(0.5 * np.pi * r)
    du = -0.5 * np.pi * np.sin(0.5 * np.pi * r)
    z = np.zeros_like(r)
    w = RadialProfile(params, r, u, z, du, z, (1.0, 0.0))
    projected, t = nehari_project(w)
    assert t > 0
    defect = nehari_defect(projected)
    assert abs(defect) <= 1e-8 * quadratic_part(projected)


def test_nehari_rejects_zero():
    zero = integrate_radial_ivp(params_for(3, 0.0), (0.0, 0.0), 500)
    with pytest.raises(DegenerateInput):
        nehari_project(zero)


def test_symmetric_system_diagonal(solve):
    prof = solve(3, 2.0, family="quartic_coupled", b=1.0, mu=0.5)
    assert np.allclose(prof.u, prof.v)
    assert relative_residual(prof) <= 1e-6
    assert abs(prof.u[-1]) <= 1e-9


def test_system_newton_recovers_diagonal(solve):
    # b = 1 makes the coupling isotropic with a circle of solutions, so use a
    # nondegenerate coupling where the diagonal root is isolated
    prof = solve(3, 2.0, family="quartic_coupled", b=0.5, mu=0.5)
    d = prof.amplitude[0]
    params = prof.params
    newton = shoot_system_newton(params, (1.005 * d, 0.995 * d), tol=1e-9,
                                 grid_size=2000)
    assert newton.amplitude[0] == pytest.approx(d, rel=1e-6)
    assert newton.amplitude[1] == pytest.approx(d, rel=1e-6)
    assert relative_residual(newton) <= 2e-6


def test_grid_size_validation():
    with pytest.raises(ValueError):
        integrate_radial_ivp(params_for(3, 0.0), (1.0, 0.0), 50)
    with pytest.raises(ValueError):
        ProblemParams(N=1, alpha=0.0, mu1=0.0, mu2=0.0, f=pure_power(4))
    with pytest.raises(ValueError):
        ProblemParams(N=3, alpha=-0.5, mu1=0.0, mu2=0.0, f=pure_power(4))
