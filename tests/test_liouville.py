"""Limit-system trajectories, instability witnesses and appendix constructions."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import beta

from henon_morse import liouville
from henon_morse.errors import NonTermination, OverflowBlowUp
from henon_morse.liouville import (
    FULL_LINE,
    HALF_LINE,
    cutoff_sequence,
    doubling_point,
    energy_of,
    instability_witness,
    integrate_limit_system,
    mother_plateau,
    mother_plateau_dsup,
    witness_quadrature,
)
from henon_morse.nonlinearity import pure_power, quartic_coupled

from oracles import full_horizon_power_trajectory, simpson_integral

RNG = np.random.default_rng(99)


@pytest.fixture(scope="module")
def quartic_orbit():
    """Scalar p = 4 trajectory at energy 1/2 (u(0) = 0, u'(0) = 1)."""
    return integrate_limit_system(pure_power(4), 1.0, HALF_LINE,
                                  (0.0, 0.0, 1.0, 0.0), T=130.0, steps=13000)


def test_zero_initial_data():
    traj = integrate_limit_system(pure_power(4), 1.0, HALF_LINE,
                                  (0, 0, 0, 0), T=10.0, steps=1000)
    assert traj.is_trivial
    assert np.all(energy_of(traj) == 0.0)
    # the zero trajectory carries an evaluator like every other one
    assert np.array_equal(traj.dense(2.5), np.zeros(4))
    assert np.array_equal(traj.dense(traj.tgrid[:7]), np.zeros((4, 7)))


def test_halfline_requires_zero_values():
    with pytest.raises(ValueError):
        integrate_limit_system(pure_power(4), 1.0, HALF_LINE,
                               (1.0, 0.0, 0.0, 0.0), T=10.0)


def test_energy_conservation():
    for p in (3.0, 4.0, 6.0):
        traj = integrate_limit_system(pure_power(p), 1.0, HALF_LINE,
                                      (0, 0, 1, 0), T=50.0, steps=5000)
        E = energy_of(traj)
        assert E[0] == pytest.approx(0.5, rel=1e-12)
        assert float(np.max(np.abs(E - E[0]))) <= 1e-8 * (1.0 + E[0])


def test_energy_positive_for_nontrivial():
    traj = integrate_limit_system(pure_power(4), 2.0, FULL_LINE,
                                  (0.3, 0.1, 0.0, 0.2), T=20.0, steps=2000)
    E = energy_of(traj)
    assert E[0] > 0
    # scale factor enters the conserved quantity
    f = pure_power(4)
    assert E[0] == pytest.approx(0.5 * 0.04 + 2.0 * f.value(0.3, 0.1), rel=1e-12)


PERIOD_CASES = [(4.0, 1.0), (4.0, 0.9), (3.0, 1.1), (6.0, 0.5)]


def _scalar_orbit(p, E):
    return integrate_limit_system(pure_power(p), 1.0, HALF_LINE,
                                  (0.0, 0.0, math.sqrt(2.0 * E), 0.0), T=125.0, steps=2500)


@pytest.mark.parametrize("p, E", PERIOD_CASES)
def test_period_closed_form(p, E):
    # P = (4 u_max / sqrt(2E)) B(1/p, 1/2) / p with p F(u_max) = u_max^p = p E
    traj = _scalar_orbit(p, E)
    u_max = (p * E) ** (1.0 / p)
    closed = 4.0 * u_max / math.sqrt(2.0 * E) * beta(1.0 / p, 0.5) / p
    assert traj.period == pytest.approx(closed, rel=1e-10)
    ts = np.linspace(0.0, 60.0, 41)
    assert np.allclose(traj.dense(ts + traj.period), traj.dense(ts), rtol=0.0, atol=1e-12)


def test_period_closed_form_value():
    assert _scalar_orbit(4.0, 1.0).period == pytest.approx(5.244115108584, rel=1e-10)


@pytest.mark.parametrize("p, E", PERIOD_CASES)
def test_period_matches_full_horizon_oracle(p, E):
    ts = np.linspace(0.0, 125.0, 2501)
    ref = full_horizon_power_trajectory(p, 1.0, (0.0, 0.0, math.sqrt(2.0 * E), 0.0), 125.0, ts)
    err = float(np.max(np.abs(_scalar_orbit(p, E).dense(ts) - ref)))
    assert err <= (1e-7 if p == 3.0 else 1e-8)


CLOSURE_CASES = [
    *[(pure_power(p), 1.0, HALF_LINE, (0.0, 0.0, math.sqrt(2.0 * E), 0.0))
      for p, E in PERIOD_CASES],
    (pure_power(3), 2.0, FULL_LINE, (0.7, 0.0, -0.3, 0.0)),
    (pure_power(6), 0.5, FULL_LINE, (-1.2, 0.0, 0.4, 0.0)),
    (quartic_coupled(a1=2.0, b=0.5), 1.0, FULL_LINE, (0.5, 0.0, 1.0, 0.0)),
]


@pytest.mark.parametrize("f, scale, interval, init", CLOSURE_CASES)
def test_half_period_ends_at_minus_the_start(monkeypatch, f, scale, interval, init):
    # the integrated half orbit, read from the solver's own dense output at
    # its last step, closes on -y0: the closed-form period is the orbit's
    real, sols = liouville.solve_ivp, []

    def recorded(*args, **kwargs):
        sols.append(real(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(liouville, "solve_ivp", recorded)
    traj = integrate_limit_system(f, scale, interval, init, T=125.0, steps=2500)
    (sol,) = sols
    half, y0 = traj.period / 2.0, np.array(init)
    assert sol.t[-1] == half
    assert float(np.max(np.abs(sol.sol(half) + y0))) <= 1e-11 * (1.0 + np.max(np.abs(y0)))
    # t + P/2 is exact for these t, so oddness holds bit for bit
    ts = (np.linspace(0.0, half, 97, endpoint=False) + half) - half
    assert np.array_equal(traj.dense(ts + half), -traj.dense(ts))


def test_subnormal_energy_orbit_is_a_straight_line():
    # at E = 1e-320, s u^3 underflows to 0 and u = sqrt(2E) t; half the period
    # lies far beyond T, so [0, T] is integrated and evaluated as it is
    E = 1e-320
    traj = _scalar_orbit(4.0, E)
    assert traj.period > traj.tgrid[-1]
    assert np.allclose(traj.u, math.sqrt(2.0 * E) * traj.tgrid, rtol=1e-12, atol=0.0)


def test_underflowed_energy_keeps_the_full_horizon():
    # u'(0)^2 / 2 = 5e-341 underflows to E = 0: no period to divide by
    traj = integrate_limit_system(pure_power(4), 1.0, HALF_LINE,
                                  (0.0, 0.0, 1e-170, 0.0), T=125.0, steps=2500)
    assert traj.period is None
    assert np.allclose(traj.u, 1e-170 * traj.tgrid, rtol=1e-12, atol=0.0)


def test_coupled_start_keeps_full_horizon():
    init = (0.3, 0.1, 0.0, 0.2)
    traj = integrate_limit_system(pure_power(4), 2.0, FULL_LINE, init, T=125.0, steps=2500)
    assert traj.period is None
    ref = full_horizon_power_trajectory(4.0, 2.0, init, 125.0, traj.tgrid)
    assert float(np.max(np.abs(np.array([traj.u, traj.v, traj.du, traj.dv]) - ref))) <= 1e-8


def test_coupled_start_hits_the_blowup_guard():
    # s < 0 turns the well into a hill: u'' = u^3, v'' = v^3 leave every bound in finite time
    with pytest.raises(OverflowBlowUp):
        integrate_limit_system(pure_power(4), -1.0, FULL_LINE, (0.5, 0.2, 0.0, 0.0), T=10.0)


def test_scalar_start_beyond_the_guard_raises_before_integrating(monkeypatch):
    # energy is conserved, so a turning point |u| = (4 E)^(1/4) above the
    # guard is known before any step: no integration, no overflow warning
    monkeypatch.setattr(liouville, "solve_ivp", None)
    with pytest.raises(OverflowBlowUp, match="limit trajectory exceeded 1e\\+12"):
        integrate_limit_system(pure_power(4), 1.0, HALF_LINE, (0.0, 0.0, 1e25, 0.0), T=10.0)


def test_turning_point_amplitude(quartic_orbit):
    # at turning points u^4/4 = E, so |u| = (4 E)^(1/4) = 2^(1/4)
    traj = quartic_orbit
    du = traj.dense(traj.tgrid)[2]
    flips = np.nonzero(np.sign(du[:-1]) != np.sign(du[1:]))[0]
    t_turn = brentq(lambda s: float(traj.dense(s)[2]),
                    traj.tgrid[flips[0]], traj.tgrid[flips[0] + 1], xtol=1e-13)
    assert abs(float(traj.dense(t_turn)[0])) == pytest.approx(2 ** 0.25, abs=1e-8)


def test_witness_zero_trajectory_positive():
    traj = integrate_limit_system(pure_power(4), 1.0, HALF_LINE,
                                  (0, 0, 0, 0), T=60.0, steps=2000)
    q, _ = instability_witness(traj, (10.0, 30.0), mesh=400)
    assert q > 0
    # pure second derivative: smallest Dirichlet eigenvalue is (pi/L)^2
    assert q == pytest.approx((math.pi / 20.0) ** 2, rel=1e-3)


def test_witness_hand_bump_oracle(quartic_orbit):
    # quadrature oracle before trusting the eigen route: an explicit bump
    # in a far window already makes the form negative
    traj = quartic_orbit
    a, b = 50.0, 70.0
    ts = np.linspace(a, b, 4001)
    x = (ts - a) / (b - a)
    phi = np.sin(np.pi * x) ** 2
    dphi = 2.0 * np.sin(np.pi * x) * np.cos(np.pi * x) * np.pi / (b - a)
    vals = traj.dense(ts)
    fuu, _, _ = traj.f.hess(vals[0], vals[1])
    q = simpson_integral(dphi ** 2 - fuu * phi ** 2, ts)
    assert q < 0


def test_witness_negative_on_far_windows(quartic_orbit):
    for R in (0.0, 25.0, 50.0, 100.0):
        q, pair = instability_witness(quartic_orbit, (R, R + 20.0), mesh=800)
        assert q < 0
        q_direct, mass = witness_quadrature(quartic_orbit, pair)
        assert q_direct < 0
        assert abs(q_direct - q * mass) <= 1e-8 * (1.0 + abs(q))


def test_witness_monotone_in_window(quartic_orbit):
    qs = []
    for L in (5.0, 10.0, 20.0, 40.0):
        q, _ = instability_witness(quartic_orbit, (30.0, 30.0 + L), mesh=800)
        qs.append(q)
    assert all(qs[i] >= qs[i + 1] - 1e-10 for i in range(len(qs) - 1))


def test_witness_count_budget(solve_shifts):
    # the bisection starts at the pencil's block-Gershgorin floor, -max 3u^2 =
    # -6 at E = 1, and stops once a bracket of width 1e-3 (1 + |hi|) isolates
    # the lowest eigenvalue; the Kato-Temple bound on the Rayleigh quotient
    # then certifies it: 12 inertia counts, where bisecting to width 1e-13
    # took 45
    traj = integrate_limit_system(pure_power(4), 1.0, HALF_LINE,
                                  (0.0, 0.0, math.sqrt(2.0), 0.0), T=25.0, steps=2500)
    q, _ = instability_witness(traj, (0.0, 20.0), mesh=800)
    assert q < 0
    assert 1 <= len(solve_shifts) <= 16, len(solve_shifts)


def test_witness_narrow_window_positive(quartic_orbit):
    q, _ = instability_witness(quartic_orbit, (50.0, 50.1), mesh=200)
    assert q > 0


def test_mother_plateau_shape():
    assert np.all(mother_plateau(np.linspace(-1, 1, 11)) == 1.0)
    assert np.all(mother_plateau(np.array([-3.0, 2.0, 2.5])) == 0.0)
    x = np.linspace(-2.5, 2.5, 1001)
    vals = mother_plateau(x)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_zero_function():
    t = np.linspace(0.0, 10.0, 101)
    assert np.all(cutoff_sequence(t, np.zeros_like(t), 3) == 0.0)


def _cutoff_grid(n):
    # geometric grid resolving both logarithmic transition regions
    return np.concatenate([[0.0], np.geomspace(1e-12, math.exp(2 * n), 60_000)])


def _derivative_energy(t, y):
    dy = np.gradient(y, t)
    return simpson_integral(dy ** 2, t)


def test_cutoff_energy_bound():
    # ramp test input: u = min(t, 1), derivative energy 1
    dsup = mother_plateau_dsup()
    for n in (1, 2, 4, 8):
        t = _cutoff_grid(n)
        u = np.minimum(t, 1.0)
        psi = cutoff_sequence(t, u, n)
        # compact support inside (0, T]
        assert psi[0] == 0.0 and psi[-1] == 0.0
        energy = _derivative_energy(t, u - psi)
        assert energy <= 16.0 * 1.0 * dsup ** 2 / n


def test_cutoff_energy_non_increasing():
    t = _cutoff_grid(8)
    u = np.minimum(t, 1.0)
    energies = [_derivative_energy(t, u - cutoff_sequence(t, u, n))
                for n in range(1, 9)]
    assert all(energies[i] >= energies[i + 1] - 1e-12
               for i in range(len(energies) - 1))


def test_halfline_pointwise_bound():
    # u(t)^2 <= t * int u'^2 for u(0) = 0; the bound is an equality at the
    # ramp corner, so use the exact derivative energy there
    t = np.linspace(0.0, 20.0, 4001)
    u = np.minimum(t, 1.0)
    assert np.all(u ** 2 <= t * 1.0 + 1e-12)
    smooth = 1.0 - np.exp(-t)
    cu = _derivative_energy(t, smooth)
    assert np.all(smooth ** 2 <= t * cu * (1.0 + 1e-6) + 1e-12)


def test_doubling_examples():
    pts = np.arange(0.0, 10.0001, 0.01)
    assert doubling_point(pts, np.ones_like(pts), 0) == 0
    idx = doubling_point(pts, 1.0 + pts, 0)
    assert idx == 0  # ball radius 1, max of M there is 2 = 2 M(0)


def test_doubling_randomized():
    for _ in range(100):
        n = int(RNG.integers(50, 400))
        pts = np.sort(RNG.uniform(0.0, 10.0, n))
        M = np.exp(RNG.uniform(-2.0, 3.0, n))
        i_star = int(RNG.integers(0, n))
        i = doubling_point(pts, M, i_star)
        assert M[i] >= M[i_star]
        radius = M[i_star] / M[i]
        ball = np.abs(pts - pts[i]) <= radius
        assert np.all(M[ball] <= 2.0 * M[i])
        assert abs(pts[i] - pts[i_star]) <= 2.0


def test_doubling_rejects_nonpositive():
    pts = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        doubling_point(pts, np.zeros(11), 0)
