"""Acceptance suite: one test per headline criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Expensive radial solves are shared through the session cache in
conftest, so the whole suite stays within its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from henon_morse.halfline import (
    MatrixPotential,
    c_np_constant,
    inverse_transform,
    pohozaev_check,
    pohozaev_lower_bound,
    transform_profile,
    transformed_residual,
    weighted_eigen_min,
)
from henon_morse.liouville import (
    HALF_LINE,
    cutoff_sequence,
    doubling_point,
    energy_of,
    instability_witness,
    integrate_limit_system,
    mother_plateau_dsup,
    witness_quadrature,
)
from henon_morse.nonlinearity import pure_power, quartic_coupled
from henon_morse.radial_bvp import _scaling_amplitude
from henon_morse.spectral import (
    SturmLiouvilleSpec,
    count_negative_eigenvalues,
    lambda_ell,
    morse_index,
)

from oracles import build_weighted_forms, oscillation_count, spherical_bessel_j1_zeros


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_homogeneity_suite():
    t0 = time.time()
    rng = np.random.default_rng(1)
    families = [pure_power(p) for p in (2.5, 3.0, 4.0, 6.0)]
    families += [quartic_coupled(b=b) for b in (0.0, 1.0, 2.0)]
    n = 10_000
    worst = 0.0
    for f in families:
        u = rng.uniform(-3.0, 3.0, n)
        v = rng.uniform(-3.0, 3.0, n)
        p = f.p
        F = f.value(u, v)
        fu, fv = f.grad(u, v)
        fuu, fuv, fvv = f.hess(u, v)
        lin = fu * u + fv * v
        quad = fuu * u * u + 2 * fuv * u * v + fvv * v * v
        cF = f.coercivity_constant()

        euler = np.max(np.abs(p * F - lin) / (1.0 + np.abs(p * F)))
        hessian = np.max(np.abs(quad - (p - 1) * lin) / (1.0 + np.abs(quad)))
        superq = np.min(
            quad - lin - p * (p - 2) * cF * (np.abs(u) ** p + np.abs(v) ** p))
        worst = max(worst, euler, hessian)
        ok = euler <= 1e-10 and hessian <= 1e-10 and superq >= -1e-9
        if not ok:
            report(1, False, f"family {f.family} p={p}: euler={euler:.2e} "
                             f"hessian={hessian:.2e} superq_min={superq:.2e}")
    dt = time.time() - t0
    report(1, dt < 1.0, f"homogeneity identities on {n} points x "
                        f"{len(families)} families, worst defect {worst:.2e}, "
                        f"{dt:.2f}s")


def test_criterion_2_ground_state_index(solve):
    t0 = time.time()
    prof = solve(3, 0.0)
    rep1 = morse_index(prof, mesh=1000)
    rep2 = morse_index(prof, mesh=2000)
    ok = (rep1.total_index == 1 and rep2.total_index == 1
          and rep1.counts() == rep2.counts())
    report(2, ok, f"ground state N=3 alpha=0: index {rep1.total_index} "
                  f"(mesh 1000) = {rep2.total_index} (mesh 2000), "
                  f"{time.time() - t0:.1f}s")


def test_criterion_3_planar_nodal_bound(solve):
    t0 = time.time()
    results = []
    ok = True
    for alpha in (2.0, 4.0):
        prof = solve(2, alpha, nodes=1)
        rep = morse_index(prof, mesh=1000)
        results.append((alpha, rep.total_index))
        ok = ok and rep.total_index >= alpha + 3 and rep.mesh_stable
    report(3, ok, f"planar 1-node indices {results} respect alpha+3, "
                  f"{time.time() - t0:.1f}s")


def test_criterion_4_headline_growth(solve):
    t0 = time.time()
    totals = []
    for alpha in range(0, 21, 2):
        prof = solve(2, float(alpha))
        rep = morse_index(prof, mesh=1000)
        assert rep.mesh_stable
        totals.append((alpha, rep.total_index))
    idx = [t for _, t in totals]
    nondecreasing = all(idx[i] <= idx[i + 1] for i in range(len(idx) - 1))
    onset = next((a for a, t in totals if t > 1), None)
    ok = nondecreasing and onset is not None and onset <= 20
    report(4, ok, f"positive-branch indices {totals}: non-decreasing, "
                  f"index > 1 from alpha = {onset}, {time.time() - t0:.1f}s")


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(55)
    r = np.linspace(0.0, 1.0, 1501)
    z = np.zeros_like(r)
    mismatches = 0
    for _ in range(20):
        a = rng.uniform(-30.0, 90.0)
        b = rng.uniform(-40.0, 40.0)
        k = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        N = int(rng.choice([2, 3, 5]))
        ell = int(rng.choice([0, 1, 2, 5]))

        def V(rr, a=a, b=b, k=k, phase=phase):
            return a + b * np.sin(k * np.pi * rr + phase)

        spec = SturmLiouvilleSpec(N=N, ell=ell, lambda_ell=lambda_ell(ell, N),
                                  rgrid=r, v11=V(r), v12=z, v22=z)
        ours = count_negative_eigenvalues(spec, 1500)
        oracle = oscillation_count(N, ell, lambda rr: float(V(np.asarray(rr))))
        if ours != oracle:
            mismatches += 1

    spec0 = SturmLiouvilleSpec(N=3, ell=0, lambda_ell=0.0, rgrid=r,
                               v11=50.0 * np.ones_like(r), v12=z, v22=z)
    anchor0 = count_negative_eigenvalues(spec0, 1000)
    z1, z2 = spherical_bessel_j1_zeros(2)
    spec1 = SturmLiouvilleSpec(N=3, ell=1, lambda_ell=lambda_ell(1, 3), rgrid=r,
                               v11=50.0 * np.ones_like(r), v12=z, v22=z)
    anchor1 = count_negative_eigenvalues(spec1, 1000)
    expected1 = int(z1 ** 2 < 50.0) + int(z2 ** 2 < 50.0)
    ok = mismatches == 0 and anchor0 == 2 and anchor1 == expected1 == 1
    report(5, ok, f"inertia = oscillation on 20 random sectors "
                  f"({mismatches} mismatches); anchors: ell=0 count {anchor0}, "
                  f"ell=1 count {anchor1} vs Bessel zeros "
                  f"{z1 ** 2:.2f}/{z2 ** 2:.2f}, {time.time() - t0:.1f}s")


def test_criterion_6_transform_fidelity(solve):
    t0 = time.time()
    details = []
    ok = True
    for (N, alpha) in ((2, 4.0), (3, 6.0)):
        prof = solve(N, alpha)
        tp = transform_profile(prof)  # grid 4000, default horizon
        r, u, v, du, dv = inverse_transform(tp)
        src = _scaling_amplitude(prof.params, 0, 1e-10)[1](r)  # a shot in r
        rt = max(float(np.max(np.abs(u - src[0]))),
                 float(np.max(np.abs(du - src[2]))))
        res = transformed_residual(tp)
        details.append((N, alpha, rt, res))
        ok = ok and rt <= 1e-8 and res <= 1e-7
    report(6, ok, "; ".join(
        f"(N={n}, a={a:g}): roundtrip {rt:.1e}, residual {res:.1e}"
        for n, a, rt, res in details) + f", {time.time() - t0:.1f}s")


def test_criterion_7_pohozaev_suite(solve):
    t0 = time.time()
    # explicit constant chain against the independent closed form
    C = pohozaev_lower_bound(pure_power(4), 3)
    closed = (2 * 3 / 4) * (3 / (3 * 4 * 0.25 * (2 / math.e) ** 2))
    ok = abs(C - closed) <= 1e-12 * closed and abs(C - 2.771) <= 2e-3
    ok = ok and abs(c_np_constant(3, 4) - 2 / math.e) < 1e-14

    details = [f"C(3,4)={C:.4f}"]
    for (N, alpha) in ((2, 4.0), (3, 6.0)):
        prof = solve(N, alpha)
        tp = transform_profile(prof)
        pc = pohozaev_check(tp)
        slack_ok = pc.slack >= -(1e-6 * (1.0 + pc.lhs) + pc.tail_band)
        ok = ok and slack_ok
        details.append(f"(N={N},a={alpha:g}) slack {pc.slack:.2e}")
        if tp.gamma <= N / (3.0 * tp.params.f.p):
            lb = pohozaev_lower_bound(prof.params.f, N)
            bound_ok = pc.lhs >= lb - pc.tail_band - 1e-9
            ok = ok and bound_ok
            details.append(f"lower bound {lb:.3f} <= lhs {pc.lhs:.3f}")
    report(7, ok, "; ".join(details) + f", {time.time() - t0:.1f}s")


def test_criterion_8_energy_conservation():
    t0 = time.time()
    drifts = []
    ok = True
    for p in (3.0, 4.0, 6.0):
        traj = integrate_limit_system(pure_power(p), 1.0, HALF_LINE,
                                      (0, 0, 1, 0), T=50.0, steps=5000)
        E = energy_of(traj)
        drift = float(np.max(np.abs(E - E[0])))
        drifts.append((p, drift))
        ok = ok and drift <= 1e-8 * (1.0 + E[0])
    report(8, ok, f"energy drifts {[(p, f'{d:.1e}') for p, d in drifts]}, "
                  f"{time.time() - t0:.1f}s")


def test_criterion_9_liouville_instability():
    t0 = time.time()
    traj = integrate_limit_system(pure_power(4), 1.0, HALF_LINE,
                                  (0, 0, 1, 0), T=130.0, steps=13000)
    assert energy_of(traj)[0] == pytest.approx(0.5)
    ok = True
    qs = []
    for R in (0.0, 25.0, 50.0, 100.0):
        q_min, pair = instability_witness(traj, (R, R + 20.0), mesh=800)
        q_direct, mass = witness_quadrature(traj, pair)
        sound = (q_direct < 0
                 and abs(q_direct - q_min * mass) <= 1e-8 * (1.0 + abs(q_min)))
        ok = ok and q_min < 0 and sound
        qs.append((R, round(q_min, 4)))
    report(9, ok, f"certified witnesses in every window: q_min {qs}, "
                  f"{time.time() - t0:.1f}s")


def test_criterion_10_appendix_constructions():
    t0 = time.time()
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(100):
        n = int(rng.integers(50, 300))
        pts = np.sort(rng.uniform(0.0, 8.0, n))
        M = np.exp(rng.uniform(-2.0, 3.0, n))
        i_star = int(rng.integers(0, n))
        i = doubling_point(pts, M, i_star)
        radius = M[i_star] / M[i]
        ball = np.abs(pts - pts[i]) <= radius
        if not (M[i] >= M[i_star] and np.all(M[ball] <= 2.0 * M[i])
                and abs(pts[i] - pts[i_star]) <= 2.0):
            ok = False
            break

    dsup = mother_plateau_dsup()
    energies = []
    for nn in range(1, 9):
        t = np.concatenate([[0.0], np.geomspace(1e-12, math.exp(2 * nn), 60_000)])
        u = np.minimum(t, 1.0)
        psi = cutoff_sequence(t, u, nn)
        diff = np.gradient(u - psi, t)
        energy = float(np.trapezoid(diff ** 2, t))
        energies.append(energy)
        ok = ok and energy <= 16.0 * dsup ** 2 / nn
    ok = ok and all(energies[i] >= energies[i + 1] - 1e-12
                    for i in range(len(energies) - 1))
    report(10, ok, f"doubling inequalities exact on 100 grids; cutoff "
                   f"energies {[f'{e:.3f}' for e in energies]} non-increasing "
                   f"and below 16 Cu |phi'|^2 / n, {time.time() - t0:.1f}s")


def test_criterion_11_weighted_eigenproblem():
    t0 = time.time()
    tg = np.linspace(0.0, 40.0, 2001)
    z = np.zeros_like(tg)
    gamma, delta = 0.1, 0.2

    U0 = MatrixPotential(tg, z, z, z)
    mu0, _ = weighted_eigen_min(U0, gamma, delta, 0.0, mesh=800)

    bump = np.where(tg <= 1.0, 1000.0, 0.0)
    U = MatrixPotential(tg, bump, z, bump)
    mu, (ts, h1, h2) = weighted_eigen_min(U, gamma, delta, 0.0, mesh=1000)
    A, B, _ = build_weighted_forms(U, gamma, delta, 0.0, 1000)
    y = np.empty(2 * (len(h1) - 1))
    y[0::2] = h1[1:]
    y[1::2] = h2[1:]
    res = float(np.linalg.norm(A @ y - mu * (B * y)) / np.linalg.norm(B * y))

    ht = ts[1] - ts[0]
    k_half = np.exp(-gamma * (ts[:-1] + 0.5 * ht)) / ht
    star = float(np.sum(k_half * (np.diff(h1) ** 2 + np.diff(h2) ** 2)))
    bound = 2.0 / math.sqrt(gamma) * math.sqrt(star) * math.exp(0.5 * gamma * ts[-1])
    growth_ok = math.hypot(h1[-1], h2[-1]) <= 1.1 * bound

    ok = mu0 >= 0 and mu < 0 and res <= 1e-8 and growth_ok
    report(11, ok, f"U=0: mu_min={mu0:.3f} >= 0; bump: mu_min={mu:.1f} < 0, "
                   f"eigen-residual {res:.1e}, growth bound holds, "
                   f"{time.time() - t0:.1f}s")
