"""Independent reference computations used only by the test suite.

Everything here deliberately avoids the code paths it is used to check:
finite differences instead of analytic Hessians, dense sphere sampling
instead of golden-section refinement, oscillation counting or dense
symmetric eigensolves instead of matrix inertia, collocation instead of
shooting, fixed-step RK4 instead of the adaptive integrator, and one
full-horizon integration instead of a period evaluated at t mod P.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson, solve_bvp, solve_ivp
from scipy.linalg import eigh
from scipy.optimize import brentq


# ---------------------------------------------------------------------------
# nonlinearity oracles
# ---------------------------------------------------------------------------

def fd_hessian(f, u, v, h=1e-5):
    """Central finite differences of the analytic gradient."""
    gu_p, _ = f.grad(u + h, v)
    gu_m, _ = f.grad(u - h, v)
    gv_p = f.grad(u, v + h)
    gv_m = f.grad(u, v - h)
    fuu = (gu_p - gu_m) / (2 * h)
    fuv = (gv_p[0] - gv_m[0]) / (2 * h)
    fvv = (gv_p[1] - gv_m[1]) / (2 * h)
    return fuu, fuv, fvv


def min_on_p_sphere_sampled(f, n=10_000):
    """Dense sampling of F over |u|^p + |v|^p = 1."""
    t = np.linspace(0.0, 1.0, n)
    u = t ** (1.0 / f.p)
    v = (1.0 - t) ** (1.0 / f.p)
    return float(np.min(f.value(u, v)))


def max_on_circle_sampled(f, n=10_000):
    theta = np.linspace(0.0, 2.0 * math.pi, n)
    return float(np.max(f.value(np.cos(theta), np.sin(theta))))


# ---------------------------------------------------------------------------
# radial BVP oracles
# ---------------------------------------------------------------------------

def _rk4_states(params, d, r_end, n_steps, r_start):
    """States (u, v, du, dv) after each step of fixed-step classical RK4.

    Taylor-started at r_start; d may hold arrays of centre values, which are
    integrated side by side.
    """
    f = params.f
    d1, d2 = d
    fu0, fv0 = f.grad(d1, d2)
    a, N = params.alpha, params.N

    def taylor(r):
        cu = params.mu1 * d1 / (2 * N)
        cv = params.mu2 * d2 / (2 * N)
        ru = r ** (2 + a) / ((2 + a) * (a + N))
        u = d1 + cu * r * r - fu0 * ru
        v = d2 + cv * r * r - fv0 * ru
        du = 2 * cu * r - fu0 * r ** (1 + a) / (a + N)
        dv = 2 * cv * r - fv0 * r ** (1 + a) / (a + N)
        return np.array([u, v, du, dv])

    def rhs(r, y):
        u, v, du, dv = y
        fu, fv = f.grad(u, v)
        w = r ** a
        return np.array([
            du,
            dv,
            -(N - 1) * du / r + params.mu1 * u - w * fu,
            -(N - 1) * dv / r + params.mu2 * v - w * fv,
        ])

    y = taylor(r_start)
    h = (r_end - r_start) / n_steps
    r = r_start
    for _ in range(n_steps):
        k1 = rhs(r, y)
        k2 = rhs(r + h / 2, y + h / 2 * k1)
        k3 = rhs(r + h / 2, y + h / 2 * k2)
        k4 = rhs(r + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        r += h
        yield y


def rk4_radial_ivp(params, d, r_end=1.0, n_steps=200_000, r_start=1e-6):
    """Fixed-step classical RK4 for the radial system, Taylor-started at r_start.

    Returns (u, v, du, dv) at r_end.  Independent of the adaptive path.
    """
    for y in _rk4_states(params, d, r_end, n_steps, r_start):
        pass
    return y


def rk4_shot(params, d, n_steps=5000, r_start=1e-6):
    """u(1) and the sign changes of u before the last step, by fixed-step RK4.

    d may hold arrays of centre values.  A zero within the last step shows in
    the sign of u(1), not in the count.
    """
    last, changes = np.sign(d[0]), 0
    for y in _rk4_states(params, d, 1.0, n_steps, r_start):
        before_last = changes
        changes = changes + (np.sign(y[0]) != last)
        last = np.sign(y[0])
    return y[0], before_last


def collocation_positive_amplitude(params, guesses=(2.0, 5.0, 8.0, 10.0, 20.0, 40.0)):
    """Amplitude u(0) of the positive radial solution via scipy's collocation solver.

    Solves u' = w, w' = -(N-1) w / r + mu1 u - r^alpha dF/du(u, 0) with the
    singular term handled through solve_bvp's S matrix, Dirichlet at r = 1 and
    u'(0) = 0.  Entirely independent of the shooting machinery.  Several
    amplitudes and two hump shapes seed the damped Newton inside the solver.
    """
    f = params.f
    N, a, mu = params.N, params.alpha, params.mu1

    def fun(x, y):
        fu, _ = f.grad(y[0], np.zeros_like(y[0]))
        w = np.where(x > 0, x ** a, 1.0 if a == 0 else 0.0)
        return np.vstack([y[1], mu * y[0] - w * fu])

    def bc(ya, yb):
        return np.array([ya[1], yb[0]])

    S = np.array([[0.0, 0.0], [0.0, -(N - 1.0)]])
    x = np.linspace(0.0, 1.0, 1001)
    shapes = [
        lambda A: (A * (1.0 - x ** 2), -2.0 * A * x),
        lambda A: (A * (1.0 - x ** 2) ** 2, -4.0 * A * x * (1.0 - x ** 2)),
    ]
    for A in guesses:
        for shape in shapes:
            u0, w0 = shape(A)
            sol = solve_bvp(fun, bc, x, np.vstack([u0, w0]), S=S,
                            tol=1e-8, max_nodes=50_000)
            if sol.status == 0 and sol.y[0][0] > 1e-3 and np.all(sol.y[0][:-1] > -1e-9):
                return float(sol.y[0][0])
    raise RuntimeError("collocation oracle did not converge to a positive solution")


# ---------------------------------------------------------------------------
# spectral oracles
# ---------------------------------------------------------------------------

def oscillation_count(N, ell, V_func, r0=1e-8, n_sample=20_000):
    """Negative-eigenvalue count of the scalar sector via Sturm oscillation.

    The sector operator  -w'' - (N-1) w'/r + l(l+N-2) w / r^2 - V(r) w  on
    (0,1) with Dirichlet at 1 has as many negative Dirichlet eigenvalues as
    the regular-at-zero solution of L w = 0 has zeros in (0,1).  Substituting
    w = r^l z removes the centrifugal term exactly, leaving

        z'' + (N + 2l - 1) z'/r + V(r) z = 0,   z(0) = 1, z'(0) = 0,

    whose zeros in (0,1) coincide with those of w.
    """
    dim = N + 2 * ell

    def rhs(r, y):
        z, dz = y
        return [dz, -(dim - 1) * dz / r - V_func(r) * z]

    # Taylor start: z ~ 1 - V(0) r^2 / (2 dim)
    V0 = V_func(0.0)
    z0 = 1.0 - V0 * r0 ** 2 / (2 * dim)
    dz0 = -V0 * r0 / dim
    sol = solve_ivp(rhs, (r0, 1.0), [z0, dz0], method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    rs = np.linspace(r0, 1.0, n_sample)
    z = sol.sol(rs)[0]
    sign = np.sign(z)
    sign[sign == 0] = 1.0
    flips = np.nonzero(np.diff(sign))[0]
    # drop a flip that is only the boundary zero at r = 1
    return int(np.sum(rs[flips] < 1.0 - 2.0 / n_sample))


def spherical_bessel_j1_zeros(count):
    """First zeros of j_1 via bracketed root finding on tan z = z."""
    from scipy.special import spherical_jn

    zeros = []
    k = 1
    while len(zeros) < count:
        lo, hi = k * math.pi + 1e-9, (k + 1) * math.pi - 1e-9
        zeros.append(brentq(lambda z: spherical_jn(1, z), lo, hi, xtol=1e-14))
        k += 1
    return zeros


def harmonic_dimension(N, ell):
    """dim of degree-ell spherical harmonics on S^(N-1) by Laplacian rank.

    Builds the matrix of the Laplacian from homogeneous degree-ell monomials
    to degree-(ell-2) monomials and returns dim ker = #monomials - rank.
    """
    from itertools import combinations_with_replacement

    def monomials(deg):
        if deg < 0:
            return []
        combos = combinations_with_replacement(range(N), deg)
        out = []
        for c in combos:
            e = [0] * N
            for i in c:
                e[i] += 1
            out.append(tuple(e))
        return out

    src = monomials(ell)
    dst = monomials(ell - 2)
    if not dst:
        return len(src)
    index = {m: i for i, m in enumerate(dst)}
    L = np.zeros((len(dst), len(src)))
    for j, e in enumerate(src):
        for i in range(N):
            if e[i] >= 2:
                e2 = list(e)
                e2[i] -= 2
                L[index[tuple(e2)], j] += e[i] * (e[i] - 1)
    rank = np.linalg.matrix_rank(L)
    return len(src) - rank


def dense_pencil(d11, d12, d22, off, bw):
    """Dense (A, B) of a block-tridiagonal pencil, component-major ordering.

    Unknowns are ordered (w1_0..w1_{n-1}, w2_0..w2_{n-1}), unlike the
    interleaved layout of the banded code, and assembled with plain numpy.
    """
    off = np.asarray(off, dtype=float)
    T = np.diag(off, 1) + np.diag(off, -1)
    C = np.diag(np.asarray(d12, dtype=float))
    A = np.block([[np.diag(d11) + T, C], [C, np.diag(d22) + T]])
    B = np.diag(np.concatenate([bw, bw]).astype(float))
    return A, B


def dense_pencil_eigvals(d11, d12, d22, off, bw):
    """Ascending eigenvalues of A w = mu B w from a dense symmetric-definite solve."""
    return eigh(*dense_pencil(d11, d12, d22, off, bw), eigvals_only=True)


def dense_flux_form(k, w, q11, q12, q22, bw):
    """Dense (A, B) of sum_j k_j |x_j - x_(j-1)|^2 + sum_i w_i <Q_i x_i, x_i> against diag(bw).

    Component-major like ``dense_pencil``.  A = D^T diag(k) D + diag(w Q),
    with D the (n + 1) x n difference matrix of the n nodes and the zero
    outside values x_(-1) = x_n = 0: built from the form, not from a block
    layout.
    """
    n = len(bw)
    D = np.eye(n + 1, n) - np.eye(n + 1, n, -1)  # row j: x_j - x_(j-1)
    L = D.T @ np.diag(np.asarray(k, dtype=float)) @ D
    wq11, wq12, wq22 = (np.broadcast_to(w * np.asarray(q, dtype=float), n)
                        for q in (q11, q12, q22))
    A = np.block([[L + np.diag(wq11), np.diag(wq12)], [np.diag(wq12), L + np.diag(wq22)]])
    B = np.diag(np.concatenate([bw, bw]).astype(float))
    return A, B


def build_weighted_forms(U, gamma, delta, lam, mesh):
    """Dense (A, B, tmesh) of the half-line weighted forms, interleaved (h1_i, h2_i).

    A discretizes int e^(-gamma t)|h'|^2 + lam e^(-gamma t)|h|^2
    - e^(-delta t)<U h, h> dt over [0, T] and B the mass int e^(-delta t)|h|^2
    for piecewise-linear h on the uniform mesh with h(0) = 0.  The gradient
    term is assembled interval by interval with e^(-gamma t) taken at the
    midpoint; the other terms use the trapezoid rule at the nodes, with U
    interpolated linearly.  Unknowns are h at nodes 1..mesh.
    """
    T = float(U.tgrid[-1])
    ht = T / mesh
    ts = ht * np.arange(mesh + 1)
    n = 2 * (mesh + 1)  # node 0 is assembled too and dropped at the end
    A = np.zeros((n, n))
    B = np.zeros(n)
    for i in range(mesh):
        k = math.exp(-gamma * (ts[i] + 0.5 * ht)) / ht
        for c in (0, 1):
            a, b = 2 * i + c, 2 * i + 2 + c
            A[a, a] += k
            A[b, b] += k
            A[a, b] -= k
            A[b, a] -= k
    m11, m12, m22 = (np.interp(ts, U.tgrid, m) for m in (U.m11, U.m12, U.m22))
    for i in range(mesh + 1):
        w = 0.5 * ht if i in (0, mesh) else ht
        eg, ed = math.exp(-gamma * ts[i]), math.exp(-delta * ts[i])
        j = 2 * i
        A[j, j] += w * (lam * eg - ed * m11[i])
        A[j + 1, j + 1] += w * (lam * eg - ed * m22[i])
        A[j, j + 1] -= w * ed * m12[i]
        A[j + 1, j] -= w * ed * m12[i]
        B[j] = B[j + 1] = w * ed
    return A[2:, 2:], B[2:], ts


# ---------------------------------------------------------------------------
# limit-system oracle
# ---------------------------------------------------------------------------

def full_horizon_power_trajectory(p, scale, init, T, ts):
    """(u, v, du, dv) at ts for -u'' = s|u|^(p-2)u, -v'' = s|v|^(p-2)v.

    Plain DOP853 over the whole of [0, T] at rtol = atol = 1e-12, sampled
    through t_eval: no period, no event, no dense evaluator.
    """
    def rhs(t, y):
        u, v, du, dv = y
        return [du, dv, -scale * abs(u) ** (p - 2) * u, -scale * abs(v) ** (p - 2) * v]

    sol = solve_ivp(rhs, (0.0, T), list(init), method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=ts)
    return sol.y


# ---------------------------------------------------------------------------
# quadrature helpers and test functions
# ---------------------------------------------------------------------------

def simpson_integral(y, x):
    return float(simpson(y, x=x))


def smooth_bump(tgrid, a, b):
    """C-infinity bump supported on (a, b), with its analytic derivative."""
    t = np.asarray(tgrid, dtype=float)
    x = (t - a) / (b - a)
    inside = (x > 0.0) & (x < 1.0)
    phi = np.zeros_like(t)
    dphi = np.zeros_like(t)
    xi = x[inside]
    core = np.exp(-1.0 / (xi * (1.0 - xi)))
    phi[inside] = core
    dphi[inside] = core * (1.0 - 2.0 * xi) / (xi * (1.0 - xi)) ** 2 / (b - a)
    return phi, dphi


# ---------------------------------------------------------------------------
# two-component certification formulas
# ---------------------------------------------------------------------------
# The checks as they were before they skipped all-zero components and mu = 0
# terms: every component and every term is computed, with the same order of
# operations, so each result must equal the package's bit for bit.

def two_component_transform(profile, T=None):
    """(t, u, v, du, dv) of ``halfline.transform_profile``, gathered from (2, n) arrays."""
    p = profile.params
    beta = p.N / (p.N + p.alpha)
    kappa = beta ** (2.0 / (p.f.p - 2.0))
    T = 30.0 / beta if T is None else T
    t = np.linspace(0.0, T, len(profile.grid))
    r = np.exp(-beta * t)
    x, y, dy = profile.grid, np.array([profile.u, profile.v]), np.array([profile.du, profile.dv])
    dx, i = np.diff(x), np.clip(np.searchsorted(x, r, side="right") - 1, 0, len(x) - 2)
    slope = np.diff(y) / dx
    c = (dy[:, :-1] + dy[:, 1:] - 2 * slope) / dx
    c0, c1, c2, c3 = (a[:, i] for a in (y[:, :-1], dy[:, :-1],
                                        (slope - dy[:, :-1]) / dx - c, c / dx))
    s = r - x[i]
    u, v = c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)
    dur, dvr = c1 + (c2 * 2.0) * s + (c3 * 3.0) * (s * s)
    return t, kappa * u, kappa * v, -kappa * beta * r * dur, -kappa * beta * r * dvr


def two_component_residual(profile, sqrt_gate):
    """(``residual``, ``relative_residual``) of a profile, both components, every term."""
    p = profile.params
    r = profile.grid
    h = r[1] - r[0]
    a, N = p.alpha, p.N
    out = 0.0
    fu, fv = p.f.grad(profile.u, profile.v)
    w = r ** a
    for y, dy, mu, g, d, g0 in zip(
        (profile.u, profile.v), (profile.du, profile.dv), (p.mu1, p.mu2),
        (fu, fv), profile.amplitude, p.f.grad(*profile.amplitude),
    ):
        s = -g0 * r ** (2.0 + a) / ((2.0 + a) * (a + N))
        s2 = -g0 * (1.0 + a) * r[1:-1] ** a / (a + N)
        near = (0.0 < a < 2.0) & (np.abs(s[1:-1]) <= sqrt_gate * abs(d))
        z = y - s
        d2 = np.where(near, (z[2:] - 2.0 * z[1:-1] + z[:-2]) / (h * h) + s2,
                      (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (h * h))
        defect = (-d2 - (N - 1.0) * dy[1:-1] / r[1:-1] + mu * y[1:-1]
                  - w[1:-1] * g[1:-1])
        out = max(out, float(np.max(np.abs(defect))))
    scale = 1.0 + max(
        float(np.max(np.abs(w * fu))), float(np.max(np.abs(w * fv))),
        p.mu1 * float(np.max(np.abs(profile.u))),
        p.mu2 * float(np.max(np.abs(profile.v))),
    )
    return out, out / scale


def two_component_transformed_residual(tp):
    p = tp.params
    t = tp.tgrid
    h = t[1] - t[0]
    fu, fv = p.f.grad(tp.u, tp.v)
    eg = np.exp(-tp.gamma * t)
    ebn = np.exp(-tp.beta * p.N * t)
    en = np.exp(-p.N * t)
    b2 = tp.beta ** 2
    out = 0.0
    for y, dy, mu, g in ((tp.u, tp.du, p.mu1, fu), (tp.v, tp.dv, p.mu2, fv)):
        d2 = (2.0 * y[:-6] - 27.0 * y[1:-5] + 270.0 * y[2:-4] - 490.0 * y[3:-3]
              + 270.0 * y[4:-2] - 27.0 * y[5:-1] + 2.0 * y[6:]) / (180.0 * h * h)
        sl = slice(3, -3)
        defect = eg[sl] * (-d2 + tp.gamma * dy[sl]) + b2 * mu * ebn[sl] * y[sl] - en[sl] * g[sl]
        out = max(out, float(np.max(np.abs(defect))))
    return out


def two_component_pohozaev_check(tp):
    """(lhs, rhs, band) of ``halfline.pohozaev_check``, its hypothesis aside."""
    p = tp.params
    t = tp.tgrid
    eg = np.exp(-tp.gamma * t)
    g = (eg * (tp.du - tp.gamma * tp.u)) ** 2 + (eg * (tp.dv - tp.gamma * tp.v)) ** 2
    factor = 2.0 * (p.N + tp.gamma) / p.f.p
    rhs = factor * float(simpson(g, x=t))
    lhs = float(tp.du[0] ** 2 + tp.dv[0] ** 2)
    tail = 0.0
    g_end = float(g[-1])
    if g_end > 1e-280:
        m = max(len(t) // 10, 8)
        gt = g[-m:]
        tt = t[-m:]
        pos = gt > 1e-280
        if np.count_nonzero(pos) >= 4:
            slope = np.polyfit(tt[pos], np.log(gt[pos]), 1)[0]
            tail = g_end / (-slope) if slope < -1e-12 else g_end * float(t[-1])
        else:
            tail = g_end * float(t[-1])
    return lhs, rhs, factor * tail


def two_component_pohozaev_identity(tp):
    p = tp.params
    t = tp.tgrid
    rho = tp.beta * p.N
    nu1 = tp.beta ** 2 * p.mu1
    nu2 = tp.beta ** 2 * p.mu2
    F = p.f.value(tp.u, tp.v)
    eg = np.exp(-tp.gamma * t)
    lhs = float(tp.du[0] ** 2 + tp.dv[0] ** 2)
    int_F = float(simpson(np.exp(-(p.N + tp.gamma) * t) * F, x=t))
    int_nu = float(simpson(np.exp(-(rho + tp.gamma) * t) * (nu1 * tp.u ** 2 + nu2 * tp.v ** 2),
                           x=t))
    ida = 2.0 * (p.N + tp.gamma) * int_F - (rho + tp.gamma) * int_nu
    res_a = abs(lhs - ida) / (1.0 + abs(lhs))
    g = (eg * (tp.du - tp.gamma * tp.u)) ** 2 + (eg * (tp.dv - tp.gamma * tp.v)) ** 2
    int_g = float(simpson(g, x=t))
    idb = float(simpson(
        eg * (p.f.p * np.exp(-p.N * t) * F
              - np.exp(-rho * t) * (nu1 * tp.u ** 2 + nu2 * tp.v ** 2)), x=t))
    res_b = abs(int_g - idb) / (1.0 + abs(int_g))
    return max(res_a, res_b)


def two_component_quadratic_part(profile):
    p = profile.params
    r = profile.grid
    area = 2.0 * math.pi ** (p.N / 2.0) / math.gamma(p.N / 2.0)
    weight = area * r ** (p.N - 1)
    integrand = (
        profile.du ** 2 + p.mu1 * profile.u ** 2
        + profile.dv ** 2 + p.mu2 * profile.v ** 2
    ) * weight
    return float(simpson(integrand, x=r))
