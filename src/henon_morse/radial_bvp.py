"""Radial solutions of weighted superlinear problems on the unit ball.

Radial profiles of

    -u'' - (N-1) u'/r + mu1 u = r^alpha dF/du(u, v)
    -v'' - (N-1) v'/r + mu2 v = r^alpha dF/dv(u, v)

on [0, 1] with u(1) = v(1) = 0 and u'(0) = v'(0) = 0 are computed by
shooting from the center.  Integration starts from a second-order Taylor
expansion at eps = 1e-6 (the (N-1)/r term is removably singular for regular
radial data) and uses the adaptive Dormand-Prince 8(5,3) pair (DOP853) of
``solve_ivp``, the one integrator of every radial shot and of the limit
system: scipy's DOP853 step for step, on the tableau of scipy's own
coefficient file, without importing ``scipy.integrate``.  Its right-hand
sides take the state as a sequence of floats: it makes scipy's BLAS
products, runs the elementwise stage arithmetic on Python floats
(IEEE-identical) and forms the dense coefficients once per run.  Each shot's
dense output is evaluated once per profile, on the uniform certification
grid with three points interleaved in each cell: the profile keeps the grid
nodes, and the interior-zero check reads every point of the 4x grid, in one
vectorized pass, bit for bit scipy's ``OdeSolution``.

The paper's scaling u -> lam^sigma u(lam r), sigma = (2 + alpha)/(p - 2),
maps solutions with mu to solutions with lam^2 mu, so every shot starts at
unit amplitude and stops at its (k+1)-th zero r_k; lam = r_k turns it into
the k-node profile for mu = mu' r_k^2 with amplitude r_k^sigma, with no
second integration.  With mu > 0, inexact Newton steps in log mu' (loose
shots first) solve mu' r_k^2 = mu; each shot carries the sensitivity
w = du/dmu': dr_k/dmu' = -w(r_k)/u'(r_k).  The positive branch of a
symmetric coupled system (a1 = a2, mu1 = mu2) is u = v, which solves the
scalar problem with dF/du(u, u) = (a1 + b) u^3 (Sirakov, Comm. Math. Phys.
2007): it is shot as that problem, and v is copied from u.

With mu = 0 a second change of variables removes alpha: t = r^beta,
beta = (2 + alpha)/2, turns the problem in dimension N into the Lane-Emden
problem -v'' - (M-1) v'/t = dF(v) in the dimension M = 2(N + alpha)/(2 + alpha),
with u(r) = beta^(2/(p-2)) v(r^beta) (Gladiali, Grossi, Neves, Adv. Math.
2013).  So every mu = 0 profile is the exact image of one (M, 0) shot; for
N = 2, M = 2 at every alpha.  With mu > 0 the map leaves a weight singular
at t = 0, so a mu > 0 profile is its own image, under the identity map.
``image_params`` is the one place this rule is written, and every row takes
one road: ``image_shot`` shoots the image once, ``mapped_profile`` holds the
row as the map of that shot (``MappedProfile`` at mu = 0, with no r-grid;
the shot's own profile at mu > 0) after the boundary, amplitude-cap,
subcritical and zero-count rules in their scaled form, and the image is
what is certified and counted.  A mapped amplitude and action follow from
the image's by exact scaling.  The shot counts its zeros once on its 4x
grid (the map sends zeros one to one).  ``shoot_nodal`` samples a mu = 0
profile on an r-grid, mapped from a given shot or from ``image_shot``.

The final profile is checked for its boundary value, relative to its
amplitude, and its node count before it is returned, and it should be
certified through ``residual`` before spectral post-processing.  The checks
skip a component whose samples and slopes are all 0 (v of a scalar shot,
never computed by dense output) and each term times mu = 0: exact zeros, so
no value changes.  A NaN defect fails; Simpson factors are made once per grid.
For N >= 3 and p >= 2(N + alpha)/(N - 2) = 2M/(M - 2) no solution exists
(Pohozaev identity), which is reported before any shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateInput, NoBracket, NoConverge, OverflowBlowUp
from .gates import RESIDUAL_GATE
from .nonlinearity import NonlinearityF, pure_power
from .pencil import load_scipy_file

EPS_ORIGIN = 1e-6
BLOWUP_GUARD = 1e12
AMPLITUDE_CAP = 1e8
# (rtol, atol) of an (M, 0) shot: the map multiplies u by beta^(2/(p-2)) and
# u' by a further beta r^(beta-1), so it runs ten times tighter than an r-shot
LANE_EMDEN_TOL = (1e-13, 1e-15)
# mu > 0: shots run at LOOSE_TOL while |g| >= LOOSE_G, far above their error
# in g, up to LOOSE_SHOTS of them (``_scaling_amplitude``)
LOOSE_TOL = (1e-8, 1e-10)
LOOSE_G = 1e-2
LOOSE_SHOTS = 12


def sphere_area(N):
    """Surface area of the unit sphere in dimension N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True)
class ProblemParams:
    """Data of one radial boundary value problem on the unit ball."""

    N: int
    alpha: float
    mu1: float
    mu2: float
    f: NonlinearityF

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("dimension N must be at least 2")
        if self.alpha < 0:
            raise ValueError("numerical support is restricted to alpha >= 0")
        if self.mu1 < 0 or self.mu2 < 0:
            raise ValueError("mu1, mu2 must be nonnegative")

    @property
    def critical_exponent(self):
        """Henon critical exponent 2(N+alpha)/(N-2) for N >= 3, infinity in the plane."""
        if self.N == 2:
            return math.inf
        return 2.0 * (self.N + self.alpha) / (self.N - 2.0)


@dataclass
class RadialProfile:
    """A sampled radial pair (u, v) with derivatives on a uniform grid over [0, 1].

    Treated as immutable after construction, so ``residual`` and
    ``relative_residual`` are computed once per profile object (``scaled``,
    ``dataclasses.replace`` and ``io.load_profile`` make new ones).  These
    arrays are the whole profile: a saved and reloaded copy is the same data.
    """

    params: ProblemParams
    grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    amplitude: tuple

    # ``MappedProfile``'s interface for the identity map: the profile is its own image
    beta = c = lam = 1.0
    image = property(lambda self: self)

    def image_horizon(self, T):
        return T

    @property
    def is_trivial(self):
        return max(abs(self.amplitude[0]), abs(self.amplitude[1])) == 0.0

    @cached_property
    def simpson(self):
        """``simpson_rule`` of this grid, made on first use."""
        return simpson_rule(self.grid)

    @cached_property
    def energy(self):
        """``action_energy`` of this profile, made on first use."""
        return action_energy(self)

    @cached_property
    def residuals(self):
        """(``residual``, ``relative_residual``), from one gradient and one grid ** alpha."""
        p = self.params
        r = self.grid
        h = r[1] - r[0]
        a, N = p.alpha, p.N
        ri, w = r[1:-1], r ** a
        wi, out, scale = w[1:-1], 0.0, [0.0]
        for y, dy, mu, g, d, g0 in live_components(zip(
            (self.u, self.v), (self.du, self.dv), (p.mu1, p.mu2),
            p.f.grad(self.u, self.v), self.amplitude, p.f.grad(*self.amplitude),
        )):
            d2 = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (h * h)
            if 0.0 < a < 2.0:
                s, s2 = -g0 * r ** (2.0 + a) / ((2.0 + a) * (a + N)), -g0 * (1.0 + a) * wi / (a + N)
                z = y - s
                d2 = np.where(np.abs(s[1:-1]) <= math.sqrt(RESIDUAL_GATE) * abs(d),
                              (z[2:] - 2.0 * z[1:-1] + z[:-2]) / (h * h) + s2, d2)
            defect = -d2 - (N - 1.0) * dy[1:-1] / ri
            if mu:
                defect += mu * y[1:-1]
            defect -= wi * g[1:-1]
            out = np.maximum(out, np.max(np.abs(defect)))
            scale += [float(np.max(np.abs(w * g))), mu and mu * float(np.max(np.abs(y)))]
        out = float(out)
        return out, out / (1.0 + max(scale))

    def scaled(self, t):
        """Profile multiplied by a scalar."""
        return RadialProfile(
            self.params, self.grid, t * self.u, t * self.v,
            t * self.du, t * self.dv,
            (t * self.amplitude[0], t * self.amplitude[1]),
        )


def _taylor_start(params, d, r):
    """Second-order small-r expansion of the regular solution with center value d.

    u ~ d1 + mu1 d1 r^2/(2N) - dF/du(d) r^(2+alpha)/((2+alpha)(alpha+N)); for
    alpha = 0 the forcing term merges into the classical r^2/(2N) coefficient.
    """
    d1, d2 = d
    f = params.f
    a, N = params.alpha, params.N
    fu0, fv0 = f.grad(d1, d2)
    cu = params.mu1 * d1 / (2.0 * N)
    cv = params.mu2 * d2 / (2.0 * N)
    rf = r ** (2.0 + a) / ((2.0 + a) * (a + N))
    drf = r ** (1.0 + a) / (a + N)
    return np.array([
        d1 + cu * r * r - fu0 * rf,
        d2 + cv * r * r - fv0 * rf,
        2.0 * cu * r - fu0 * drf,
        2.0 * cv * r - fv0 * drf,
    ])


def _ivp_rhs(params, sensitivity=False):
    """Right-hand side of the first-order system in (u, v, u', v'), any sequence of floats.

    With ``sensitivity`` the problem is scalar (v = 0), and w = du/dmu1
    rides in the idle v slot, (u, w, u', w'): it solves
    w'' + (N-1) w'/r - mu1 w + r^alpha F_uu(u, 0) w = u.
    """
    grad, hess = params.f.pointwise()
    N, a = params.N, params.alpha
    mu1, mu2 = params.mu1, params.mu2

    def rhs(r, y):
        u, v, du, dv = y
        fu, fv = grad(u, v)
        w = r ** a
        return (
            du,
            dv,
            -(N - 1.0) * du / r + mu1 * u - w * fu,
            -(N - 1.0) * dv / r + mu2 * v - w * fv,
        )

    def scalar(r, y):
        u, w, du, dw = y
        fu = grad(u, 0.0)[0]
        fuu = hess(u, 0.0)[0]
        x = r ** a
        return (
            du,
            dw,
            -(N - 1.0) * du / r + mu1 * u - x * fu,
            -(N - 1.0) * dw / r + mu1 * w + u - x * fuu * w,
        )

    return scalar if sensitivity else rhs


def blowup_event():
    """Terminal event: |u| + |v| crosses BLOWUP_GUARD upward."""
    def event(r, y):
        return abs(y[0]) + abs(y[1]) - BLOWUP_GUARD

    event.terminal = True
    event.direction = 1
    return event


# scipy's DOP853 tableau by file path: it imports numpy alone, scipy.integrate far more
_DOP = load_scipy_file("_dop853", "integrate/_ivp/dop853_coefficients.py")
_S = _DOP.N_STAGES  # 12
# (stage, row of A, node) of stages 1..11 within a step and 13..15 for its dense output
_STAGES = [(s, a[:s], float(c)) for s, (a, c) in enumerate(zip(_DOP.A[1:], _DOP.C[1:]), start=1)]
_STAGES_MAIN, _STAGES_DENSE = _STAGES[:_S - 1], _STAGES[_S:]


def _dense_output(ts, steps):
    """scipy's ``OdeSolution`` over the DOP853 steps (K, t_old, h, y_old, y_new), bit for bit.

    Every step's coefficients F are formed in one stacked pass and kept as
    (power, component, step), highest power first, so an evaluation gathers
    each power with one ``take``.  A step point belongs to the earlier step.
    """
    K, t_old, h, y_old, y_new = map(np.array, zip(*steps))
    dy, hs = y_new - y_old, h[:, None]
    F = np.concatenate([(hs[..., None] * np.matmul(_DOP.D, K))[:, ::-1],
                        (2 * dy - hs * (K[:, _S] + K[:, 0]))[:, None],
                        (hs * K[:, 0] - dy)[:, None], dy[:, None]], axis=1)
    live = np.flatnonzero(F.any(axis=(0, 1)) | y_old.any(axis=0))
    F, y_old = F[..., live].transpose(1, 2, 0).copy(), y_old[:, live].T.copy()

    def sol(t):
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(ts, t) - 1, 0, h.size - 1)
        x = (t - t_old[seg]) / h[seg]
        y, out = np.zeros(live.shape + t.shape), np.zeros(dy.shape[1:] + t.shape)
        for f, z in zip(F, (x, 1 - x) * 4):
            y += f.take(seg, axis=1)
            y *= z
        out[live] = y + y_old.take(seg, axis=1)
        return out

    return sol


def _brentq(g, xpre, xcur, tol=4 * np.finfo(float).eps):
    """Root of g in [xpre, xcur]: scipy's C brentq, xtol = rtol = tol, operation for operation."""
    fpre, fcur = g(xpre), g(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("the event does not change sign over the step")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (tol + tol * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            break
        step = (sbis, sbis)  # bisect, unless an inverse interpolation step is short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                step = (scur, stry)
        (spre, scur), xpre, fpre = step, xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = g(xcur)
    return xcur


def solve_ivp(fun, t_span, y0, rtol, atol, events=()):
    """scipy's ``solve_ivp(method="DOP853", dense_output=True)``, operation for operation.

    Its initial step, stages, error norm, step control, dense coefficients
    and events (``direction``, integer ``terminal``, brentq roots), forward
    in t, so ``t``, ``nfev``, the events and ``sol`` are scipy's bit for bit.
    ``fun`` and the events get the state as a list of floats: the BLAS
    products are scipy's, and the elementwise stage arithmetic on Python
    floats is IEEE-identical.  Dense coefficients are formed once per run,
    and on a step where an event fires; ``sol`` evaluates any points in one
    vectorized pass, and is None after a failed first step.  ``message``
    says why a run failed (status -1), and is None otherwise.
    """
    t, t_bound = map(float, t_span)
    y, atol = np.asarray(y0, dtype=float), np.asarray(atol)
    rtol, nfev = max(rtol, 100 * np.finfo(float).eps), 2  # select_initial_step's two calls
    fy, scale = np.asarray(fun(t, y.tolist()), dtype=float), atol + np.abs(y) * rtol
    d0, d1 = (np.linalg.norm(v / scale) / y.size ** 0.5 for v in (y, fy))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    f1 = np.asarray(fun(t + h0, (y + h0 * fy).tolist()))
    d2 = np.linalg.norm((f1 - fy) / scale) / y.size ** 0.5 / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs, K = float(min(100 * h0, h1, t_bound - t)), np.empty((_DOP.N_STAGES_EXTENDED, y.size))
    KT = [K[:s].T for s in range(len(K) + 1)]  # stage s reads K[:s].T: views made once
    K[0], atol, y = fy, np.broadcast_to(atol, y.shape).tolist(), y.tolist()
    ends = [getattr(e, "terminal", 0) or math.inf for e in events]
    signs = [getattr(e, "direction", 0) for e in events]
    counts, g = [0] * len(events), [e(t, y) for e in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    ts, steps, status, message = [t], [], None, None
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            for s, a, c in _STAGES_MAIN:  # one BLAS product a stage; the RHS tuple fills K[s]
                K[s] = fun(t + c * h, [v + d * h for v, d in zip(y, KT[s].dot(a).tolist())])
            y_new = [v + d * h for v, d in zip(y, KT[_S].dot(_DOP.B).tolist())]
            K[_S] = fun(t + h, y_new)
            nfev += _S
            scale = np.array([a + max(abs(v), abs(w)) * rtol for a, v, w in zip(atol, y, y_new)])
            e5, e3 = (math.sqrt(x.dot(x)) ** 2  # numpy.linalg.norm's path, squared
                      for x in (KT[_S + 1].dot(E) / scale for E in (_DOP.E5, _DOP.E3)))
            error = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * len(y)) if e5 or e3 else 0.0
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * error ** -0.125), True
        else:
            status, message = -1, "Required step size is less than spacing between numbers."
            break
        for s, a, c in _STAGES_DENSE:
            K[s] = fun(t + c * h, [v + d * h for v, d in zip(y, KT[s].dot(a).tolist())])
        nfev += len(_STAGES_DENSE)
        steps.append((K.copy(), t, h, y, y_new))
        t_old, t, y, K[0] = t, t_new, y_new, K[_S]
        status, g_new = 0 if t >= t_bound else None, [e(t, y) for e in events]
        active = [i for i, (a, b) in enumerate(zip(g, g_new))
                  if (a <= 0 <= b and signs[i] >= 0) or (a >= 0 >= b and signs[i] <= 0)]
        step = _dense_output([t_old, t], steps[-1:]) if active else None  # for brentq
        g, roots = g_new, sorted((_brentq(lambda s: float(events[i](s, step(s))), t_old, t), i)
                                 for i in active)
        counts = [c + (i in active) for i, c in enumerate(counts)]
        if any(counts[i] >= ends[i] for i in active):
            roots = roots[:1 + next(j for j, (_, i) in enumerate(roots) if counts[i] >= ends[i])]
            status, t = 1, roots[-1][0]
        for root, i in roots:
            t_events[i].append(root)
            y_events[i].append(step(root))
        if len(ts) > 1 and ts[-1] == t:  # a terminal root at the step's start
            steps.pop()
        else:
            ts.append(t)
    ts = np.array(ts)
    return SimpleNamespace(t=ts, t_events=list(map(np.asarray, t_events)), status=status,
                           y_events=list(map(np.asarray, y_events)), message=message,
                           nfev=nfev, sol=_dense_output(ts, steps) if steps else None)


def _integrate_dense(params, d, rtol=1e-10, atol=1e-10, eps=EPS_ORIGIN,
                     r_end=1.0, events=(), sensitivity=False):
    """Adaptive integration of the IVP; returns a dense evaluator on [0, r_end].

    ``events`` are extra solve_ivp events; the radii where they fired, and the
    states there, are kept on the evaluator as ``t_events`` and ``y_events``,
    and a terminal one ends the integration there.  With ``sensitivity``
    (d2 = 0) the state carries w = du/dmu1 from w(0) = w'(0) = 0 in the v
    slot (``_ivp_rhs``) at an infinite atol, so its error terms are 0 and
    never steer the step size: u is integrated bit for bit as without it.
    The evaluator returns (u, 0, u', 0).  Raises OverflowBlowUp when the
    guard triggers first.
    """
    d = (float(d[0]), float(d[1]))
    if d == (0.0, 0.0):
        def zero(r):
            r = np.asarray(r, dtype=float)
            z = np.zeros_like(r)
            return np.array([z, z, z, z])
        return zero

    # adapt the origin cutoff so the series start stays a genuine correction:
    # large amplitudes develop an origin layer of scale |d|^(-(p-2)/2) that
    # must lie above eps for the regular solution to be the one integrated
    y0 = _taylor_start(params, d, eps)
    scale = abs(d[0]) + abs(d[1]) + 1.0
    for _ in range(8):
        drift = abs(y0[0] - d[0]) + abs(y0[1] - d[1])
        if drift <= 1e-8 * scale:
            break
        eps *= math.sqrt(1e-8 * scale / drift) * 0.9
        y0 = _taylor_start(params, d, eps)
    else:
        raise OverflowBlowUp(
            f"could not find a valid series start for amplitude {d}"
        )
    guard = blowup_event()
    if sensitivity:
        y0[1::2] = d[0] * eps * eps / (2.0 * params.N), d[0] * eps / params.N
        atol = np.array([atol, math.inf, atol, math.inf])

        def guard(r, y):  # w rides in the v slot: the guard watches u alone
            return abs(y[0]) - BLOWUP_GUARD

        guard.terminal, guard.direction = True, 1
    sol = solve_ivp(_ivp_rhs(params, sensitivity), (eps, r_end), y0, rtol, atol,
                    events=[guard, *events])
    if sol.t_events[0].size:
        raise OverflowBlowUp(
            f"|u|+|v| exceeded {BLOWUP_GUARD:.0e} at r = {sol.t[-1]:.6f} "
            f"for amplitude {d}"
        )
    if sol.status == -1:
        raise NoConverge(f"IVP integration failed: {sol.message}")
    dense = sol.sol

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        out = dense(np.maximum(r, eps))
        if sensitivity:
            out[1::2] = 0.0
        small = r < eps
        if small.any():
            out[..., small] = _taylor_start(params, d, r[small])
        return out

    evaluate.t_events = sol.t_events[1:]
    evaluate.y_events = sol.y_events[1:]
    return evaluate


def integrate_radial_ivp(params, d, grid_size=4000, rtol=1e-10, atol=1e-10):
    """Forward integration from the center with u(0) = d1, v(0) = d2, zero slope.

    No boundary condition is imposed at r = 1; the result is a shooting
    candidate sampled on the uniform certification grid.
    """
    return _sample(params, d, _integrate_dense(params, d, rtol=rtol, atol=atol), grid_size)[0]


def _sample(params, d, dense, grid_size, refine=1):
    """Profile of the shot with centre values d, and the interior sign changes of u.

    The dense evaluator is called once, on np.linspace(0, 1, grid_size + 1)
    with refine - 1 evenly spaced points interleaved in each cell.  The
    profile keeps the linspace nodes bit for bit; the sign changes are
    counted over every point.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    steps = np.arange(refine) / refine
    fine = np.append(grid[:-1, None] + np.diff(grid)[:, None] * steps, 1.0)
    vals = dense(fine)
    vals[:, 0] = [d[0], d[1], 0.0, 0.0]
    u, v, du, dv = vals[:, ::refine].copy()
    profile = RadialProfile(params, grid, u, v, du, dv, (float(d[0]), float(d[1])))
    return profile, _sign_changes(fine[1:], vals[0, 1:])


def _sign_changes(rs, u):
    """Sign changes of u sampled on the uniform grid rs, below r = 1 - 1.5 h.

    The band keeps a zero at the boundary out of the interior count; an
    exact zero counts as positive.
    """
    sign = np.sign(u[rs < 1.0 - 1.5 * (rs[1] - rs[0])])
    sign[sign == 0] = 1.0
    return int(np.count_nonzero(np.diff(sign)))


def _scaling_amplitude(params, k, tol, ivp_tol=(1e-12, 1e-14)):
    """k-node amplitude and (u, 0, u', 0) evaluator of a scalar problem, scaled from (1, 0) shots.

    For mu > 0, g(t) = log(mu' r_k^2 / mu) = 0 is solved in t = log mu' by
    Newton steps, with dg/dt = 1 + 2 mu' r_k'/r_k from the mu'-sensitivity
    w = du/dmu' the shots carry: r_k' = -w(r_k)/u'(r_k).  The slope is
    floored at 1/2 (r_k can fall as mu' grows, since the nonlinearity grows
    with u) and is 1 after a shot without the zero.  The first guess is one
    Newton step on mu' (r_k + r_k' mu')^2 = mu, from r_k and r_k' of the
    mu' = 0 shot.  Shots keep a bracket in t; a step that leaves it, or one
    after a shot without the zero, bisects it instead once both ends are
    finite.  The iteration stops once the amplitude error, at most
    (sigma/2) |g| r_k^sigma while r_k grows with mu', is within
    tol (1 + amplitude).  If the shots run out first (mu' resolved to its
    last bit: the sensitivity to mu' grows like e^sqrt(mu)), the best shot
    is kept if its mu mismatch |g| is within RESIDUAL_GATE.

    Inexact Newton (Dembo, Eisenstat, Steihaug 1982): shots run at LOOSE_TOL
    while |g| >= LOOSE_G, at most LOOSE_SHOTS of them, then at ``ivp_tol``.
    A loose g is off by up to 2e-3 (N = 3, alpha = 1, mu = 100), so a loose
    shot narrows the bracket only at |g| >= LOOSE_G, is never the profile,
    and without the zero at mu' = 0 is shot again tight.

    Shots stop at r_cap = AMPLITUDE_CAP^(1/sigma), and those with mu' > 0
    also at 2 sqrt(mu/mu'), since a later zero puts mu' r_k^2 above 4 mu.  A
    shot without the zero counts as one at its end: above the root, or, at
    r_cap, below the mu' = mu/r_cap^2 where any root with an amplitude up to
    the cap lies.  Converging on such a shot means no amplitude up to the cap.
    ``ivp_tol`` is the (rtol, atol) of the tight shots, and of every mu = 0 shot.
    """
    sigma = (2.0 + params.alpha) / (params.f.p - 2.0)
    r_cap = AMPLITUDE_CAP ** (1.0 / sigma)
    mu = params.mu1

    def zero(r, y):
        return y[0]

    zero.terminal = k + 1

    def shot(mu_p, r_end, tight=True):
        """(r_k, evaluator, r_k') of the unit shot with mu'; (r_end, None, 0) without the zero."""
        # atol = rtol / 100, that of a shot at amplitude 100: a tight shot is
        # scaled up to the profile, and a looser one adds noise to residual
        try:
            dense = _integrate_dense(replace(params, mu1=mu_p, mu2=mu_p), (1.0, 0.0),
                                     *(ivp_tol if tight else LOOSE_TOL),
                                     r_end=r_end, events=[zero], sensitivity=mu > 0.0)
        except OverflowBlowUp:
            return r_end, None, 0.0
        zeros = dense.t_events[0]
        if zeros.size <= k:
            return r_end, None, 0.0
        if mu == 0.0:
            return float(zeros[k]), dense, 0.0
        y = dense.y_events[0][k]  # (u, w, u', w')
        return float(zeros[k]), dense, -float(y[1] / y[2])

    def settled(g, r_k):
        return sigma * g * r_k ** sigma <= 2.0 * tol * (1.0 + r_k ** sigma)

    loose = LOOSE_SHOTS if mu > 0.0 else 0  # loose shots left
    r_k, dense, dr = shot(0.0, r_cap, loose < 1)
    if dense is None and loose:  # only a tight shot rules out the zero
        loose, (r_k, dense, dr) = 0, shot(0.0, r_cap)
    # (|g|, r_k, evaluator); at mu > 0 the mu' = 0 shot only tells NoConverge from NoBracket
    best = (0.0 if mu == 0.0 else math.inf, r_k, dense)
    if mu > 0.0 and dense is not None:
        t = math.log(mu / r_k ** 2)  # the root if r_k did not move
        x = dr * math.exp(t)
        if 3.0 * x > -r_k:  # the Newton step in sqrt(mu') from there
            t += 2.0 * math.log((r_k + 2.0 * x) / (r_k + 3.0 * x))
        lo, hi = -math.inf, math.inf  # t below and above the root
        for _ in range(100):
            mu_p, loose = math.exp(t), loose - 1  # the previous shot took one
            tight = loose < 1
            r_k, dense, dr = shot(mu_p, min(r_cap, 2.0 * math.sqrt(mu / mu_p)), tight)
            g = math.log(mu_p * r_k * r_k / mu)
            if tight:  # only a tight shot may be the profile
                best = min(best, (abs(g), r_k, dense), key=lambda b: b[0])
                if settled(*best[:2]):
                    break
            if tight or abs(g) >= LOOSE_G:  # a loose g near 0 may have either sign
                lo, hi = (lo, t) if g > 0.0 else (t, hi)
            step = t - g / max(0.5, 1.0 + 2.0 * mu_p * dr / r_k)
            if not lo < step < hi or (dense is None and math.isfinite(lo + hi)):
                step = 0.5 * (lo + hi)
                if step in (lo, hi) and tight:
                    break
            if abs(g) < LOOSE_G:
                loose = 0
            t, dense = step, None  # only the best shot's evaluator stays alive
    g, r_k, dense = best
    if dense is None:
        raise NoBracket(
            f"no unit-amplitude shot has {k + 1} zeros below r = {r_cap:.6g}: "
            f"no {k}-node solution for amplitudes up to {AMPLITUDE_CAP:.0e}"
        )
    if not (settled(g, r_k) or g <= RESIDUAL_GATE):
        raise NoConverge(f"mu' r_k^2 misses mu = {mu:g} by a factor exp({g:.3e}) "
                         f"when the shots run out")
    amplitude = r_k ** sigma

    def profile(r):
        vals = dense(r_k * np.asarray(r, dtype=float))
        vals[:2] *= amplitude
        vals[2:] *= amplitude * r_k
        return vals

    return amplitude, profile


def _require_subcritical(params):
    """NoBracket when p reaches the Henon critical exponent.

    For N >= 3, mu1, mu2 >= 0 and p >= 2(N+alpha)/(N-2) the Pohozaev identity
    rules out every nontrivial radial solution (Ni 1982).
    """
    crit = params.critical_exponent
    if params.f.p >= crit:
        raise NoBracket(
            f"p = {params.f.p:g} is not below the Henon critical exponent "
            f"2(N+alpha)/(N-2) = {crit:g} for N = {params.N}, alpha = {params.alpha:g}: "
            f"by the Pohozaev identity there is no nontrivial solution"
        )


def lane_emden_params(params):
    """The (M, 0) problem a mu = 0 problem maps to: dimension M = 2(N + alpha)/(2 + alpha).

    M is written N - (N - 2) alpha/(2 + alpha), exactly 2 for N = 2 and
    exactly N for alpha = 0.  Raises ValueError when mu1 or mu2 is positive.
    """
    if params.mu1 or params.mu2:
        raise ValueError("only mu = 0 problems map to a Lane-Emden problem")
    M = params.N - (params.N - 2.0) * params.alpha / (2.0 + params.alpha)
    return ProblemParams(N=M, alpha=0.0, mu1=0.0, mu2=0.0, f=params.f)


def image_params(params):
    """The image a row of ``params`` is shot, certified and counted on, by the one rule:
    ``lane_emden_params`` at mu1 = mu2 = 0, and ``params`` itself otherwise."""
    return params if params.mu1 or params.mu2 else lane_emden_params(params)


@dataclass(frozen=True)
class ImageShot:
    """k-node solution of an image problem, shared by the rows mapped from it.

    ``profile`` samples it on the uniform grid of its variable (t = r^beta,
    or r for a problem that is its own image), ``zeros`` counts the interior
    sign changes of its u on the 4x grid, and ``dense`` evaluates it
    anywhere on [0, 1].
    """

    profile: RadialProfile
    nodes: int
    zeros: int
    dense: object


def _scaled_shot(params, nodes, tol):
    """Centre values and evaluator of the k-node solution of the image of ``params``.

    The image is that of ``image_params``.  The positive branch of a
    symmetric coupled system is u = v: it is shot as the scalar problem with
    dF/du(u, u) = (a1 + b) u^3, from (1, 0), and its evaluator copies u, u'
    into v, v'.  Every other problem is shot as it is.
    """
    if nodes < 0:
        raise ValueError("nodes must be nonnegative")
    f = params.f
    synchronized = not nodes and f.family == "quartic_coupled" and f.b > 0
    if synchronized and not (f.a1 == f.a2 and params.mu1 == params.mu2):
        raise ValueError("the positive branch of a coupled system is shot on the diagonal "
                         "u = v, which needs a1 = a2 and mu1 = mu2")
    _require_subcritical(params)
    problem = image_params(params)
    ivp_tol = (1e-12, 1e-14) if problem is params else LANE_EMDEN_TOL
    if not synchronized:
        amplitude, dense = _scaling_amplitude(problem, nodes, tol, ivp_tol)
        return (amplitude, 0.0), dense
    amplitude, dense = _scaling_amplitude(replace(problem, f=pure_power(4, f.a1 + f.b)), 0,
                                          tol, ivp_tol)
    return (amplitude, amplitude), lambda r: dense(r)[[0, 0, 2, 2]]


def image_shot(params, nodes, tol=1e-10, grid_size=4000):
    """The shot of the image of ``params``, for ``mapped_profile`` and ``shoot_nodal(shot=...)``.

    One unit-amplitude shot, evaluated once on the 4x grid of ``grid_size``.
    """
    amplitude, dense = _scaled_shot(params, nodes, tol)
    profile, zeros = _sample(image_params(params), amplitude, dense, grid_size, refine=4)
    return ImageShot(profile, nodes, zeros, dense)


@dataclass(frozen=True)
class MappedProfile:
    """A mu = 0 profile held as its (M, 0) image: u(r) = c v(r^beta), with no r-grid.

    ``image`` samples v on its uniform t-grid (an ``ImageShot``'s profile,
    or a stored one).  beta = (2 + alpha)/2 and c = beta^(2/(p-2)); the
    half-line transform of u is exactly lam^(2/(p-2)) v_k(lam t) with
    lam = N/M, so a horizon T of u is lam T of the image.  The action is
    J(N, alpha) = (|S^(N-1)|/|S^(M-1)|) beta^((p+2)/(p-2)) J(image), by
    substitution.  A ``RadialProfile`` has the same interface for the
    identity map.
    """

    params: ProblemParams
    image: RadialProfile

    @property
    def beta(self):
        return 1.0 + 0.5 * self.params.alpha

    @property
    def c(self):
        return self.beta ** (2.0 / (self.params.f.p - 2.0))

    @property
    def lam(self):
        return self.params.N / self.image.params.N

    @property
    def amplitude(self):
        c, a = self.c, self.image.amplitude
        return (c * a[0], c * a[1])

    @property
    def energy(self):
        p = self.params.f.p
        return (sphere_area(self.params.N) / sphere_area(self.image.params.N)
                * self.beta ** ((p + 2.0) / (p - 2.0)) * self.image.energy)

    def image_horizon(self, T):
        """The image's horizon for the horizon T of this profile: lam T, or the default."""
        return None if T is None else self.lam * T


def mapped_profile(params, nodes, shot, tol=1e-10):
    """The profile of ``params`` with ``nodes`` zeros as the image of ``shot``, in O(1).

    A ``MappedProfile`` at mu = 0, and ``shot.profile`` itself when the
    problem is its own image.  Checked on the shot's data: the subcritical
    rule, the amplitude cap on c A, the boundary bound c |v(1)| <= tol
    (1 + c A) (a rescaled shot's u(1) is its amplitude times the unit shot's
    event location error) and the zero count of the shot's 4x grid.
    """
    image = image_params(params)
    if (shot.profile.params, shot.nodes) != (image, nodes):
        raise ValueError("the shot is of another image problem or branch")
    _require_subcritical(params)
    mapped = shot.profile if image is params else MappedProfile(params, shot.profile)
    amplitude = mapped.amplitude[0]
    if amplitude > AMPLITUDE_CAP:
        raise NoBracket(f"the {nodes}-node solution has amplitude {amplitude:.6g}, "
                        f"above {AMPLITUDE_CAP:.0e}")
    boundary = abs(mapped.c * float(shot.profile.u[-1]))
    if boundary > tol * (1.0 + amplitude):
        raise NoConverge(f"boundary value |u(1)| = {boundary:.3e} above tol (1 + amplitude) = "
                         f"{tol * (1.0 + amplitude):.3e} at amplitude {amplitude:.12g}")
    if shot.zeros != nodes:
        raise NoConverge(f"profile at amplitude {amplitude:.12g} has {shot.zeros} interior "
                         f"zeros, not {nodes}")
    return mapped


def _mapped(mapped, dense):
    """Evaluator of the mu = 0 profile ``mapped`` from the dense output of its (M, 0) image.

    u(r) = c v(r^beta) and u'(r) = c beta r^(beta-1) v'(r^beta), with beta
    and c those of the ``MappedProfile``; both are exactly 1 at alpha = 0.
    """
    beta, c = mapped.beta, mapped.c

    def profile(r):
        r = np.asarray(r, dtype=float)
        vals = dense(r ** beta)
        vals[:2] *= c
        vals[2:] *= c * beta * r ** (beta - 1.0)
        return vals

    return profile


def _shoot_branch(params, k, tol, grid_size, shot=None):
    """Profile with k interior zeros and u(1) = 0, checked before it is returned.

    The profile is mapped from ``shot``, or from ``image_shot`` when none is
    given, and checked by ``mapped_profile``.  A problem that is its own
    image (mu > 0) is the shot's profile, on the shot's grid: a given shot's
    grid is the grid of a mu > 0 profile.  Any other is sampled at the
    r-grid nodes.
    """
    if shot is None:
        shot = image_shot(params, k, tol, grid_size)
    mapped = mapped_profile(params, k, shot, tol)
    if mapped is shot.profile:
        return mapped
    return _sample(params, mapped.amplitude, _mapped(mapped, shot.dense), grid_size)[0]


def shoot_positive(params, tol=1e-10, grid_size=4000, shot=None):
    """Positive radial solution with u > 0 on [0,1) and |u(1)| <= tol (1 + u(0)).

    Scalar problems (second component identically zero) shoot on the first
    component; a symmetric coupled system (a1 = a2, mu1 = mu2) gives u = v,
    shot as its scalar reduction (``_scaled_shot``).  ``shot``, from
    ``image_shot``, is the shot of the problem's image; a problem without
    one makes its own.
    """
    return _shoot_branch(params, 0, tol, grid_size, shot)


def shoot_nodal(params, nodes, tol=1e-10, grid_size=4000, shot=None):
    """Scalar radial solution with exactly ``nodes`` interior zeros.

    |u(1)| <= tol (1 + |u(0)|), as for the positive shoot, which is nodes = 0.
    """
    return _shoot_branch(params, nodes, tol, grid_size, shot)


def shoot_system_newton(params, d0, tol=1e-10, grid_size=4000, max_iter=60):
    """Best-effort two-dimensional Newton on d -> (u(1; d), v(1; d)).

    Finite-difference Jacobian with step 1e-6 (1 + |d|), initialized from the
    caller's guess (typically the symmetric ansatz).  Raises NoConverge when
    the boundary values do not contract.
    """
    d = np.array(d0, dtype=float)

    def boundary(dd):
        dense = _integrate_dense(params, (dd[0], dd[1]), rtol=1e-12, atol=1e-12)
        return dense(1.0)[:2], dense

    for _ in range(max_iter):
        g, dense = boundary(d)
        if np.max(np.abs(g)) <= tol:
            return _sample(params, d, dense, grid_size)[0]
        J = np.empty((2, 2))
        for j in range(2):
            h = 1e-6 * (1.0 + abs(d[j]))
            dp = d.copy()
            dp[j] += h
            J[:, j] = (boundary(dp)[0] - g) / h
        try:
            step = np.linalg.solve(J, g)
        except np.linalg.LinAlgError as exc:
            raise NoConverge(f"singular shooting Jacobian: {exc}") from exc
        # damped update to keep the iteration inside the integrable range
        lam = 1.0
        for _ in range(8):
            trial = d - lam * step
            try:
                if np.max(np.abs(boundary(trial)[0])) < np.max(np.abs(g)):
                    d = trial
                    break
            except OverflowBlowUp:
                pass
            lam *= 0.5
        else:
            raise NoConverge("Newton step did not reduce the boundary defect")
    raise NoConverge(f"Newton did not reach tolerance {tol} in {max_iter} iterations")


def residual(profile):
    """Max absolute ODE defect over interior grid points, both components.

    Second derivatives are recovered by centered differences on the stored
    grid, so the defect carries an O(h^2) floor proportional to the fourth
    derivative of the solution.  For 0 < alpha < 2 the series term
    -g0 r^(2+alpha) of ``_taylor_start`` has an unbounded fourth derivative
    and would add an O(h^alpha) error at the first nodes, so near the origin,
    where that term is within sqrt(RESIDUAL_GATE) of the centre value (the
    next series term is then within the gate), it is differenced out and its
    exact second derivative added back.
    """
    return profile.residuals[0]


def relative_residual(profile):
    """Defect scaled by the size of the equation's terms (certification metric)."""
    return profile.residuals[1]


def live_components(components):
    """The tuples (y, dy, ...) whose samples y or slopes dy are not all 0 (a NaN is data)."""
    return [c for c in components if c[0].any() or c[1].any()]


def require_certified(profile):
    """DegenerateInput unless the profile is trivial or meets RESIDUAL_GATE."""
    if profile.is_trivial:
        return
    rel = relative_residual(profile)
    if not rel <= RESIDUAL_GATE:
        raise DegenerateInput(
            f"profile failed certification: relative residual "
            f"{rel:.3e} > {RESIDUAL_GATE:.1e}"
        )


def _simpson_factors(x):
    """Per-pair factors of ``simpson`` on the grid x: (n, k, f0, f1, f2, tail).

    Pair j covers x[2j], x[2j+1], x[2j+2] of the first n points (n odd) and
    contributes k_j (f0_j y[2j] + f1_j y[2j+1] + f2_j y[2j+2]); for an even
    point count, tail = (t1, t2, t3) weighs y[-1], y[-2] and -y[-3] in
    scipy's last-interval correction, and is None otherwise.
    """
    n = len(x) - 1 + len(x) % 2  # the odd count the pairs of intervals cover
    h = np.diff(x)
    h0, h1 = h[0:n - 2:2], h[1:n - 1:2]
    with np.errstate(divide="ignore", invalid="ignore"):  # spacing squared 0: inf or nan
        hsum, ratio = h0 + h1, h0 / h1
        tail = None
        if n < len(x):
            a, b = h[-2], h[-1]
            tail = ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)), (b ** 2 + 3.0 * a * b) / (6 * a),
                    b ** 3 / (6 * a * (a + b)))
        return n, hsum / 6.0, 2.0 - 1.0 / ratio, hsum * (hsum / (h0 * h1)), 2.0 - ratio, tail


def simpson_rule(x):
    """y -> ``simpson(y, x)``, with the factors of the grid x made once."""
    n, k, f0, f1, f2, tail = _simpson_factors(x)

    def integrate(y):
        total = np.sum(k * (y[0:n - 2:2] * f0 + y[1:n - 1:2] * f1 + y[2:n:2] * f2))
        if tail is not None:  # scipy's three-point correction for the last interval
            total += tail[0] * y[-1] + tail[1] * y[-2] - tail[2] * y[-3]
        return total
    return integrate


def simpson(y, x):
    """scipy.integrate.simpson(y, x=x) on 1-D samples, bit for bit (even counts included)."""
    return simpson_rule(x)(y)


def quadratic_part(profile):
    """Q = int (u'^2 + mu1 u^2 + v'^2 + mu2 v^2) over the ball (radial measure)."""
    p = profile.params
    r = profile.grid
    integrand = np.zeros_like(r)
    for y, dy, mu in live_components([(profile.u, profile.du, p.mu1),
                                      (profile.v, profile.dv, p.mu2)]):
        integrand += dy ** 2
        if mu:
            integrand += mu * y ** 2
    return float(profile.simpson(integrand * (sphere_area(p.N) * r ** (p.N - 1))))


def nonlinear_mass(profile):
    """P = int r^alpha p F(u, v) over the ball (radial measure)."""
    p = profile.params
    r = profile.grid
    weight = sphere_area(p.N) * r ** (p.N - 1)
    integrand = r ** p.alpha * p.f.p * p.f.value(profile.u, profile.v) * weight
    return float(profile.simpson(integrand))


def action_energy(profile):
    """Value of the action functional I(u, v) = Q/2 - int r^alpha F(u, v).

    The nonlinear term enters with the weight that makes nontrivial solutions
    critical points (for the scalar power family this is the usual 1/p
    normalization carried inside F).  In a dimension N that is not an
    integer (an (M, 0) image) the weight r^(N-1) is not smooth at 0 and
    costs Simpson's rule its order, so the leading term F(u(0)) r^(N-1) of
    the nonlinear integrand is integrated exactly and only the rest by Simpson.
    """
    p = profile.params
    energy = 0.5 * quadratic_part(profile) - nonlinear_mass(profile) / p.f.p
    if not float(p.N).is_integer():
        head = profile.simpson(profile.grid ** (p.N - 1.0)) - 1.0 / p.N
        energy += sphere_area(p.N) * float(p.f.value(*profile.amplitude)) * head
    return energy


def nehari_project(profile):
    """Scale t > 0 placing the profile on the Nehari manifold, and the scaled profile.

    By p-homogeneity t = (Q/P)^(1/(p-2)) where Q is the quadratic part and P
    the nonlinear mass; an exact solution returns t = 1.
    """
    if profile.is_trivial:
        raise DegenerateInput("cannot project the zero profile")
    Q = quadratic_part(profile)
    P = nonlinear_mass(profile)
    if P <= 0.0:
        raise DegenerateInput(f"nonlinear mass P = {P:.3e} is not positive")
    t = (Q / P) ** (1.0 / (profile.params.f.p - 2.0))
    return profile.scaled(t), t


def nehari_defect(profile):
    """I'(w)(w) = Q - P, zero exactly on the Nehari manifold."""
    return quadratic_part(profile) - nonlinear_mass(profile)
