"""Radial solutions of weighted superlinear problems on the unit ball.

Radial profiles of

    -u'' - (N-1) u'/r + mu1 u = r^alpha dF/du(u, v)
    -v'' - (N-1) v'/r + mu2 v = r^alpha dF/dv(u, v)

on [0, 1] with u(1) = v(1) = 0 and u'(0) = v'(0) = 0 are computed by
shooting from the center.  Integration starts from a second-order Taylor
expansion at eps = 1e-6 (the (N-1)/r term is removably singular for regular
radial data) and uses the adaptive Dormand-Prince 8(5,3) pair (DOP853), the
one integrator of every radial IVP.  Each shot's dense output is evaluated
once per profile, on the uniform certification grid with three points
interleaved in each cell: the profile keeps the grid nodes, and the
interior-zero check reads every point of the 4x grid, in one vectorized
``dop853_evaluator`` pass, bit for bit scipy's ``OdeSolution``.

The paper's scaling u -> lam^sigma u(lam r), sigma = (2 + alpha)/(p - 2),
maps solutions with mu to solutions with lam^2 mu, so every shot starts at
unit amplitude (on the diagonal ansatz for symmetric systems) and stops at
its (k+1)-th zero r_k; lam = r_k turns it into the k-node profile for
mu = mu' r_k^2 with amplitude r_k^sigma, with no second integration.  With
mu > 0, Illinois steps in log mu' solve mu' r_k^2 = mu.

With mu = 0 a second change of variables removes alpha: t = r^beta,
beta = (2 + alpha)/2, turns the problem in dimension N into the Lane-Emden
problem -v'' - (M-1) v'/t = dF(v) in the dimension M = 2(N + alpha)/(2 + alpha),
with u(r) = beta^(2/(p-2)) v(r^beta) (Gladiali, Grossi, Neves, Adv. Math.
2013).  So every mu = 0 profile is mapped from one (M, 0) shot
(``lane_emden_shot``); for N = 2, M = 2 at every alpha.  A sweep shoots once
per (M, F, branch), counts the zeros once on the shot's 4x t-grid (the map
sends zeros one to one) and evaluates the shot once per row, on the row's
own r-grid; a lone profile counts its zeros on its own 4x grid.  With
mu > 0 the map leaves a weight singular at t = 0, so those rows shoot in r.

The final profile is checked for its boundary value, relative to its
amplitude, and its node count before it is returned, and it should be
certified through ``residual`` before spectral post-processing.  For N >= 3
and p >= 2(N + alpha)/(N - 2) = 2M/(M - 2) no solution exists (Pohozaev
identity), which is reported before any shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

from .errors import DegenerateInput, NoBracket, NoConverge, OverflowBlowUp
from .gates import RESIDUAL_GATE
from .nonlinearity import NonlinearityF

EPS_ORIGIN = 1e-6
BLOWUP_GUARD = 1e12
AMPLITUDE_CAP = 1e8
# (rtol, atol) of an (M, 0) shot: the map multiplies u by beta^(2/(p-2)) and
# u' by a further beta r^(beta-1), so it runs ten times tighter than an r-shot
LANE_EMDEN_TOL = (1e-13, 1e-15)


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

    Treated as immutable after construction.  These arrays are the whole
    profile: a saved and reloaded copy is the same data.
    """

    params: ProblemParams
    grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    amplitude: tuple

    @property
    def is_trivial(self):
        return max(abs(self.amplitude[0]), abs(self.amplitude[1])) == 0.0

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


def _ivp_rhs(params):
    f = params.f
    N, a = params.N, params.alpha
    mu1, mu2 = params.mu1, params.mu2

    def rhs(r, y):
        u, v, du, dv = y
        fu, fv = f.grad(u, v)
        w = r ** a
        return (
            du,
            dv,
            -(N - 1.0) * du / r + mu1 * u - w * fu,
            -(N - 1.0) * dv / r + mu2 * v - w * fv,
        )

    return rhs


def blowup_event():
    """Terminal event: |u| + |v| crosses BLOWUP_GUARD upward."""
    def event(r, y):
        return abs(y[0]) + abs(y[1]) - BLOWUP_GUARD

    event.terminal = True
    event.direction = 1
    return event


def dop853_evaluator(sol):
    """Vectorized evaluator of the DOP853 ``OdeSolution`` sol, equal to sol(t) bit for bit.

    The steps are stacked once; points then take one searchsorted, with the
    segment choice of ``OdeSolution.__call__``, and the multiply-adds of
    ``Dop853DenseOutput`` in its order.  Raises TypeError for other methods.
    """
    steps = sol.interpolants
    if not all(type(step) is Dop853DenseOutput for step in steps):
        raise TypeError("dop853_evaluator needs a DOP853 dense output")
    t_old, h = np.array([(step.t_old, step.h) for step in steps]).T
    y_old = np.array([step.y_old for step in steps])
    F = np.array([step.F[::-1] for step in steps])  # highest power first

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(sol.ts_sorted, t, side=sol.side) - 1, 0, len(steps) - 1)
        if not sol.ascending:
            seg = len(steps) - 1 - seg
        x = ((t - t_old[seg]) / h[seg])[..., None]
        y = np.zeros(t.shape + y_old.shape[1:])
        for i in range(F.shape[1]):
            y += F[seg, i]
            y *= x if i % 2 == 0 else 1 - x
        return np.moveaxis(y + y_old[seg], -1, 0)

    return evaluate


def _integrate_dense(params, d, rtol=1e-10, atol=1e-10, eps=EPS_ORIGIN,
                     r_end=1.0, events=()):
    """Adaptive integration of the IVP; returns a dense evaluator on [0, r_end].

    ``events`` are extra solve_ivp events; the radii where they fired are kept
    on the evaluator as ``t_events``, and a terminal one ends the integration
    there.  Raises OverflowBlowUp when the guard triggers first.
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
    sol = solve_ivp(
        _ivp_rhs(params), (eps, r_end), y0, method="DOP853",
        rtol=rtol, atol=atol, dense_output=True, events=[blowup_event(), *events],
    )
    if sol.t_events[0].size:
        raise OverflowBlowUp(
            f"|u|+|v| exceeded {BLOWUP_GUARD:.0e} at r = {sol.t[-1]:.6f} "
            f"for amplitude {d}"
        )
    if sol.status == -1:
        raise NoConverge(f"IVP integration failed: {sol.message}")
    dense = dop853_evaluator(sol.sol)

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty((4, r.size))
        small = r < eps
        if np.any(small):
            out[:, small] = _taylor_start(params, d, r[small])
        if np.any(~small):
            out[:, ~small] = dense(r[~small])
        return out[:, 0] if scalar else out

    evaluate.t_events = sol.t_events[1:]
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


def _scaling_amplitude(params, k, tol, diagonal=False, ivp_tol=(1e-12, 1e-14)):
    """k-node amplitude and profile evaluator, scaled from unit-amplitude shots.

    For mu > 0, g(t) = log(mu' r_k^2 / mu) = 0 is solved in t = log mu' from
    the mu' = 0 shot, by secant steps until the root is bracketed and Illinois
    steps after, until the amplitude error, at most (sigma/2) |g| r_k^sigma
    while r_k grows with mu', is within tol (1 + amplitude).  If the shots run
    out first (mu' resolved to its last bit: the sensitivity to mu' grows like
    e^sqrt(mu)), the best shot is kept if its mu mismatch |g| is within
    RESIDUAL_GATE.

    Shots stop at r_cap = AMPLITUDE_CAP^(1/sigma), and those with mu' > 0
    also at 2 sqrt(mu/mu'), since a later zero puts mu' r_k^2 above 4 mu.  A
    shot without the zero counts as one at its end: above the root, or, at
    r_cap, below the mu' = mu/r_cap^2 where any root with an amplitude up to
    the cap lies.  Converging on such a shot means no amplitude up to the cap.
    ``ivp_tol`` is the shots' (rtol, atol).
    """
    sigma = (2.0 + params.alpha) / (params.f.p - 2.0)
    r_cap = AMPLITUDE_CAP ** (1.0 / sigma)
    mu = params.mu1

    def zero(r, y):
        return y[0]

    zero.terminal = k + 1

    def shot(mu_p, r_end):
        """(r_k, evaluator) of the unit shot with mu'; (r_end, None) without the zero."""
        # atol = rtol / 100, that of a shot at amplitude 100: this shot is
        # scaled up to the profile, and a looser one adds noise to residual
        try:
            dense = _integrate_dense(replace(params, mu1=mu_p, mu2=mu_p),
                                     (1.0, 1.0 if diagonal else 0.0), *ivp_tol,
                                     r_end=r_end, events=[zero])
        except OverflowBlowUp:
            return r_end, None
        zeros = dense.t_events[0]
        return (float(zeros[k]), dense) if zeros.size > k else (r_end, None)

    def settled(g, r_k):
        return sigma * g * r_k ** sigma <= 2.0 * tol * (1.0 + r_k ** sigma)

    best = (0.0 if mu == 0.0 else math.inf, *shot(0.0, r_cap))  # (|g|, r_k, evaluator)
    if mu > 0.0 and best[2] is not None:
        t = math.log(mu / best[1] ** 2)
        ends, last = {}, 0  # [t, g] of the ends below (-1) and above (+1) the root
        prev = here = None  # (t, g) of the last two shots, None for one without the zero
        for _ in range(100):
            mu_p = math.exp(t)
            r_k, dense = shot(mu_p, min(r_cap, 2.0 * math.sqrt(mu / mu_p)))
            g = math.log(mu_p * r_k * r_k / mu)
            best = min(best, (abs(g), r_k, dense), key=lambda b: b[0])
            prev, here = here, (t, g) if dense is not None else None
            dense = None  # only the best shot's evaluator stays alive
            if settled(*best[:2]):
                break
            side = 1 if g > 0.0 else -1
            if side == last and -side in ends:  # the other end kept twice: halve its weight
                ends[-side][1] *= 0.5
            ends[side], last = [t, g], side
            if len(ends) < 2:
                # secant through the last two shots when both found the zero,
                # else a unit slope, as g rises like t where r_k barely moves
                slope = (g - prev[1]) / (t - prev[0]) if prev and here else 1.0
                t -= g / (slope if slope > 0.0 else 1.0)
                continue
            (t0, g0), (t1, g1) = ends[-1], ends[1]
            t = t0 - g0 * (t1 - t0) / (g1 - g0)
            if not min(t0, t1) < t < max(t0, t1):
                t = 0.5 * (t0 + t1)
                if t in (t0, t1):
                    break
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


@dataclass(frozen=True)
class LaneEmdenShot:
    """k-node solution of an (M, 0) problem, shared by the mu = 0 rows mapped from it.

    ``profile`` samples it on the uniform t-grid, ``zeros`` counts the
    interior sign changes of its u on the 4x t-grid, and ``dense`` evaluates
    it anywhere on [0, 1].
    """

    profile: RadialProfile
    nodes: int
    zeros: int
    dense: object


def _diagonal(params, nodes):
    """Whether the shot runs on the diagonal u = v: the positive branch of a coupled system."""
    if nodes < 0:
        raise ValueError("nodes must be nonnegative")
    f = params.f
    if nodes or not (f.family == "quartic_coupled" and f.b > 0):
        return False
    if not (f.a1 == f.a2 and params.mu1 == params.mu2):
        raise ValueError("the positive branch of a coupled system is shot on the diagonal "
                         "u = v, which needs a1 = a2 and mu1 = mu2")
    return True


def lane_emden_shot(params, nodes, tol=1e-10, grid_size=4000):
    """The (M, 0) shot behind the mu = 0 problem ``params``, for ``shoot_nodal(shot=...)``.

    One unit-amplitude shot, evaluated once on the 4x t-grid of ``grid_size``.
    """
    diagonal = _diagonal(params, nodes)
    _require_subcritical(params)
    image = lane_emden_params(params)
    amplitude, dense = _scaling_amplitude(image, nodes, tol, diagonal, LANE_EMDEN_TOL)
    profile, zeros = _sample(image, (amplitude, amplitude if diagonal else 0.0), dense,
                             grid_size, refine=4)
    return LaneEmdenShot(profile, nodes, zeros, dense)


def _mapped(params, amplitude, dense):
    """Amplitude and evaluator of the mu = 0 profile mapped from its (M, 0) image.

    u(r) = c v(r^beta) and u'(r) = c beta r^(beta-1) v'(r^beta), with
    beta = (2 + alpha)/2 and c = beta^(2/(p-2)); both factors are exactly 1
    at alpha = 0.
    """
    beta = 1.0 + 0.5 * params.alpha
    c = beta ** (2.0 / (params.f.p - 2.0))

    def profile(r):
        r = np.asarray(r, dtype=float)
        vals = dense(r ** beta)
        vals[:2] *= c
        vals[2:] *= c * beta * r ** (beta - 1.0)
        return vals

    return c * amplitude, profile


def _shoot_branch(params, k, tol, grid_size, shot=None):
    """Profile with k interior zeros and u(1) = 0, checked before it is returned.

    mu = 0 profiles are mapped from ``shot``, or from a fresh (M, 0) shot
    when none is given.  The zeros are counted on the 4x grid of the
    profile's one evaluation, or taken from the shot's 4x t-grid.  A
    rescaled profile's u(1) is its amplitude times the unit shot's event
    location error, so the boundary bound is tol (1 + amplitude).
    """
    diagonal = _diagonal(params, k)
    _require_subcritical(params)
    zeros = None
    if params.mu1 or params.mu2:
        amplitude, dense = _scaling_amplitude(params, k, tol, diagonal)
    else:
        image = lane_emden_params(params)
        if shot is None:
            amplitude, dense = _scaling_amplitude(image, k, tol, diagonal, LANE_EMDEN_TOL)
        elif (shot.profile.params, shot.nodes) == (image, k):
            amplitude, dense, zeros = shot.profile.amplitude[0], shot.dense, shot.zeros
        else:
            raise ValueError("the shot maps to another dimension, coupling or branch")
        amplitude, dense = _mapped(params, amplitude, dense)
        if amplitude > AMPLITUDE_CAP:
            raise NoBracket(f"the {k}-node solution has amplitude {amplitude:.6g}, "
                            f"above {AMPLITUDE_CAP:.0e}")
    profile, counted = _sample(params, (amplitude, amplitude if diagonal else 0.0), dense,
                               grid_size, refine=4 if zeros is None else 1)
    zeros = counted if zeros is None else zeros
    boundary = abs(float(profile.u[-1]))
    if boundary > tol * (1.0 + amplitude):
        raise NoConverge(
            f"boundary value |u(1)| = {boundary:.3e} above tol (1 + amplitude) = "
            f"{tol * (1.0 + amplitude):.3e} at amplitude {amplitude:.12g}"
        )
    if zeros != k:
        raise NoConverge(
            f"profile at amplitude {amplitude:.12g} has {zeros} interior zeros, not {k}"
        )
    return profile


def shoot_positive(params, tol=1e-10, grid_size=4000, shot=None):
    """Positive radial solution with u > 0 on [0,1) and |u(1)| <= tol (1 + u(0)).

    Scalar problems (second component identically zero) shoot on the first
    component; symmetric systems (a1 = a2, mu1 = mu2) use the diagonal ansatz
    u = v, which reduces to a scalar shoot.  ``shot``, from
    ``lane_emden_shot``, is the (M, 0) shot a mu = 0 problem maps from.
    """
    return _shoot_branch(params, 0, tol, grid_size, shot)


def shoot_nodal(params, nodes, tol=1e-10, grid_size=4000, shot=None):
    """Scalar radial solution with exactly ``nodes`` interior zeros.

    |u(1)| <= tol (1 + |u(0)|), as for the positive shoot; nodes = 0
    delegates to it.
    """
    if nodes == 0:
        return shoot_positive(params, tol=tol, grid_size=grid_size, shot=shot)
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
        near = (0.0 < a < 2.0) & (np.abs(s[1:-1]) <= math.sqrt(RESIDUAL_GATE) * abs(d))
        z = y - s
        d2 = np.where(near, (z[2:] - 2.0 * z[1:-1] + z[:-2]) / (h * h) + s2,
                      (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (h * h))
        ri = r[1:-1]
        defect = -d2 - (N - 1.0) * dy[1:-1] / ri + mu * y[1:-1] - w[1:-1] * g[1:-1]
        out = max(out, float(np.max(np.abs(defect))))
    return out


def relative_residual(profile):
    """Defect scaled by the size of the equation's terms (certification metric)."""
    p = profile.params
    fu, fv = p.f.grad(profile.u, profile.v)
    w = profile.grid ** p.alpha
    scale = 1.0 + max(
        float(np.max(np.abs(w * fu))), float(np.max(np.abs(w * fv))),
        p.mu1 * float(np.max(np.abs(profile.u))),
        p.mu2 * float(np.max(np.abs(profile.v))),
    )
    return residual(profile) / scale


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


def quadratic_part(profile):
    """Q = int (u'^2 + mu1 u^2 + v'^2 + mu2 v^2) over the ball (radial measure)."""
    p = profile.params
    r = profile.grid
    weight = sphere_area(p.N) * r ** (p.N - 1)
    integrand = (
        profile.du ** 2 + p.mu1 * profile.u ** 2
        + profile.dv ** 2 + p.mu2 * profile.v ** 2
    ) * weight
    return float(simpson(integrand, x=r))


def nonlinear_mass(profile):
    """P = int r^alpha p F(u, v) over the ball (radial measure)."""
    p = profile.params
    r = profile.grid
    weight = sphere_area(p.N) * r ** (p.N - 1)
    integrand = r ** p.alpha * p.f.p * p.f.value(profile.u, profile.v) * weight
    return float(simpson(integrand, x=r))


def action_energy(profile):
    """Value of the action functional I(u, v) = Q/2 - int r^alpha F(u, v).

    The nonlinear term enters with the weight that makes nontrivial solutions
    critical points (for the scalar power family this is the usual 1/p
    normalization carried inside F).
    """
    return 0.5 * quadratic_part(profile) - nonlinear_mass(profile) / profile.params.f.p


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
