"""Radial solutions of weighted superlinear problems on the unit ball.

Radial profiles of

    -u'' - (N-1) u'/r + mu1 u = r^alpha dF/du(u, v)
    -v'' - (N-1) v'/r + mu2 v = r^alpha dF/dv(u, v)

on [0, 1] with u(1) = v(1) = 0 and u'(0) = v'(0) = 0 are computed by
shooting on the center amplitude.  Integration starts from a second-order
Taylor expansion at eps = 1e-6 (the (N-1)/r term is removably singular for
regular radial data) and uses an adaptive Dormand-Prince 5(4) pair, after
which the solution is resampled onto a uniform certification grid.

With mu = 0 (both components on the diagonal ansatz) the problem is
invariant under u -> lambda^sigma u(lambda r), sigma = (2 + alpha)/(p - 2),
so one shot from unit amplitude, stopped at its (k+1)-th zero r_k, gives
the k-node amplitude r_k^sigma exactly.  With mu > 0 the interior zero
count brackets the amplitude and Illinois steps on (-1)^k u(1; d) close the
bracket to tol (1 + d) with |u(1)| <= tol.  Either way the final profile is
checked for its boundary value and node count before it is returned, and it
should be certified through ``residual`` before spectral post-processing.
For N >= 3 and p >= 2(N + alpha)/(N - 2) no solution exists (Pohozaev
identity), which is reported before any shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson, solve_ivp

from .errors import DegenerateInput, NoBracket, NoConverge, OverflowBlowUp
from .nonlinearity import NonlinearityF

EPS_ORIGIN = 1e-6
BLOWUP_GUARD = 1e12
AMPLITUDE_CAP = 1e8
RESIDUAL_GATE = 1e-5  # relative ODE defect of a certified profile


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

    Treated as immutable after construction.  ``dense`` is an optional
    evaluator r -> (u, v, du, dv) kept when the profile was produced by
    integration in this process; it is not serialized.
    """

    params: ProblemParams
    grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    amplitude: tuple
    dense: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def is_trivial(self):
        return max(abs(self.amplitude[0]), abs(self.amplitude[1])) == 0.0

    def scaled(self, t):
        """Profile multiplied by a scalar (loses the dense evaluator)."""
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


def _blowup_event():
    def event(r, y):
        return abs(y[0]) + abs(y[1]) - BLOWUP_GUARD

    event.terminal = True
    event.direction = 1
    return event


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
        _ivp_rhs(params), (eps, r_end), y0, method="RK45",
        rtol=rtol, atol=atol, dense_output=True, events=[_blowup_event(), *events],
    )
    if sol.t_events[0].size:
        raise OverflowBlowUp(
            f"|u|+|v| exceeded {BLOWUP_GUARD:.0e} at r = {sol.t[-1]:.6f} "
            f"for amplitude {d}"
        )
    if sol.status == -1:
        raise NoConverge(f"IVP integration failed: {sol.message}")

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty((4, r.size))
        small = r < eps
        if np.any(small):
            out[:, small] = _taylor_start(params, d, r[small])
        if np.any(~small):
            out[:, ~small] = sol.sol(r[~small])
        return out[:, 0] if scalar else out

    evaluate.t_events = sol.t_events[1:]
    return evaluate


def integrate_radial_ivp(params, d, grid_size=4000, rtol=1e-10, atol=1e-10):
    """Forward integration from the center with u(0) = d1, v(0) = d2, zero slope.

    No boundary condition is imposed at r = 1; the result is a shooting
    candidate sampled on the uniform certification grid.
    """
    return _sample(params, d, _integrate_dense(params, d, rtol=rtol, atol=atol), grid_size)


def _sample(params, d, dense, grid_size):
    """Profile sampled from the dense evaluator of the shot with centre values d."""
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    vals = dense(grid)
    vals[:, 0] = [d[0], d[1], 0.0, 0.0]
    return RadialProfile(
        params, grid, vals[0], vals[1], vals[2], vals[3],
        (float(d[0]), float(d[1])), dense=dense,
    )


def _sign_changes(rs, u):
    """Sign changes of u sampled on the uniform grid rs, below r = 1 - 1.5 h.

    The band keeps a zero at the boundary out of the interior count; an
    exact zero counts as positive.
    """
    sign = np.sign(u[rs < 1.0 - 1.5 * (rs[1] - rs[0])])
    sign[sign == 0] = 1.0
    return int(np.count_nonzero(np.diff(sign)))


def _shot(params, d_pair):
    """One shot: returns (boundary value u(1), interior zero count of u, evaluator).

    Blow-up before the boundary counts as infinitely many crossings and has
    no evaluator.
    """
    try:
        dense = _integrate_dense(params, d_pair, rtol=1e-12, atol=1e-12)
    except OverflowBlowUp:
        return -math.inf, 10 ** 6, None
    rs = np.linspace(EPS_ORIGIN, 1.0, 2000)
    u = dense(rs)[0]
    return float(u[-1]), _sign_changes(rs, u), dense


def _amplitude_shot(params, k, tol, diagonal=False):
    """k-node amplitude and the evaluator of its shot, bracketed on the zero count.

    Below the root a shot has k interior zeros and g(d) = (-1)^k u(1; d) > 0;
    above it the (k+1)-th zero shows in the count or, next to r = 1, in g < 0.
    While the low end has k zeros and the high end k or k+1 with g < 0, g is
    continuous with one sign change and steps are Illinois (regula falsi that
    halves the weight of an end kept twice); otherwise they bisect.  Stops when
    the bracket is below tol (1 + d) and the best k-zero shot has |u(1)| <= tol.
    """
    parity = 1.0 if k % 2 == 0 else -1.0

    def shot(d):
        return _shot(params, (d, d) if diagonal else (d, 0.0))

    def crossed(bv, z):
        if z > k:
            return True
        return z == k and parity * bv < 0.0

    d_lo = max(tol, 1e-6)
    bv_lo, z_lo, _ = shot(d_lo)
    shrink = 0
    while crossed(bv_lo, z_lo) and shrink < 40:
        d_lo /= 4.0
        bv_lo, z_lo, _ = shot(d_lo)
        shrink += 1
    if crossed(bv_lo, z_lo):
        raise NoBracket("discriminator already crossed at the smallest amplitude")

    d_hi = max(1.0, 2 * d_lo)
    bv_hi, z_hi, _ = shot(d_hi)
    while not crossed(bv_hi, z_hi):
        d_lo, bv_lo, z_lo = d_hi, bv_hi, z_hi
        d_hi *= 2.0
        if d_hi > AMPLITUDE_CAP:
            raise NoBracket(
                f"no sign change of the shooting discriminator for "
                f"amplitudes up to {AMPLITUDE_CAP:.0e}"
            )
        bv_hi, z_hi, _ = shot(d_hi)
    genuine_crossing = math.isfinite(bv_hi)

    g_lo, g_hi = parity * bv_lo, parity * bv_hi  # Illinois weights of the ends
    kept = 0  # end kept by the last step: +1 low, -1 high
    best = None
    for _ in range(300):
        illinois = z_lo == k and z_hi - k in (0, 1) and g_hi < 0.0
        d = d_lo + g_lo * (d_hi - d_lo) / (g_lo - g_hi) if illinois else d_lo
        if not d_lo < d < d_hi:  # a bisection step, or a secant point lost to rounding
            d = 0.5 * (d_lo + d_hi)
        bv, z, dense = shot(d)
        if crossed(bv, z):
            g_lo *= 0.5 if kept == 1 else 1.0
            d_hi, g_hi, z_hi, kept = d, parity * bv, z, 1
            genuine_crossing |= math.isfinite(bv)
        else:
            g_hi *= 0.5 if kept == -1 else 1.0
            d_lo, g_lo, z_lo, kept = d, parity * bv, z, -1
        # both sides carry k interior zeros close to the root
        if z == k and (best is None or abs(bv) < best[1]):
            best = (d, abs(bv), dense)
        if (d_hi - d_lo) <= 4e-16 * d or (
                (d_hi - d_lo) <= tol * (1.0 + d) and best is not None and best[1] <= tol):
            break
    if best is None or (not genuine_crossing and best[1] > tol):
        # the only "crossings" seen were integration breakdowns, not boundary
        # zeros: there is no solution branch below the validity limit
        raise NoBracket(
            "no boundary crossing below the series-start validity limit "
            "(parameters outside the solvable regime)"
        )
    amplitude, boundary, dense = best
    if boundary > tol:
        raise NoConverge(
            f"boundary value {boundary:.3e} above tolerance {tol:.1e} "
            f"after exhausting the amplitude bracket"
        )
    return amplitude, dense


def _scaling_amplitude(params, k, diagonal=False):
    """Exact k-node amplitude for mu = 0 from one unit-amplitude shot.

    With mu = 0 and a p-homogeneous F, u_lam(r) = lam^sigma u(lam r) with
    sigma = (2 + alpha)/(p - 2) solves the equation whenever u does.  If u
    starts at 1 and has its (k+1)-th zero at r_k, then u_lam with lam = r_k
    has k interior zeros, vanishes at r = 1 and starts at r_k^sigma.  The
    shot stops at r_cap = AMPLITUDE_CAP^(1/sigma), so a missing zero means no
    amplitude up to the cap works, as for the zero-count bracket.
    """
    sigma = (2.0 + params.alpha) / (params.f.p - 2.0)
    r_cap = AMPLITUDE_CAP ** (1.0 / sigma)

    def zero(r, y):
        return y[0]

    zero.terminal = k + 1
    try:
        dense = _integrate_dense(params, (1.0, 1.0 if diagonal else 0.0),
                                 rtol=1e-12, atol=1e-12, r_end=r_cap, events=[zero])
    except OverflowBlowUp as exc:
        raise NoBracket(f"the unit-amplitude shot blew up: {exc}") from exc
    zeros = dense.t_events[0]
    if zeros.size <= k:
        raise NoBracket(
            f"the unit-amplitude shot has {zeros.size} zeros below r = {r_cap:.6g}: "
            f"no {k}-node solution for amplitudes up to {AMPLITUDE_CAP:.0e}"
        )
    return float(zeros[k]) ** sigma


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


def _shoot_branch(params, k, tol, grid_size, diagonal):
    """Profile with k interior zeros and u(1) = 0, checked before it is returned."""
    _require_subcritical(params)
    if params.mu1 == 0.0 and (params.mu2 == 0.0 or not diagonal):
        amplitude, dense = _scaling_amplitude(params, k, diagonal), None
    else:
        amplitude, dense = _amplitude_shot(params, k, tol, diagonal)
    d = (amplitude, amplitude if diagonal else 0.0)
    profile = _sample(params, d, dense or _integrate_dense(params, d, rtol=1e-12, atol=1e-12),
                      grid_size)
    boundary = abs(float(profile.u[-1]))
    if boundary > tol:
        raise NoConverge(
            f"boundary value |u(1)| = {boundary:.3e} above tolerance {tol:.1e} "
            f"at amplitude {amplitude:.12g}"
        )
    zeros = count_interior_zeros(profile, refine=4)
    if zeros != k:
        raise NoConverge(
            f"profile at amplitude {amplitude:.12g} has {zeros} interior zeros, not {k}"
        )
    return profile


def shoot_positive(params, tol=1e-10, grid_size=4000):
    """Positive radial solution with u > 0 on [0,1) and u(1) = 0 within tol.

    Scalar problems (second component identically zero) shoot on the first
    component; symmetric systems (a1 = a2, mu1 = mu2) use the diagonal ansatz
    u = v, which reduces to a scalar shoot.
    """
    diagonal = False
    if params.f.family == "quartic_coupled" and params.f.b > 0:
        # coupled system: only the symmetric diagonal ansatz is supported here
        if not (params.f.a1 == params.f.a2 and params.mu1 == params.mu2):
            raise ValueError(
                "shoot_positive handles scalar problems or symmetric systems; "
                "use shoot_system_newton for general systems"
            )
        diagonal = True
    return _shoot_branch(params, 0, tol, grid_size, diagonal)


def shoot_nodal(params, nodes, tol=1e-10, grid_size=4000):
    """Scalar radial solution with exactly ``nodes`` interior zeros.

    nodes = 0 delegates to the positive shoot.
    """
    if nodes < 0:
        raise ValueError("nodes must be nonnegative")
    if nodes == 0:
        return shoot_positive(params, tol=tol, grid_size=grid_size)
    return _shoot_branch(params, nodes, tol, grid_size, diagonal=False)


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
            return _sample(params, d, dense, grid_size)
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


def count_interior_zeros(profile, refine=1):
    """Sign changes of u strictly inside (0, 1), on an optionally refined grid."""
    if profile.dense is not None and refine > 1:
        rs = np.linspace(EPS_ORIGIN, 1.0, refine * (len(profile.grid) - 1) + 1)
        return _sign_changes(rs, profile.dense(rs)[0])
    return _sign_changes(profile.grid[1:], profile.u[1:])


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
