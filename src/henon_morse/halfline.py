"""Half-line transform of radial profiles and the associated stability tools.

The change of variables r = exp(-beta t) with beta = N/(N+alpha) and the
scaling kappa = beta^(2/(p-2)) map a radial pair on (0, 1] to

    u_k(t) = kappa * u(exp(-beta t)),   t in [0, infinity),

which solves

    -(e^(-gamma t) u_k')' + beta^2 mu1 e^(-beta N t) u_k = e^(-N t) dF/du(u_k, v_k)

with gamma = (N-2) beta and u_k(0) = 0 (image of the Dirichlet condition).
Profiles are truncated at a horizon T (default 30/beta, far below every
quadrature tolerance).

Also implemented here: the boundary-derivative estimate

    u'(0)^2 + v'(0)^2 >= (2(N+gamma)/p) * int ((e^(-gamma t) u)')^2 + ...,

which is an identity when mu1 = mu2 = 0 (a sharp pipeline check), the
associated amplitude lower bound with its explicit constant chain, the
stability quadratic form Q_k of the transformed linearization (``eval_Qk``
on any sampled pair, ``qk_probe`` on random smooth bumps, each integral
taken over the bump's support only), and the weighted half-line
eigenproblem that converts a negative Q_k value into a negative eigenvalue
with eigenfunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HypothesisViolated, MeshTooCoarse
from .gates import IDENTITY_GATE, POHOZAEV_GATE, RESIDUAL_GATE, TRANSFORMED_GATE
from .nonlinearity import NonlinearityF
from .pencil import flux_pencil, lowest_eigenpair
from .radial_bvp import ProblemParams, relative_residual, simpson, simpson_weights

DEFAULT_HORIZON_SCALE = 30.0


@dataclass
class TransformedProfile:
    """A transformed pair sampled on a uniform t-grid over [0, T]."""

    params: ProblemParams
    beta: float
    gamma: float
    tgrid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray

    @property
    def alpha(self):
        return self.params.alpha

    @property
    def T(self):
        return float(self.tgrid[-1])

    @property
    def kappa(self):
        return self.beta ** (2.0 / (self.params.f.p - 2.0))

    @cached_property
    def potential(self):
        """``stability_potential`` of this transform, built on first use."""
        return stability_potential(self)


@dataclass
class MatrixPotential:
    """Symmetric 2x2 potential sampled on a t-grid."""

    tgrid: np.ndarray
    m11: np.ndarray
    m12: np.ndarray
    m22: np.ndarray


@dataclass
class PohozaevCheck:
    """Both sides of the boundary-derivative estimate plus the truncation band."""

    lhs: float
    rhs: float
    tail_band: float

    @property
    def slack(self):
        return self.lhs - self.rhs


def beta_of(N, alpha):
    return N / (N + alpha)


def gamma_of(N, alpha):
    return (N - 2.0) * beta_of(N, alpha)


def transform_profile(profile, T=None, grid_size=None):
    """Half-line image of a radial profile on a uniform t-grid.

    The profile is read at r = exp(-beta t) through the cubic Hermite
    interpolant of its stored grid and exact slopes, so a saved and reloaded
    profile transforms to the same arrays, and no step uses the equation the
    residual checks.  The cubic and its derivative are evaluated as scipy's
    ``CubicHermiteSpline`` does (PPoly's interval choice, coefficients and
    term order), bit for bit.  Derivatives: du_k/dt = -kappa beta r u'(r).
    """
    p = profile.params
    beta = beta_of(p.N, p.alpha)
    kappa = beta ** (2.0 / (p.f.p - 2.0))
    if T is None:
        T = DEFAULT_HORIZON_SCALE / beta
    if not 0.0 < T < math.inf:
        raise ValueError("horizon T must be a finite number above 0")
    if grid_size is None:
        grid_size = len(profile.grid) - 1
    t = np.linspace(0.0, T, grid_size + 1)
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
    return TransformedProfile(p, beta, gamma_of(p.N, p.alpha), t, kappa * u, kappa * v,
                              -kappa * beta * r * dur, -kappa * beta * r * dvr)


def inverse_transform(tp):
    """Undo the transform algebraically at the grid images r_j = exp(-beta t_j).

    Returns (r, u, v, du, dv) in ascending r order; no resampling is
    involved, so round-trip errors reflect data accuracy only.
    """
    beta, kappa = tp.beta, tp.kappa
    r = np.exp(-beta * tp.tgrid)
    u = tp.u / kappa
    v = tp.v / kappa
    du = -tp.du / (kappa * beta * r)
    dv = -tp.dv / (kappa * beta * r)
    order = np.argsort(r)
    return r[order], u[order], v[order], du[order], dv[order]


def transformed_residual(tp):
    """Max-norm defect of both transformed equations over interior grid points.

    The divergence term is expanded to e^(-gamma t)(-u'' + gamma u'); second
    derivatives come from the sixth-order centered seven-point stencil.  The
    stored first derivatives are chain-rule exact, so the stencil truncation
    near t = 0 (where the boundary layer of the source profile lives)
    dominates the defect; the high-order stencil keeps it below quadrature
    tolerances at the default grid.
    """
    p = tp.params
    t = tp.tgrid
    if len(t) < 8:
        raise ValueError("transformed grid too small for the interior stencil")
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


def stability_potential(tp):
    """U_k(t) = e^(-Nt) D2F(u_k, v_k) - beta^2 e^(-beta N t) diag(mu1, mu2)."""
    p = tp.params
    t = tp.tgrid
    en = np.exp(-p.N * t)
    ebn = np.exp(-tp.beta * p.N * t)
    b2 = tp.beta ** 2
    fuu, fuv, fvv = p.f.hess(tp.u, tp.v)
    return MatrixPotential(
        tgrid=t,
        m11=en * fuu - b2 * ebn * p.mu1,
        m12=en * fuv,
        m22=en * fvv - b2 * ebn * p.mu2,
    )


def eval_Qk(tp, lam, phi, dphi=None):
    """Quadrature value of the stability form Q_k on a sampled test pair.

    Q_k(phi) = int e^(-gamma t)|phi'|^2 + lam beta^2 e^(-gamma t)|phi|^2
               - <U_k phi, phi> dt,

    with lam the angular eigenvalue of the sector under test.  phi is a pair
    of arrays on tp.tgrid vanishing at the ends of its support; derivatives
    are taken from dphi when provided, centered differences otherwise.
    """
    phi1, phi2 = np.asarray(phi[0], dtype=float), np.asarray(phi[1], dtype=float)
    t = tp.tgrid
    if dphi is None:
        dphi1, dphi2 = np.gradient(phi1, t), np.gradient(phi2, t)
    else:
        dphi1, dphi2 = dphi
    U = tp.potential
    eg = np.exp(-tp.gamma * t)
    quad = (
        eg * (dphi1 ** 2 + dphi2 ** 2)
        + lam * tp.beta ** 2 * eg * (phi1 ** 2 + phi2 ** 2)
        - (U.m11 * phi1 ** 2 + 2.0 * U.m12 * phi1 * phi2 + U.m22 * phi2 ** 2)
    )
    return float(simpson(quad, t))


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


def qk_probe(tp, lam, rng):
    """Q_k at 100 random pairs (c1 phi, c2 phi), phi a ``smooth_bump``: ``eval_Qk``'s values.

    Each probe draws from ``rng`` its support (a, b), a uniform in [0, 0.6 T]
    and b - a uniform in [min(0.5, 0.2 T), 0.2 T], cut at T, then c1 and c2
    uniform in [-1, 1].  With the Simpson integrals a = int e^(-gamma t)
    phi'^2, b = int e^(-gamma t) phi^2 and s_ij = int U_ij phi^2,

        Q_k(c1 phi, c2 phi) = (c1^2 + c2^2)(a + lam beta^2 b)
                              - c1^2 s11 - 2 c1 c2 s12 - c2^2 s22.

    Each integral is one dot product over the bump's support, with weight
    vectors (``simpson_weights`` times e^(-gamma t) or U_ij) made once.
    """
    t, T, U = tp.tgrid, tp.T, tp.potential
    c = simpson_weights(t)
    ce, c11, c12, c22 = c * np.exp(-tp.gamma * t), c * U.m11, c * U.m12, c * U.m22
    shift = lam * tp.beta ** 2
    out = np.empty(100)
    for i in range(100):
        a = rng.uniform(0.0, 0.6 * T)
        # lengths in [0.5, 0.2 T]; all 0.2 T on a horizon below 2.5
        b = min(a + rng.uniform(min(0.5, 0.2 * T), 0.2 * T), T)
        c1, c2 = rng.uniform(-1.0, 1.0, 2)
        support = slice(np.searchsorted(t, a, side="right"), np.searchsorted(t, b))
        phi, dphi = smooth_bump(t[support], a, b)
        phi2 = phi * phi
        out[i] = ((c1 * c1 + c2 * c2) * (ce[support] @ (dphi * dphi) + shift * (ce[support] @ phi2))
                  - c1 * c1 * (c11[support] @ phi2) - 2.0 * c1 * c2 * (c12[support] @ phi2)
                  - c2 * c2 * (c22[support] @ phi2))
    return out


def pohozaev_check(tp):
    """Both sides of the boundary-derivative estimate, with truncation band.

    lhs = u'(0)^2 + v'(0)^2, rhs = (2(N+gamma)/p) int_0^T g(t) dt with
    g = ((e^(-gamma t) u)')^2 + ((e^(-gamma t) v)')^2.  The tail beyond T is
    bounded by g's exponential decay envelope and reported as a band.  For
    mu1 = mu2 = 0 the two sides agree exactly.
    """
    p = tp.params
    rho = tp.beta * p.N
    if p.N < 0.5 * p.f.p * rho + 0.5 * (p.f.p - 2.0) * tp.gamma - 1e-12:
        raise HypothesisViolated(
            f"exponent condition N >= p rho/2 + (p-2) gamma/2 fails: "
            f"N={p.N}, rho={rho:.4f}, gamma={tp.gamma:.4f}, p={p.f.p}"
        )
    t = tp.tgrid
    eg = np.exp(-tp.gamma * t)
    g = (eg * (tp.du - tp.gamma * tp.u)) ** 2 + (eg * (tp.dv - tp.gamma * tp.v)) ** 2
    factor = 2.0 * (p.N + tp.gamma) / p.f.p
    rhs = factor * float(simpson(g, t))
    lhs = float(tp.du[0] ** 2 + tp.dv[0] ** 2)

    # tail envelope: fit the decay rate over the last decade of samples
    tail = 0.0
    g_end = float(g[-1])
    if g_end > 1e-280:
        m = max(len(t) // 10, 8)
        gt = g[-m:]
        tt = t[-m:]
        pos = gt > 1e-280
        if np.count_nonzero(pos) >= 4:
            slope = np.polyfit(tt[pos], np.log(gt[pos]), 1)[0]
            tail = g_end / (-slope) if slope < -1e-12 else g_end * tp.T
        else:
            tail = g_end * tp.T
    return PohozaevCheck(lhs=lhs, rhs=rhs, tail_band=factor * tail)


def pohozaev_record(tp):
    """``pohozaev_check`` as a JSON record, or {"skipped": reason} off its hypothesis."""
    try:
        pc = pohozaev_check(tp)
    except HypothesisViolated as exc:
        return {"skipped": str(exc)}
    return {"lhs": pc.lhs, "rhs": pc.rhs, "slack": pc.slack, "band": pc.tail_band}


def pohozaev_identity_residual(tp):
    """Relative mismatch of the two exact integral identities behind the estimate.

    Checks, by quadrature on the stored grid,
      (a) lhs = 2(N+gamma) int e^(-(N+gamma)t) F - (rho+gamma) int e^(-(rho+gamma)t) (nu1 u^2 + nu2 v^2),
      (b) int g = int e^(-gamma t)(p e^(-Nt) F - e^(-rho t)(nu1 u^2 + nu2 v^2)),
    and returns the larger relative defect.  A sharp cross-check of the
    transform wiring for any mu.
    """
    p = tp.params
    t = tp.tgrid
    rho = tp.beta * p.N
    nu1 = tp.beta ** 2 * p.mu1
    nu2 = tp.beta ** 2 * p.mu2
    F = p.f.value(tp.u, tp.v)
    eg = np.exp(-tp.gamma * t)
    lhs = float(tp.du[0] ** 2 + tp.dv[0] ** 2)

    int_F = float(simpson(np.exp(-(p.N + tp.gamma) * t) * F, t))
    int_nu = float(simpson(np.exp(-(rho + tp.gamma) * t) * (nu1 * tp.u ** 2 + nu2 * tp.v ** 2), t))
    ida = 2.0 * (p.N + tp.gamma) * int_F - (rho + tp.gamma) * int_nu
    res_a = abs(lhs - ida) / (1.0 + abs(lhs))

    g = (eg * (tp.du - tp.gamma * tp.u)) ** 2 + (eg * (tp.dv - tp.gamma * tp.v)) ** 2
    int_g = float(simpson(g, t))
    idb = float(simpson(
        eg * (p.f.p * np.exp(-p.N * t) * F
              - np.exp(-rho * t) * (nu1 * tp.u ** 2 + nu2 * tp.v ** 2)), t))
    res_b = abs(int_g - idb) / (1.0 + abs(int_g))
    return max(res_a, res_b)


def c_np_constant(N, p):
    """max over t >= 0 of t exp(-2Nt/(3p)), attained at t = 3p/(2N)."""
    return 3.0 * p / (2.0 * N * math.e)


def pohozaev_lower_bound(f: NonlinearityF, N):
    """Amplitude lower bound constant C with u'(0)^2 + v'(0)^2 >= C.

    C = (2N/p) (N / (3 p C_F C_{N,p}^{p/2}))^(2/(p-2)) where C_F is the
    growth constant of F and C_{N,p} = 3p/(2Ne).  Applies to nontrivial
    bounded solutions in the regime gamma <= N/(3p).
    """
    p = f.p
    CF = f.growth_constant()
    Cnp = c_np_constant(N, p)
    inner = N / (3.0 * p * CF * Cnp ** (p / 2.0))
    return (2.0 * N / p) * inner ** (2.0 / (p - 2.0))


def certify(profile, T=None):
    """The gated certificates of a nontrivial profile, and its transform at horizon T.

    Returns (checks, tp): checks maps radial_residual, transformed_residual,
    pohozaev_slack ({"skipped": reason, "pass": True} off its hypothesis, and
    then last), pohozaev_identity and, for gamma <= N/(3p),
    pohozaev_lower_bound to JSON records with a bool "pass", in that order.
    """
    def gated(value, limit):
        return {"value": value, "limit": limit, "pass": bool(value <= limit)}

    checks = {"radial_residual": gated(relative_residual(profile), RESIDUAL_GATE)}
    tp = transform_profile(profile, T=T)
    checks["transformed_residual"] = gated(transformed_residual(tp), TRANSFORMED_GATE)
    rec = checks["pohozaev_slack"] = {**pohozaev_record(tp), "pass": True}
    if "skipped" in rec:
        return checks, tp
    lhs, band = rec["lhs"], rec["band"]
    rec["pass"] = bool(rec["slack"] >= -(POHOZAEV_GATE * (1.0 + lhs) + band))
    checks["pohozaev_identity"] = gated(pohozaev_identity_residual(tp), IDENTITY_GATE)
    p = profile.params
    if tp.gamma <= p.N / (3.0 * p.f.p):
        C = pohozaev_lower_bound(p.f, p.N)
        checks["pohozaev_lower_bound"] = {"lhs": lhs, "constant": C,
                                          "pass": bool(lhs >= C * (1.0 - 1e-9) - band)}
    return checks, tp


def _weighted_blocks(U, gamma, delta, lam, mesh):
    """Pencil of the weighted forms over [0, T], with its nodes and the weights k_half.

    Stiffness A encodes int e^(-gamma t)|h'|^2 + lam e^(-gamma t)|h|^2
    - e^(-delta t)<U h, h>; the diagonal mass B comes from the e^(-delta t)
    weight.  Unknowns sit at nodes i = 1..mesh, with trapezoid node weights:
    the link to t = 0 is kept (h(0) = 0, Dirichlet) and the one past T is 0
    (natural end).
    """
    T = float(U.tgrid[-1])
    ht = T / mesh
    ts = ht * np.arange(mesh + 1)
    k_half = np.exp(-gamma * (ts[:-1] + 0.5 * ht)) / ht
    w = np.full(mesh, ht)
    w[-1] = 0.5 * ht
    m11, m12, m22 = (np.interp(ts[1:], U.tgrid, m) for m in (U.m11, U.m12, U.m22))
    eg, ed = np.exp(-gamma * ts[1:]), np.exp(-delta * ts[1:])
    pencil = flux_pencil(np.append(k_half, 0.0), w, lam * eg - ed * m11, -ed * m12,
                         lam * eg - ed * m22, w * ed)
    return pencil, ts, k_half


def weighted_eigen_min(U, gamma, delta, lam, mesh=1000):
    """Minimum of the weighted quadratic form under the e^(-delta t) normalization.

    Returns (mu_min, (tmesh, h1, h2)): the smallest generalized eigenvalue of
    the weighted stiffness against the e^(-delta t) mass and its
    eigenfunction, normalized to unit weighted mass with h(0) = 0, from
    ``pencil.lowest_eigenpair`` (a Sturm bracket from the block inertia,
    robust against the huge dynamic range of the weights, isolates it and
    the Kato-Temple bound certifies its Rayleigh quotient).  mu_min < 0 iff
    some admissible test function makes the form negative.
    """
    if not (delta > gamma > 0):
        raise ValueError("need delta > gamma > 0")
    pencil, ts, k_half = _weighted_blocks(U, gamma, delta, lam, mesh)
    mu_min, y = lowest_eigenpair(pencil)
    h1 = np.concatenate([[0.0], y[0::2]])
    h2 = np.concatenate([[0.0], y[1::2]])

    # pointwise growth bound of the weighted space at the horizon
    star = float(np.sum(k_half * (np.diff(h1) ** 2 + np.diff(h2) ** 2)))
    bound = 2.0 / math.sqrt(gamma) * math.sqrt(star) * math.exp(0.5 * gamma * ts[-1])
    end_val = math.hypot(h1[-1], h2[-1])
    if end_val > 1.10 * bound:
        raise MeshTooCoarse(
            f"minimizer end value {end_val:.3e} violates the growth bound "
            f"{bound:.3e} by more than 10%; enlarge the horizon"
        )
    return mu_min, (ts, h1, h2)
