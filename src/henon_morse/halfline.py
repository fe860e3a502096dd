"""Half-line transform of radial profiles and the associated stability tools.

The change of variables r = exp(-beta t) with beta = N/(N+alpha) and the
scaling kappa = beta^(2/(p-2)) map a radial pair on (0, 1] to

    u_k(t) = kappa * u(exp(-beta t)),   t in [0, infinity),

which solves

    -(e^(-gamma t) u_k')' + beta^2 mu1 e^(-beta N t) u_k = e^(-N t) dF/du(u_k, v_k)

with gamma = (N-2) beta and u_k(0) = 0 (image of the Dirichlet condition).
Profiles are truncated at a horizon T (default 30/beta, far below every
quadrature tolerance).  Checks skip zero data as in ``radial_bvp``; where
the tail's decay cannot be fitted (T below about 1e-154), the Pohozaev band is g(T) T.
Every profile is certified by the ``Certificate`` of its image
(``radial_bvp.image_params``), rescaled: a mu = 0 profile by that of its
(M, 0) image, a profile that is its own image (mu > 0, or a stored r-grid)
by its own; identity (b) reads the fitted tail beyond the horizon on every
rule.  ``map_check`` compares stored r-samples with a stored image.

Also implemented here: the boundary-derivative estimate

    u'(0)^2 + v'(0)^2 >= (2(N+gamma)/p) * int ((e^(-gamma t) u)')^2 + ...,

which is an identity when mu1 = mu2 = 0 (a sharp pipeline check), the
associated amplitude lower bound with its explicit constant chain, the
stability quadratic form Q_k of the transformed linearization (its negative
directions on a sector by ``qk_negative_count``, the inertia of its
stiffness, for ``verify``; its value on one sampled pair by ``eval_Qk``, for
tests and the bench tracer only), and the weighted half-line eigenproblem
that converts a negative Q_k value into a negative eigenvalue with
eigenfunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HypothesisViolated
from .gates import IDENTITY_GATE, MAP_GATE, POHOZAEV_GATE, RESIDUAL_GATE, TRANSFORMED_GATE
from .nonlinearity import NonlinearityF
from .pencil import count_below, flux_pencil, lowest_eigenpair
from .radial_bvp import ProblemParams, live_components, relative_residual, simpson_rule

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

    @cached_property
    def simpson(self):
        """``simpson_rule`` of this t-grid, made on first use."""
        return simpson_rule(self.tgrid)

    @cached_property
    def derivative_terms(self):
        """(e^(-gamma t), g, lhs, int g) of both Pohozaev checks, made on first use: g = sum
        ((e^(-gamma t) y)')^2 and lhs = sum y'(0)^2 over the components that carry data."""
        eg = np.exp(-self.gamma * self.tgrid)
        g, lhs = np.zeros_like(self.tgrid), 0.0
        for y, dy in live_components(((self.u, self.du), (self.v, self.dv))):
            g += (eg * (dy - self.gamma * y)) ** 2
            lhs += dy[0] ** 2
        return eg, g, float(lhs), float(self.simpson(g))


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
    hermite, out, chain = hermite_at(profile.grid, r), [], -kappa * beta * r
    for y, dy in ((profile.u, profile.du), (profile.v, profile.dv)):
        val = der = np.zeros_like(t)
        if live_components([(y, dy)]):
            val, der = hermite(y, dy)
        out += [kappa * val, chain * der]
    return TransformedProfile(p, beta, gamma_of(p.N, p.alpha), t, out[0], out[2], out[1], out[3])


def hermite_at(x, points):
    """(y, dy) -> value and slope at ``points`` of the cubic Hermite interpolant on the grid x.

    Evaluated as scipy's ``CubicHermiteSpline`` does (PPoly's interval
    choice, coefficients and term order), bit for bit; the intervals are
    found once for every pair (y, dy) on x.
    """
    i = np.clip(np.searchsorted(x, points, side="right") - 1, 0, len(x) - 2)
    dx, s = np.diff(x).take(i), points - x.take(i)
    s2, s3 = s * s, s * s * s

    def evaluate(y, dy):
        c0, c1 = y.take(i), dy.take(i)
        slope = (y.take(i + 1) - c0) / dx
        c = (c1 + dy.take(i + 1) - 2 * slope) / dx
        c2, c3 = (slope - c1) / dx - c, c / dx
        return c0 + c1 * s + c2 * s2 + c3 * s3, c1 + (c2 * 2.0) * s + (c3 * 3.0) * s2

    return evaluate


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
    h, sl, b2, out = t[1] - t[0], slice(3, -3), tp.beta ** 2, 0.0
    eg, en = np.exp(-tp.gamma * t[sl]), np.exp(-p.N * t[sl])
    ebn = np.exp(-tp.beta * p.N * t[sl]) if p.mu1 or p.mu2 else None
    for y, dy, mu, g in live_components(zip((tp.u, tp.v), (tp.du, tp.dv), (p.mu1, p.mu2),
                                            p.f.grad(tp.u, tp.v))):
        with np.errstate(divide="ignore", invalid="ignore"):  # h * h = 0: inf or nan, a FAIL
            d2 = (2.0 * y[:-6] - 27.0 * y[1:-5] + 270.0 * y[2:-4] - 490.0 * y[3:-3]
                  + 270.0 * y[4:-2] - 27.0 * y[5:-1] + 2.0 * y[6:]) / (180.0 * h * h)
        defect = eg * (-d2 + tp.gamma * dy[sl])
        if mu:
            defect += b2 * mu * ebn * y[sl]
        defect -= en * g[sl]
        out = np.maximum(out, np.max(np.abs(defect)))
    return float(out)


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
    return float(tp.simpson(quad))


def _hypothesis(params, beta, gamma):
    """Why the estimate's exponent condition fails at (beta, gamma), or None where it holds."""
    p = params
    rho = beta * p.N
    if p.N < 0.5 * p.f.p * rho + 0.5 * (p.f.p - 2.0) * gamma - 1e-12:
        return (f"exponent condition N >= p rho/2 + (p-2) gamma/2 fails: "
                f"N={p.N}, rho={rho:.4f}, gamma={gamma:.4f}, p={p.f.p}")
    return None


def _tail(tp):
    """Bound on int_T^inf g dt from g's exponential decay envelope over the last decade."""
    t, g = tp.tgrid, tp.derivative_terms[1]
    tail, g_end = 0.0, float(g[-1])
    if g_end > 1e-280:
        m = max(len(t) // 10, 8)
        gt, tt, slope = g[-m:], t[-m:], 0.0
        pos = (gt > 1e-280) & np.isfinite(gt)
        # polyfit scales t by its norm: T below 1e-154 (T^2 subnormal) cannot be fitted
        if np.count_nonzero(pos) >= 4 and tp.T * tp.T >= np.finfo(float).tiny:
            slope = np.polyfit(tt[pos], np.log(gt[pos]), 1)[0]
        tail = g_end / (-slope) if slope < -1e-12 else g_end * tp.T
    return tail


def pohozaev_check(tp):
    """Both sides of the boundary-derivative estimate, with truncation band.

    lhs = u'(0)^2 + v'(0)^2, rhs = (2(N+gamma)/p) int_0^T g(t) dt with
    g = ((e^(-gamma t) u)')^2 + ((e^(-gamma t) v)')^2.  The tail beyond T is
    bounded by g's exponential decay envelope, fitted over the last decade of
    samples, and reported as a band.  For mu1 = mu2 = 0 the two sides agree exactly.
    """
    p = tp.params
    why = _hypothesis(p, tp.beta, tp.gamma)
    if why:
        raise HypothesisViolated(why)
    _, _, lhs, int_g = tp.derivative_terms
    factor = 2.0 * (p.N + tp.gamma) / p.f.p
    return PohozaevCheck(lhs=lhs, rhs=factor * int_g, tail_band=factor * _tail(tp))


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
    _, _, lhs, int_g = tp.derivative_terms
    return _identity_residual(lhs, int_g, *_identity_integrals(tp))


def _identity_integrals(tp):
    """The right sides of identities (a) and (b), by quadrature on tp's grid."""
    p = tp.params
    t = tp.tgrid
    rho = tp.beta * p.N
    F = p.f.value(tp.u, tp.v)
    eg = tp.derivative_terms[0]
    nu = sum(tp.beta ** 2 * m * y ** 2 for y, m in ((tp.u, p.mu1), (tp.v, p.mu2)) if m and y.any())
    ida = 2.0 * (p.N + tp.gamma) * float(tp.simpson(np.exp(-(p.N + tp.gamma) * t) * F))
    idb = p.f.p * np.exp(-p.N * t) * F
    if np.any(nu):  # nu1 u^2 + nu2 v^2 over the terms with nu != 0
        ida -= (rho + tp.gamma) * float(tp.simpson(np.exp(-(rho + tp.gamma) * t) * nu))
        idb -= np.exp(-rho * t) * nu
    return ida, float(tp.simpson(eg * idb))


def _identity_residual(lhs, int_g, ida, idb):
    """The larger relative mismatch of the identities lhs = ida and int g = idb."""
    res_a = abs(lhs - ida) / (1.0 + abs(lhs))
    res_b = abs(int_g - idb) / (1.0 + abs(int_g))
    return float(np.maximum(res_a, res_b))


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


def gated(value, limit):
    """A check's JSON record: its value, its limit and whether value <= limit (a NaN fails)."""
    return {"value": value, "limit": limit, "pass": bool(value <= limit)}


class Certificate:
    """The checks of one image, a RadialProfile, made once for every profile certified on it.

    T is the horizon of its transform ``tp`` (default 30/beta).  The residuals
    are computed here, the Pohozaev pieces on first use, so a profile off the
    estimate's hypothesis makes none.  A profile that is its own image is
    certified on its own (lam = 1); a mu = 0 profile at (N, alpha) on its
    (M, 0) image's, lam = N/M: its transform is lam^(2/(p-2)) tp(lam t), with
    the same gamma t, so with a = 4/(p-2) its lhs and the integral of
    identity (a) are lam^(a+2) times tp's, and int g, the integral of
    identity (b) and the tail lam^(a+1) times.  ``checks`` decides skipping
    and the lower bound on the profile's own hypothesis (an image, alpha = 0,
    never meets it).  Identity (b) reads
    int g plus the fitted tail beyond the horizon (the tail the band bounds)
    on every rule: in the image's variable g decays only like e^(-2(M-2)s),
    and M -> 2 as alpha -> infinity; at an r-grid profile's default horizon
    the tail is below the last bit of int g.
    """

    def __init__(self, profile, T=None):
        self.radial = relative_residual(profile)
        self.tp = transform_profile(profile, T=T)
        self.transformed = transformed_residual(self.tp)

    @cached_property
    def pieces(self):
        """(lhs, int g, tail, identity (a) integral, identity (b) integral) on tp."""
        _, _, lhs, int_g = self.tp.derivative_terms
        return (lhs, int_g, _tail(self.tp), *_identity_integrals(self.tp))

    def checks(self, params):
        """``certify``'s records for the profile of ``params`` certified on this transform."""
        checks = {"radial_residual": gated(self.radial, RESIDUAL_GATE),
                  "transformed_residual": gated(self.transformed, TRANSFORMED_GATE)}
        gamma = gamma_of(params.N, params.alpha)
        why = _hypothesis(params, beta_of(params.N, params.alpha), gamma)
        if why:
            checks["pohozaev_slack"] = {"skipped": why, "pass": True}
            return checks
        lam, a = params.N / self.tp.params.N, 4.0 / (params.f.p - 2.0)
        s2, s1 = lam ** (a + 2.0), lam ** (a + 1.0)
        lhs, int_g, tail, ida, idb = self.pieces
        factor = 2.0 * (params.N + gamma) / params.f.p
        lhs, int_g, tail = s2 * lhs, s1 * int_g, s1 * tail
        rhs, band = factor * int_g, factor * tail
        checks["pohozaev_slack"] = {"lhs": lhs, "rhs": rhs, "slack": lhs - rhs, "band": band,
                                    "pass": bool(lhs - rhs >= -(POHOZAEV_GATE * (1.0 + lhs) + band))}
        identity = _identity_residual(lhs, int_g + tail, s2 * ida, s1 * idb)
        checks["pohozaev_identity"] = gated(identity, IDENTITY_GATE)
        if gamma <= params.N / (3.0 * params.f.p):
            C = pohozaev_lower_bound(params.f, params.N)
            checks["pohozaev_lower_bound"] = {"lhs": lhs, "constant": C,
                                              "pass": bool(lhs >= C * (1.0 - 1e-9) - band)}
        return checks


def certify(profile, T=None):
    """The gated certificates of a nontrivial profile, and the transform they read.

    Returns (checks, tp): checks maps radial_residual, transformed_residual,
    pohozaev_slack ({"skipped": reason, "pass": True} off its hypothesis, and
    then last), pohozaev_identity and, for gamma <= N/(3p),
    pohozaev_lower_bound to JSON records with a bool "pass", in that order.
    The profile is certified by the ``Certificate`` of its image at the
    image's horizon for T (``image_horizon``): the residuals are the image's,
    the Pohozaev records the image's pieces rescaled to the profile, and tp
    is the image's transform.  A profile that is its own image is certified
    on its own at horizon T.
    """
    cert = Certificate(profile.image, profile.image_horizon(T))
    return cert.checks(profile.params), cert.tp


def map_check(profile, mapped):
    """The stored r-samples of a mu = 0 profile against the image they map from, gated.

    u(r_i) is compared with c v_H(r_i^beta) and u'(r_i) with
    c beta r_i^(beta-1) v_H'(r_i^beta), v_H the cubic Hermite interpolant of
    the image's stored (v, v') (``hermite_at``), relative to 1 + A and to
    1 + max |u'|; the value is the larger of the two.
    """
    beta, c, img, r = mapped.beta, mapped.c, mapped.image, profile.grid
    hermite, chain = hermite_at(img.grid, r ** beta), c * beta * r ** (beta - 1.0)
    scale = (1.0 + max(map(abs, profile.amplitude)),
             1.0 + max(float(np.max(np.abs(dy))) for dy in (profile.du, profile.dv)))
    values = [0.0]
    for y, dy, iy, idy in ((profile.u, profile.du, img.u, img.du),
                           (profile.v, profile.dv, img.v, img.dv)):
        if y.any() or dy.any() or iy.any() or idy.any():
            val, der = hermite(iy, idy)
            values += [np.max(np.abs(y - c * val)) / scale[0],
                       np.max(np.abs(dy - chain * der)) / scale[1]]
    return gated(float(np.max(values)), MAP_GATE)


def _weighted_blocks(U, gamma, delta, lam, mesh):
    """Pencil of the weighted forms over [0, T], with its nodes.

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
    return flux_pencil(np.append(k_half, 0.0), w, lam * eg - ed * m11, -ed * m12,
                       lam * eg - ed * m22, w * ed), ts


def qk_negative_count(tp, lam):
    """Negative directions of Q_k on the sector of angular eigenvalue lam, on tp's t-grid.

    By Sylvester's law: the negative eigenvalues of its stiffness (``_weighted_blocks``,
    delta = 0).  The grid is the transform's own: at high l the sector lives within
    about 1/(beta sqrt(lam)) of t = 0, which 1000 cells over [0, 30/beta] undersample.
    """
    return count_below(_weighted_blocks(tp.potential, tp.gamma, 0.0, lam * tp.beta ** 2,
                                        len(tp.tgrid) - 1)[0], 0.0)


def weighted_eigen_min(U, gamma, delta, lam, mesh=1000):
    """Minimum of the weighted quadratic form under the e^(-delta t) normalization.

    Returns (mu_min, (tmesh, h1, h2)): the smallest generalized eigenvalue of
    the weighted stiffness against the e^(-delta t) mass and its
    eigenfunction, normalized to unit weighted mass with h(0) = 0, from
    ``pencil.lowest_eigenpair`` (a Sturm bracket from the block inertia,
    robust against the huge dynamic range of the weights, isolates it and
    the Kato-Temple bound certifies its Rayleigh quotient).  mu_min < 0 iff
    some admissible test function makes the form negative.  No growth check
    is needed at T: with h(0) = 0, Cauchy-Schwarz gives |h(T)|^2 <= (e^(gamma T)
    - 1)/gamma times the weighted Dirichlet sum, for every vector.
    """
    if not (delta > gamma > 0):
        raise ValueError("need delta > gamma > 0")
    pencil, ts = _weighted_blocks(U, gamma, delta, lam, mesh)
    mu_min, y = lowest_eigenpair(pencil)
    return mu_min, (ts, np.concatenate([[0.0], y[0::2]]), np.concatenate([[0.0], y[1::2]]))
