"""Morse index of radial solutions: sector counts on one ladder of shifts.

The linearization -Delta + diag(mu1, mu2) - r^alpha D2F(u, v) at a radial pair
(u, v) splits over degree-l spherical harmonics into the sectors -w'' - (N-1) w'/r
+ l(l+N-2) w / r^2 - V w = mu w, w(1) = 0, V = r^alpha D2F - diag(mu1, mu2);
the index sums sector negative counts times harmonic dimensions.  Each sector
is a block-tridiagonal difference pencil, counted by inertia (``pencil``).

l = 0 is counted on its own pencil.  Every l >= 1 is a shift of one singular
pencil: its count is the number of eigenvalues nu_j of
-(r^(N-1) w')' - r^(N-1) V w = nu r^(N-3) w below the ladder point
-l(l+N-2).  Counts fall with l, so the ladder stops at its first zero; it
never passes the first l with l(l+N-2) >= sup_r ||r^2 V_+||, nonnegative by
comparison with the centrifugal term.

The eigenvalues that decide the counts (each nu_j against its ladder points,
the two l = 0 eigenvalues next to 0) are bisected at mesh (a) and 2 mesh (b)
until a Richardson margin settles: with R = b + (b - a)/3, e = |b - a|/3, a
count is certified when a, b and [R - e, R + e] lie strictly on one side of
its ladder point.  Otherwise the report warns, naming l, and ``mesh_stable``
is false when a and b lie on different sides.

A ``SingularSpectrum`` keeps every count of its pencils, so the brackets one
report narrows serve the next.  For mu = 0 it serves every row of a sweep
that maps to the same Lane-Emden problem (``radial_bvp.lane_emden_params``):
with t = r^beta, beta = (2 + alpha)/2, the sector form Q_l at (N, alpha) is
beta times the form of the (M, 0) image with l(l+N-2)/beta^2 in place of
l(l+N-2).  By Sylvester's law of inertia each count at (N, alpha) is a count
of the image's pencils against the ladder -l(l+N-2)/beta^2, the multiplicities
still those of degree l in dimension N; nu_j(N, alpha) = beta^2 nu_j(M), and
the truncation certificate scales by beta^2.  ``morse_index`` counts every
profile on the spectrum of its image (``radial_bvp.image_params``), whose
certification (``SingularSpectrum`` requires it) stands for the profile's,
against the ladder scaled by 1/beta^2: a mu = 0 profile on its (M, 0)
image's pencils, and a mu > 0 profile, its own image (beta = 1), on its own.
``verify`` recounts a stored mu = 0 profile on its stored r-grid, a profile
that is its own image, as an independent, reported check.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SingularPivot
from .pencil import bisect_eigenvalue, count_below, flux_pencil, top_eigenvalue
from .radial_bvp import RadialProfile, require_certified

MIN_MESH = 200  # smallest spectral mesh a count accepts
ONSET_RTOL = 1e-5  # width of the nu_1 bracket behind the onset enclosures, relative to 1 + |nu_1|


def lambda_ell(ell, N):
    """Angular eigenvalue l(l+N-2) of the sphere Laplacian at degree l."""
    if ell < 0 or N < 2:
        raise ValueError("need ell >= 0 and N >= 2")
    return float(ell * (ell + N - 2))


def sh_multiplicity(ell, N):
    """Dimension of the space of degree-l spherical harmonics on S^(N-1)."""
    if ell < 0 or N < 2:
        raise ValueError("need ell >= 0 and N >= 2")
    return math.comb(N + ell - 1, ell) - (math.comb(N + ell - 3, ell - 2) if ell >= 2 else 0)


@dataclass
class SturmLiouvilleSpec:
    """One angular sector of the linearized problem, sampled on (0, 1]."""

    N: int
    ell: int
    lambda_ell: float
    rgrid: np.ndarray
    v11: np.ndarray
    v12: np.ndarray
    v22: np.ndarray
    # cache of count_negative_eigenvalues: node data by (mesh, N, ids of the arrays),
    # shared with the specs ``replace`` derives; an entry holds its arrays, so no id is reused
    _nodes: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class MorseReport:
    """Per-sector negative counts plus the certified total index."""

    per_ell: list[tuple[int, int, int]]  # (ell, multiplicity, negative_count)
    ell_max: int
    truncation_certificate: float
    total_index: int
    mesh: int
    mesh_stable: bool
    warnings: list[str]
    nu_hat: list[tuple[int, tuple, tuple]]  # (j, [lo, hi) at mesh, at 2 mesh)

    def counts(self):
        return {ell: neg for ell, _, neg in self.per_ell}


def build_sector(profile: RadialProfile, ell: int) -> SturmLiouvilleSpec:
    """Sector l of a certified profile: V = r^alpha D2F(u, v) - diag(mu1, mu2) on its grid."""
    p = profile.params
    w = profile.grid ** p.alpha
    fuu, fuv, fvv = p.f.hess(profile.u, profile.v)
    return SturmLiouvilleSpec(
        N=p.N,
        ell=ell,
        lambda_ell=lambda_ell(ell, p.N),
        rgrid=profile.grid,
        v11=w * fuu - p.mu1,
        v12=w * fuv,
        v22=w * fvv - p.mu2,
    )


def count_negative_eigenvalues(spec, mesh=1000, shift=0.0):
    """Number of sector eigenvalues below ``shift``: the inertia of A - shift B.

    A is the conservative difference form on the nodes r_i = i h,
    i = 1..mesh-1 (Dirichlet at r = 1 drops node mesh), with link weights
    r_(i+1/2)^(N-1) / h.  The link through r = 0 is dropped for l = 0
    (reflection, consistent with w'(0) = 0) and kept for l >= 1, where it
    couples to w = 0 (centrifugal decay).  The nodes, link weights, masses and
    interpolated potentials of a mesh are made once per spec and kept on it,
    for every ladder spec ``replace`` derives from it.
    """
    if mesh < MIN_MESH:
        raise ValueError(f"mesh must be at least {MIN_MESH}")
    arrays = (spec.rgrid, spec.v11, spec.v12, spec.v22)
    key = (mesh, spec.N, *map(id, arrays))
    if key not in spec._nodes:
        h = 1.0 / mesh
        r = h * np.arange(1, mesh)
        k = (h * (np.arange(mesh) + 0.5)) ** (spec.N - 1) / h
        spec._nodes[key] = arrays, (r * r, k, h * r ** (spec.N - 1),
                                    *(np.interp(r, spec.rgrid, v) for v in arrays[1:]))
    r2, k, mass, v11, v12, v22 = spec._nodes[key][1]
    if spec.ell == 0:
        k = np.concatenate([[0.0], k[1:]])
    cent = spec.lambda_ell / r2
    return count_below(flux_pencil(k, mass, cent - v11, -v12, cent - v22, mass), shift)


def sector_nonneg_certificate(spec):
    """sup over the grid of the top eigenvalue of r^2 V(r), clipped below at 0.

    Sectors with l(l+N-2) at or above it are nonnegative without any
    discretization: lambda/r^2 dominates V pointwise on (0, 1].
    """
    w = spec.rgrid ** 2
    return float(max(np.max(top_eigenvalue(w * spec.v11, w * spec.v12, w * spec.v22)), 0.0))


def ell_truncation(spec, N=None, scale=1.0):
    """Smallest l whose sector is certified nonnegative, with the certificate.

    For the (M, 0) image of an (N, alpha) profile, N and scale = beta^2 give
    the profile's: the certificate is scale times the image's.
    """
    N = spec.N if N is None else N
    cert = scale * sector_nonneg_certificate(spec)
    ell = 0
    while lambda_ell(ell, N) < cert:
        ell += 1
    return ell, cert


def _bracket(count, j, t, step):
    """Bracket [lo, hi) of the j-th eigenvalue beyond t along ``step``, doubling each step."""
    while (count(t + step) >= j) == (step < 0):
        t, step = t + step, 2.0 * step
    return (t, t + step) if step > 0 else (t + step, t)


def _decide(counts, j, a, b, t):
    """Richardson rule for the j-th eigenvalue against the ladder point t.

    a = (lo, hi) brackets it at mesh on one side of t (a count below j at t
    puts it at or above t), b at 2 mesh; the rule holds when b lies on that
    side of (3t + 2a)/5 too.  b is counted where one count could settle it, a
    bisected until one could or b lies on a's side: both brackets may come
    narrowed by other ladder points, so the edge can jump past b's.  Returns
    (a, b, certified, b on a's side of t).
    """
    count_a, count_b = counts
    below = a[1] <= t

    def edge(lo, hi):  # (3t + 2a)/5 at the end of a's bracket away from t
        return (3.0 * t + 2.0 * (lo if below else hi)) / 5.0

    while True:
        s = edge(*a)
        if (b[1] <= s) if below else (b[0] >= s):
            return a, b, True, True
        if b[0] < s < b[1]:
            b = (b[0], s) if count_b(s) >= j else (s, b[1])
            continue
        # b lies beyond s, away from a: move s (towards t) past b's near end
        *a, ok = bisect_eigenvalue(count_a, j, *a, (lambda l, h: edge(l, h) > b[0]) if below
                                   else (lambda l, h: edge(l, h) < b[1]), 1e-12)
        if not ok:
            return a, b, False, (count_b(t) >= j) == below


class _Counts:
    """Eigenvalue counts of one pencil below a shift, keeping every count made.

    Counts rise with the shift, so a shift between two kept ones with equal
    counts, or below one with count 0, is read off without a factorization.
    """

    def __init__(self, count):
        self.count = count
        self.known = []  # (shift, count), sorted

    def __call__(self, s):
        i = bisect.bisect_left(self.known, (s, -1))
        if i < len(self.known):
            t, n = self.known[i]
            if t == s or n == 0 or (i and self.known[i - 1][1] == n):
                return n
        n = self.count(s)
        self.known.insert(i, (s, n))
        return n

    def bracket(self, j):
        """Narrowest [lo, hi) the kept counts prove holds eigenvalue j: count(lo) < j <= count(hi)."""
        lo = max((s for s, n in self.known if n < j), default=-math.inf)
        hi = min((s for s, n in self.known if n >= j), default=math.inf)
        return lo, hi


class SingularSpectrum:
    """The l = 0 and singular pencils of one certified profile at mesh and 2 mesh.

    ``radial`` and ``singular`` are the count functions at (mesh, 2 mesh);
    the singular one takes nu.  Every count is kept for later reports.
    """

    def __init__(self, profile, mesh=1000):
        require_certified(profile)
        spec = build_sector(profile, 0)
        self.params, self.spec, self.mesh = profile.params, spec, mesh
        self.radial = [_Counts(lambda s, m=m: count_negative_eigenvalues(spec, m, s))
                       for m in (mesh, 2 * mesh)]
        self.singular = [_Counts(lambda nu, m=m: count_negative_eigenvalues(
            replace(spec, ell=1, lambda_ell=-nu), m)) for m in (mesh, 2 * mesh)]


def onset_alphas(spectrum, alpha_max):
    """Enclosures [lo, hi) of the alpha_k where sector k's count turns positive, N = 2.

    Every planar mu = 0 row maps to the Lane-Emden image M = 2 and counts
    sector k positive when beta^2 nu_1 < -k^2, that is beyond
    alpha_k = 2 k / sqrt(|nu_1|) - 2.  So the list is empty unless
    ``spectrum`` is of such an image (N = 2, alpha = 0, mu1 = mu2 = 0).  The
    ends come from the bracket of nu_1 at mesh that ``spectrum`` holds,
    bisected to ONSET_RTOL, which puts four decimals on each alpha_k up to 20;
    the list runs up to alpha_max and leaves out the alpha_k below 0.
    """
    p = spectrum.params
    lo, hi = spectrum.singular[0].bracket(1)
    if (p.N, p.alpha, p.mu1, p.mu2) != (2, 0, 0, 0) or not -math.inf < lo < hi < 0.0:
        return []
    try:
        lo, hi, _ = bisect_eigenvalue(spectrum.singular[0], 1, lo, hi, rtol=ONSET_RTOL)
    except SingularPivot:
        pass  # the bracket as the rows left it still encloses nu_1
    out = []
    for k in range(1, int(0.5 * (alpha_max + 2.0) * math.sqrt(-lo)) + 1):
        upper = 2.0 * k / math.sqrt(-hi) - 2.0
        if upper >= 0.0:
            out.append([2.0 * k / math.sqrt(-lo) - 2.0, upper])
    return out


def morse_index(profile, mesh=1000, spectrum=None):
    """Total Morse index with its truncation certificate and Richardson margin.

    ``per_ell`` runs over l = 0 .. l_max, the first certified-nonnegative
    degree (listed with count 0); the module docstring gives the method.
    The counts are those of ``spectrum``, or of a SingularSpectrum of the
    profile's image made here; a given one must hold the image's params and
    ``mesh`` (ValueError).  The ladder is scaled by 1/beta^2, beta = 1 for a
    profile that is its own image.  ``nu_hat`` lists the brackets of
    nu_1 .. nu_(c+1), c the count at l = 1, as far as the counts kept so far
    have narrowed them.
    """
    p, image = profile.params, profile.image
    if spectrum is None:
        spectrum = SingularSpectrum(image, mesh)
    if (spectrum.params, spectrum.mesh) != (image.params, mesh):
        raise ValueError("the spectrum is not of the profile's image at this mesh")
    scale = profile.beta ** 2
    spec, radial, singular = spectrum.spec, spectrum.radial, spectrum.singular
    ell_max, cert = ell_truncation(spec, p.N, scale)
    rung = [-lambda_ell(ell, p.N) / scale for ell in range(ell_max + 1)]

    counts = [radial[0](0.0)] if ell_max else []
    while 0 < len(counts) < ell_max and (len(counts) == 1 or counts[-1]):
        counts.append(singular[0](rung[len(counts)]))
    counts += [0] * (ell_max + 1 - len(counts))

    # (counts at mesh and 2 mesh, j, bracket of a, degrees it decides); l = 0 sits above -max V
    vmax = float(np.max(top_eigenvalue(spec.v11, spec.v12, spec.v22)))
    checks = [(radial, j, _bracket(radial[0], j, 0.0, step), [0])
              for j, step in ((counts[0], -0.5 * vmax), (counts[0] + 1, 1.0)) if j and ell_max]
    if ell_max > 1:
        checks.append((singular, counts[1] + 1,  # first step to nu = 1 in the profile's units
                       _bracket(singular[0], counts[1] + 1, rung[1], 1.0 / scale - rung[1]), [1]))
    for j in range(1, counts[1] + 1 if ell_max > 1 else 1):
        ell = sum(c >= j for c in counts[1:])  # nu_j lies between rungs ell and ell + 1
        checks.append((singular, j, (rung[ell + 1], rung[ell]),
                       [e for e in (ell, ell + 1) if e < ell_max]))
    flagged, stable = set(), True
    for pair, j, a, ells in checks:
        lo, hi = pair[0].bracket(j)
        a, b = (max(a[0], lo), min(a[1], hi)), pair[1].bracket(j)
        for ell in ells:
            a, b, certified, same_side = _decide(pair, j, a, b, rung[ell])
            stable = stable and same_side
            if not certified:
                flagged.add(ell)

    per_ell = [(ell, sh_multiplicity(ell, p.N), neg) for ell, neg in enumerate(counts)]
    return MorseReport(
        per_ell=per_ell,
        ell_max=ell_max,
        truncation_certificate=cert,
        total_index=sum(mult * neg for _, mult, neg in per_ell),
        mesh=mesh,
        mesh_stable=stable,
        warnings=[f"count at ell={ell} lies within the discretization error of its "
                  "ladder point" for ell in sorted(flagged)],
        nu_hat=[(j, *(tuple(scale * x for x in c.bracket(j)) for c in singular))
                for j in range(1, counts[1] + 2 if ell_max > 1 else 1)],
    )
