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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .pencil import bisect_eigenvalue, count_below, top_eigenvalue
from .radial_bvp import RadialProfile, require_certified

MIN_MESH = 200  # smallest spectral mesh a count accepts


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


def _assemble_blocks(spec, mesh):
    """Pencil (d11, d12, d22, off, mass) of the conservative FD discretization.

    Nodes r_i = i h, i = 1..mesh-1 (Dirichlet at r = 1 drops node mesh); the
    r = 0 end has no boundary row: the flux to the left of node 1 vanishes
    for l = 0 (reflection closure consistent with w'(0) = 0) and couples to
    w = 0 for l >= 1 (centrifugal decay).
    """
    h = 1.0 / mesh
    r = h * np.arange(1, mesh)
    k_half = (h * (np.arange(mesh) + 0.5)) ** (spec.N - 1)  # r_{i+1/2}^(N-1), i=0..mesh-1

    v11, v12, v22 = (np.interp(r, spec.rgrid, v) for v in (spec.v11, spec.v12, spec.v22))
    cent = spec.lambda_ell / (r * r)
    mass = h * r ** (spec.N - 1)

    # diagonal 2x2 blocks: stiffness + node terms; fluxes on both sides of node i
    left = k_half[:-1] / h   # k_{i-1/2}
    right = k_half[1:] / h   # k_{i+1/2}
    stiff = left + right
    if spec.ell == 0:
        stiff[0] -= left[0]  # reflection: no flux through r = 0
    d11 = stiff + mass * (cent - v11)
    d22 = stiff + mass * (cent - v22)
    d12 = mass * (-v12)
    off = -right[:-1]  # coupling of node i to node i+1, i = 1..mesh-2
    return d11, d12, d22, off, mass


def count_negative_eigenvalues(spec, mesh=1000, shift=0.0):
    """Number of sector eigenvalues below ``shift``: the inertia of A - shift B."""
    if mesh < MIN_MESH:
        raise ValueError(f"mesh must be at least {MIN_MESH}")
    return count_below(_assemble_blocks(spec, mesh), shift)


def sector_nonneg_certificate(spec):
    """sup over the grid of the top eigenvalue of r^2 V(r), clipped below at 0.

    Sectors with l(l+N-2) at or above it are nonnegative without any
    discretization: lambda/r^2 dominates V pointwise on (0, 1].
    """
    w = spec.rgrid ** 2
    return float(max(np.max(top_eigenvalue(w * spec.v11, w * spec.v12, w * spec.v22)), 0.0))


def ell_truncation(spec):
    """Smallest l whose sector is certified nonnegative, with the certificate."""
    cert = sector_nonneg_certificate(spec)
    ell = 0
    while lambda_ell(ell, spec.N) < cert:
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
    bisected until one could.  Returns (a, b, certified, b on a's side of t).
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
        *a, ok = bisect_eigenvalue(count_a, j, *a, lambda l, h: b[0] < edge(l, h) < b[1], 1e-12)
        if not ok:
            return a, b, False, (count_b(t) >= j) == below


def morse_index(profile, mesh=1000):
    """Total Morse index with its truncation certificate and Richardson margin.

    ``per_ell`` runs over l = 0 .. l_max, the first certified-nonnegative
    degree (listed with count 0); the module docstring gives the method.
    """
    require_certified(profile)
    spec = build_sector(profile, 0)
    ell_max, cert = ell_truncation(spec)
    rung = [-lambda_ell(ell, spec.N) for ell in range(ell_max + 1)]
    radial = [lambda s, m=m: count_negative_eigenvalues(spec, m, s) for m in (mesh, 2 * mesh)]
    singular = [lambda nu, m=m: count_negative_eigenvalues(replace(spec, ell=1, lambda_ell=-nu), m)
                for m in (mesh, 2 * mesh)]

    counts = [radial[0](0.0)] if ell_max else []
    while 0 < len(counts) < ell_max and (len(counts) == 1 or counts[-1]):
        counts.append(singular[0](rung[len(counts)]))
    counts += [0] * (ell_max + 1 - len(counts))

    # (counts at mesh and 2 mesh, j, bracket of a, degrees it decides); l = 0 sits above -max V
    vmax = float(np.max(top_eigenvalue(spec.v11, spec.v12, spec.v22)))
    checks = [(radial, j, _bracket(radial[0], j, 0.0, step), [0])
              for j, step in ((counts[0], -0.5 * vmax), (counts[0] + 1, 1.0)) if j and ell_max]
    if ell_max > 1:
        checks.append((singular, counts[1] + 1,
                       _bracket(singular[0], counts[1] + 1, rung[1], 1.0 - rung[1]), [1]))
    for j in range(1, counts[1] + 1 if ell_max > 1 else 1):
        ell = sum(c >= j for c in counts[1:])  # nu_j lies between rungs ell and ell + 1
        checks.append((singular, j, (rung[ell + 1], rung[ell]),
                       [e for e in (ell, ell + 1) if e < ell_max]))
    flagged, stable = set(), True
    for pair, j, a, ells in checks:
        b = (-math.inf, math.inf)
        for ell in ells:
            a, b, certified, same_side = _decide(pair, j, a, b, rung[ell])
            stable = stable and same_side
            if not certified:
                flagged.add(ell)

    per_ell = [(ell, sh_multiplicity(ell, spec.N), neg) for ell, neg in enumerate(counts)]
    return MorseReport(
        per_ell=per_ell,
        ell_max=ell_max,
        truncation_certificate=cert,
        total_index=sum(mult * neg for _, mult, neg in per_ell),
        mesh=mesh,
        mesh_stable=stable,
        warnings=[f"count at ell={ell} lies within the discretization error of its "
                  "ladder point" for ell in sorted(flagged)],
    )
