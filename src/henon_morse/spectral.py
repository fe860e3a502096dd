"""Morse index of radial solutions via spherical-harmonic sector counting.

The linearization at a radial pair (u, v),

    L (phi1, phi2) = -Delta (phi1, phi2) + (mu1 phi1, mu2 phi2)
                     - r^alpha D2F(u, v) (phi1, phi2),

decomposes over spherical harmonics of degree l into radial Sturm-Liouville
sectors

    -w'' - (N-1) w'/r + l(l+N-2) w / r^2 - V(r) w = mu w,   w(1) = 0,

with the 2x2 potential V(r) = r^alpha D2F(u(r), v(r)) - diag(mu1, mu2).  The
Morse index is the sum over l of (sector negative-eigenvalue count) times
(dimension of the degree-l harmonics).

Counting is done without computing eigenvalues: the sector operator is
discretized as a symmetric block-tridiagonal generalized problem A w = mu B w
in the r^(N-1) dr inner product (conservative second-order differences of the
divergence-form operator), and the number of negative eigenvalues equals the
inertia of A, obtained from the block LDL^T pivot recursion.  Congruence
(Sylvester) transfers the count to the pencil because B is diagonal positive.

Sectors with l(l+N-2) >= sup_r ||r^2 V_+(r)|| are nonnegative by comparison
with the centrifugal term (lambda/r^2 >= lambda on (0,1]), which yields a
finite certified truncation degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .pencil import count_below
from .radial_bvp import RadialProfile, require_certified

ZERO_BAND = 1e-10


def lambda_ell(ell, N):
    """Angular eigenvalue l(l+N-2) of the sphere Laplacian at degree l."""
    if ell < 0 or N < 2:
        raise ValueError("need ell >= 0 and N >= 2")
    return float(ell * (ell + N - 2))


def sh_multiplicity(ell, N):
    """Dimension of the space of degree-l spherical harmonics on S^(N-1)."""
    if ell < 0 or N < 2:
        raise ValueError("need ell >= 0 and N >= 2")
    if ell == 0:
        return 1
    dim_l = math.comb(N + ell - 1, ell)
    dim_lm2 = math.comb(N + ell - 3, ell - 2) if ell >= 2 else 0
    return dim_l - dim_lm2


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

    per_ell: List[Tuple[int, int, int]]  # (ell, multiplicity, negative_count)
    ell_max: int
    truncation_certificate: float
    total_index: int
    mesh: int
    mesh_stable: bool = True
    warnings: List[str] = field(default_factory=list)

    def counts(self):
        return {ell: neg for ell, _, neg in self.per_ell}


def build_sector(profile: RadialProfile, ell: int) -> SturmLiouvilleSpec:
    """Sector potential V(r) = r^alpha D2F(u, v) - diag(mu1, mu2) on the profile grid.

    Expects a certified profile (``morse_index`` checks it once).
    """
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
    rho = r ** (spec.N - 1)
    k_half = (h * (np.arange(mesh) + 0.5)) ** (spec.N - 1)  # r_{i+1/2}^(N-1), i=0..mesh-1

    v11, v12, v22 = (np.interp(r, spec.rgrid, v) for v in (spec.v11, spec.v12, spec.v22))
    cent = spec.lambda_ell / (r * r)
    mass = h * rho

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
    """Number of sector eigenvalues mu < shift, from matrix inertia.

    The discrete pencil A w = mu B w (B diagonal positive from the r^(N-1)
    weight) has as many eigenvalues below the shift as A - shift B has
    negative pivots (``pencil.count_below``, which retries a machine-zero
    pivot at a nudged shift and raises SingularPivot only if it persists).
    """
    if mesh < 200:
        raise ValueError("mesh must be at least 200")
    return count_below(_assemble_blocks(spec, mesh), shift)


def count_negative_with_band(spec, mesh=1000, band=ZERO_BAND):
    """(count of mu < -band, warning flag for eigenvalues inside (-band, band)).

    Eigenvalues within the band of zero are structurally ambiguous at this
    resolution and are flagged instead of counted negative.
    """
    strict = count_negative_eigenvalues(spec, mesh, -band)
    loose = count_negative_eigenvalues(spec, mesh, band)
    return strict, loose != strict


def sector_nonneg_certificate(profile):
    """sup over the grid of the top eigenvalue of r^2 V(r), clipped below at 0.

    Sectors with l(l+N-2) at or above this value are nonnegative without any
    discretization, because lambda/r^2 dominates V pointwise on (0, 1].
    Expects a certified profile (``morse_index`` checks it once).
    """
    p = profile.params
    r = profile.grid
    w = r ** p.alpha
    fuu, fuv, fvv = p.f.hess(profile.u, profile.v)
    a = r * r * (w * fuu - p.mu1)
    b = r * r * (w * fuv)
    c = r * r * (w * fvv - p.mu2)
    tr = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    top = tr + disc
    return float(max(np.max(top), 0.0))


def ell_truncation(profile):
    """Smallest l whose sector is certified nonnegative, with the certificate."""
    cert = sector_nonneg_certificate(profile)
    N = profile.params.N
    cap = int(10 * (1 + cert)) + 1
    ell = 0
    while lambda_ell(ell, N) < cert:
        ell += 1
        if ell > cap:
            raise RuntimeError(
                f"sector truncation exceeded the safety cap {cap} "
                f"(certificate {cert:.3e})"
            )
    return ell, cert


def morse_index(profile, mesh=1000, check_mesh_stability=False):
    """Total Morse index with its truncation certificate.

    Sums multiplicity(l) * negative_count(l) over l = 0 .. l_max, where l_max
    is the first certified-nonnegative degree (included in the table with
    count 0).  With ``check_mesh_stability`` every sector's count of
    eigenvalues below -ZERO_BAND is redone at the doubled mesh and the report
    is flagged if any count moves.
    """
    require_certified(profile)
    N = profile.params.N
    ell_max, cert = ell_truncation(profile)
    per_ell = []
    warnings = []
    total = 0
    stable = True
    for ell in range(ell_max + 1):
        mult = sh_multiplicity(ell, N)
        if ell == ell_max:
            neg = 0  # certified without discretization
        else:
            spec = build_sector(profile, ell)
            neg, warn = count_negative_with_band(spec, mesh)
            if warn:
                warnings.append(f"eigenvalue within {ZERO_BAND} of zero at ell={ell}")
            if check_mesh_stability:
                neg2 = count_negative_eigenvalues(spec, 2 * mesh, -ZERO_BAND)
                if neg2 != neg:
                    stable = False
                    warnings.append(
                        f"count changed under mesh doubling at ell={ell}: "
                        f"{neg} -> {neg2}"
                    )
        per_ell.append((ell, mult, neg))
        total += mult * neg
    return MorseReport(
        per_ell=per_ell,
        ell_max=ell_max,
        truncation_certificate=cert,
        total_index=total,
        mesh=mesh,
        mesh_stable=stable,
        warnings=warnings,
    )
