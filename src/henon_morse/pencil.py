"""Inertia counts and lowest eigenpairs of symmetric block-tridiagonal pencils.

A pencil is the tuple ``(d11, d12, d22, off, bw)`` of a generalized problem
A w = mu B w on interleaved unknowns (w1_0, w2_0, w1_1, w2_1, ...):

    diagonal blocks   [[d11_i, d12_i], [d12_i, d22_i]],
    off-diagonal      off_i * I coupling node i to node i + 1,
    mass              B = diag(bw_i, bw_i) with bw > 0.

Every pencil of the package is the flux form

    sum_j k_j |x_j - x_(j-1)|^2 + sum_i w_i <Q_i x_i, x_i>   against   sum_i bw_i |x_i|^2,

assembled by ``flux_pencil`` alone: the sector forms of ``spectral``, the
weighted half-line form of ``halfline`` and the window forms of
``liouville``.  Its n + 1 link weights k carry the ends: link j joins node
j - 1 to node j, and the outer links k_0 and k_n join the end nodes to a
zero outside value.  An outer link that is kept is a Dirichlet end; one
set to 0 is a reflecting or natural end.

Because B is diagonal positive, the number of eigenvalues below a shift s
equals the number of negative eigenvalues of A - s B (Sylvester), counted
without computing any eigenvalue: by LAPACK ``dstebz`` on the two tridiagonal
pencils a d12 = 0 pencil (every scalar sector, window and weighted form) or a
d11 = d22 one (every coupled pencil of the CLI) splits into, by the block
LDL^T pivot recursion on any other.
The lowest eigenvalue is certified by an isolating Sturm bracket from the
pencil's own ``gershgorin_floor`` and the Kato-Temple bound.  Its eigenvector
comes from the split form of a pencil that splits (the other block's half
exactly 0), and from banded inverse iteration for any other pencil or a
split vector the bound rejects.
LAPACK is scipy's compiled wrapper ``linalg/_flapack``, loaded by file path:
importing ``scipy.linalg`` (numpy.f2py, numpy.testing) for three routines would
double the start-up of every CLI run.  ``solve_banded`` is scipy's ``dgbsv`` path.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import SingularPivot

PIVOT_TINY = 1e-300
ZERO_PIVOT = 1e-14  # a 2x2 pivot with |det| <= ZERO_PIVOT scale^2 is singular
SHIFT_NUDGES = (0.0, 1e2, -1e2, 1e4)  # in units of the shift's _zero_pivot_band
SEED = 4242  # random start of the inverse iteration in lowest_eigenpair
SPLIT_ABSTOL = 2.0 * np.finfo(float).tiny  # dstebz's most accurate ABSTOL: twice the underflow


def load_scipy_file(name, *paths):
    """Module ``name`` run from the first file of ``paths`` in scipy's package; ImportError if none."""
    scipy = importlib.util.find_spec("scipy")  # located, not imported: that costs 18 ms
    if scipy is None:
        raise ImportError(f"{name}: scipy is not installed", name=name)
    tried = [Path(scipy.submodule_search_locations[0]) / p for p in paths]
    found = [p for p in tried if p.is_file()]
    if not found:
        raise ImportError(f"{name}: no file {' or '.join(map(str, tried))}", name=name)
    spec = importlib.util.spec_from_file_location(name, found[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FLAPACK = load_scipy_file(
    "_flapack", *(f"linalg/_flapack{ext}" for ext in importlib.machinery.EXTENSION_SUFFIXES))
dstebz, dstein = _FLAPACK.dstebz, _FLAPACK.dstein


def solve_banded(l_and_u, ab, b):
    """x with A x = b, ab[u + i - j, j] = A[i, j]: scipy's ``solve_banded`` on its ``dgbsv`` path.

    ValueError on a non-finite ``ab`` or ``b``, ``np.linalg.LinAlgError`` on an exactly singular A.
    """
    nl, nu = l_and_u
    ab, b = np.asarray_chkfinite(ab, dtype=float), np.asarray_chkfinite(b, dtype=float)
    lu = np.concatenate([np.zeros((nl, ab.shape[1])), ab])  # nl rows on top for dgbsv's fill-in
    *_, x, info = _FLAPACK.dgbsv(nl, nu, lu, b, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def top_eigenvalue(a, b, c):
    """Larger eigenvalue of the symmetric 2x2 matrix [[a, b], [b, c]], elementwise."""
    return 0.5 * (a + c) + np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))


def flux_pencil(k, w, q11, q12, q22, bw):
    """Pencil of the flux form with link weights k, node weights w and 2x2 potentials Q.

    Node i has the stiffness k_i + k_(i+1) of its two links, and its block is
    that stiffness plus w_i Q_i; adjacent nodes couple through -k.  Returns
    (d11, d12, d22, off, bw); the module docstring gives the end conventions.
    """
    stiff = k[:-1] + k[1:]
    return stiff + w * q11, w * q12, stiff + w * q22, -k[1:-1], bw


def gershgorin_floor(pencil):
    """Block-Gershgorin bound g = min_i (lam_min(D_i) - |off_{i-1}| - |off_i|) / bw_i.

    No eigenvalue lies below g: 2 |off_i x_i . x_{i+1}| <= |off_i| (|x_i|^2 +
    |x_{i+1}|^2) gives x^T A x >= g x^T B x.  The reach is taken off the
    diagonal first.  On a ``flux_pencil`` pencil with k >= 0 the reach is the
    stiffness k_i + k_(i+1) less the outer links, so it cancels exactly:
    g = min_i lam_min(w_i Q_i) / bw_i, but for a kept outer link k_0 or k_n,
    which adds itself to its end row.
    """
    d11, d12, d22, off, bw = pencil
    pad = np.abs(np.concatenate([[0.0], off, [0.0]]))
    reach = pad[:-1] + pad[1:]
    return float(np.min(-top_eigenvalue(reach - d11, -d12, reach - d22) / bw))


def _negative_pivots(d11, d12, d22, off):
    """Negative-eigenvalue count of a symmetric block-tridiagonal matrix.

    Runs the Schur recursion d_i <- D_i - off_{i-1}^2 d_{i-1}^{-1} and sums
    the inertias of the 2x2 pivots, read off det and trace: det < 0 gives
    one negative eigenvalue, det > 0 gives two when the trace is negative.
    A pivot with |det| <= ZERO_PIVOT scale^2 (scale = |a| + |b| + |c| bounds
    both eigenvalues) is treated as singular.
    """
    d11, d12, d22, off = (np.asarray(x).tolist() for x in (d11, d12, d22, off))
    neg = 0
    a, b, c = d11[0], d12[0], d22[0]
    for i in range(len(d11)):
        if i:
            if abs(det) <= PIVOT_TINY:
                raise SingularPivot("singular 2x2 pivot block")
            w2 = off[i - 1] * off[i - 1] / det
            a, b, c = d11[i] - w2 * c, d12[i] + w2 * b, d22[i] - w2 * a
        det = a * c - b * b
        scale = abs(a) + abs(b) + abs(c)
        if abs(det) <= ZERO_PIVOT * scale * scale:
            raise SingularPivot("factorization pivot at machine zero")
        if det < 0:
            neg += 1
        elif a + c < 0:
            neg += 2
    return neg


def _zero_pivot_band(pencil, s):
    """Width in the shift of the band where a pivot of A - s B reads as singular.

    A flagged pivot has its small eigenvalue within about 3 ZERO_PIVOT scale
    of 0, and moving the shift by d moves it by at least d bw_i (the Schur
    complements fall at least as fast as B).  The pivot scale is bounded by
    its block row, |a| + |b| + |c| + |off_(i-1)| + |off_i|, so the band is
    ZERO_PIVOT times the largest block-row scale per unit mass: inf where
    that ratio overflows, and then every nudged shift is infinite.
    """
    d11, d12, d22, off, bw = pencil
    pad = np.abs(np.concatenate([[0.0], off, [0.0]]))
    rows = np.abs(d11 - s * bw) + np.abs(d12) + np.abs(d22 - s * bw) + pad[:-1] + pad[1:]
    with np.errstate(over="ignore"):
        return ZERO_PIVOT * float(np.max(rows / bw))


def split_form(pencil):
    """The scaled tridiagonal (d, e) a splittable pencil is congruent to, or None.

    With d12 = 0 the pencil is the two tridiagonal pencils (d11, off, bw) and
    (d22, off, bw).  With d11 = d22 (the diagonal u = v of a symmetric
    system) the rotation (w1 +- w2)/sqrt(2) at each node splits it into
    (d11 + d12, off, bw) and (d22 - d12, off, bw).  Each goes to its scaled
    standard form d / bw, off / sqrt(bw_i bw_(i+1)) (y = B^(1/2) x, the same
    eigenvalues), and the two are stacked with a zero link: the first n rows
    hold w1 (or w1 + w2), the last n w2 (or w1 - w2).  None for any other
    pencil, and for one whose scaled entries are not finite.
    """
    d11, d12, d22, off, bw = pencil
    if np.any(d12) and not np.array_equal(d11, d22):
        return None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # tested finite below
        e = off / np.sqrt(bw[:-1] * bw[1:])
        d, e = np.concatenate([(d11 + d12) / bw, (d22 - d12) / bw]), np.concatenate([e, [0.0], e])
        if np.all(np.isfinite(d)) and np.all(np.isfinite(e * e)):
            return d, e
    return None


def count_below(pencil, s):
    """Number of pencil eigenvalues below s, from the inertia of A - s B.

    A pencil with a ``split_form`` is counted by one ``dstebz`` call on it
    (the same inertia, by Sylvester): RANGE 'V' over (-inf, vu], vu the
    float below s, with ABSTOL = inf takes just the Sturm counts, and
    LAPACK's pivmin rule stands in for the nudges.  Other coupled pencils,
    and those with non-finite scaled entries, run ``_negative_pivots``: a
    machine-zero pivot is retried at the shift nudged by SHIFT_NUDGES times
    its ``_zero_pivot_band``.  A pivot just outside its band would leave the
    next one dominated by off^2 / pivot, near-singular in turn; a hundred
    bands keep that ratio clear of ZERO_PIVOT.  SingularPivot is raised only
    when every nudge hits a zero pivot.
    """
    return _count_below(pencil, split_form(pencil), s)


def _count_below(pencil, form, s):
    """``count_below(pencil, s)`` with the pencil's ``split_form`` already built."""
    if form is not None:
        m, *_, info = dstebz(*form, 1, -np.inf, np.nextafter(s, -np.inf), 0, 0, np.inf, "E")
        if info == 0:
            return int(m)
    d11, d12, d22, off, bw = pencil
    band = 0.0
    for nudge in SHIFT_NUDGES:
        sh = s + nudge * band
        try:
            return _negative_pivots(d11 - sh * bw, d12, d22 - sh * bw, off)
        except SingularPivot:
            band = band or _zero_pivot_band(pencil, s)
    raise SingularPivot(f"persistent zero pivot near shift {s}")


def bisect_eigenvalue(count, j, lo, hi, settled=None, rtol=1e-13):
    """Sturm bisection of [lo, hi), count(lo) < j <= count(hi), for the j-th eigenvalue.

    ``count(s)`` counts the eigenvalues below s.  Halves until ``settled(lo, hi)``
    or width ``rtol`` (1 + |hi|); returns (lo, hi, settled reached).  A
    SingularPivot (every nudge hit a zero pivot) ends it in a bracket already
    pinned to 1e-10, and stands in a wider one.
    """
    while settled is None or not settled(lo, hi):
        if hi - lo <= rtol * (1.0 + abs(hi)):
            return lo, hi, False
        mid = 0.5 * (lo + hi)
        try:
            below = count(mid)
        except SingularPivot:
            if hi - lo <= 1e-10 * (1.0 + abs(hi)):
                return lo, hi, False
            raise
        lo, hi = (lo, mid) if below >= j else (mid, hi)
    return lo, hi, True


def _split_eigenvector(pencil, form, lo, hi):
    """x with x^T B x = 1 for the lowest eigenvalue in [lo, hi) of a pencil's ``split_form``.

    ``dstebz`` (RANGE 'V' over the Sturm counts ``_count_below`` takes, ABSTOL
    SPLIT_ABSTOL) locates the eigenvalue and its block, ``dstein`` gives that
    block's eigenvector y, and x = B^(-1/2) y, rotated back when d12 != 0:
    the rows of the other block stay exactly 0 (w2 = 0, or w1 = +-w2).
    None if either routine fails.
    """
    d, e = form
    m, w, iblock, isplit, info = dstebz(d, e, 1, np.nextafter(lo, -np.inf),
                                        np.nextafter(hi, -np.inf), 0, 0, SPLIT_ABSTOL, "B")
    if info or m < 1:
        return None
    j = int(np.argmin(w[:m]))
    iblock[0] = iblock[j]
    z, info = dstein(d, e, w[j:j + 1], iblock, isplit)
    if info:
        return None
    d11, d12, d22, off, bw = pencil
    n = len(bw)
    root = np.sqrt(bw)
    x1, x2 = z[:n, 0] / root, z[n:, 0] / root
    if np.any(d12):
        half = math.sqrt(0.5)
        x1, x2 = (x1 + x2) * half, (x1 - x2) * half
    x = np.empty(2 * n)
    x[0::2], x[1::2] = x1, x2
    return x / math.sqrt(float(np.dot(np.repeat(bw, 2) * x, x)))


def lowest_eigenpair(pencil):
    """Smallest pencil eigenvalue lambda_1 with its eigenvector, certified.

    Sturm bisection up from just below the pencil's ``gershgorin_floor``
    isolates lambda_1 in [lo, hi): count(lo) = 0, count(hi) = 1 (so hi <=
    lambda_2) and hi - lo <= 1e-3 (1 + |hi|).  An eigenvector x, x^T B x =
    1, gives rho = x^T A x, returned once it lies in [lo, hi) and the
    Kato-Temple bound, with eps^2 = r^T B^-1 r and r = A x - rho B x, gives
    rho - eps^2 / (hi - rho) <= lambda_1 <= rho with eps^2 / (hi - rho) <=
    1e-13 (1 + |rho|).  The ``split_form``, built once, serves every count;
    a pencil that has one takes x from ``_split_eigenvector``.  Any other
    pencil, or a split x the bound rejects, takes four banded inverse-iteration
    steps at lo from a random start (seed SEED), then at most three
    Rayleigh-quotient steps.  When no such bracket forms (a cluster), or no
    x passes (rows of tiny mass whose rounding keeps eps^2 high), the
    bisection goes on to width 1e-13 (1 + |hi|) and mu is its midpoint.
    Then a cluster of a split pencil takes x from ``_split_eigenvector`` on
    that bracket, and any other pencil from six inverse-iteration steps just
    below mu.  Returns (mu, x).
    """
    d11, d12, d22, off, bw = pencil
    Bv = np.repeat(bw, 2)
    ab = np.zeros((5, len(Bv)))  # LAPACK band storage of A, two bands each side
    ab[2, 0::2], ab[2, 1::2] = d11, d22
    ab[1, 1::2] = ab[3, 0::2] = d12  # (j, j+1) entries
    ab[0, 2::2] = ab[0, 3::2] = ab[4, 0:-2:2] = ab[4, 1:-2:2] = off  # (j, j+2) entries
    x = start = np.random.default_rng(SEED).standard_normal(len(Bv))

    def inverse_step(x, s):
        """(A - s B)^-1 B x with x^T B x = 1, oriented along x; LinAlgError on overflow."""
        shifted = ab.copy()
        shifted[2] -= s * Bv
        y = solve_banded((2, 2), shifted, Bv * x)
        norm = math.sqrt(float(np.dot(Bv * y, y)))
        if not norm < math.inf:  # x would scale to exactly 0
            raise np.linalg.LinAlgError("inverse step overflowed")
        return y / math.copysign(norm, float(np.dot(Bv * y, x)))

    def quotient(x):
        """rho = x^T A x, and whether it lies in [lo, hi) with the Kato-Temple bound met."""
        ax = sum(np.roll(ab[k] * x, k - 2) for k in range(5))  # A x; the band pads with 0
        rho = float(np.dot(x, ax))
        r = ax - rho * Bv * x  # eps^2 = r^T B^-1 r below
        return rho, lo <= rho < hi and np.dot(r / Bv, r) <= 1e-13 * (1 + abs(rho)) * (hi - rho)

    form = split_form(pencil)
    count = lru_cache(maxsize=None)(lambda s: _count_below(pencil, form, s))  # settled re-reads hi
    g = gershgorin_floor(pencil)
    lo = g - 1e-6 * (1.0 + abs(g))  # strictly below: uncoupled pencils attain g
    hi = max(1.0, lo + 1.0)
    while count(hi) < 1:
        hi = 2.0 * hi + 1.0
    lo, hi, isolated = bisect_eigenvalue(
        count, 1, lo, hi, lambda lo, hi: count(hi) == 1 and hi - lo <= 1e-3 * (1.0 + abs(hi)))
    if form is not None and isolated:
        split = _split_eigenvector(pencil, form, lo, hi)
        if split is not None:
            rho, certified = quotient(split)
            if certified:
                return rho, split
    # a Rayleigh shift at lambda_1 to working precision makes the solve singular or overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(7 if isolated else 0):
            try:
                x = inverse_step(x, lo if step < 4 else rho)
            except (np.linalg.LinAlgError, ValueError):
                break
            rho, certified = quotient(x)
            if step >= 4 and certified:
                return rho, x
    lo, hi, _ = bisect_eigenvalue(count, 1, lo, hi)
    mu = 0.5 * (lo + hi)
    split = None if form is None or isolated else _split_eigenvector(pencil, form, lo, hi)
    if split is not None:
        return mu, split
    x = start
    for _ in range(6):
        x = inverse_step(x, mu - 1e-6 * (1.0 + abs(mu)))
    return mu, x
