"""p-homogeneous couplings F(u, v) and their sharp homogeneity constants.

Two concrete families are supported:

* ``pure_power``:      F(u,v) = (a1 |u|^p + a2 |v|^p) / p,  any p > 2
* ``quartic_coupled``: F(u,v) = (a1 u^4 + a2 v^4) / 4 + b u^2 v^2 / 2,  p = 4

Both are positive off the origin, C^2, and homogeneous of degree p, so they
satisfy the Euler identities

    p F          = u dF/du + v dF/dv,
    <D2F (u,v), (u,v)> = (p-1) (u dF/du + v dF/dv),

which the test suite checks on random samples.  The scalar power equation is
embedded as a pure_power coupling evaluated on (u, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PURE_POWER = "pure_power"
QUARTIC_COUPLED = "quartic_coupled"


def _signed_pow(x, q):
    """|x|^(q-1) x, defined as 0 at x = 0 for q > 0."""
    return np.sign(x) * np.abs(x) ** q


@dataclass(frozen=True)
class NonlinearityF:
    """A p-homogeneous C^2 coupling with positive values off the origin.

    Immutable after construction; safe to share across workers.
    """

    family: str
    p: float
    a1: float = 1.0
    a2: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.family not in (PURE_POWER, QUARTIC_COUPLED):
            raise ValueError(f"unknown family {self.family!r}")
        if not all(math.isfinite(x) for x in (self.p, self.a1, self.a2, self.b)):
            raise ValueError("p, a1, a2 and b must be finite")
        if not self.p > 2:
            raise ValueError("homogeneity degree p must exceed 2")
        if self.a1 <= 0 or self.a2 <= 0:
            raise ValueError("coefficients a1, a2 must be positive")
        if self.b < 0:
            raise ValueError("coupling b must be nonnegative")
        if self.family == QUARTIC_COUPLED and self.p != 4:
            raise ValueError("quartic_coupled fixes p = 4")
        if self.family == PURE_POWER and self.b != 0:
            raise ValueError("pure_power has no coupling term")

    def value(self, u, v):
        """F(u, v), elementwise on array input."""
        if self.family == PURE_POWER:
            return (self.a1 * np.abs(u) ** self.p + self.a2 * np.abs(v) ** self.p) / self.p
        u2, v2 = np.square(u), np.square(v)
        return (self.a1 * u2 * u2 + self.a2 * v2 * v2) / 4.0 + 0.5 * self.b * u2 * v2

    def grad(self, u, v):
        """(dF/du, dF/dv); each component is (p-1)-homogeneous."""
        if self.family == PURE_POWER:
            q = self.p - 1
            return self.a1 * _signed_pow(u, q), self.a2 * _signed_pow(v, q)
        fu = self.a1 * u ** 3 + self.b * u * np.square(v)
        fv = self.a2 * v ** 3 + self.b * np.square(u) * v
        return fu, fv

    def hess(self, u, v):
        """(F_uu, F_uv, F_vv) of the symmetric Hessian, elementwise.

        For pure_power with p < 4 the diagonal entries |.|^(p-2) are continuous
        down to 0 (one-sided limit 0 taken at the origin when p < 3, allowed
        because only p > 2 combinations are ever evaluated).
        """
        if self.family == PURE_POWER:
            q = self.p - 2
            c = self.p - 1
            fuu = self.a1 * c * np.abs(u) ** q
            fvv = self.a2 * c * np.abs(v) ** q
            return fuu, np.zeros_like(fuu), fvv
        fuu = 3.0 * self.a1 * np.square(u) + self.b * np.square(v)
        fuv = 2.0 * self.b * u * v
        fvv = 3.0 * self.a2 * np.square(v) + self.b * np.square(u)
        return fuu, fuv, fvv

    def coercivity_constant(self):
        """min of F on the l^p sphere |u|^p + |v|^p = 1 (strictly positive).

        Both families give min(a1, a2)/p: in x = |u|^p, F is linear for
        pure_power and, through the b sqrt(x (1 - x))/2 term, concave for the
        coupled family, so the minimum sits at an end x = 0 or x = 1.
        """
        return min(self.a1, self.a2) / self.p

    def growth_constant(self):
        """Smallest C with F(u,v) <= C (u^2 + v^2)^(p/2); max of F on the unit circle.

        It lies on an axis or, for quartic_coupled, at the critical point x*
        of F = (a1 x^2 + a2 (1-x)^2)/4 + b x (1-x)/2, x = cos^2 t, clipped to
        [0, 1].  pure_power peaks on the axes (|cos t|^p + |sin t|^p <= 1),
        which its x* candidate, a value on the circle, cannot exceed.
        """
        curvature = self.a1 + self.a2 - 2.0 * self.b
        x = min(max((self.a2 - self.b) / curvature, 0.0), 1.0) if curvature else 0.0
        return max(self.a1 / self.p, self.a2 / self.p,
                   float(self.value(math.sqrt(x), math.sqrt(1.0 - x))))


def pure_power(p, a1=1.0, a2=1.0):
    return NonlinearityF(PURE_POWER, float(p), float(a1), float(a2), 0.0)


def quartic_coupled(a1=1.0, a2=1.0, b=0.0):
    return NonlinearityF(QUARTIC_COUPLED, 4.0, float(a1), float(a2), float(b))
