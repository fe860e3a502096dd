"""The autonomous limit system and its instability certificates.

Bounded trajectories of

    -u'' = s dF/du(u, v),   -v'' = s dF/dv(u, v)

on the line or half line conserve E = (u'^2 + v'^2)/2 + s F(u, v), and no
nontrivial bounded trajectory is stable outside a compact set: in every far
window (a, b) some compactly supported pair phi makes

    q(phi) = int (|phi'|^2 - s <D2F(u, v) phi, phi>) dt

strictly negative.  ``instability_witness`` certifies this by the smallest
Dirichlet eigenvalue of -d^2/dt^2 - s D2F(u, v) on the window, held by an
isolating Sturm bracket and the Kato-Temple bound on the Rayleigh quotient
of its minimizer (``pencil.lowest_eigenpair``), an explicit witness.

The module also provides the two constructive ingredients used by the
blow-up machinery: logarithmic cutoffs psi_n = phi(ln t / n) u approximating
a finite-energy half-line function by compactly supported ones, and the
doubling-point selection on sampled positive grid functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.optimize import minimize_scalar

from .errors import NonTermination, OverflowBlowUp
from .nonlinearity import NonlinearityF
from .pencil import flux_pencil, lowest_eigenpair
from .radial_bvp import BLOWUP_GUARD, blowup_event, dop853_evaluator

FULL_LINE = "full_line"
HALF_LINE = "half_line"


@dataclass
class LimitTrajectory:
    """A sampled trajectory of the autonomous limit system.

    ``dense`` evaluates t -> (u, v, du, dv) anywhere on [0, T], by
    ``radial_bvp.dop853_evaluator`` on the integration's steps.  ``period``
    is the period P of a closed scalar orbit, whose ``dense`` evaluates one
    integrated period at t mod P; it is None for every other trajectory.
    """

    f: NonlinearityF
    interval: str
    scale: float
    tgrid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    dense: Callable = field(repr=False, compare=False)
    period: Optional[float] = None

    @property
    def is_trivial(self):
        return float(np.max(np.abs(self.u)) + np.max(np.abs(self.v))
                     + np.max(np.abs(self.du)) + np.max(np.abs(self.dv))) == 0.0


def integrate_limit_system(f, scale, interval, init, T, steps=2000):
    """Trajectory of -u'' = s dF/du, -v'' = s dF/dv from the given initial data.

    Half-line trajectories must start from u = v = 0.

    A scalar start (v = v' = 0, dF/dv(+-1, 0) = 0) at s > 0 lies on a closed
    orbit with a convex energy sublevel set, so the Poincare section through
    the start, normal to the flow there, is crossed upward only at the start.
    The second upward crossing ends the integration (rtol = atol = 1e-13)
    after one period P; ``dense`` evaluates it at t mod P, and the energy
    drift is that of one period, whatever T.  Coupled starts, and orbits not
    closed by T, are integrated over [0, T] (coupled at rtol = atol = 1e-12).
    """
    if steps < 1000:
        raise ValueError("steps must be at least 1000")
    u0, v0, du0, dv0 = (float(x) for x in init)
    if interval == HALF_LINE and (u0 != 0.0 or v0 != 0.0):
        raise ValueError("half-line trajectories start from u(0) = v(0) = 0")
    if interval not in (FULL_LINE, HALF_LINE):
        raise ValueError(f"unknown interval {interval!r}")

    tgrid = np.linspace(0.0, T, steps + 1)
    if (u0, v0, du0, dv0) == (0.0, 0.0, 0.0, 0.0):
        z = np.zeros_like(tgrid)
        return LimitTrajectory(f, interval, scale, tgrid, z, z.copy(), z.copy(), z.copy(),
                               dense=lambda t: np.zeros((4,) + np.shape(t)))

    grad = f.pointwise()[0]

    def rhs(t, y):
        u, v, du, dv = y.tolist()
        fu, fv = grad(u, v)
        return (du, dv, -scale * fu, -scale * fv)

    y0 = np.array([u0, v0, du0, dv0])
    events, tol = [blowup_event()], 1e-12
    scalar = (v0 == 0.0 and dv0 == 0.0 and scale > 0
              and not np.any(f.grad(np.array([1.0, -1.0]), np.zeros(2))[1]))
    if scalar:
        # E = u'^2/2 + s F(u, 0) is conserved, so |u| turns at (E / (s F(1, 0)))^(1/p)
        energy = 0.5 * (du0 * du0) + scale * float(f.value(u0, 0.0))
        turning = (energy / (scale * float(f.value(1.0, 0.0)))) ** (1.0 / f.p)
        if turning > BLOWUP_GUARD:
            raise OverflowBlowUp(f"limit trajectory exceeded {BLOWUP_GUARD:.0e}: its energy "
                                 f"{energy:.3e} turns at |u| = {turning:.3e}")
        normal = np.array(rhs(0.0, y0))

        def section(t, y):
            return float(np.dot(y - y0, normal))

        section.direction = 1.0
        section.terminal = 2  # the first crossing is the start itself
        events, tol = [*events, section], 1e-13
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853",
                    rtol=tol, atol=tol, dense_output=True, events=events)
    if len(sol.t_events[0]):
        raise OverflowBlowUp(f"limit trajectory exceeded {BLOWUP_GUARD:.0e} at t = {sol.t[-1]:.3f}")
    period, dense = None, dop853_evaluator(sol.sol)
    if scalar and len(sol.t_events[1]) == 2:
        period, one_period = float(sol.t_events[1][1]), dense
        dense = lambda t: one_period(np.mod(t, period))
    vals = dense(tgrid)
    return LimitTrajectory(f, interval, scale, tgrid,
                           vals[0], vals[1], vals[2], vals[3], dense=dense, period=period)


def energy_of(traj):
    """E(t) = (u'^2 + v'^2)/2 + s F(u, v) sampled along the trajectory."""
    return 0.5 * (traj.du ** 2 + traj.dv ** 2) + traj.scale * traj.f.value(traj.u, traj.v)


def lower_mass_window(traj, eps, refine=2000):
    """Window centers and masses of |u|^p + |v|^p around its local maxima.

    Centers are local maxima of the density spaced at least 1 apart; each
    mass is the integral over (center - eps, center + eps).  For a nontrivial
    bounded trajectory the masses stay above a common positive bound.

    Peak centers are polished by Brent's bounded minimizer on the dense
    evaluator and each mass is integrated on its own window subgrid, so
    masses of congruent windows agree to quadrature precision.
    """
    # deferred: importing scipy.signal roughly doubles the package import time
    from scipy.signal import find_peaks

    t = traj.tgrid
    dt = t[1] - t[0]
    p = traj.f.p

    def density_arrays(u, v):
        return np.abs(u) ** p + np.abs(v) ** p

    g = density_arrays(traj.u, traj.v)
    if float(np.max(g)) == 0.0:
        return []
    peaks, _ = find_peaks(g, distance=max(int(round(1.0 / dt)), 1))

    def neg_density(x):
        vals = traj.dense(x)
        return -(abs(float(vals[0])) ** p + abs(float(vals[1])) ** p)

    out = []
    for idx in peaks:
        c = minimize_scalar(neg_density, bounds=(float(t[idx]) - dt, float(t[idx]) + dt),
                            method="bounded", options={"xatol": 1e-13}).x
        if c - eps < t[0] or c + eps > t[-1]:
            continue
        ts = np.linspace(c - eps, c + eps, refine + 1)
        vals = traj.dense(ts)
        out.append((c, float(simpson(density_arrays(vals[0], vals[1]), x=ts))))
    return out


def instability_witness(traj, window, mesh=800):
    """Smallest Dirichlet eigenvalue of the second variation on a window.

    Returns (q_min, (ts, phi1, phi2)) where q_min is the minimum of q over
    test pairs supported in (a, b) scaled to unit mass and phi is the
    minimizer (including the boundary zeros).  q_min < 0 certifies an
    instability witness; re-verify by quadrature of q on phi.
    """
    a, b = float(window[0]), float(window[1])
    if not (traj.tgrid[0] <= a < b <= traj.tgrid[-1]):
        raise ValueError("window must lie inside the trajectory domain")
    h = (b - a) / mesh
    ts = a + h * np.arange(1, mesh)  # interior nodes
    vals = traj.dense(ts)
    fuu, fuv, fvv = traj.f.hess(vals[0], vals[1])
    # mesh links of weight 1/h, both outer ones kept: Dirichlet at a and b
    q_min, x = lowest_eigenpair(flux_pencil(np.full(mesh, 1.0 / h), h * traj.scale,
                                            -fuu, -fuv, -fvv, np.full(mesh - 1, h)))
    tfull = np.concatenate([[a], ts, [b]])
    phi1 = np.concatenate([[0.0], x[0::2], [0.0]])
    phi2 = np.concatenate([[0.0], x[1::2], [0.0]])
    return q_min, (tfull, phi1, phi2)


def witness_quadrature(traj, pair):
    """Direct evaluation of q on a sampled pair, for soundness rechecks.

    Uses the same lowest-order forms the window discretization encodes
    (forward-difference gradient energy, node-lumped potential), so a
    converged eigenpair reproduces q_min times its mass exactly.
    """
    ts, phi1, phi2 = pair
    h = ts[1] - ts[0]
    grad = float(np.sum(np.diff(phi1) ** 2 + np.diff(phi2) ** 2) / h)
    vals = traj.dense(ts)
    fuu, fuv, fvv = traj.f.hess(vals[0], vals[1])
    pot = float(np.sum(h * traj.scale * (
        fuu * phi1 ** 2 + 2.0 * fuv * phi1 * phi2 + fvv * phi2 ** 2)))
    mass = float(np.sum(h * (phi1 ** 2 + phi2 ** 2)))
    return grad - pot, mass


def mother_plateau(x):
    """C-infinity plateau: 1 on [-1, 1], 0 outside [-2, 2], monotone between."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    out[x <= 1.0] = 1.0
    band = (x > 1.0) & (x < 2.0)
    xb = x[band]

    def S(y):
        with np.errstate(over="ignore"):
            return np.where(y > 0, np.exp(-1.0 / np.maximum(y, 1e-300)), 0.0)

    num = S(2.0 - xb)
    out[band] = num / (num + S(xb - 1.0))
    return out


def mother_plateau_dsup():
    """Numerical sup of |phi'| for the plateau mother function."""
    x = np.linspace(1.0, 2.0, 200_001)
    phi = mother_plateau(x)
    return float(np.max(np.abs(np.gradient(phi, x))))


def cutoff_sequence(tgrid, u, n):
    """psi_n = phi(ln t / n) u: compactly supported truncation of u.

    Vanishes for t <= exp(-2n) and t >= exp(2n); equals u on
    [exp(-n), exp(n)].  As n grows the derivative energy of u - psi_n
    decays like 1/n for finite-energy u with u(0) = 0.
    """
    t = np.asarray(tgrid, dtype=float)
    u = np.asarray(u, dtype=float)
    phi_n = np.zeros_like(t)
    pos = t > 0
    phi_n[pos] = mother_plateau(np.log(t[pos]) / n)
    return phi_n * u


def doubling_point(points, M, i_star):
    """Index of a grid point where M is large and doubled-controlled nearby.

    Runs the constructive selection: starting from i_star, repeatedly jump to
    any point within distance M(s)/M(current) whose value exceeds twice the
    current one (taking the argmax among violators for determinism).  The
    returned index i satisfies, exactly on the grid,

        M(t_i) >= M(t_star)  and  M(t) <= 2 M(t_i)
        for all grid t with |t - t_i| <= M(t_star)/M(t_i),

    and lies within distance 2 of the start.
    """
    pts = np.asarray(points, dtype=float)
    M = np.asarray(M, dtype=float)
    if np.any(M <= 0):
        raise ValueError("M must be strictly positive on the grid")
    m_star = M[i_star]
    cur = int(i_star)
    max_steps = int(math.ceil(math.log2(float(np.max(M)) / m_star))) + 2 if np.max(M) > m_star else 2
    for _ in range(max_steps + 1):
        radius = m_star / M[cur]
        ball = np.abs(pts - pts[cur]) <= radius
        violators = ball & (M > 2.0 * M[cur])
        if not np.any(violators):
            return cur
        idx = np.nonzero(violators)[0]
        cur = int(idx[np.argmax(M[idx])])
    raise NonTermination(
        "doubling selection exceeded its a-priori step bound; "
        "check the grid metric"
    )
