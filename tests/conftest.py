import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

# every package module, whichever test files are collected: Hypothesis mixes the
# constants of the loaded local modules into its draws, so the modules loaded
# would otherwise decide a property test's examples
import henon_morse.cli  # noqa: F401, E402
from henon_morse.nonlinearity import pure_power, quartic_coupled
from henon_morse.radial_bvp import ProblemParams, shoot_nodal, shoot_positive

_CACHE = {}


@pytest.fixture(scope="session")
def solve():
    """Cached certified solutions shared across test modules."""

    def get(N, alpha, p=4.0, mu=0.0, nodes=0, grid=4000, family="pure_power", b=0.0):
        key = (N, alpha, p, mu, nodes, grid, family, b)
        if key not in _CACHE:
            f = pure_power(p) if family == "pure_power" else quartic_coupled(b=b)
            params = ProblemParams(N=N, alpha=alpha, mu1=mu, mu2=mu, f=f)
            if nodes == 0:
                _CACHE[key] = shoot_positive(params, tol=1e-10, grid_size=grid)
            else:
                _CACHE[key] = shoot_nodal(params, nodes, tol=1e-10, grid_size=grid)
        return _CACHE[key]

    return get


@pytest.fixture
def solve_shifts(monkeypatch):
    """The shift of every inertia count the pencil kernel makes during the test.

    Recorded at ``pencil._count_below``, which every eigen-solve and every
    ``count_below`` call runs.
    """
    from henon_morse import pencil

    shifts, real = [], pencil._count_below

    def counted(pen, form, s):
        shifts.append(s)
        return real(pen, form, s)

    monkeypatch.setattr(pencil, "_count_below", counted)
    return shifts
