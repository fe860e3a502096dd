"""The block-tridiagonal pencil kernel against dense symmetric eigensolves."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh
from scipy.linalg import solve_banded as scipy_solve_banded
from scipy.linalg.lapack import dstebz as scipy_dstebz
from scipy.linalg.lapack import dstein as scipy_dstein

from henon_morse import pencil as pencil_module
from henon_morse.errors import SingularPivot
from henon_morse.pencil import (
    _negative_pivots,
    count_below,
    dstebz,
    dstein,
    flux_pencil,
    gershgorin_floor,
    lowest_eigenpair,
    solve_banded,
)
from henon_morse.spectral import morse_index

from oracles import dense_flux_form, dense_pencil, dense_pencil_eigvals

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_every_package_module_is_loaded_before_any_draw():
    # Hypothesis draws from constants it reads in every loaded local module,
    # so the property tests here draw one example set, alone or in the suite,
    # only if the conftest loads the whole package first
    package = Path(pencil_module.__file__).parent
    assert {f"henon_morse.{f.stem}" for f in package.glob("*.py") if f.stem != "__init__"} \
        <= set(sys.modules)


@st.composite
def pencils(draw, max_nodes=8):
    """(d11, d12, d22, off, bw) with bounded entries and a positive mass."""
    n = draw(st.integers(1, max_nodes))
    entry = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    mass = st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False)

    def vec(k, el):
        return np.array(draw(st.lists(el, min_size=k, max_size=k)), dtype=float)

    return vec(n, entry), vec(n, entry), vec(n, entry), vec(n - 1, entry), vec(n, mass)


@st.composite
def scalar_pencils(draw, max_nodes=8):
    """(d11, 0, d22, off, bw) with masses graded down by up to 1e-6 along the nodes."""
    d11, _, d22, off, bw = draw(pencils(max_nodes))
    grade = draw(st.floats(0.0, 6.0, allow_nan=False))
    return d11, np.zeros_like(d11), d22, off, bw * np.logspace(0.0, -grade, len(bw))


@st.composite
def flux_forms(draw, max_nodes=8, ends=True):
    """(k, w, q11, q12, q22, bw) with links k >= 0; the outer two are 0 unless ``ends``."""
    n = draw(st.integers(1, max_nodes))
    entry = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    positive = st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False)

    def vec(k, el):
        return np.array(draw(st.lists(el, min_size=k, max_size=k)), dtype=float)

    k = vec(n + 1, st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False))
    if not ends:
        k[0] = k[-1] = 0.0
    return k, vec(n, positive), vec(n, entry), vec(n, entry), vec(n, entry), vec(n, positive)


def answer_or_reject(fn, *args):
    """fn(*args), with the declared SingularPivot breakdown discarded as an example.

    Hypothesis fails the test when it has to discard too many examples, so a
    kernel that broke down routinely would not pass.
    """
    try:
        return fn(*args)
    except SingularPivot:
        reject()


@PROPERTY
@given(pencils(), st.lists(st.floats(-12.0, 12.0, allow_nan=False), min_size=1, max_size=6))
@example(pencil=(np.array([1.0, -3.0, 2.0]), np.zeros(3), np.array([-1.0, 0.5, 4.0]),
                 np.array([2.0, -1.5]), np.array([0.5, 1.0, 2.0])), shifts=[-1.0, 0.0, 1.5])
@example(pencil=(np.array([1.5]), np.array([0.0]), np.array([-2.0]), np.array([]),
                 np.array([0.5])), shifts=[-4.5, 0.0, 2.9, 3.1])
def test_count_below_matches_dense_oracle(pencil, shifts):
    eig = dense_pencil_eigvals(*pencil)
    # below and above the whole spectrum, plus shifts clear of every eigenvalue
    span = 1.0 + float(np.max(np.abs(eig)))
    for s in [-2.0 * span, 2.0 * span] + shifts:
        if np.min(np.abs(eig - s)) <= 1e-8 * span:
            continue
        assert answer_or_reject(count_below, pencil, s) == int(np.sum(eig < s))


@PROPERTY
@given(pencils())
def test_gershgorin_floor_bounds_the_spectrum(pencil):
    eig = dense_pencil_eigvals(*pencil)
    assert gershgorin_floor(pencil) <= eig[0] + 1e-12 * (1.0 + abs(eig[0]))


def test_gershgorin_floor_of_a_flux_form_pencil():
    # -w'' - V w on (0, 1), Dirichlet: the stiffness 2/h - 1/h - 1/h cancels
    # on every interior row, so the floor is -max V exactly; the two rows next
    # to the boundary keep 1/h^2 - V
    mesh = 50
    h = 1.0 / mesh
    V = np.linspace(0.0, 3.0, mesh - 1)
    pencil = flux_pencil(np.full(mesh, 1.0 / h), h, -V, np.zeros(mesh - 1), -V[::-1],
                         np.full(mesh - 1, h))
    assert gershgorin_floor(pencil) == pytest.approx(-V[-2], abs=1e-12)


@PROPERTY
@given(flux_forms())
def test_flux_pencil_matches_dense_form(form):
    eig = dense_pencil_eigvals(*flux_pencil(*form))
    ref = eigh(*dense_flux_form(*form), eigvals_only=True)
    assert np.max(np.abs(eig - ref)) <= 1e-10 * (1.0 + float(np.max(np.abs(ref))))


@PROPERTY
@given(flux_forms(ends=False))
def test_gershgorin_floor_of_flux_forms_is_the_potential_floor(form):
    # with no outer links every row's reach is its whole stiffness
    k, w, q11, q12, q22, bw = form
    floor = min(np.linalg.eigvalsh([[a, b], [b, c]])[0] / m
                for a, b, c, m in zip(w * q11, w * q12, w * q22, bw))
    assert gershgorin_floor(flux_pencil(*form)) == pytest.approx(floor, abs=1e-12 * (1.0 + np.max(k)))


@PROPERTY
@given(pencils(), st.lists(st.floats(-12.0, 12.0, allow_nan=False), min_size=2, max_size=8))
def test_count_below_never_falls_as_the_shift_rises(pencil, shifts):
    counts = [answer_or_reject(count_below, pencil, s) for s in sorted(shifts)]
    assert counts == sorted(counts)


@PROPERTY
@given(pencils())
def test_lowest_eigenpair_matches_dense_oracle(pencil):
    eig = dense_pencil_eigvals(*pencil)
    mu, x = answer_or_reject(lowest_eigenpair, pencil)
    assert abs(mu - eig[0]) <= 1e-10 * (1.0 + abs(eig[0]))
    A, B = dense_pencil(*pencil)
    y = np.concatenate([x[0::2], x[1::2]])  # interleaved -> component-major
    assert float(y @ B @ y) == pytest.approx(1.0, rel=1e-12)
    scale = np.linalg.norm(A, 2) + (1.0 + abs(mu)) * np.linalg.norm(B, 2)
    assert np.linalg.norm(A @ y - mu * (B @ y)) <= 1e-6 * scale


def two_wells(link, coupling, m=40, grade=0.0):
    """Flux-form pencil of two mirror-image wells joined by one link, coupled when coupling != 0.

    With grade > 0 the potential and the masses carry the factor e^(-grade t)
    over t in (0, 2], as the weighted half-line forms carry e^(-delta t).
    """
    h = 1.0 / m
    well = 30.0 * np.exp(-40.0 * (h * np.arange(1, m + 1) - 0.5) ** 2)
    decay = np.exp(-grade * h * np.arange(1, 2 * m + 1))
    V = np.concatenate([well, well[::-1]]) * decay
    k = np.full(2 * m + 1, 1.0 / h)
    k[m] = link
    return flux_pencil(k, h, -V, coupling * V, -0.5 * V, h * decay)


@pytest.mark.parametrize("link, isolated", [(1e-7, True), (0.0, False)])
def test_lowest_eigenpair_of_two_weakly_coupled_wells(link, isolated, solve_shifts):
    # two mirror-image wells joined by one link: link 1e-7 puts lambda_2 about
    # 1e-8 |lambda_1| above lambda_1, so no 1e-3 bracket isolates lambda_1.
    # The bisection narrows on until count(hi) = 1, and the Kato-Temple bound
    # certifies the Rayleigh quotient against that hi in fewer counts than a
    # bisection to width 1e-13 takes.  Unjoined wells (link 0) share lambda_1,
    # no bracket isolates it, and the bisection goes on to width 1e-13.
    pen = two_wells(link, 0.3)
    eig = dense_pencil_eigvals(*pen)
    assert (eig[1] - eig[0] > 1e-9 * abs(eig[0])) == isolated

    mu, x = lowest_eigenpair(pen)
    assert abs(mu - eig[0]) <= 1e-12 * abs(eig[0])
    if isolated:
        assert abs(mu - eig[0]) < 1e-3 * (eig[1] - eig[0])  # lambda_1, not lambda_2
    assert solve_shifts and (len(solve_shifts) < 40) == isolated, len(solve_shifts)
    A, B = dense_pencil(*pen)
    y = np.concatenate([x[0::2], x[1::2]])
    scale = np.linalg.norm(A, 2) + (1.0 + abs(mu)) * np.linalg.norm(B, 2)
    assert np.linalg.norm(A @ y - mu * (B @ y)) <= 1e-6 * scale


@st.composite
def split_pencils(draw, max_nodes=8):
    """(d11, 0, d22, off, bw) or (d11, d12, d11, off, bw), masses scaled by 10^k, k in [-40, 2]."""
    d11, d12, d22, off, bw = draw(pencils(max_nodes))
    if draw(st.booleans()):
        d12 = np.zeros_like(d11)
    else:
        d22 = d11.copy()
    return d11, d12, d22, off, bw * 10.0 ** draw(st.floats(-40.0, 2.0))


@PROPERTY
@given(split_pencils())
@example(pencil=(np.array([5.0, 5.0]), np.zeros(2), np.array([-1.0, 0.0]),  # lambda_1 in block 2
                 np.array([1.0]), np.array([1.0, 2.0])))
@example(pencil=(np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([1.0, 1.0]),  # in w1 - w2
                 np.array([-0.5]), np.array([1e-40, 3e-40])))
@example(pencil=two_wells(0.0, 0.0))  # two unjoined wells: a double lambda_1 in block 1
# lambda_1 = 0: the banded route's Rayleigh step at rho about -1e-155 overflows x^T B x
@example(pencil=(np.array([0.0]), np.zeros(1), np.array([3.0]), np.array([]),
                 np.array([2.5e-15])))
def test_lowest_eigenpair_of_split_pencils(pencil):
    # against the dense oracle and the banded route on the same bracket; the
    # block that does not hold lambda_1 is exactly 0 (d12 = 0), or the
    # eigenvector is exactly a rotated one, w1 = +-w2 (d11 = d22)
    d11, d12, d22, off, bw = pencil
    eig = dense_pencil_eigvals(*pencil)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(eig))))
    mu, x = answer_or_reject(lowest_eigenpair, pencil)
    assert abs(mu - eig[0]) <= tol
    A, B = dense_pencil(*pencil)
    y = np.concatenate([x[0::2], x[1::2]])
    assert float(y @ B @ y) == pytest.approx(1.0, rel=1e-12)
    # the residual in the scaled form B^-1/2 A B^-1/2, whose norm is max |eig|
    r = (A @ y - mu * (B @ y)) / np.sqrt(np.diag(B))
    assert np.linalg.norm(r) <= 1e-8 * (1.0 + float(np.max(np.abs(eig))))
    if np.any(d12):
        assert np.array_equal(x[0::2], x[1::2]) or np.array_equal(x[0::2], -x[1::2])
    else:
        assert not np.any(x[0::2]) or not np.any(x[1::2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pencil_module, "_split_eigenvector", lambda *args: None)
        try:
            mu_banded, x_banded = answer_or_reject(lowest_eigenpair, pencil)
        except np.linalg.LinAlgError:
            # the banded route shifts 1e-6 (1 + |mu|) off mu, below rounding
            # when tiny masses scale the spectrum up: an exactly singular band
            assert np.max(np.abs(eig)) > 1e9
            return
    assert abs(mu - mu_banded) <= tol
    if eig[1] - eig[0] > 1e-3 * (1.0 + float(np.max(np.abs(eig)))):  # a simple lambda_1
        assert abs(float(np.dot(np.repeat(bw, 2) * x, x_banded))) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_singular_first_pivot_is_nudged(n):
    # A - sB has the exactly singular first pivot [[1, 2], [2, 4]] at s = 2,
    # while the coupling to the other nodes keeps s clear of the spectrum
    s = 2.0
    d11 = np.full(n, 3.0)
    d12 = np.full(n, 0.5)
    d22 = np.full(n, -1.0)
    bw = np.full(n, 0.5)
    d11[0], d12[0], d22[0] = 2.0, 2.0, 5.0
    off = np.full(n - 1, -0.75)
    pencil = (d11, d12, d22, off, bw)
    with pytest.raises(SingularPivot):
        _negative_pivots(d11 - s * bw, d12, d22 - s * bw, off)
    eig = dense_pencil_eigvals(*pencil)
    assert np.min(np.abs(eig - s)) > 1e-6
    assert count_below(pencil, s) == int(np.sum(eig < s))


def test_large_rank_one_pivot_is_nudged_past_its_band():
    # the rank-one first pivot [[1e6, 1e6], [1e6, 1e6]] reads singular within
    # about 5e-8 of s = 0, wider than a nudge relative to 1 + |s|; the
    # pencil's eigenvalues (about -0.62, 1.0, 1.62, 2e6) avoid 0, and a nudge
    # sized to the band counts the one below it
    big = 1e6
    pencil = (np.array([big, 1.0]), np.array([big, 0.0]), np.array([big, 1.0]),
              np.array([-1.0]), np.array([1.0, 1.0]))
    with pytest.raises(SingularPivot):
        _negative_pivots(*pencil[:4])
    assert count_below(pencil, 0.0) == int(np.sum(dense_pencil_eigvals(*pencil) < 0.0)) == 1
    # d11 = d22 above, which LAPACK counts on the split pencil; with d22 != d11
    # the count runs the pivot recursion and its nudge
    pencil[2][1] = 2.0
    with pytest.raises(SingularPivot):
        _negative_pivots(*pencil[:4])
    assert count_below(pencil, 0.0) == int(np.sum(dense_pencil_eigvals(*pencil) < 0.0)) == 1


@PROPERTY
@given(pencils(), st.integers(0, 1))
@example(pencil=(np.array([4.0, 1.0]), np.array([4.0, 0.0]), np.array([4.0, -2.0]),
                 np.array([3.0]), np.array([0.1, 1.0])), which=0)
@example(pencil=(np.array([4.0, 1.0]), np.zeros(2), np.array([6.0, -2.0]),
                 np.array([3.0]), np.array([0.1, 1.0])), which=0)
def test_count_below_at_a_singular_leading_pivot(pencil, which):
    # at an eigenvalue of the leading block alone its pivot is singular, while
    # the coupling keeps the pencil's spectrum away: a well-posed count
    d11, d12, d22, off, bw = pencil
    s = float(np.linalg.eigvalsh([[d11[0], d12[0]], [d12[0], d22[0]]])[which]) / bw[0]
    eig = dense_pencil_eigvals(*pencil)
    if np.min(np.abs(eig - s)) <= 1e-6 * (1.0 + float(np.max(np.abs(eig)))):
        return
    assert count_below(pencil, s) == int(np.sum(eig < s))


@PROPERTY
@given(scalar_pencils(), st.lists(st.floats(-12.0, 12.0, allow_nan=False),
                                  min_size=1, max_size=6))
def test_count_below_of_uncoupled_pencils(pencil, shifts):
    # d12 = 0 pencils are counted by LAPACK: against the dense oracle at
    # shifts clear of the spectrum, and against the pivot recursion wherever
    # it reads no zero pivot
    d11, d12, d22, off, bw = pencil
    eig = dense_pencil_eigvals(*pencil)
    span = 1.0 + float(np.max(np.abs(eig)))
    for s in [-2.0 * span, 2.0 * span] + shifts:
        count = count_below(pencil, s)
        if np.min(np.abs(eig - s)) > 1e-8 * span:
            assert count == int(np.sum(eig < s))
        try:
            assert count == _negative_pivots(d11 - s * bw, d12, d22 - s * bw, off)
        except SingularPivot:
            pass


@st.composite
def symmetric_pencils(draw, max_nodes=8):
    """(d11, d12, d11, off, bw): the diagonal u = v of a symmetric coupled system."""
    d11, d12, _, off, bw = draw(pencils(max_nodes))
    return d11, d12, d11.copy(), off, bw


@PROPERTY
@given(symmetric_pencils(), st.lists(st.floats(-12.0, 12.0, allow_nan=False),
                                     min_size=1, max_size=6))
@example(pencil=(np.array([1.0, -2.0, 0.5]), np.array([2.0, 0.5, -1.5]), np.array([1.0, -2.0, 0.5]),
                 np.array([1.0, -0.75]), np.array([0.5, 1.0, 2.0])), shifts=[-3.0, 0.0, 2.5])
def test_count_below_of_symmetric_coupled_pencils(pencil, shifts):
    # d11 = d22 pencils split into two tridiagonal ones counted by LAPACK:
    # against eigvalsh of B^-1/2 A B^-1/2 at shifts clear of the spectrum,
    # and against the pivot recursion wherever it reads no zero pivot
    d11, d12, d22, off, bw = pencil
    A, B = dense_pencil(*pencil)
    root = 1.0 / np.sqrt(np.diag(B))
    eig = np.linalg.eigvalsh(root[:, None] * A * root[None, :])
    span = 1.0 + float(np.max(np.abs(eig)))
    for s in [-2.0 * span, 2.0 * span] + shifts:
        if np.min(np.abs(eig - s)) <= 1e-8 * span:
            continue
        count = count_below(pencil, s)
        assert count == int(np.sum(eig < s))
        try:
            assert count == _negative_pivots(d11 - s * bw, d12, d22 - s * bw, off)
        except SingularPivot:
            pass


def test_bisection_stops_in_a_zero_pivot_band():
    # one node, rank-one block: eigenvalues 0 and 32; near 0 the pivot stays
    # singular under every shift nudge, so bisection ends on the pinned bracket
    pencil = (np.array([2.0]), np.array([2.0]), np.array([2.0]),
              np.array([]), np.array([0.125]))
    mu, x = lowest_eigenpair(pencil)
    assert abs(mu) <= 1e-10
    assert abs(x[0] + x[1]) <= 1e-8 * abs(x[0])


def recorded(monkeypatch, name):
    """The argument tuples of every call the pencil module makes to ``name`` from now on."""
    calls, real = [], getattr(pencil_module, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pencil_module, name, record)
    return calls


@pytest.mark.parametrize("coupling", [0.0, 0.3])
@pytest.mark.parametrize("link", [1e-7, 0.0])
def test_solve_banded_is_scipys_on_lowest_eigenpair_bands(link, coupling, monkeypatch):
    # the shifted (2, 2) bands of the inverse and Rayleigh-quotient steps,
    # isolated (link 1e-7) or not (link 0), on pencils that take them: a
    # coupled one, and a scalar one whose split solve fails the Kato-Temple
    # test, here on masses graded down to e^-40 like a weighted form's, where
    # rounding on the rows of tiny mass keeps eps^2 high on both routes
    calls = recorded(monkeypatch, "solve_banded")
    lowest_eigenpair(two_wells(link, coupling, m=400, grade=0.0 if coupling else 20.0))
    assert len(calls) >= 5  # four inverse steps, then Rayleigh steps or six more
    for l_and_u, ab, b in calls:
        assert l_and_u == (2, 2)
        assert np.array_equal(solve_banded(l_and_u, ab, b), scipy_solve_banded(l_and_u, ab, b))


def test_split_pencils_make_no_banded_solve(monkeypatch):
    # the same wells on uniform masses: the split solve passes, with no dgbsv
    # call, and each solve builds its split form once for all its counts
    calls = recorded(monkeypatch, "solve_banded")
    forms = recorded(monkeypatch, "split_form")
    for link in (1e-7, 0.0):
        lowest_eigenpair(two_wells(link, 0.0, m=400))
    assert calls == [] and len(forms) == 2


def test_a_split_vector_the_bound_rejects_takes_the_banded_steps(monkeypatch):
    # symmetric coupled wells (d22 = d11) on masses graded down to e^-55: the
    # rotated split vector's eps^2 is about 3.7 times the Kato-Temple bound, by
    # rounding on the rows of tiny mass, while four inverse steps and three
    # Rayleigh steps meet it at half the bound.  A split pencil whose vector
    # the bound rejects therefore keeps the banded steps.
    d11, d12, _, off, bw = two_wells(0.0, 0.3, m=40, grade=27.5)
    pen = (d11, d12, d11, off, bw)
    calls = recorded(monkeypatch, "solve_banded")
    mu, x = lowest_eigenpair(pen)
    assert len(calls) == 7  # not the 13 of a bisection to width 1e-13
    assert not np.array_equal(x[0::2], x[1::2])  # not the rotated split vector
    tol = 1e-12 * (1.0 + abs(mu))
    assert count_below(pen, mu - tol) == 0 and count_below(pen, mu + tol) == 1


@PROPERTY
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    arrays(float, (5, n), elements=st.floats(-4.0, 4.0)), arrays(float, n, elements=st.floats(-4.0, 4.0)))))
def test_solve_banded_is_scipys_on_random_bands(band):
    # n >= 2: scipy divides a 1 x 1 system by hand instead of calling dgbsv
    ab, b = band
    try:
        want = scipy_solve_banded((2, 2), ab, b)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            solve_banded((2, 2), ab, b)
        return
    # equal_nan: a band of subnormals overflows to nan in both, at the same entries
    assert np.array_equal(solve_banded((2, 2), ab, b), want, equal_nan=True)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["ab", "b"])
def test_solve_banded_refuses_non_finite_input(bad, where):
    ab, b = np.ones((5, 4)), np.ones(4)
    ab[2] = 5.0
    (ab[1] if where == "ab" else b)[2] = bad
    with pytest.raises(ValueError):
        solve_banded((2, 2), ab, b)


def test_solve_banded_raises_linalg_error_on_a_singular_band():
    ab = np.zeros((5, 4))
    ab[2] = [1.0, 2.0, 0.0, 3.0]  # diagonal with an exact zero
    with pytest.raises(np.linalg.LinAlgError):
        scipy_solve_banded((2, 2), ab, np.ones(4))
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((2, 2), ab, np.ones(4))


def test_dstebz_is_scipys_on_sector_counts(solve, monkeypatch):
    # every stacked scalar count of a Morse index: the same count tuple as
    # scipy.linalg.lapack's dstebz, from the same wrapper loaded by file path
    calls = recorded(monkeypatch, "dstebz")
    morse_index(solve(2, 4.0), 400)
    assert len(calls) >= 10
    for args in calls:
        ours, theirs = dstebz(*args), scipy_dstebz(*args)
        assert len(ours) == len(theirs) and all(map(np.array_equal, ours, theirs))


@pytest.mark.parametrize("coupling", [0.0, 0.3])
def test_dstein_is_scipys_on_split_eigenvectors(coupling, monkeypatch):
    # a scalar pencil and a symmetric coupled one (d22 = d11), each solved on
    # its split form: the same vector as scipy.linalg.lapack's dstein
    calls = recorded(monkeypatch, "dstein")
    d11, d12, _, off, bw = two_wells(1e-7, coupling, m=400)
    lowest_eigenpair((d11, d12, d11, off, bw))
    assert len(calls) == 1
    ours, theirs = dstein(*calls[0]), scipy_dstein(*calls[0])
    assert all(map(np.array_equal, ours, theirs))
