"""Homogeneity identities and sharp constants of the coupling families."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from henon_morse.nonlinearity import NonlinearityF, pure_power, quartic_coupled

from oracles import fd_hessian, max_on_circle_sampled, min_on_p_sphere_sampled

RNG = np.random.default_rng(20260809)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

FAMILIES = [
    pure_power(2.5),
    pure_power(3),
    pure_power(4),
    pure_power(6),
    pure_power(3, a1=2.0, a2=0.5),
    quartic_coupled(),
    quartic_coupled(b=1.0),
    quartic_coupled(b=2.0),
    quartic_coupled(a1=2.0, a2=0.7, b=0.3),
]


def sample_points(n=200, scale=3.0):
    return RNG.uniform(-scale, scale, size=(n, 2))


def test_value_examples():
    assert pure_power(4).value(1.0, 1.0) == pytest.approx(0.5)
    assert quartic_coupled().value(1.0, 0.0) == pytest.approx(0.25)
    for f in FAMILIES:
        assert f.value(0.0, 0.0) == 0.0


def test_positivity_off_origin():
    for f in FAMILIES:
        pts = sample_points(500)
        mask = np.any(pts != 0, axis=1)
        vals = f.value(pts[mask, 0], pts[mask, 1])
        assert np.all(vals > 0)


def test_grad_examples():
    fu, fv = quartic_coupled().grad(1.0, 0.0)
    assert (fu, fv) == (1.0, 0.0)
    fu, fv = pure_power(3).grad(2.0, 0.0)
    assert fu == pytest.approx(4.0)
    assert fv == 0.0


def test_euler_identity():
    for f in FAMILIES:
        for u, v in sample_points():
            fu, fv = f.grad(u, v)
            lhs = f.p * f.value(u, v)
            rhs = fu * u + fv * v
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_hessian_euler_identity():
    for f in FAMILIES:
        for u, v in sample_points():
            fuu, fuv, fvv = f.hess(u, v)
            quad = fuu * u * u + 2 * fuv * u * v + fvv * v * v
            fu, fv = f.grad(u, v)
            rhs = (f.p - 1) * (fu * u + fv * v)
            assert abs(quad - rhs) <= 1e-10 * (1 + abs(rhs))


def test_hessian_against_finite_differences():
    for f in FAMILIES:
        for u, v in sample_points(50, scale=2.0):
            fuu, fuv, fvv = f.hess(u, v)
            ouu, ouv, ovv = fd_hessian(f, u, v)
            assert fuu == pytest.approx(ouu, abs=1e-5)
            assert fuv == pytest.approx(ouv, abs=1e-5)
            assert fvv == pytest.approx(ovv, abs=1e-5)


def test_hessian_quartic_at_ones():
    # direct differentiation: F_uu = 3 a1 u^2 + b v^2 etc.
    for b in (0.0, 1.0, 2.0):
        f = quartic_coupled(b=b)
        fuu, fuv, fvv = f.hess(1.0, 1.0)
        assert fuu == pytest.approx(3.0 + b)
        assert fuv == pytest.approx(2.0 * b)
        assert fvv == pytest.approx(3.0 + b)


def test_superquadraticity():
    for f in FAMILIES:
        c = f.coercivity_constant()
        for u, v in sample_points():
            fuu, fuv, fvv = f.hess(u, v)
            fu, fv = f.grad(u, v)
            quad = fuu * u * u + 2 * fuv * u * v + fvv * v * v
            lin = fu * u + fv * v
            bound = f.p * (f.p - 2) * c * (abs(u) ** f.p + abs(v) ** f.p)
            assert quad - lin >= bound - 1e-9 * (1 + abs(quad))


def test_homogeneity_in_t():
    for f in FAMILIES:
        for u, v in sample_points(20):
            base = f.value(u, v)
            for t in (0.5, 1.0, 2.0, 10.0):
                scaled = f.value(t * u, t * v) / t ** f.p
                assert scaled == pytest.approx(base, rel=1e-10, abs=1e-12)


def test_grad_hess_homogeneity_degrees():
    for f in FAMILIES:
        for u, v in sample_points(20):
            for t in (0.5, 2.0):
                gu, gv = f.grad(u, v)
                gut, gvt = f.grad(t * u, t * v)
                assert gut == pytest.approx(t ** (f.p - 1) * gu, rel=1e-10, abs=1e-12)
                assert gvt == pytest.approx(t ** (f.p - 1) * gv, rel=1e-10, abs=1e-12)
                h = np.array(f.hess(u, v))
                ht = np.array(f.hess(t * u, t * v))
                assert np.allclose(ht, t ** (f.p - 2) * h, rtol=1e-10, atol=1e-12)


def test_coercivity_constant():
    assert pure_power(4).coercivity_constant() == pytest.approx(0.25)
    assert pure_power(3, a1=2.0, a2=0.5).coercivity_constant() == pytest.approx(0.5 / 3)
    # coupling term is nonnegative, so the minimum stays at the axes
    assert quartic_coupled(b=1.0).coercivity_constant() >= 0.25 - 1e-12
    for f in FAMILIES:
        sampled = min_on_p_sphere_sampled(f)
        assert f.coercivity_constant() == pytest.approx(sampled, rel=1e-6, abs=1e-8)


def test_growth_constant():
    assert pure_power(4).growth_constant() == pytest.approx(0.25)
    assert quartic_coupled(b=2.0).growth_constant() == pytest.approx(0.375)
    for f in FAMILIES:
        sampled = max_on_circle_sampled(f)
        assert f.growth_constant() == pytest.approx(sampled, rel=1e-6, abs=1e-8)


def test_growth_constant_is_an_upper_bound():
    for f in FAMILIES:
        C = f.growth_constant()
        pts = sample_points(10_000)
        u, v = pts[:, 0], pts[:, 1]
        lhs = f.value(u, v)
        rhs = C * (u * u + v * v) ** (f.p / 2)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


def test_validation():
    with pytest.raises(ValueError):
        pure_power(2.0)
    with pytest.raises(ValueError):
        pure_power(4, a1=-1.0)
    with pytest.raises(ValueError):
        quartic_coupled(b=-0.5)


@pytest.mark.parametrize("field", ["p", "a1", "a2", "b"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_validation_rejects_non_finite(field, value):
    args = {"family": "quartic_coupled", "p": 4.0, "a1": 1.0, "a2": 1.0, "b": 0.5}
    with pytest.raises(ValueError, match="finite"):
        NonlinearityF(**{**args, field: value})


# -- the float kernel of the right-hand sides ---------------------------------

coefficient = st.floats(0.1, 10.0)


@st.composite
def couplings(draw):
    """Either family: pure_power with p in (2, 12], or quartic_coupled with b in [0, 4]."""
    if draw(st.booleans()):
        return pure_power(draw(st.floats(2.0, 12.0, exclude_min=True)),
                          draw(coefficient), draw(coefficient))
    return quartic_coupled(draw(coefficient), draw(coefficient), draw(st.floats(0.0, 4.0)))


# every finite double: +-0, subnormals, both signs, and values whose powers overflow
finite = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = 5e-324


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@PROPERTY
@given(couplings(), finite, finite)
@example(pure_power(4), -0.0, 0.0)
@example(pure_power(2.5), -SUBNORMAL, 0.0)
@example(pure_power(12), 1e-300, -3.0)
@example(quartic_coupled(b=0.5), -0.0, -0.0)
@example(quartic_coupled(b=0.0), 1e200, -1e200)
def test_pointwise_kernel_is_grad_and_hess_bit_for_bit(f, u, v):
    grad, hess = f.pointwise()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = (*f.grad(np.float64(u), np.float64(v)), *f.hess(np.float64(u), np.float64(v)))
    got = (*grad(u, v), *hess(u, v))
    assert all(type(x) is float for x in got)
    assert all(same_bits(x, y) for x, y in zip(got, want)), (got, want)


# moderate values, so that p F and its pieces stay normal numbers
moderate = st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) >= 1e-30)


@PROPERTY
@given(couplings(), moderate, moderate)
def test_pointwise_kernel_euler_identities(f, u, v):
    # p F = u F_u + v F_v and <D2F (u, v), (u, v)> = (p - 1)(u F_u + v F_v)
    grad, hess = f.pointwise()
    fu, fv = grad(u, v)
    fuu, fuv, fvv = hess(u, v)
    lin = fu * u + fv * v
    value = float(f.value(u, v))
    assert abs(f.p * value - lin) <= 1e-12 * f.p * value
    quad = fuu * u * u + 2.0 * fuv * u * v + fvv * v * v
    assert abs(quad - (f.p - 1.0) * lin) <= 1e-12 * (f.p - 1.0) * f.p * value


@PROPERTY
@given(couplings().filter(lambda f: f.p >= 3.1), st.floats(-1.0, 1.0), st.booleans())
def test_pointwise_kernel_overflows_to_inf(f, v, negative):
    # |u|^(p-2) > 1e308: Python's float power raises OverflowError there,
    # where numpy gives inf, and so must the kernel
    big = min(10.0 ** (320.0 / (f.p - 2.0)), 1.7e308)
    u = -big if negative else big
    grad, hess = f.pointwise()
    fu, _ = grad(u, v)
    fuu, _, _ = hess(u, v)
    assert fu == math.copysign(math.inf, u)
    assert fuu == math.inf
