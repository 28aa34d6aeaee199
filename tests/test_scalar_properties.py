"""Property tests of the scalar layer over mixed cyclotomic orders."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from mflef.scalars import (  # noqa: E402
    RootOfUnity, Scalar, _integer_form, _reduce, _scalar, cyclotomic_polynomial, euler_phi,
    power_product)

ORDERS = (1, 2, 3, 4, 5, 6, 7, 12)
SETTINGS = settings(max_examples=30, deadline=None)
coordinates = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def scalars(draw):
    m = draw(st.sampled_from(ORDERS))
    phi = euler_phi(m)
    return Scalar(m, draw(st.lists(coordinates, min_size=phi, max_size=phi)))


def _close(z, w):
    # Float oracle only: exact results are compared against complex embeddings.
    return abs(z - w) <= 1e-9 * (1 + abs(z) + abs(w))


@SETTINGS
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b)


@SETTINGS
@given(scalars())
def test_inverse(a):
    assume(not a.is_zero())
    assert a * a.inverse() == 1
    assert a.inverse().inverse() == a


@SETTINGS
@given(scalars(), st.sampled_from((1, 2, 3, 4)))
def test_promote_and_descend_keep_the_value(a, step):
    assert a == a.promote(a.order * step)


@SETTINGS
@given(scalars(), scalars())
def test_canonical_form(a, b):
    L = math.lcm(a.order, b.order)
    assert str((a + b) - b) == str(a.promote(L))
    assert str(b * a) == str(a * b)
    if not b.is_zero():
        assert str((a * b) / b) == str(a.promote(L))
    # The same element from an unreduced exponent-indexed vector: zeta^m = 1
    # and Phi_m(zeta) = 0 both fold back into the power basis.
    unreduced = [0] * a.order + list(a.coeffs)
    for k, c in enumerate(cyclotomic_polynomial(a.order)):
        unreduced[k] += c
    num, den = _integer_form(unreduced)
    assert str(_scalar(a.order, _reduce(num, a.order), den)) == str(a)


@SETTINGS
@given(scalars(), scalars())
def test_matches_complex_embedding(a, b):
    assert _close(complex(a * b), complex(a) * complex(b))
    assert _close(complex(a + b), complex(a) + complex(b))
    assert _close(complex(a - b), complex(a) - complex(b))


@st.composite
def twisted_monomials(draw):
    # 1-4 roots of orders 1-12 with any exponent, zeta_n^0 for n > 1 included
    n = draw(st.integers(1, 4))
    roots = [RootOfUnity(draw(st.integers(1, 12)), draw(st.integers(-24, 24))) for _ in range(n)]
    return roots, tuple(draw(st.integers(0, 5)) for _ in range(n))


@settings(max_examples=200, deadline=None)
@given(twisted_monomials())
@example(([RootOfUnity(4, 0), RootOfUnity(3, 1)], (2, 1)))
@example(([RootOfUnity(5, 2)], (0,)))
def test_power_product_has_the_stored_form_of_the_scalar_product(drawn):
    roots, mono = drawn
    expected = Scalar.one()
    for r, e in zip(roots, mono):
        if e > 0:
            expected = expected * r.to_scalar() ** e
    got = power_product(roots, mono)
    assert (got.order, got.num, got.den) == (expected.order, expected.num, expected.den)
