import fractions
import math
import random
from fractions import Fraction

import pytest

from mflef import linalg
from mflef.scalars import (
    NonIntegralError,
    RootOfUnity,
    Scalar,
    cyclotomic_polynomial,
    euler_phi,
    one_minus_zeta_valuation,
)


def zeta(m, k=1):
    return Scalar.zeta(m, k)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    # prod over d | m of Phi_d = x^m - 1
    for m in range(1, 101):
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                assert phi[-1] == 1 and len(phi) == euler_phi(d) + 1
                out = [0] * (len(product) + len(phi) - 1)
                for i, p in enumerate(product):
                    for j, q in enumerate(phi):
                        out[i + j] += p * q
                product = out
        assert product == [-1] + [0] * (m - 1) + [1]


def test_conjugate_examples():
    assert zeta(4).conjugate() == -zeta(4)
    assert zeta(3).conjugate() == zeta(3, 2)
    assert Scalar.from_rational(Fraction(5, 3)).conjugate() == Fraction(5, 3)


def test_norm_examples():
    # Nm(1 - zeta_3) = 3
    assert (Scalar.one() - zeta(3)).norm_to_rational() == 3
    assert Scalar.from_rational(Fraction(7, 2)).norm_to_rational() == Fraction(7, 2)
    assert (zeta(4) + 1).norm_to_rational() == 2


def test_norm_multiplicative():
    rng = random.Random(7)
    for m in (3, 4, 5):
        phi = euler_phi(m)
        for _ in range(5):
            a = Scalar(m, [Fraction(rng.randint(-4, 4)) for _ in range(phi)])
            b = Scalar(m, [Fraction(rng.randint(-4, 4)) for _ in range(phi)])
            assert (a * b).norm_to_rational() == a.norm_to_rational() * b.norm_to_rational()


def test_norm_matches_complex_embeddings():
    # Independent float oracle: product over all embeddings zeta -> zeta^j.
    rng = random.Random(11)
    for m in (3, 4, 5):
        phi = euler_phi(m)
        a = Scalar(m, [Fraction(rng.randint(-3, 3)) for _ in range(phi)])
        product = 1 + 0j
        for j in range(1, m):
            if math.gcd(j, m) == 1:
                product *= complex(a.galois(j))
        assert abs(product - complex(float(a.norm_to_rational()))) < 1e-9


def test_valuation_examples():
    assert one_minus_zeta_valuation(Scalar.from_rational(2), 2) == 1
    # norm(1 - zeta_3) = 3, v_3(3) = 1
    assert one_minus_zeta_valuation(Scalar.one() - zeta(3), 3) == 1
    # norm of 3 over Q(zeta_3) is 9, v_3(9) = 2
    assert one_minus_zeta_valuation(Scalar.from_rational(3), 3) == 2
    assert one_minus_zeta_valuation(Scalar.zero(), 5) == math.inf


def test_valuation_rejects_non_integral():
    with pytest.raises(NonIntegralError):
        one_minus_zeta_valuation(Scalar.from_rational(Fraction(1, 2)), 2)
    with pytest.raises(NonIntegralError):
        one_minus_zeta_valuation(zeta(4), 3)


def test_valuation_additive():
    rng = random.Random(3)
    p = 5
    for _ in range(10):
        a = Scalar(p, [Fraction(rng.randint(-3, 3)) for _ in range(p - 1)])
        b = Scalar(p, [Fraction(rng.randint(-3, 3)) for _ in range(p - 1)])
        if a.is_zero() or b.is_zero():
            continue
        va = one_minus_zeta_valuation(a, p)
        vb = one_minus_zeta_valuation(b, p)
        assert one_minus_zeta_valuation(a * b, p) == va + vb


def _random_scalar(rng, m):
    return Scalar(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(euler_phi(m))])


def test_field_axioms_random():
    rng = random.Random(42)
    orders = [1, 2, 3, 4, 5, 6, 8, 12]
    for _ in range(40):
        a = _random_scalar(rng, rng.choice(orders))
        b = _random_scalar(rng, rng.choice(orders))
        c = _random_scalar(rng, rng.choice(orders))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_conjugation_is_involutive_automorphism():
    rng = random.Random(9)
    for m in (3, 4, 5, 8, 12):
        a = _random_scalar(rng, m)
        b = _random_scalar(rng, m)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_equality_is_order_independent():
    half = Scalar.from_rational(Fraction(1, 2))
    assert half.promote(3) == half
    assert half.promote(12) == half.promote(4)
    # zeta_6 = -zeta_3^2
    assert zeta(6) == -zeta(3, 2)
    assert zeta(6) != zeta(3)


def test_power_basis_reduction_is_canonical():
    # zeta_4^2 reduces to the rational -1 inside order 4
    a = zeta(4) * zeta(4)
    assert a.order == 4
    assert a.is_rational() and a.to_rational() == -1


def test_promotion_respects_arithmetic():
    a = zeta(3) + zeta(4)
    assert a.order == 12
    assert a - zeta(4) == zeta(3)


def test_pow_and_division():
    assert zeta(5) ** 5 == 1
    assert zeta(7) ** -1 == zeta(7, 6)
    assert (zeta(3) / zeta(3)) == 1
    x = 1 - zeta(3)
    assert x / x == 1


def test_root_of_unity():
    t = RootOfUnity(6, 2)
    assert t.to_scalar() == zeta(3)
    assert t.inverse().to_scalar() == zeta(3, 2)
    assert (t ** 3).to_scalar() == 1
    assert RootOfUnity(4, 0).is_one()
    assert RootOfUnity(6, 2) == RootOfUnity(3, 1)
    assert (t * RootOfUnity(4, 1)).to_scalar() == zeta(3) * zeta(4)
    assert t.to_scalar() ** 6 == 1


def test_str_roundtrip_shapes():
    assert str(Scalar.zero()) == "0"
    assert str(zeta(3)) == "zeta(3)"
    # canonical form: zeta(3)^2 = -1 - zeta(3)
    assert str(1 - zeta(3, 2)) == "2 + zeta(3)"
    assert str(zeta(4) - 1) == "-1 + zeta(4)"
    assert str(Scalar.from_rational(Fraction(-3, 2))) == "-3/2"


def test_arithmetic_makes_no_fraction(monkeypatch):
    # Scalars are integer numerators over one denominator: the arithmetic
    # behind every verdict never constructs a Fraction.
    a = zeta(5) + Fraction(1, 2)
    b = 2 * zeta(5, 3) - Fraction(1, 3)
    c = zeta(3) - 3
    half = Scalar.from_rational(Fraction(1, 2))
    matrix = [[zeta(5, i * j) + i for j in range(3)] for i in range(3)]
    made = []
    original = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    operations = {
        "same-order *": lambda: a * b,
        "mixed-order *": lambda: a * c,
        "same-order +": lambda: a + b,
        "mixed-order +": lambda: a + c,
        "same-order -": lambda: a - b,
        "mixed-order -": lambda: c - a,
        "unary -": lambda: -a,
        "inverse": lambda: b.inverse(),
        "rational times cyclotomic": lambda: half * a,
        "rank over Q(zeta_5)": lambda: linalg.rank(matrix),
    }
    for name, operation in operations.items():
        made.clear()
        operation()
        assert made == [], name
    assert linalg.rank(matrix) == 3  # Vandermonde in 1, zeta_5, zeta_5^2
