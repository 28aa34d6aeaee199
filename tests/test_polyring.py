import itertools
import random
from fractions import Fraction

import pytest

from mflef.scalars import RootOfUnity, Scalar
from mflef.polyring import (
    PolyRing,
    Polynomial,
    check_symmetry,
    difference_quotients,
    extend_ring,
    find_weights,
    hessian_determinant,
    mirror_ring,
    monomials_of_weighted_degree,
    partial_derivative,
    scale_substitute,
)


R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))


def test_partial_derivative_examples():
    x = R1.var("x")
    assert partial_derivative(x**3, 0) == 3 * x**2
    x2, y2 = R2.var("x"), R2.var("y")
    assert partial_derivative(x2**2, 1).is_zero()
    assert partial_derivative(x2 * y2, 0) == y2


def test_scale_substitute_examples():
    x = R1.var("x")
    z3 = RootOfUnity(3, 1)
    assert scale_substitute(x**3, [z3]) == x**3
    assert scale_substitute(x, [-1]) == -x
    x2, y2 = R2.var("x"), R2.var("y")
    assert scale_substitute(x2 * y2, [RootOfUnity(5, 1), RootOfUnity(5, 4)]) == x2 * y2


def test_difference_quotients_examples():
    x = R1.var("x")
    big = mirror_ring(R1)
    bx, by = big.var("x"), big.var("y_x")

    [d] = difference_quotients(x**2)
    assert d == bx + by  # (y^2 - x^2)/(y - x)

    [d3] = difference_quotients(x**3)
    assert d3 == bx**2 + bx * by + by**2

    x1, x2 = R2.var("x"), R2.var("y")
    big2 = mirror_ring(R2)
    q = difference_quotients(x1 * x2)
    # direct two-step telescoping: D_1 = x_2, D_2 = y_1
    assert q[0] == big2.var("y")
    assert q[1] == big2.var("y_x")


def test_difference_quotient_reconstruction_random():
    rng = random.Random(5)
    for nvars in (1, 2, 3, 4):
        ring = PolyRing(tuple(f"x{i}" for i in range(nvars)))
        mirrored = PolyRing(tuple(f"y_x{i}" for i in range(nvars)))
        big = mirror_ring(ring)
        for order in (1, 3, 4):  # coefficients in Q, Q(zeta_3), Q(zeta_4)
            for _ in range(4):
                w = ring.zero()
                for _ in range(rng.randint(1, 6)):
                    m = tuple(rng.randint(0, 3) for _ in range(nvars))
                    c = rng.randint(-3, 3) + rng.randint(-2, 2) * Scalar.zeta(order)
                    w = w + ring.monomial(m, c)
                wx = extend_ring(w, big)
                wy = extend_ring(Polynomial(mirrored, w.terms), big)
                total = big.zero()
                for i, q in enumerate(difference_quotients(w)):
                    total = total + q * (big.var(nvars + i) - big.var(i))
                assert total == wy - wx


def test_difference_quotients_refuse_colliding_mirror_names():
    # the mirror of x is y_x, a name a document may declare for another variable
    ring = PolyRing(("x", "y_x"))
    with pytest.raises(ValueError, match="^mirrored variable names collide$"):
        difference_quotients(ring.var("x") ** 3 + ring.var("y_x") ** 2)


def test_hessian_examples():
    x = R1.var("x")
    assert hessian_determinant(x**2) == 2
    assert hessian_determinant(x**3) == 6 * x
    x2, y2 = R2.var("x"), R2.var("y")
    # symbolic 2x2 determinant oracle: det([[6x, 0], [0, 6y]]) = 36xy
    assert hessian_determinant(x2**3 + y2**3) == 36 * x2 * y2
    assert hessian_determinant(x2 * y2) == R2.const(-1)


def test_check_symmetry_examples():
    x = R1.var("x")
    assert check_symmetry(x**3, [RootOfUnity(3, 1)])
    assert check_symmetry(x**2, [-1])
    assert not check_symmetry(x**3, [-1])


def test_substitution_is_multiplicative_and_composes():
    rng = random.Random(13)
    ring = PolyRing(("x", "y"))
    for _ in range(8):
        f = ring.zero()
        g = ring.zero()
        for _ in range(4):
            f = f + ring.monomial((rng.randint(0, 3), rng.randint(0, 2)), rng.randint(-2, 2))
            g = g + ring.monomial((rng.randint(0, 2), rng.randint(0, 3)), rng.randint(-2, 2))
        t = [RootOfUnity(6, rng.randint(0, 5)), RootOfUnity(4, rng.randint(0, 3))]
        s = [RootOfUnity(3, rng.randint(0, 2)), RootOfUnity(8, rng.randint(0, 7))]
        assert scale_substitute(f * g, t) == scale_substitute(f, t) * scale_substitute(g, t)
        st = [a * b for a, b in zip(s, t)]
        assert scale_substitute(scale_substitute(f, t), s) == scale_substitute(f, st)


def test_mixed_partials_commute():
    rng = random.Random(17)
    ring = PolyRing(("x", "y", "z"))
    for _ in range(6):
        f = ring.zero()
        for _ in range(5):
            f = f + ring.monomial(
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)), rng.randint(-3, 3)
            )
        for i in range(3):
            for j in range(3):
                assert partial_derivative(partial_derivative(f, i), j) == partial_derivative(
                    partial_derivative(f, j), i
                )


def test_find_weights():
    x = R1.var("x")
    assert find_weights(x**3) == (Fraction(1, 3),)
    x2, y2 = R2.var("x"), R2.var("y")
    assert find_weights(x2**3 + y2**3) == (Fraction(1, 3), Fraction(1, 3))
    # D-series: x^2 y + y^4
    assert find_weights(x2**2 * y2 + y2**4) == (Fraction(3, 8), Fraction(1, 4))
    # underdetermined direction pinned at 1/2
    assert find_weights(x2 * y2) == (Fraction(1, 2), Fraction(1, 2))
    # not quasi-homogeneous
    assert find_weights(x2**3 + x2**2 + y2**7) is None


@pytest.mark.parametrize("weights", [
    (1,),
    (1, 1, 1),
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(3, 8), Fraction(1, 4)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
])
def test_monomials_of_weighted_degree_match_brute_force(weights):
    def wdeg(m):
        return sum(q * e for q, e in zip(weights, m))

    top = 2
    boxes = [range(int(top / Fraction(q)) + 1) for q in weights]
    reachable = sorted({wdeg(m) for m in itertools.product(*boxes) if wdeg(m) <= top})
    assert reachable[0] == 0 and len(reachable) > 2
    for d in reachable:
        # same monomials in the same (lexicographic) order as the brute force
        expected = [m for m in itertools.product(*boxes) if wdeg(m) == d]
        assert monomials_of_weighted_degree(weights, d) == expected
    assert monomials_of_weighted_degree(weights, Fraction(1, 7)) == []
    assert monomials_of_weighted_degree(weights, -1) == []


def test_str_deterministic():
    x, y = R2.var("x"), R2.var("y")
    f = x * y * 2 - y**3 + 1
    assert str(f) == "-y^3 + 2*x*y + 1"
    zeta = Scalar.zeta(3)
    assert str((1 - zeta) * x) == "(1 - zeta(3))*x"


def test_power_multiplies_only_as_often_as_needed(monkeypatch):
    # square-and-multiply: one squaring per bit after the first and one
    # product per set bit, never a square past the top bit
    R2 = PolyRing(("x", "y"))
    base = R2.var("x") + R2.var("y")
    mul = type(base).__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    for exponent in range(1, 10):
        expected = mul(base, base ** (exponent - 1)) if exponent > 1 else base
        calls.clear()
        monkeypatch.setattr(type(base), "__mul__", counted)
        value = base**exponent
        monkeypatch.setattr(type(base), "__mul__", mul)
        assert value == expected
        assert len(calls) == exponent.bit_length() - 1 + bin(exponent).count("1")
