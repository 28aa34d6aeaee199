import random
from fractions import Fraction
from itertools import permutations

import pytest

from mflef import linalg
from mflef.polyring import PolyRing
from mflef.scalars import Scalar


def _sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


def leibniz(a):
    total = Scalar.zero()
    for perm in permutations(range(len(a))):
        term = Scalar.from_rational(_sign(perm))
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total = total + term
    return total


def _random_entry(rng, order):
    if rng.random() < 0.4:
        return Scalar.zero()
    coeffs = [rng.randint(-3, 3) for _ in range(4 if order == 5 else 1)]
    return Scalar(order, coeffs)


def _random_matrix(rng, rows, cols, order):
    return [[_random_entry(rng, order) for _ in range(cols)] for _ in range(rows)]


def _q(rows):
    return [[Scalar.from_rational(c) for c in row] for row in rows]


def _apply(a, v):
    return [row[0] for row in linalg.mat_mul(a, [[c] for c in v])]


def _random_square_cases():
    rng = random.Random(7)
    cases = []
    for order in (1, 5):
        for n in (1, 2, 3, 4):
            for _ in range(4):
                cases.append(_random_matrix(rng, n, n, order))
            singular = _random_matrix(rng, n, n, order)
            if n > 1:  # a repeated row, scaled by zeta_5 over Q(zeta_5)
                singular[-1] = [Scalar.zeta(order) * c for c in singular[0]]
            else:
                singular[0][0] = Scalar.zero()
            cases.append(singular)
    return cases


@pytest.mark.parametrize("a", _random_square_cases())
def test_det_matches_leibniz(a):
    assert linalg.det(a) == leibniz(a)


@pytest.mark.parametrize("perm", list(permutations(range(4))))
def test_det_of_permutation_matrix_is_its_sign(perm):
    a = _q([[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)])
    assert linalg.det(a) == _sign(perm)


def test_det_of_empty_matrix_is_one():
    assert linalg.det([]) == 1


def test_rank_nullity_and_solve():
    rng = random.Random(11)
    for order in (1, 5):
        for rows, cols in ((1, 3), (3, 1), (2, 4), (4, 2), (3, 3), (4, 5)):
            a = _random_matrix(rng, rows, cols, order)
            if rows > 1:
                a[-1] = [c + d for c, d in zip(a[0], a[1])]
            kernel = linalg.nullspace(a)
            assert linalg.rank(a) + len(kernel) == cols
            for v in kernel:
                assert all(e.is_zero() for e in _apply(a, v))
            x = [_random_entry(rng, order) for _ in range(cols)]
            b = _apply(a, x)
            solution = linalg.solve(a, b)
            assert solution is not None
            assert _apply(a, solution) == b


def test_solve_reports_an_inconsistent_system():
    assert linalg.solve(_q([[1, 2], [2, 4]]), [Scalar.one(), Scalar.zero()]) is None


def _naive_poly_product(a, b, zero, cols):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), zero) for j in range(cols)]
            for row in a]


def test_polynomial_product_matches_the_sum_of_products():
    ring = PolyRing(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    rng = random.Random(13)
    pool = [ring.zero(), ring.zero(), x, y - 1, x * y + 2 * y**2, Scalar.zeta(3) * x**2 - y,
            ring.const(Scalar.from_rational(Fraction(-1, 2)))]
    for rows, inner, cols in [(1, 1, 1), (2, 3, 2), (3, 2, 4), (4, 4, 4)] * 3:
        a = [[rng.choice(pool) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.choice(pool) for _ in range(cols)] for _ in range(inner)]
        product = linalg.mat_mul(a, b, ring.zero())
        assert product == _naive_poly_product(a, b, ring.zero(), cols)


def test_polynomial_product_drops_what_cancels():
    ring = PolyRing(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    zero = ring.zero()
    a = [[x, -x], [x + y, x - y], [zero, zero]]
    b = [[y, x - y], [y, x + y]]
    product = linalg.mat_mul(a, b, zero)
    # row 0: xy - xy cancels, and x(x - y) - x(x + y) = -2xy
    assert product[0][0].is_zero() and product[0][0].terms == {}
    assert product[0][1] == -2 * x * y
    # row 1: (x + y)y + (x - y)y = 2xy, and (x + y)(x - y) + (x - y)(x + y)
    assert product[1] == [2 * x * y, 2 * x**2 - 2 * y**2]
    assert all(e.is_zero() for e in product[2])
    # an empty B takes its width from `cols`; an empty A gives no rows
    empty = linalg.mat_mul([[], []], [], zero, cols=3)
    assert [len(row) for row in empty] == [3, 3]
    assert all(e.is_zero() for row in empty for e in row)
    assert linalg.mat_mul([], b, zero) == []
