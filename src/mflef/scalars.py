"""Exact arithmetic in the rationals and in cyclotomic fields Q(zeta_m).

A :class:`Scalar` is a canonical representative in Q[x]/(Phi_m) for the m-th
cyclotomic polynomial Phi_m, in the power basis 1, zeta, ..., zeta^(phi(m)-1).
As in FLINT's ``fmpq_poly``, it is stored as integer numerators over one
common denominator: ``num`` holds phi(m) ints and ``den`` is a positive int
with gcd(den, *num) = 1, zero being (0, ..., 0)/1.  This form is unique, so
equality within one order compares tuples.  Phi_m is monic and integral, so
all arithmetic runs on Python ints; the Fraction coordinates ``coeffs`` are
derived on request.  Order m = 1 is the rational field.  Arithmetic between
two scalars first embeds both into Q(zeta_L) with L = lcm of the two orders;
results keep order L (no automatic descent).
Every exact value (scalar, polynomial, chi polynomial) prints through one
term rule, :func:`format_sum`, with powers printed by :func:`power_text`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, sub


class NonIntegralError(ValueError):
    """Raised when a (1 - zeta_p)-adic valuation is asked of a non-integer."""


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("order must be positive")
    result = m
    k, p = m, 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1
    if k > 1:
        result -= result // k
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, monic, integral: x^m - 1 divided
    exactly, on ints, by the monic Phi_d of each proper divisor d of m."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d:
            continue
        den = cyclotomic_polynomial(d)
        quot = [0] * (len(poly) - len(den) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = poly[i + len(den) - 1]
            for j, x in enumerate(den):
                poly[i + j] -= c * x
        poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    # _reduction_rows(m)[k] = coordinates of zeta^(phi(m)+k) in the power basis.
    phi = euler_phi(m)
    first = tuple(-c for c in cyclotomic_polynomial(m)[:phi])  # zeta^phi
    rows = [first]
    # Exponents reach m-1 after reduction mod zeta^m = 1 and 2*phi-2 in products.
    for _ in range(max(m - 1, 2 * phi - 2) - phi):
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple((prev[i - 1] if i else 0) + top * first[i] for i in range(phi)))
    return tuple(rows)


def _reduce(coeffs, m: int) -> list[int]:
    # Reduce an exponent-indexed int vector (powers of zeta_m) modulo Phi_m.
    phi = euler_phi(m)
    out = [0] * phi
    rows = _reduction_rows(m)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k >= phi:
            k %= m  # zeta^m = 1
        if k < phi:
            out[k] += c
        else:
            for i, r in enumerate(rows[k - phi]):
                out[i] += c * r
    return out


def _mul_ints(a, b, m: int) -> list[int]:
    # Product of two numerator vectors of Q(zeta_m), reduced modulo Phi_m.
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _reduce(prod, m)


def _power_map(num, j: int, n: int) -> list[int]:
    # Numerators of sum_i num[i] * zeta_n^(i*j), reduced in Q(zeta_n).
    out = [0] * n
    for i, c in enumerate(num):
        if c:
            out[i * j % n] += c
    return _reduce(out, n)


def _embed(num, m: int, L: int):
    # Numerators of an element of Q(zeta_m) in the power basis of Q(zeta_L), m | L.
    if m == L:
        return num
    if m == 1:
        return num + (0,) * (euler_phi(L) - 1)
    return _power_map(num, L // m, L)


def _norm_cofactor(num, m: int):
    # For numerators A of order m with phi(m) > 1: the product P of the
    # conjugates sigma_j(A), 1 < j < m, and the integer norm N(A) = A * P.
    conjugates = (_power_map(num, j, m) for j in range(2, m) if math.gcd(j, m) == 1)
    cofactor = reduce(lambda p, q: _mul_ints(p, q, m), conjugates)
    return cofactor, _mul_ints(num, cofactor, m)[0]


def _integer_form(values) -> tuple[list[int], int]:
    # Exact rationals as integer numerators over their least common denominator.
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"cannot interpret {v!r} as a rational")
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _scalar(order: int, num, den: int = 1) -> Scalar:
    # The Scalar num/den of Q(zeta_order) in lowest terms; den must be positive.
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    s = _new(Scalar)
    _set_order(s, order)
    _set_num(s, tuple(num))
    _set_den(s, den)
    return s


def _rational(q) -> Scalar:
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"cannot interpret {q!r} as a rational")
    return _scalar(1, (q.numerator,), q.denominator)


def _sum(a: Scalar, b: Scalar, op) -> Scalar:
    # a + b or a - b, for op = operator.add or operator.sub.
    m, an, ad, bn, bd = a.order, a.num, a.den, b.num, b.den
    if m != b.order:
        L = math.lcm(m, b.order)
        an, bn, m = _embed(an, m, L), _embed(bn, b.order, L), L
    if ad == bd:
        return _scalar(m, tuple(map(op, an, bn)), ad)
    return _scalar(m, [op(x * bd, y * ad) for x, y in zip(an, bn)], ad * bd)


def power_text(base: str, e: int) -> str:
    """base^e for a positive e, with base^1 printed as base."""
    return base if e == 1 else f"{base}^{e}"


def format_sum(terms) -> str:
    """The printed sum of (coefficient, monomial) texts.  An empty monomial prints
    the coefficient alone; coefficients 1 and -1 print m and -m; a compound one
    (a "+", a later "-" or a space) is parenthesized; a leading minus joins with
    " - "; no terms print "0"."""
    text = ""
    for coeff, mono in terms:
        if not mono:
            part = coeff
        elif coeff == "1":
            part = mono
        elif coeff == "-1":
            part = "-" + mono
        elif "+" in coeff or "-" in coeff[1:] or " " in coeff:
            part = f"({coeff})*{mono}"
        else:
            part = f"{coeff}*{mono}"
        if not text:
            text = part
        elif part[0] == "-":
            text += f" - {part[1:]}"
        else:
            text += f" + {part}"
    return text or "0"


class Scalar:
    """An exact element of Q(zeta_m), immutable: numerators `num` over `den`."""

    __slots__ = ("order", "num", "den")
    __hash__ = None  # equality crosses orders; scalars are not dict keys

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length")
        # Over the lcm of reduced denominators the form is already lowest terms.
        num, den = _integer_form(coeffs)
        _set_order(self, order)
        _set_num(self, tuple(num))
        _set_den(self, den)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return _scalar, (self.order, self.num, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> Scalar:
        return _rational(q)

    @staticmethod
    def zeta(m: int, k: int = 1) -> Scalar:
        """The root of unity zeta_m^k."""
        if m < 1:
            raise ValueError("order must be positive")
        return _zeta(m, k % m)

    @staticmethod
    def zero() -> Scalar:
        return _ZERO

    @staticmethod
    def one() -> Scalar:
        return _ONE

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_integral(self) -> bool:
        """All power-basis coordinates integral (valid test for prime order)."""
        return self.den == 1

    def promote(self, target_order: int) -> Scalar:
        """Embed into Q(zeta_L) for a multiple L of the current order."""
        m, L = self.order, target_order
        if L == m:
            return self
        if L % m:
            raise ValueError("target order must be a multiple of the current order")
        return _scalar(L, _embed(self.num, m, L), self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return _rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, add)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(other, self, sub)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m, n, an, bn = self.order, other.order, self.num, other.num
        den = self.den * other.den
        # A rational factor scales the numerators: no embedding, no convolution.
        if n == 1:
            c = bn[0]
            return _scalar(m, [x * c for x in an], den)
        if m == 1:
            c = an[0]
            return _scalar(n, [y * c for y in bn], den)
        if m != n:
            L = math.lcm(m, n)
            an, bn, m = _embed(an, m, L), _embed(bn, n, L), L
        return _scalar(m, _mul_ints(an, bn, m), den)

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("scalar is zero")
        # a = A/den.  With P = 1 for a rational value, and otherwise P = the
        # product of the other Galois conjugates of A, A*P is an integer N
        # and 1/a = den*P/N.
        m, num, den = self.order, self.num, self.den
        if any(num[1:]):
            cofactor, norm = _norm_cofactor(num, m)
        else:
            cofactor, norm = (1,) + (0,) * (len(num) - 1), num[0]
        if norm < 0:
            norm, den = -norm, -den
        return _scalar(m, [den * c for c in cofactor], norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        exponent = abs(exponent)
        result = _ONE
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m, n = self.order, other.order
        if m == n:
            return self.num == other.num and self.den == other.den
        L = math.lcm(m, n)
        a, b = _embed(self.num, m, L), _embed(other.num, n, L)
        return [x * other.den for x in a] == [y * self.den for y in b]

    def __bool__(self):
        return any(self.num)

    # -- Galois theory -----------------------------------------------------

    def galois(self, j: int) -> Scalar:
        """Apply the automorphism zeta -> zeta^j (j coprime to the order)."""
        m = self.order
        if math.gcd(j % m, m) != 1:
            raise ValueError("automorphism exponent must be coprime to the order")
        return _scalar(m, _power_map(self.num, j, m), self.den)

    def conjugate(self) -> Scalar:
        return self.galois(self.order - 1) if self.order > 1 else self

    def norm_to_rational(self) -> Fraction:
        """Product over all Galois conjugates; a rational number."""
        num, den = self.num, self.den
        if len(num) == 1:
            return Fraction(num[0], den)
        _, norm = _norm_cofactor(num, self.order)
        return Fraction(norm, den ** len(num))

    def __complex__(self):
        z = complex(math.cos(2 * math.pi / self.order), math.sin(2 * math.pi / self.order))
        value, power = 0j, 1 + 0j
        for c in self.num:
            value += c / self.den * power
            power *= z
        return value

    # -- display -----------------------------------------------------------

    def __str__(self):
        zeta = f"zeta({self.order})"
        return format_sum([(str(c), power_text(zeta, k) if k else "")
                           for k, c in enumerate(self.coeffs) if c])

    def __repr__(self):
        return f"Scalar({self})"


_new = object.__new__
_set_order = Scalar.order.__set__
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__


@lru_cache(maxsize=None)
def _zeta(m: int, k: int) -> Scalar:
    out = [0] * (k + 1)
    out[k] = 1
    return _scalar(m, _reduce(out, m))


_ZERO = _scalar(1, (0,))
_ONE = _scalar(1, (1,))


def as_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return _rational(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def power_product(roots, mono) -> Scalar:
    """t^m = prod t_i^(m_i) for roots of unity t_i, by exponent arithmetic.

    The value is zeta_L^k with L the lcm of the orders of the t_i with
    m_i > 0, a root written zeta_n^0 included, and 1 (order 1) for the unit
    monomial: the stored form of the Scalar product of the t_i^(m_i)."""
    order, k = 1, 0
    for r, e in zip(roots, mono):
        if e:
            n = r.order
            lcm = order * n // math.gcd(order, n)
            k, order = k * (lcm // order) + r.exponent * e * (lcm // n), lcm
    return _zeta(order, k % order)


def _require_prime(p: int):
    """Raise ValueError unless p is prime, by trial division up to sqrt(p)."""
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError("p must be prime")


def one_minus_zeta_valuation(a: Scalar, p: int):
    """The exact power of (1 - zeta_p) dividing `a` in Z[zeta_p]; inf for 0.

    The prime p is totally ramified: p = unit * (1 - zeta_p)^(p-1), so the
    valuation of an algebraic integer equals the p-adic valuation of its norm.
    """
    _require_prime(p)
    a = as_scalar(a)
    if p % a.order:
        raise NonIntegralError("scalar does not lie in Q(zeta_p)")
    a = a.promote(p)
    if not a.is_integral():
        raise NonIntegralError("divisibility query requires coordinates in Z[zeta_p]")
    if a.is_zero():
        return math.inf
    norm = a.norm_to_rational()
    if norm.denominator != 1:
        raise NonIntegralError("norm is not an integer")
    n, v = abs(int(norm)), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class RootOfUnity:
    """zeta_m^a with the exponent stored reduced mod m.

    `_reduced` is (m/g, a/g) with g = gcd(a, m), the same for every way of
    writing one root: equality and the hash read it, computed once here.
    """

    __slots__ = ("order", "exponent", "_reduced")

    def __init__(self, order: int, exponent: int):
        if order < 1:
            raise ValueError("order must be positive")
        exponent %= order
        g = math.gcd(exponent, order)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "_reduced", (order // g, exponent // g))

    def __setattr__(self, *args):
        raise AttributeError("RootOfUnity is immutable")

    def __reduce__(self):
        return RootOfUnity, (self.order, self.exponent)

    def to_scalar(self) -> Scalar:
        return Scalar.zeta(self.order, self.exponent)

    def is_one(self) -> bool:
        return self.exponent == 0

    def inverse(self) -> RootOfUnity:
        return RootOfUnity(self.order, -self.exponent)

    def __pow__(self, k: int) -> RootOfUnity:
        return RootOfUnity(self.order, self.exponent * k)

    def __mul__(self, other: RootOfUnity) -> RootOfUnity:
        L = math.lcm(self.order, other.order)
        return RootOfUnity(L, self.exponent * (L // self.order) + other.exponent * (L // other.order))

    def __eq__(self, other):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self._reduced == other._reduced

    def __hash__(self):
        return hash(self._reduced)

    def __str__(self):
        return power_text(f"zeta({self.order})", self.exponent) if self.exponent else "1"

    def __repr__(self):
        return f"RootOfUnity({self.order}, {self.exponent})"


def _coerce_symmetry(t) -> tuple:
    out = []
    for item in t:
        if isinstance(item, RootOfUnity):
            out.append(item)
        elif type(item) is int and item in (1, -1):  # not a bool: True is no root
            out.append(RootOfUnity(1, 0) if item == 1 else RootOfUnity(2, 1))
        else:
            raise ValueError(f"symmetry entries must be roots of unity, got {item!r}")
    return tuple(out)
