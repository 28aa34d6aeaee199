"""Exact arithmetic in the rationals and in cyclotomic fields Q(zeta_m).

A :class:`Scalar` is a canonical representative in Q[x]/(Phi_m) for the m-th
cyclotomic polynomial Phi_m, stored as coordinates in the power basis
1, zeta, ..., zeta^(phi(m)-1).  Order m = 1 is the rational field.  Arithmetic
between two scalars first embeds both into Q(zeta_L) with L = lcm of the two
orders; results keep order L (no automatic descent, see :meth:`Scalar.descend`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class NonIntegralError(ValueError):
    """Raised when a (1 - zeta_p)-adic valuation is asked of a non-integer."""


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


def poly_divmod(num, den):
    """Quotient and remainder of univariate polynomials over Q.

    Coefficients are ascending and exact (Fractions, or ints in `den`); both
    results are trimmed lists of Fractions, the zero polynomial being [0].
    """
    num = list(num)
    while num and not num[-1]:
        num.pop()
    den = list(den)
    while den and not den[-1]:
        den.pop()
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(num) < len(den):
        return [Fraction(0)], num or [Fraction(0)]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    rem = num[: len(den) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return out, rem or [Fraction(0)]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, monic, integral."""
    if m == 1:
        return (-1, 1)
    poly = [Fraction(0)] * m + [Fraction(1)]
    poly[0] = Fraction(-1)  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, _ = poly_divmod(poly, cyclotomic_polynomial(d))
    return tuple(int(c) for c in poly)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[Fraction, ...], ...]:
    # _reduction_rows(m)[k] = coordinates of zeta^(phi(m)+k) in the power basis.
    phi = euler_phi(m)
    head = cyclotomic_polynomial(m)[:phi]
    rows: list[tuple[Fraction, ...]] = []
    prev = tuple(Fraction(-c) for c in head)  # zeta^phi
    rows.append(prev)
    # Exponents reach m-1 after reduction mod zeta^m = 1 and 2*phi-2 in products.
    for _ in range(max(m - 1, 2 * phi - 2) - phi):
        shifted = (Fraction(0),) + prev[: phi - 1]
        top = prev[phi - 1]
        prev = tuple(shifted[i] + top * rows[0][i] for i in range(phi))
        rows.append(prev)
    return tuple(rows)


def _reduce_coeffs(coeffs: list[Fraction], m: int) -> tuple[Fraction, ...]:
    # Reduce an exponent-indexed vector (powers of zeta_m) modulo Phi_m.
    phi = euler_phi(m)
    out = [Fraction(0)] * phi
    rows = None
    for k, c in enumerate(coeffs):
        if not c:
            continue
        k %= m  # zeta^m = 1
        if k < phi:
            out[k] += c
        else:
            if rows is None:
                rows = _reduction_rows(m)
            row = rows[k - phi]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return tuple(out)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


class Scalar:
    """An exact element of Q(zeta_m), immutable."""

    __slots__ = ("order", "coeffs")
    __hash__ = None  # equality crosses orders; scalars are not dict keys

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> Scalar:
        return Scalar(1, (_as_fraction(q),))

    @staticmethod
    def zeta(m: int, k: int = 1) -> Scalar:
        """The root of unity zeta_m^k."""
        if m < 1:
            raise ValueError("order must be positive")
        k %= m
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return Scalar(m, _reduce_coeffs(coeffs, m))

    @staticmethod
    def zero() -> Scalar:
        return _ZERO

    @staticmethod
    def one() -> Scalar:
        return _ONE

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_integral(self) -> bool:
        """All power-basis coordinates integral (valid test for prime order)."""
        return all(c.denominator == 1 for c in self.coeffs)

    def promote(self, target_order: int) -> Scalar:
        """Embed into Q(zeta_L) for a multiple L of the current order."""
        m, L = self.order, target_order
        if L == m:
            return self
        if L % m:
            raise ValueError("target order must be a multiple of the current order")
        step = L // m
        out = [Fraction(0)] * (euler_phi(m) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return Scalar(L, _reduce_coeffs(out, L))

    def descend(self) -> Scalar:
        """Equal scalar of the smallest possible cyclotomic order.

        This is the explicit normalization pass; arithmetic never descends.
        """
        if self.is_rational():
            return Scalar(1, (self.coeffs[0],))
        m = self.order
        for d in range(2, m):
            if m % d:
                continue
            cand = _try_descend(self, d)
            if cand is not None:
                return cand
        return self

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(1, (_as_fraction(other),))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return Scalar(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        L = math.lcm(self.order, other.order)
        a, b = self.promote(L), other.promote(L)
        return Scalar(L, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Scalar(1, (self.coeffs[0] * other.coeffs[0],))
        L = math.lcm(self.order, other.order)
        a, b = self.promote(L).coeffs, other.promote(L).coeffs
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
        return Scalar(L, _reduce_coeffs(prod, L))

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("scalar is zero")
        if self.order == 1:
            return Scalar(1, (1 / self.coeffs[0],))
        # Extended Euclid in Q[x] against Phi_m.
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi_poly, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))
        lead = next(c for c in reversed(r0) if c)
        inv = [c / lead for c in s0]
        return Scalar(self.order, _reduce_coeffs(inv, self.order))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

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
        if self.order == other.order:
            return self.coeffs == other.coeffs
        L = math.lcm(self.order, other.order)
        return self.promote(L).coeffs == other.promote(L).coeffs

    def __ne__(self, other):
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __bool__(self):
        return not self.is_zero()

    # -- Galois theory -----------------------------------------------------

    def galois(self, j: int) -> Scalar:
        """Apply the automorphism zeta -> zeta^j (j coprime to the order)."""
        m = self.order
        if math.gcd(j % m, m) != 1:
            raise ValueError("automorphism exponent must be coprime to the order")
        out = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i * j) % m] += c
        return Scalar(m, _reduce_coeffs(out, m))

    def conjugate(self) -> Scalar:
        return self.galois(self.order - 1) if self.order > 1 else self

    def norm_to_rational(self) -> Fraction:
        """Product over all Galois conjugates; a rational number."""
        if self.order == 1:
            return self.coeffs[0]
        result = _ONE
        m = self.order
        for j in range(1, m):
            if math.gcd(j, m) == 1:
                result = result * self.galois(j)
        return result.to_rational()

    def __complex__(self):
        z = complex(math.cos(2 * math.pi / self.order), math.sin(2 * math.pi / self.order))
        value, power = 0j, 1 + 0j
        for c in self.coeffs:
            value += float(c) * power
            power *= z
        return value

    # -- display -----------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                base = str(c)
            else:
                zeta = f"zeta({self.order})" + (f"^{k}" if k > 1 else "")
                if c == 1:
                    base = zeta
                elif c == -1:
                    base = f"-{zeta}"
                else:
                    base = f"{c}*{zeta}"
            parts.append(base)
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text

    def __repr__(self):
        return f"Scalar({self})"


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _try_descend(a: Scalar, d: int) -> Scalar | None:
    # Coordinates of `a` in the power basis of zeta_d inside Q(zeta_m), if any.
    from .linalg import solve  # linalg is built on this module

    m = a.order
    phi_d, phi_m = euler_phi(d), euler_phi(m)
    basis = [Scalar.zeta(d, i).promote(m).coeffs for i in range(phi_d)]
    rows = [[Scalar(1, (basis[j][i],)) for j in range(phi_d)] for i in range(phi_m)]
    coords = solve(rows, [Scalar(1, (c,)) for c in a.coeffs])
    if coords is None:
        return None  # inconsistent: not in the subfield
    return Scalar(d, tuple(c.to_rational() for c in coords))


_ZERO = Scalar(1, (Fraction(0),))
_ONE = Scalar(1, (Fraction(1),))


def as_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, RootOfUnity):
        return value.to_scalar()
    if isinstance(value, (int, Fraction)):
        return Scalar(1, (_as_fraction(value),))
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def cyclo_reduce(coefficients, m: int) -> Scalar:
    """Canonical Scalar from an exponent-indexed coefficient sequence in zeta_m."""
    if m < 1:
        raise ValueError("order must be positive")
    coeffs = [_as_fraction(c) for c in coefficients]
    return Scalar(m, _reduce_coeffs(coeffs, m))


def conjugate(a: Scalar) -> Scalar:
    return as_scalar(a).conjugate()


def norm_to_rational(a: Scalar) -> Fraction:
    return as_scalar(a).norm_to_rational()


def one_minus_zeta_valuation(a: Scalar, p: int):
    """The exact power of (1 - zeta_p) dividing `a` in Z[zeta_p]; inf for 0.

    The prime p is totally ramified: p = unit * (1 - zeta_p)^(p-1), so the
    valuation of an algebraic integer equals the p-adic valuation of its norm.
    """
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        raise ValueError("p must be prime")
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
    """zeta_m^a with the exponent stored reduced mod m."""

    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int):
        if order < 1:
            raise ValueError("order must be positive")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "exponent", exponent % order)

    def __setattr__(self, *args):
        raise AttributeError("RootOfUnity is immutable")

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
        L = math.lcm(self.order, other.order)
        return self.exponent * (L // self.order) % L == other.exponent * (L // other.order) % L

    def __hash__(self):
        g = math.gcd(self.exponent, self.order)
        return hash((self.order // g, (self.exponent // g) % (self.order // g) if g else 0))

    def __str__(self):
        if self.is_one():
            return "1"
        return f"zeta({self.order})" + (f"^{self.exponent}" if self.exponent > 1 else "")

    def __repr__(self):
        return f"RootOfUnity({self.order}, {self.exponent})"
