"""Sparse multivariate polynomials over cyclotomic scalars.

Monomials are exponent tuples indexed by the ring's variables; a polynomial
stores a monomial -> nonzero Scalar map.  The canonical term order used for
display and leading terms is degree-reverse-lexicographic.  The one monomial
printer, PolyRing.monomial_text, serves Polynomial.__str__ and the CLI.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, le, sub

from .linalg import echelon_form
from .scalars import Scalar, _coerce_symmetry, as_scalar, format_sum, power_product, power_text

Monomial = tuple  # tuple[int, ...]


class PolyRing:
    """Variable context for polynomials: an ordered tuple of variable names."""

    __slots__ = ("vars",)

    def __init__(self, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "vars", variables)

    def __setattr__(self, *args):
        raise AttributeError("PolyRing is immutable")

    def __reduce__(self):
        return PolyRing, (self.vars,)

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"PolyRing{self.vars}"

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.const(1)

    def const(self, value) -> Polynomial:
        c = as_scalar(value)
        if c.is_zero():
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name_or_index) -> Polynomial:
        if isinstance(name_or_index, str):
            index = self.vars.index(name_or_index)
        else:
            index = name_or_index
        exps = [0] * self.nvars
        exps[index] = 1
        return Polynomial(self, {tuple(exps): Scalar.one()})

    def monomial(self, exps, coeff=1) -> Polynomial:
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        c = as_scalar(coeff)
        return Polynomial(self, {exps: c} if not c.is_zero() else {})

    def monomial_text(self, m: Monomial) -> str:
        """The printed monomial, x^2*y for (2, 1); the unit monomial prints ""."""
        return "*".join([power_text(v, e) for v, e in zip(self.vars, m) if e])


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def degrevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def monomials_of_weighted_degree(weights, degree) -> list[Monomial]:
    """All exponent tuples m with sum(q_i * m_i) == degree, lexicographically.

    Weights are positive ints or Fractions.  They are scaled to integers by
    their common denominator, and the last exponent is solved for, not
    scanned.  An unreachable or negative degree gives [].
    """
    scale = math.lcm(*(q.denominator for q in weights))
    steps = [q.numerator * (scale // q.denominator) for q in weights]
    target, rest = divmod(degree.numerator * scale, degree.denominator)
    if rest or target < 0:
        return []
    if not steps:
        return [()] if target == 0 else []
    last = len(steps) - 1
    out = []

    def rec(prefix, remaining, pos):
        step = steps[pos]
        if pos == last:
            e, left = divmod(remaining, step)
            if not left:
                out.append(prefix + (e,))
            return
        for e in range(remaining // step + 1):
            rec(prefix + (e,), remaining - step * e, pos + 1)

    rec((), target, 0)
    return out


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.ring, self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self.terms.get(tuple(mono), Scalar.zero())

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.ring.nvars, Scalar.zero())

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def weighted_degree(self, weights) -> Fraction:
        """Common weighted degree of all terms; raises if inhomogeneous."""
        if not self.terms:
            raise ValueError("the zero polynomial has no weighted degree")
        degrees = {sum(Fraction(w) * e for w, e in zip(weights, m)) for m in self.terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is not weighted-homogeneous")
        return degrees.pop()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ring.const(as_scalar(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = as_scalar(other)
            if c.is_zero():
                return self.ring.zero()
            return Polynomial(self.ring, {m: a * c for m, a in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                c = c1 * c2
                s = terms.get(m)
                s = c if s is None else s + c
                if s.is_zero():
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = self.ring.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(c == other.terms[m] for m, c in self.terms.items())

    __hash__ = None

    # -- display -----------------------------------------------------------

    def __str__(self):
        terms = sorted(self.terms.items(), key=lambda kv: degrevlex_key(kv[0]), reverse=True)
        return format_sum([(str(c), self.ring.monomial_text(m)) for m, c in terms])

    def __repr__(self):
        return f"Poly({self})"


# -- calculus and substitution ----------------------------------------------


def partial_derivative(f: Polynomial, i: int) -> Polynomial:
    if not 0 <= i < f.ring.nvars:
        raise ValueError("variable index out of range")
    terms: dict = {}
    for m, c in f.terms.items():
        e = m[i]
        if e:
            dm = m[:i] + (e - 1,) + m[i + 1 :]
            s = terms.get(dm)
            s = c * e if s is None else s + c * e
            if s.is_zero():
                terms.pop(dm, None)
            else:
                terms[dm] = s
    return Polynomial(f.ring, terms)


def scale_substitute(f: Polynomial, scales) -> Polynomial:
    """f(t_1 x_1, ..., t_n x_n) for a symmetry t: RootOfUnity entries or the
    ints 1 and -1, each term c x^m scaled by t^m (see power_product)."""
    ts = _coerce_symmetry(scales)
    if len(ts) != f.ring.nvars:
        raise ValueError("one multiplier per variable required")
    terms: dict = {}
    for m, c in f.terms.items():
        factor = c * power_product(ts, m) if any(m) else c
        if not factor.is_zero():
            terms[m] = factor
    return Polynomial(f.ring, terms)


def extend_ring(f: Polynomial, ring: PolyRing) -> Polynomial:
    """Reinterpret f inside a ring containing all of f's variables by name."""
    index = [ring.vars.index(v) for v in f.ring.vars]
    terms = {}
    for m, c in f.terms.items():
        exps = [0] * ring.nvars
        for src, dst in enumerate(index):
            exps[dst] = m[src]
        terms[tuple(exps)] = c
    return Polynomial(ring, terms)


def set_variables_to_zero(f: Polynomial, indices) -> Polynomial:
    """Kill the listed variables; the result lives in the ring of the rest."""
    dead = set(indices)
    keep = [i for i in range(f.ring.nvars) if i not in dead]
    terms = {}
    for m, c in f.terms.items():
        if any(m[i] for i in dead):
            continue
        terms[tuple(m[i] for i in keep)] = c
    return Polynomial(PolyRing(tuple(f.ring.vars[i] for i in keep)), terms)


def mirror_ring(ring: PolyRing) -> PolyRing:
    """The ring in x-variables plus a mirrored copy y_x (used for w(y) - w(x))."""
    mirrored = tuple("y_" + v for v in ring.vars)
    if set(mirrored) & set(ring.vars):
        raise ValueError("mirrored variable names collide")
    return PolyRing(ring.vars + mirrored)


def difference_quotients(w: Polynomial) -> list[Polynomial]:
    """The telescoping difference quotients of w in doubled variables.

    Returns the unique polynomials D_i(x, y) with exactly

        w(y) - w(x) = sum_i D_i(x, y) * (y_i - x_i),

    where D_i = (w(y_1..y_i, x_{i+1}..x_n) - w(y_1..y_{i-1}, x_i..x_n))
    divided exactly by (y_i - x_i).  In closed form a term c x^m with
    m_i > 0 contributes

        c * prod_{j<i} y_j^m_j * sum_{k<m_i} y_i^k x_i^(m_i-1-k) * prod_{j>i} x_j^m_j.

    Each exponent vector gives back m and k, so no two contributions meet
    and every coefficient is c as it is.
    """
    n = w.ring.nvars
    big = mirror_ring(w.ring)
    quotients = []
    for i in range(n):
        terms = {}
        for m, c in w.terms.items():
            for k in range(m[i]):
                xs = (0,) * i + (m[i] - 1 - k,) + m[i + 1 :]
                terms[xs + m[:i] + (k,) + (0,) * (n - 1 - i)] = c
        quotients.append(Polynomial(big, terms))
    return quotients


def polynomial_matrix_determinant(rows: list[list[Polynomial]]) -> Polynomial:
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    ring = rows[0][0].ring

    def minor_det(row_ids, col_ids):
        if len(row_ids) == 1:
            return rows[row_ids[0]][col_ids[0]]
        i = row_ids[0]
        total = ring.zero()
        for pos, j in enumerate(col_ids):
            entry = rows[i][j]
            if entry.is_zero():
                continue
            term = entry * minor_det(row_ids[1:], col_ids[:pos] + col_ids[pos + 1 :])
            total = total + term if pos % 2 == 0 else total - term
        return total

    return minor_det(tuple(range(n)), tuple(range(n)))


def hessian_determinant(w: Polynomial) -> Polynomial:
    """det(d^2 w / dx_i dx_j), expanded exactly; 1 in zero variables."""
    n = w.ring.nvars
    if n == 0:
        return w.ring.one()
    hess = [[partial_derivative(partial_derivative(w, i), j) for j in range(n)] for i in range(n)]
    return polynomial_matrix_determinant(hess)


def check_symmetry(w: Polynomial, scales) -> bool:
    return scale_substitute(w, scales) == w


def find_weights(w: Polynomial):
    """Positive rational weights giving every term of w weighted degree 1.

    Returns a tuple of Fractions, or None when w is not quasi-homogeneous.
    Underdetermined directions (variables not pinned by the monomials) are
    fixed at 1/2, the largest weight an isolated singularity allows.
    """
    n = w.ring.nvars
    if n == 0 or w.is_zero():
        return None
    rows = [
        [Scalar.from_rational(e) for e in m] + [Scalar.one()]
        for m in sorted(w.terms, key=degrevlex_key)
    ]
    rows, pivots = echelon_form(rows)
    if n in pivots:
        return None  # inconsistent: not quasi-homogeneous
    weights = [Fraction(1, 2)] * n
    for row, col in zip(rows, pivots):
        coeffs = [c.to_rational() for c in row]
        weights[col] = coeffs[n] - sum(coeffs[j] * weights[j] for j in range(n) if j != col)
    if any(q <= 0 for q in weights):
        return None
    return tuple(weights)


class WeightSystem:
    """Positive weights q_i per variable under which w has total degree 1; the
    socle of its Milnor algebra then has degree sum(1 - 2 q_i)."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        object.__setattr__(self, "weights", tuple(Fraction(q) for q in weights))

    def __setattr__(self, *args):
        raise AttributeError("WeightSystem is immutable")

    def __reduce__(self):
        return WeightSystem, (self.weights,)

    @staticmethod
    def of(w: Polynomial) -> "WeightSystem | None":
        weights = find_weights(w)
        return None if weights is None else WeightSystem(weights)

    def monomial_degree(self, m: Monomial) -> Fraction:
        return sum(q * e for q, e in zip(self.weights, m))

    @property
    def socle_degree(self) -> Fraction:
        return sum(1 - 2 * q for q in self.weights)

    def __repr__(self):
        return f"WeightSystem({self.weights})"
