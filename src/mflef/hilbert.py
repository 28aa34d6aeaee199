"""Hilbert-series side of the even-degree divisibility statements.

chi_M(t) is read off the minimal graded free resolution; the multiplicity
polynomial e_M and the Krull dimension come from its vanishing order at
t = 1, so chi_M(t) = e_M(t) (1 - t)^(n - d(M)) holds by construction and is
cross-checked in tests against a degreewise Hilbert-function count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .groebner import (
    GradedModulePresentation,
    Vec,
    buchberger,
    free_resolution,
    standard_monomials,
)
from .lefschetz import LefschetzReport
from .mfcore import stabilize_module, supertrace_at_origin
from .milnor import NonIsolatedError
from .polyring import (
    Polynomial,
    monomial_divides,
    monomials_of_weighted_degree,
    partial_derivative,
)
from .scalars import Scalar, poly_divmod


class UniPoly:
    """Dense univariate polynomial over Q in the formal Hilbert variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @staticmethod
    def monomial(degree, coeff=1):
        return UniPoly([0] * degree + [coeff])

    @staticmethod
    def one_minus_t():
        return UniPoly([1, -1])

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [Fraction(0)] * (n - len(self.coeffs))
        b = other.coeffs + [Fraction(0)] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = UniPoly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other])
        return self.coeffs == other.coeffs

    __hash__ = None

    def __call__(self, value):
        value = Fraction(value)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def divide_exact(self, other):
        quotient, remainder = poly_divmod(self.coeffs, other.coeffs)
        if any(remainder):
            raise ArithmeticError("division is not exact")
        return UniPoly(quotient)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                mono = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"UniPoly({self})"


@dataclass
class HilbertData:
    chi: UniPoly
    krull_dim: int
    multiplicity: UniPoly  # e_M(t), nonzero at t = 1


def chi_polynomial(pres: GradedModulePresentation) -> UniPoly:
    """Alternating sum of generator-degree series over the minimal resolution.

    Equals H_M(t) (1 - t)^n for the ambient variable count n.
    """
    res = free_resolution(pres)
    chi = UniPoly([])
    for step, degs in enumerate(res.degrees):
        sign = 1 if step % 2 == 0 else -1
        for d in degs:
            chi = chi + UniPoly.monomial(d, sign)
    return chi


def multiplicity_data(chi: UniPoly, nvars: int) -> HilbertData:
    """Krull dimension and multiplicity polynomial from the chi polynomial."""
    if chi.is_zero():
        raise ValueError("chi must be nonzero (the zero module has no data)")
    one_minus = UniPoly.one_minus_t()
    order = 0
    e = chi
    while e(1) == 0:
        e = e.divide_exact(one_minus)
        order += 1
    return HilbertData(chi=chi, krull_dim=nvars - order, multiplicity=e)


def hilbert_function(pres: GradedModulePresentation, degree: int) -> int:
    """dim of the graded piece, by standard monomials of the relation module."""
    n_gens = len(pres.gen_degrees)
    ring = pres.ring
    leads = {}
    if pres.relations and pres.relations[0]:
        cols = [
            Vec.from_column([pres.relations[i][j] for i in range(n_gens)], n_gens)
            for j in range(pres.num_relations)
        ]
        leads = buchberger(cols, rank=n_gens).leads
    total = 0
    for comp in range(n_gens):
        want = degree - pres.gen_degrees[comp]
        for mono in monomials_of_weighted_degree((1,) * ring.nvars, want):
            if not any(monomial_divides(lead, mono) for lead, _ in leads.get(comp, ())):
                total += 1
    return total


@dataclass
class DivisibilityEvenReport:
    case: str
    e_at_minus_one: Fraction
    required_power: int
    passed: bool
    micros: int

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.case}: e_M(-1) = {self.e_at_minus_one}  "
            f"required 2-power = {self.required_power}  [{verdict}]"
        )


def _jacobian_has_finite_colength(w: Polynomial) -> bool:
    n = w.ring.nvars
    jac = [partial_derivative(w, i) for i in range(n)]
    if any(j.is_zero() for j in jac):
        return False
    gb = buchberger(jac, rank=1)
    return standard_monomials(gb, nvars=n) is not None


def verify_even_multiplicity_divisibility(pres: GradedModulePresentation, w: Polynomial,
                                          case="even-multiplicity") -> DivisibilityEvenReport:
    """2-adic bound on e_M(-1) for modules over an even smooth hypersurface.

    Preconditions: w homogeneous of even degree annihilating M, with Jacobian
    ideal of finite colength (the smoothness proxy for the projective
    hypersurface).  The bound 2^(d(M) - floor(n/2)) is vacuous when the
    exponent is nonpositive.
    """
    start = time.perf_counter_ns()
    degs = {sum(m) for m in w.terms}
    if len(degs) != 1 or (deg := degs.pop()) % 2:
        raise ValueError("potential must be homogeneous of even degree")
    if not _jacobian_has_finite_colength(w):
        raise NonIsolatedError("hypersurface fails the smoothness proxy")
    from .mfcore import _annihilates

    if not _annihilates(w, pres):
        raise ValueError("potential does not annihilate the module")
    chi = chi_polynomial(pres)
    data = multiplicity_data(chi, pres.ring.nvars)
    value = data.multiplicity(-1)
    if value.denominator != 1:
        raise AssertionError("multiplicity polynomial must have integer values")
    required = data.krull_dim - pres.ring.nvars // 2
    if required <= 0 or value == 0:
        passed = True
    else:
        passed = int(value) % (2**required) == 0
    return DivisibilityEvenReport(
        case=case,
        e_at_minus_one=value,
        required_power=max(required, 0),
        passed=passed,
        micros=time.perf_counter_ns() // 1000 - start // 1000,
    )


def chi_stabilization_consistency(pres: GradedModulePresentation, w: Polynomial,
                                  case="chi-stabilization") -> LefschetzReport:
    """chi_M(-1) against the origin supertrace of the stabilized Z/2 structure."""
    start = time.perf_counter_ns() // 1000
    degs = {sum(m) for m in w.terms}
    if len(degs) != 1 or degs.pop() % 2:
        raise ValueError("potential must be homogeneous of even degree")
    chi = chi_polynomial(pres)
    lhs_value = chi(-1)
    mf, alpha = stabilize_module(pres, w)
    if alpha is None:
        raise AssertionError("even potential must induce a Z/2 structure")
    rhs_scalar = supertrace_at_origin(alpha)
    lhs_scalar = Scalar.from_rational(lhs_value)
    return LefschetzReport(
        case=case,
        lhs=lhs_scalar,
        rhs=rhs_scalar,
        equal=bool(lhs_scalar == rhs_scalar),
        engine="hilbert-chi+stabilization",
        micros=time.perf_counter_ns() // 1000 - start,
    )
