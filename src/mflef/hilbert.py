"""Hilbert-series side of the even-degree divisibility statements.

chi_M(t) is read off the minimal graded free resolution; the multiplicity
polynomial e_M and the Krull dimension come from its vanishing order at
t = 1, so chi_M(t) = e_M(t) (1 - t)^(n - d(M)) holds by construction and is
cross-checked in tests against a degreewise Hilbert-function count.
UniPoly prints through the one term rule, scalars.format_sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .groebner import GradedModulePresentation, Vec, buchberger, free_resolution
from .lefschetz import LefschetzReport, _now, _report
from .mfcore import _annihilates, stabilize_module, supertrace_at_origin
from .milnor import NonIsolatedError, jacobian_quotient
from .polyring import Polynomial, monomial_divides, monomials_of_weighted_degree
from .scalars import Scalar, format_sum, power_text


class UniPoly:
    """Dense univariate polynomial over Z in the formal Hilbert variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @staticmethod
    def one_minus_t():
        return UniPoly([1, -1])

    def degree(self):
        return len(self.coeffs) - 1

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __pow__(self, k):
        result = UniPoly([1])
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __call__(self, value):
        total = 0
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def __str__(self):
        return format_sum([(str(c), power_text("t", e) if e else "")
                           for e, c in enumerate(self.coeffs) if c])


@dataclass
class HilbertData:
    chi: UniPoly
    krull_dim: int
    multiplicity: UniPoly  # e_M(t), nonzero at t = 1


def chi_polynomial(pres: GradedModulePresentation) -> UniPoly:
    """Alternating sum of generator-degree series over the minimal resolution.

    Equals H_M(t) (1 - t)^n for the ambient variable count n.
    """
    if any(d < 0 for d in pres.gen_degrees):
        raise ValueError("chi needs nonnegative generator degrees")
    res = free_resolution(pres)
    coeffs = [0] * (1 + max(max(degs, default=0) for degs in res.degrees))
    for step, degs in enumerate(res.degrees):
        for d in degs:
            coeffs[d] += (-1) ** step
    return UniPoly(coeffs)


def multiplicity_data(chi: UniPoly, nvars: int) -> HilbertData:
    """Krull dimension and multiplicity polynomial from the chi polynomial.

    While e(1) = 0, e = (1 - t) q with q_k the k-th partial sum of e's
    coefficients; the last partial sum is e(1) = 0 and is dropped.
    """
    if not chi.coeffs:
        raise ValueError("chi must be nonzero (the zero module has no data)")
    order = 0
    e = chi
    while e(1) == 0:
        e = UniPoly(list(accumulate(e.coeffs))[:-1])
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
    e_at_minus_one: int
    required_power: int
    passed: bool
    micros: int

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.case}: e_M(-1) = {self.e_at_minus_one}  "
            f"required 2-power = {self.required_power}  [{verdict}]"
        )


def _check_even_degree(w: Polynomial):
    degrees = {sum(m) for m in w.terms}
    if len(degrees) != 1 or degrees.pop() % 2:
        raise ValueError("potential must be homogeneous of even degree")


def verify_even_multiplicity_divisibility(pres: GradedModulePresentation, w: Polynomial,
                                          case="even-multiplicity") -> DivisibilityEvenReport:
    """2-adic bound on e_M(-1) for modules over an even smooth hypersurface.

    Preconditions: w homogeneous of even degree annihilating M, with Jacobian
    ideal of finite colength (the smoothness proxy for the projective
    hypersurface).  The bound 2^(d(M) - floor(n/2)) is vacuous when the
    exponent is nonpositive.
    """
    start = _now()
    _check_even_degree(w)
    try:
        jacobian_quotient(w)
    except NonIsolatedError:
        raise NonIsolatedError("hypersurface fails the smoothness proxy") from None
    if not _annihilates(w, pres):
        raise ValueError("potential does not annihilate the module")
    chi = chi_polynomial(pres)
    data = multiplicity_data(chi, pres.ring.nvars)
    value = data.multiplicity(-1)
    required = data.krull_dim - pres.ring.nvars // 2
    if required <= 0 or value == 0:
        passed = True
    else:
        passed = value % (2**required) == 0
    return DivisibilityEvenReport(
        case=case,
        e_at_minus_one=value,
        required_power=max(required, 0),
        passed=passed,
        micros=_now() - start,
    )


def chi_stabilization_consistency(pres: GradedModulePresentation, w: Polynomial,
                                  case="chi-stabilization") -> LefschetzReport:
    """chi_M(-1) against the origin supertrace of the stabilized Z/2 structure."""
    start = _now()
    _check_even_degree(w)
    lhs = Scalar.from_rational(chi_polynomial(pres)(-1))
    mf, alpha = stabilize_module(pres, w)
    if alpha is None:
        raise AssertionError("even potential must induce a Z/2 structure")
    return _report(case, lhs, supertrace_at_origin(alpha), "hilbert-chi+stabilization", start)
