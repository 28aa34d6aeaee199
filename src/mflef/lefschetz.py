"""Trace-formula verifiers for diagonal symmetries of isolated singularities.

Each verifier computes the two sides of an identity with independent engines
and reports exact scalar equality: the twisted supertrace on Hom-complex
cohomology on one side, and boundary-bulk classes paired in the scaled
residue pairing (or a closed form) on the other.  All comparisons are exact;
no tolerance appears anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import linalg
from .homcoh import (
    CohomologyBasis,
    cohomology,
    graded_euler_supertrace,
    hom_complex,
    induced_endomorphism,
    supertrace_on_cohomology,
)
from .milnor import (
    PAIRING_CONVENTION,
    TraceSpaceElement,
    _coerce_symmetry,
    canonical_pairing,
    milnor_data,
    trace_space,
)
from .mfcore import (
    MatrixFactorization,
    MFMorphism,
    equivariance_power_check,
    pullback,
    supertrace_at_origin,
)
from .polyring import partial_derivative, scale_substitute, set_variables_to_zero
from .scalars import Scalar, one_minus_zeta_valuation


class EngineDisagreementError(AssertionError):
    """The graded engine disagreed with the Groebner engine."""


@dataclass
class LefschetzReport:
    case: str
    lhs: Scalar
    rhs: Scalar
    equal: bool
    engine: str
    micros: int

    def __str__(self):
        verdict = "equal" if self.equal else "MISMATCH"
        return f"{self.case}: lhs = {self.lhs}  rhs = {self.rhs}  [{verdict}; {self.engine}]"


@dataclass
class DivisibilityReport:
    case: str
    value: Scalar
    valuation: object  # int or math.inf
    bound: int
    m_max: int
    passed: bool
    micros: int

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.case}: str = {self.value}  v(1-zeta) = {self.valuation}  "
            f"bound = {self.bound}  m_max = {self.m_max}  [{verdict}]"
        )


def _now():
    return time.perf_counter_ns() // 1000


def _report(case, lhs, rhs, engine, start) -> LefschetzReport:
    """A report comparing lhs and rhs exactly, timed from start (see _now)."""
    return LefschetzReport(case, lhs, rhs, bool(lhs == rhs), engine, _now() - start)


def _inverse_symmetry(t):
    return tuple(r.inverse() for r in t)


def _permutation_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def boundary_bulk(mf: MatrixFactorization, t, alpha: MFMorphism) -> TraceSpaceElement:
    """The boundary-bulk class of a closed morphism alpha: E -> t^*E in H(w_t).

    Computes the supertrace of the composite of the partial derivatives of the
    odd operator in the fixed directions (taken in descending renumbered
    order) with alpha, restricts the moving variables to zero, reduces modulo
    the Jacobian ideal of the restricted potential, and attaches the sign of
    the permutation that sorts moving coordinates first (acting on the volume
    form), so the class does not depend on how the variables were ordered.
    Composites of odd total parity have identically vanishing supertrace and
    give the zero class.
    """
    t = _coerce_symmetry(t)
    if alpha.source is not mf and alpha.source.full_matrix() != mf.full_matrix():
        raise ValueError("alpha must start at the given factorization")
    if not alpha.is_closed():
        raise ValueError("alpha must be closed")
    ts = trace_space(mf.potential, t)  # validates the symmetry
    moving = list(ts.moving_indices)
    fixed = list(ts.fixed_indices)
    delta = mf.full_matrix()
    ring = mf.ring
    composite = alpha.matrix
    for f in fixed:
        derived = [[partial_derivative(e, f) for e in row] for row in delta]
        composite = linalg.mat_mul(derived, composite, ring.zero(), cols=mf.total_rank)
    if (len(fixed) + alpha.parity) % 2:
        return ts.zero()
    trace = ring.zero()
    for i in range(mf.r0):
        trace = trace + composite[i][i]
    for i in range(mf.r0, mf.total_rank):
        trace = trace - composite[i][i]
    restricted = set_variables_to_zero(trace, moving, target_ring=ts.milnor.ring)
    sign = _permutation_sign(moving + fixed)
    return ts.element(restricted * Scalar.from_rational(sign))


def tilde_beta(t, beta: MFMorphism) -> MFMorphism:
    """Turn beta: t^*B -> B into the induced morphism B -> (t^{-1})^* B."""
    t = _coerce_symmetry(t)
    inv = [r.inverse().to_scalar() for r in t]
    source = beta.target
    target = pullback(inv, beta.target)
    matrix = [[scale_substitute(e, inv) for e in row] for row in beta.matrix]
    return MFMorphism(source, target, beta.parity, matrix, check_parity=False)


def rhs_hlf(a, b, t, alpha, beta) -> Scalar:
    """Pairing of the two boundary-bulk classes (the fixed-locus side)."""
    t = _coerce_symmetry(t)
    tau_a = boundary_bulk(a, t, alpha)
    tau_b = boundary_bulk(b, _inverse_symmetry(t), tilde_beta(t, beta))
    return canonical_pairing(tau_a, tau_b)


def pair_cohomology(a: MatrixFactorization, b: MatrixFactorization) -> CohomologyBasis:
    """cohomology(hom_complex(a, b)), reused across requests for the same objects.

    The basis depends on the pair alone, so a verifier that twists it by many
    (t, alpha, beta) needs it once.  It is kept in a._hom_memo, from the
    pair's second request on, by the rules stated on MatrixFactorization.
    """
    entry = a._hom_memo.get(id(b))
    if entry is not None and entry[1] is not None:
        return entry[1]
    basis = cohomology(hom_complex(a, b))
    a._hom_memo[id(b)] = (b, None, None) if entry is None else (b, basis, entry[2])
    return basis


def lhs_hlf(a, b, t, alpha, beta, engine: str = "groebner") -> Scalar:
    """Supertrace of phi -> beta o t^*(phi) o alpha on H(Hom(A, B)).

    The Groebner engine reuses the cohomology basis of (a, b) across calls
    on the same two objects (see pair_cohomology).
    """
    t = _coerce_symmetry(t)
    if engine == "groebner":
        basis = pair_cohomology(a, b)
        mat = induced_endomorphism(t, alpha, beta, basis)
        return supertrace_on_cohomology(mat, basis.parities())
    if engine == "graded":
        return graded_euler_supertrace(a, b, t, alpha, beta)
    if engine == "both":
        reference = lhs_hlf(a, b, t, alpha, beta, engine="groebner")
        value = graded_euler_supertrace(a, b, t, alpha, beta)
        if value != reference:
            raise EngineDisagreementError(
                f"graded engine disagrees with the Groebner engine: {value} != {reference}"
            )
        return reference
    raise ValueError(f"unknown engine {engine!r}")


def verify_hlf(a, b, t, alpha, beta, engine="groebner", case="hlf") -> LefschetzReport:
    """Both sides of the fixed-locus trace formula, compared exactly."""
    start = _now()
    lhs = lhs_hlf(a, b, t, alpha, beta, engine=engine)
    rhs = rhs_hlf(a, b, t, alpha, beta)
    return _report(case, lhs, rhs, f"{engine}+residue-pairing[{PAIRING_CONVENTION}]", start)


def verify_isolated(a, b, t, alpha, beta, engine="groebner", case="isolated") -> LefschetzReport:
    """Isolated-fixed-point form: rhs in closed form str str / prod(1 - t_i)."""
    t = _coerce_symmetry(t)
    if any(r.is_one() for r in t):
        raise ValueError("the isolated form needs t_i != 1 for every coordinate")
    start = _now()
    lhs = lhs_hlf(a, b, t, alpha, beta, engine=engine)
    rhs = supertrace_at_origin(alpha) * supertrace_at_origin(beta)
    for r in t:
        rhs = rhs * (Scalar.one() - r.to_scalar()).inverse()
    return _report(case, lhs, rhs, f"{engine}+closed-form", start)


def lunts_check(w, t, case="lunts") -> LefschetzReport:
    """Supertrace of the symmetry on H(w) against the superdimension of H(w_t).

    The action on H(w) = Milnor(w) . dx[n] is f(x) dx -> f(t x) (prod t_i) dx,
    diagonal on the monomial basis; the shift [n] contributes (-1)^n.  The
    right side is (-1)^(n-k) mu(w_t).
    """
    start = _now()
    t = _coerce_symmetry(t)
    ts = trace_space(w, t)  # validates symmetry and isolatedness of w_t
    algebra = milnor_data(w)
    n = w.ring.nvars
    det = Scalar.one()
    for r in t:
        det = det * r.to_scalar()
    trace = Scalar.zero()
    for mono in algebra.basis:
        eig = Scalar.one()
        for r, e in zip(t, mono):
            if e:
                eig = eig * r.to_scalar() ** e
        trace = trace + eig
    lhs = trace * det * Scalar.from_rational((-1) ** n)
    rhs = Scalar.from_rational(
        (-1) ** (len(ts.fixed_indices)) * ts.milnor.milnor_number
    )
    return _report(case, lhs, rhs, "milnor-action+sdim", start)


def zero_fixed_locus_check(a, b, t, alpha, beta, engine="groebner", case="zero") -> LefschetzReport:
    """Odd-dimensional fixed locus forces a vanishing twisted supertrace."""
    t = _coerce_symmetry(t)
    fixed = sum(1 for r in t if r.is_one())
    if fixed % 2 == 0:
        raise ValueError("the vanishing statement needs an odd-dimensional fixed locus")
    if alpha.parity or beta.parity:
        raise ValueError("vanishing is stated for even alpha and beta")
    start = _now()
    lhs = lhs_hlf(a, b, t, alpha, beta, engine=engine)
    return _report(case, lhs, Scalar.zero(), f"{engine}+parity", start)


def trace_identity_check(a, t, alpha, engine="groebner", case="trace-identity") -> LefschetzReport:
    """str(a|0) str(a^{-1}|0) = str(twisted endo) prod (1 - t_i)."""
    t = _coerce_symmetry(t)
    if any(r.is_one() for r in t):
        raise ValueError("the trace identity needs t_i != 1 for every coordinate")
    if alpha.parity:
        raise ValueError("alpha must be even")
    try:
        beta = alpha.inverse()
    except ArithmeticError as exc:
        raise ValueError("alpha must be invertible at the origin") from exc
    start = _now()
    lhs = supertrace_at_origin(alpha) * supertrace_at_origin(beta)
    rhs = lhs_hlf(a, a, t, alpha, beta, engine=engine)
    for r in t:
        rhs = rhs * (Scalar.one() - r.to_scalar())
    return _report(case, lhs, rhs, f"{engine}+origin-supertraces", start)


def divisibility_check(a: MatrixFactorization, t, alpha: MFMorphism, p: int,
                       case="divisibility") -> DivisibilityReport:
    """(1 - zeta_p)-adic lower bound on the origin supertrace of the
    equivariant structure, with the implied p-power divisibility exponent."""
    t = _coerce_symmetry(t)
    start = _now()
    if any(r.is_one() for r in t):
        raise ValueError("divisibility needs an isolated fixed point (all t_i != 1)")
    for r in t:
        if not (r.to_scalar() ** p == 1):
            raise ValueError("symmetry must have order dividing p")
    if not equivariance_power_check(t, alpha, p):
        raise ValueError("alpha is not a Z/p-equivariant structure")
    if a.r0 != a.r1:
        raise ValueError("virtual rank must vanish")
    n = a.ring.nvars
    value = supertrace_at_origin(alpha)
    valuation = one_minus_zeta_valuation(value, p)
    bound = (n + 1) // 2  # ceil(n/2)
    m_max = max((bound - 1) // (p - 1), 0)
    passed = valuation >= bound
    return DivisibilityReport(
        case=case,
        value=value,
        valuation=valuation,
        bound=bound,
        m_max=m_max,
        passed=passed,
        micros=_now() - start,
    )
