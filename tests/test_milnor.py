import pytest
from fractions import Fraction

from mflef import linalg
from mflef.scalars import RootOfUnity, Scalar
from mflef.polyring import PolyRing, WeightSystem, hessian_determinant
from mflef.milnor import (
    MilnorAlgebra,
    NonIsolatedError,
    canonical_pairing,
    milnor_data,
    trace_space,
)

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))
x = R1.var("x")
x2, y2 = R2.var("x"), R2.var("y")
R3 = PolyRing(("x", "y", "z"))
x3, y3, z3 = R3.var("x"), R3.var("y"), R3.var("z")


def test_milnor_data_examples():
    m = milnor_data(x**2)
    assert m.milnor_number == 1 and m.basis == ((0,),)

    m = milnor_data(x**3)
    assert m.milnor_number == 2 and set(m.basis) == {(0,), (1,)}

    m = milnor_data(x2**3 + y2**3)
    assert m.milnor_number == 4
    assert set(m.basis) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_milnor_non_isolated():
    with pytest.raises(NonIsolatedError):
        milnor_data(x2**2)  # no y-dependence
    with pytest.raises(NonIsolatedError):
        milnor_data(x2**2 * y2)  # D-series needs the y^k term


def test_residue_examples():
    m = milnor_data(x**2)
    assert m.residue(R1.one()) == Fraction(1, 2)

    m3 = milnor_data(x**3)
    assert m3.residue(x) == Fraction(1, 3)
    assert m3.residue(R1.one()) == 0

    mc = milnor_data(x2**3 + y2**3)
    assert mc.residue(x2 * y2) == Fraction(1, 9)
    assert mc.residue(R2.one()) == 0
    assert mc.residue(x2) == 0


def test_residue_normalization_on_corpus():
    corpus = [
        x**2, x**3, x**4, x**7,
        x2**3 + y2**3, x2**2 + y2**2, x2 * y2,
        x2**2 * y2 + y2**4, x2**2 * y2 + y2**7,
    ]
    for w in corpus:
        m = milnor_data(w)
        assert m.residue(hessian_determinant(w)) == m.milnor_number


def test_residue_pairing_examples():
    m = milnor_data(x**2)
    one = R1.one()
    assert m.residue_pairing(one, one) == Fraction(1, 2)

    m3 = milnor_data(x**3)
    assert m3.residue_pairing(one, x) == Fraction(1, 3)
    assert m3.residue_pairing(x, x) == 0  # x^2 = 0 mod (3x^2)


def test_gram_matrices_invertible():
    for w in (x**2, x**4, x2**3 + y2**3, x2**2 * y2 + y2**4, x2 * y2):
        m = milnor_data(w)
        gram = m.gram_matrix()
        assert not linalg.det(gram).is_zero()


def test_pairing_degree_selection_quasihomogeneous():
    # pairing vanishes unless weighted degrees add to the socle degree
    m = milnor_data(x2**3 + y2**3)
    basis = [R2.monomial(mono) for mono in m.basis]
    degree = m.weights.monomial_degree
    for a in m.basis:
        for b in m.basis:
            val = m.residue_pairing(R2.monomial(a), R2.monomial(b))
            if degree(a) + degree(b) != m.socle_degree:
                assert val.is_zero()


def test_trace_space_examples():
    ts = trace_space(x**2, [RootOfUnity(2, 1)])
    assert ts.milnor.nvars == 0
    assert ts.milnor.milnor_number == 1
    assert ts.parity == 0

    ts = trace_space(x2**3 + y2**3, [RootOfUnity(3, 1), RootOfUnity(1, 0)])
    assert ts.restricted_potential == PolyRing(("y",)).var("y") ** 3
    assert ts.milnor.milnor_number == 2
    assert ts.parity == 1

    ts = trace_space(x2**2 + y2**2, [RootOfUnity(2, 1), RootOfUnity(2, 1)])
    assert ts.milnor.milnor_number == 1
    assert ts.parity == 0


def test_trace_space_rejects_non_symmetry():
    with pytest.raises(ValueError):
        trace_space(x**3, [RootOfUnity(2, 1)])


def test_canonical_pairing_examples():
    # w = x^2, t = -1: <1, 1> = (1 - (-1))^{-1} * 1/2... with 0 fixed variables
    # the restricted Milnor algebra is the ground field with residue = id.
    t = [RootOfUnity(2, 1)]
    ts = trace_space(x**2, t)
    ts_inv = trace_space(x**2, [r.inverse() for r in t])
    u = ts.element(ts.milnor.ring.one())
    v = ts_inv.element(ts_inv.milnor.ring.one())
    assert canonical_pairing(u, v) == Fraction(1, 2)

    # w = x^3 + y^3, t = (zeta_3, 1), u = 1, v = y: the scaled residue value
    # (1 - zeta_3)^{-1}/3 times the frozen sign (-1)^(m(m+1)/2) at m = 1.
    t = [RootOfUnity(3, 1), RootOfUnity(1, 0)]
    ts = trace_space(x2**3 + y2**3, t)
    ts_inv = trace_space(x2**3 + y2**3, [r.inverse() for r in t])
    ry = ts.milnor.ring
    u = ts.element(ry.one())
    v = ts_inv.element(ry.var("y"))
    expected = -(Scalar.one() - Scalar.zeta(3)).inverse() * Fraction(1, 3)
    assert canonical_pairing(u, v) == expected

    # t = identity carries no (1 - t_i) factors: the residue pairing up to
    # the same frozen sign (m = n = 1 here)
    t_id = [RootOfUnity(1, 0)]
    ts = trace_space(x**3, t_id)
    u = ts.element(x)
    v = trace_space(x**3, t_id).element(R1.one())
    assert canonical_pairing(u, v) == -Fraction(1, 3)


def test_canonical_pairing_rejects_mismatched_fixed_sets():
    t = [RootOfUnity(3, 1), RootOfUnity(1, 0)]
    s = [RootOfUnity(1, 0), RootOfUnity(1, 0)]
    w = x2**3 + y2**3
    u = trace_space(w, t).zero()
    v = trace_space(w, s).zero()
    with pytest.raises(ValueError):
        canonical_pairing(u, v)


def test_zero_variable_residue_is_identity():
    ts = trace_space(x**2, [RootOfUnity(2, 1)])
    ring0 = ts.milnor.ring
    assert ts.milnor.residue(ring0.const(Scalar.from_rational(7))) == 7


@pytest.mark.parametrize("w", [
    x**2, x**5, x2**3 + y2**3, x2**2 * y2 + y2**4, x2**2 * y2 + y2**7, x2**3 + y2**4,
    x3**3 + y3**3 + z3**3, x3**4 + y3**4 + z3**4, x3**2 + y3**2 + z3**2,
    x2**3 + x2 * y2**2, x2**2 * y2 + y2**3,
], ids=str)
def test_milnor_orlik_formula(w):
    # Milnor-Orlik (Topology 1970): a quasi-homogeneous isolated singularity of
    # weights q_i has Milnor number prod(1/q_i - 1)
    expected = Fraction(1)
    for q in WeightSystem.of(w).weights:
        expected *= 1 / q - 1
    assert MilnorAlgebra(w).milnor_number == expected


# -- differential oracle: sympy's Groebner bases ----------------------------------


def _sympy_milnor_number(w):
    """dim Q[x]/(dw/dx_1, ..., dw/dx_n) from sympy's groebner; None if infinite."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(w.ring.vars)
    expr = sympy.sympify(str(w).replace("^", "**"), locals=dict(zip(w.ring.vars, gens)))
    basis = sympy.groebner([sympy.diff(expr, g) for g in gens], *gens, order="grevlex")
    if not basis.is_zero_dimensional:
        return None
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]
    # the standard monomials are a finite order ideal: walk it up from 1
    standard, frontier = set(), [(0,) * len(gens)]
    while frontier:
        mono = frontier.pop()
        if mono in standard or any(all(a >= b for a, b in zip(mono, lead)) for lead in leads):
            continue
        standard.add(mono)
        frontier += [mono[:i] + (mono[i] + 1,) + mono[i + 1:] for i in range(len(gens))]
    return len(standard)


def _document_potentials():
    from pathlib import Path

    from mflef.document import parse_document

    fixtures = Path(__file__).parent / "fixtures"
    return [pytest.param(w, id=f"{name}:{w}")
            for name in ("a2.mflef", "passing.mflef", "violation.mflef")
            for w in parse_document((fixtures / name).read_text()).potentials.values()]


# The potentials of the benchmark's corpus-cli templates (perfbench/workloads.py).
CORPUS_POTENTIALS = [
    x**2, x**3, x**4, x**5, x2**2 + y2**2, x3**2 + y3**2 + z3**2, x2**3 + y2**3,
    x2**2 * y2 + y2**4, x2**2 * y2 + y2**7, x2**3 + y2**4, x3**3 + y3**3 + z3**3,
    x3**4 + y3**4 + z3**4,
]


@pytest.mark.parametrize("w", [pytest.param(w, id=f"corpus:{w}") for w in CORPUS_POTENTIALS]
                         + _document_potentials())
def test_milnor_number_matches_sympy(w):
    expected = _sympy_milnor_number(w)
    if expected is None:
        with pytest.raises(NonIsolatedError):
            MilnorAlgebra(w)
    else:
        assert MilnorAlgebra(w).milnor_number == expected
