"""Property tests of the Groebner core: generator order, normal forms and the
two coefficient kernels."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mflef.groebner import buchberger, normal_form  # noqa: E402
from mflef.polyring import PolyRing, Polynomial, monomial_div, monomial_lcm  # noqa: E402
from mflef.scalars import Scalar  # noqa: E402
from test_groebner import assert_syzygy_generators  # noqa: E402

R2 = PolyRing(("x", "y"))


def polys(max_exponent):
    terms = st.dictionaries(
        st.tuples(st.integers(0, max_exponent), st.integers(0, max_exponent)),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=3,
    )
    return terms.map(lambda t: sum((R2.monomial(m, c) for m, c in t.items()), R2.zero()))


# Module examples keep exponents up to 2.  With exponents up to 3 some draws
# still take 24 to 56 CPU-s on ints (over 60 on Scalars) on a 2-vCPU Xeon:
# the generators met before inter-reduction grow to 22,588-bit coefficients,
# where the reduced basis has 70-bit ones.  DRAW, with exponents up to 3,
# took 1.4 CPU-s on Scalars, most of it math.gcd; on ints about 0.1 CPU-s.
columns = st.lists(polys(2), min_size=2, max_size=2)
x, y = R2.var("x"), R2.var("y")
DRAW = [
    [x * y**3 - 3 * x * y**2 + y**2, -(x**3) * y**3 + 3 * x**3 * y - 3 * x**3],
    [x**2 * y**3 - 3 * x - 1, -(x**3) * y**3 + 3 * x**3 * y - 3 * x**3],
    [3 * x**2 * y**2 + 2 * x * y**3 - 1, x * y**3 - 3 * x * y**2 + y**2],
]


def _assert_groebner_basis_of(gb, gens):
    """The definition, checked without the pair criteria: every input reduces
    to zero, and so does the S-vector of every pair of basis elements that
    lead in one component."""
    for g in gens:
        assert normal_form(g, gb).is_zero()
    columns = [g.to_column() for g in gb.generators]
    leads = [g.lead() for g in gb.generators]
    for i, (comp_i, lead_i) in enumerate(leads):
        for j in range(i):
            comp_j, lead_j = leads[j]
            if comp_i != comp_j:
                continue
            lcm = monomial_lcm(lead_i, lead_j)
            qi = R2.monomial(monomial_div(lcm, lead_i), 1)
            qj = R2.monomial(monomial_div(lcm, lead_j), 1)
            s = [qi * a - qj * b for a, b in zip(columns[i], columns[j])]
            assert normal_form(s, gb).is_zero()


@settings(max_examples=15, deadline=None)
@given(st.lists(polys(3), min_size=1, max_size=3), st.data())
def test_ideal_basis_ignores_generator_order(gens, data):
    assert buchberger(gens, rank=1).generators == buchberger(
        data.draw(st.permutations(gens)), rank=1
    ).generators


@settings(max_examples=10, deadline=None)
@given(st.lists(columns, min_size=1, max_size=3), st.data())
def test_module_basis_ignores_generator_order(gens, data):
    assert buchberger(gens, rank=2).generators == buchberger(
        data.draw(st.permutations(gens)), rank=2
    ).generators


@settings(max_examples=20, deadline=None)
@given(st.lists(polys(3), min_size=1, max_size=2), polys(4), polys(4), st.integers(-3, 3))
def test_normal_form_idempotent_and_linear(gens, f, g, a):
    gb = buchberger(gens, rank=1)
    nf_f = normal_form(f, gb)
    assert normal_form(nf_f, gb) == nf_f
    assert normal_form(f * a + g, gb) == nf_f * a + normal_form(g, gb)


@settings(max_examples=15, deadline=None)
@given(st.lists(polys(2), min_size=1, max_size=3))
def test_ideal_basis_meets_the_buchberger_criterion(gens):
    _assert_groebner_basis_of(buchberger(gens, rank=1), gens)


@settings(max_examples=10, deadline=None)
@given(st.lists(columns, min_size=1, max_size=3))
@example(DRAW)
def test_module_basis_meets_the_buchberger_criterion(gens):
    _assert_groebner_basis_of(buchberger(gens, rank=2), gens)


def _on_scalars(poly):
    """poly with one coefficient promoted to order 2, the same value: any
    input holding it runs on the Scalar kernel."""
    mono, coeff = next(iter(poly.terms.items()))
    return Polynomial(R2, {**poly.terms, mono: coeff * Scalar.one().promote(2)})


def _assert_kernels_agree(gens, rank, element):
    on_ints = buchberger(gens, rank=rank)
    first = [_on_scalars(gens[0])] if rank == 1 else [[_on_scalars(gens[0][0]), gens[0][1]]]
    on_scalars = buchberger(first + gens[1:], rank=rank)
    assert on_scalars.generators == on_ints.generators
    assert all(c.order == 1 for g in on_ints.generators for c in g.terms.values())
    remainder = normal_form(element, on_ints)
    assert normal_form(element, on_scalars) == remainder
    assert all(c.order == 1 for c in remainder.terms.values())


@settings(max_examples=15, deadline=None)
@given(st.lists(polys(3), min_size=1, max_size=3), polys(4))
def test_ideal_basis_is_the_same_on_both_kernels(gens, f):
    _assert_kernels_agree(gens, 1, f)


@settings(max_examples=10, deadline=None)
@given(st.lists(columns, min_size=1, max_size=3), columns)
def test_module_basis_is_the_same_on_both_kernels(gens, element):
    _assert_kernels_agree(gens, 2, element)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda rows: st.lists(st.lists(polys(2), min_size=rows, max_size=rows), min_size=2, max_size=3)
))
def test_syzygies_generate_the_kernel(columns):
    assert_syzygy_generators([list(row) for row in zip(*columns)])
