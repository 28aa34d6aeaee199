"""Property tests of the Groebner core: generator order and normal forms."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mflef.groebner import buchberger, normal_form  # noqa: E402
from mflef.polyring import PolyRing  # noqa: E402

R2 = PolyRing(("x", "y"))


def polys(max_exponent):
    terms = st.dictionaries(
        st.tuples(st.integers(0, max_exponent), st.integers(0, max_exponent)),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=3,
    )
    return terms.map(lambda t: sum((R2.monomial(m, c) for m, c in t.items()), R2.zero()))


# module bases grow fast with the entry degree: exponents up to 2 keep every
# example under a second, where exponents up to 3 took up to 5 s
columns = st.lists(polys(2), min_size=2, max_size=2)


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
