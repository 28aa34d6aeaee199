"""Differential test of the one term rule (`scalars.format_sum`).

The reference printers below are the per-type printers that Scalar,
Polynomial, UniPoly and the CLI's Milnor basis line used before they shared
one rule.  They are test oracles only: every exact value must print the same
bytes through the shared rule as through its own former copy.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from test_scalar_properties import coordinates, scalars  # noqa: E402

from mflef.hilbert import UniPoly  # noqa: E402
from mflef.polyring import Polynomial, PolyRing, degrevlex_key  # noqa: E402
from mflef.scalars import RootOfUnity, Scalar, format_sum  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None)
RINGS = [PolyRing(names) for names in (("x",), ("x", "y"), ("x", "y", "z"))]


def reference_scalar_str(a):
    if a.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(a.coeffs):
        if not c:
            continue
        if k == 0:
            base = str(c)
        else:
            zeta = f"zeta({a.order})" + (f"^{k}" if k > 1 else "")
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


def reference_poly_str(f):
    if not f.terms:
        return "0"
    parts = []
    for m, c in sorted(f.terms.items(), key=lambda kv: degrevlex_key(kv[0]), reverse=True):
        mono = "*".join(
            f"{v}^{e}" if e > 1 else v for v, e in zip(f.ring.vars, m) if e
        )
        cs = str(c)
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        elif ("+" in cs) or ("-" in cs[1:]) or (" " in cs):
            parts.append(f"({cs})*{mono}")
        else:
            parts.append(f"{cs}*{mono}")
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


def reference_unipoly_str(u):
    if not u.coeffs:
        return "0"
    parts = []
    for e, c in enumerate(u.coeffs):
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


def reference_mono_str(ring, mono):
    if not any(mono):
        return "1"
    return "*".join(
        f"{v}^{e}" if e > 1 else v for v, e in zip(ring.vars, mono) if e
    )


ONE_PLUS_ZETA3 = Scalar(3, [1, 1])
MINUS_ONE_MINUS_ZETA3 = Scalar(3, [-1, -1])


@st.composite
def polynomials(draw):
    """Polynomials in one to three variables, zero included, with scalar
    coefficients of mixed orders, compound ones such as 1 + zeta(3) among them."""
    ring = draw(st.sampled_from(RINGS))
    coefficient = st.one_of(
        scalars(), st.sampled_from([ONE_PLUS_ZETA3, MINUS_ONE_MINUS_ZETA3, Scalar.one(),
                                    -Scalar.one(), Scalar.zeta(4, 3)]))
    monomial = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    terms = draw(st.dictionaries(monomial, coefficient, max_size=5))
    return Polynomial(ring, {m: c for m, c in terms.items() if not c.is_zero()})


@SETTINGS
@given(scalars())
@example(Scalar.zero())
@example(-Scalar.zeta(12, 3) + Scalar.zeta(12, 2))
@example(Scalar(5, [0, -1, 0, -1]))
def test_scalar_prints_as_before(a):
    assert str(a) == reference_scalar_str(a)


@SETTINGS
@given(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 12)), coordinates)
def test_rational_multiple_of_a_root_prints_as_before(m, c):
    a = Scalar.zeta(m, m - 1) * Scalar.from_rational(c)
    assert str(a) == reference_scalar_str(a)


@SETTINGS
@given(polynomials())
def test_polynomial_prints_as_before(f):
    assert str(f) == reference_poly_str(f)


@pytest.mark.parametrize("coefficient, text", [
    (ONE_PLUS_ZETA3, "(1 + zeta(3))*x^2 + x"),
    (MINUS_ONE_MINUS_ZETA3, "(-1 - zeta(3))*x^2 + x"),
    (-Scalar.one(), "-x^2 + x"),
    (Scalar.from_rational(-2), "-2*x^2 + x"),
], ids=["one-plus-zeta", "minus-one-minus-zeta", "minus-one", "minus-two"])
def test_compound_coefficients_are_parenthesized(coefficient, text):
    ring = RINGS[0]
    f = Polynomial(ring, {(2,): coefficient, (1,): Scalar.one()})
    assert str(f) == reference_poly_str(f) == text


@SETTINGS
@given(st.lists(st.integers(-3, 3), max_size=7))
def test_unipoly_prints_as_before(coeffs):
    u = UniPoly(coeffs)
    assert str(u) == reference_unipoly_str(u)


@SETTINGS
@given(st.sampled_from(RINGS).flatmap(
    lambda ring: st.tuples(st.just(ring), st.tuples(*[st.integers(0, 4)] * ring.nvars))))
def test_milnor_basis_monomial_prints_as_before(ring_and_mono):
    ring, mono = ring_and_mono
    assert (ring.monomial_text(mono) or "1") == reference_mono_str(ring, mono)


def test_root_of_unity_prints_as_before():
    assert [str(RootOfUnity(6, e)) for e in range(3)] == ["1", "zeta(6)", "zeta(6)^2"]


def test_format_sum_rule():
    assert format_sum([]) == "0"
    assert format_sum([("-3", "")]) == "-3"
    assert format_sum([("1", "x"), ("-1", "y"), ("2", "z"), ("-1/2", "w")]) == \
        "x - y + 2*z - 1/2*w"
    assert format_sum([("-x", "y"), ("a b", "z")]) == "-x*y + (a b)*z"
