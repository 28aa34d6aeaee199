"""Property tests of the Hom complex's contract: D^2 = 0 multiplied out, as
an oracle for the entry-by-entry check HomComplex makes instead, and d^2 = w
on the factorizations built with check=False (pullbacks and pickled copies)."""

import pickle
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mflef import linalg  # noqa: E402
from mflef.homcoh import hom_complex  # noqa: E402
from mflef.mfcore import koszul_mf, pullback, validate_mf  # noqa: E402
from mflef.polyring import PolyRing  # noqa: E402
from mflef.scalars import RootOfUnity, Scalar  # noqa: E402

R2 = PolyRing(("x", "y"))
x, y = R2.var("x"), R2.var("y")
UNITS = [Scalar.one(), -Scalar.one(), Scalar.from_rational(Fraction(2, 3)), Scalar.zeta(3),
         Scalar.one() + Scalar.zeta(5)]


@st.composite
def koszul_pairs(draw):
    """Two Koszul factorizations {c x^a, c' y^b ; x^(d-a)/c, y^(e-b)/c'} of
    x^d + y^e and a symmetry (zeta_d^j, zeta_e^k) of it."""
    degrees = [draw(st.integers(2, 5)) for _ in range(2)]

    def factorization():
        splits = [draw(st.integers(1, d - 1)) for d in degrees]
        units = [draw(st.sampled_from(UNITS)) for _ in degrees]
        return koszul_mf([R2.const(c) * v**a for c, v, a in zip(units, (x, y), splits)],
                         [R2.const(c.inverse()) * v ** (d - a)
                          for c, v, a, d in zip(units, (x, y), splits, degrees)])

    t = [RootOfUnity(d, draw(st.integers(0, d - 1))) for d in degrees]
    return factorization(), factorization(), t


@settings(max_examples=25, deadline=None)
@given(koszul_pairs(), st.booleans(), st.booleans())
def test_hom_differential_squares_to_zero_multiplied_out(pair, pull_a, pull_b):
    a, b, t = pair
    a = pullback(t, a) if pull_a else a
    b = pullback(t, b) if pull_b else b
    hom = hom_complex(a, b)
    for parity in (0, 1):
        square = linalg.mat_mul(hom.d_matrices[1 - parity], hom.d_matrices[parity],
                                R2.zero(), cols=len(hom.pairs[parity]))
        assert all(e.is_zero() for row in square for e in row)


@settings(max_examples=25, deadline=None)
@given(koszul_pairs())
def test_unchecked_factorizations_keep_d_squared_equal_to_w(pair):
    # check=False is a promise: a pullback by a symmetry and a pickled copy keep it
    a, _, t = pair
    pulled = pullback(t, a)
    for mf in (pulled, pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(pulled))):
        assert validate_mf(mf)
