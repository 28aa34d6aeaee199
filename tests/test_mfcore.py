import copy
import hashlib
import pickle
from fractions import Fraction

import pytest

from mflef.scalars import RootOfUnity, Scalar
from mflef.polyring import PolyRing, WeightSystem
from mflef.groebner import GradedModulePresentation
from mflef.mfcore import (
    MatrixFactorization,
    MFMorphism,
    MFValidationError,
    equivariance_power_check,
    koszul_mf,
    pullback,
    stabilize_module,
    stabilized_diagonal,
    supertrace_at_origin,
    tensor_mf,
    validate_mf,
)

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))
x = R1.var("x")


def rank11(f, g):
    """The rank-(1,1) factorization (d0=f, d1=g) of f*g."""
    return MatrixFactorization(f * g, [[f]], [[g]])


def test_validate_mf_examples():
    assert validate_mf(rank11(x, x))
    assert validate_mf(rank11(x, x**2))
    # (d0 = x, d1 = y over w = x^2) fails: x*y != x^2
    with pytest.raises(MFValidationError):
        x2, y2 = R2.var("x"), R2.var("y")
        MatrixFactorization(x2**2, [[x2]], [[y2]])


def test_koszul_examples():
    mf = koszul_mf([x], [x])
    assert (mf.r0, mf.r1) == (1, 1)
    assert mf.d0[0][0] == x and mf.d1[0][0] == x

    y = R2.var("y")
    x2 = R2.var("x")
    mf = koszul_mf([x2], [y])
    assert mf.potential == x2 * y

    quad = koszul_mf([x2, y], [x2, y])
    assert (quad.r0, quad.r1) == (2, 2)
    assert quad.potential == x2**2 + y**2
    validate_mf(quad)


def test_koszul_ranks_power_of_two():
    x2, y = R2.var("x"), R2.var("y")
    mf = koszul_mf([x2**2, y**2], [x2, y])
    assert (mf.r0, mf.r1) == (2, 2)


def test_tensor_matches_koszul():
    a = koszul_mf([R1.var("x")], [R1.var("x")])
    ry = PolyRing(("y",))
    b = koszul_mf([ry.var("y")], [ry.var("y")])
    prod = tensor_mf(a, b)
    x2, y2 = R2.var("x"), R2.var("y")
    direct = koszul_mf([x2, y2], [x2, y2])
    assert prod.potential == direct.potential
    assert (prod.r0, prod.r1) == (direct.r0, direct.r1)
    validate_mf(prod)

    # matrix comparison after the identification of bases:
    # tensor evens (1x1, ex x ey) = koszul evens ({}, {1,2});
    # tensor odds (1x ey, ex x 1) = koszul odds (e2, e1), i.e. swapped.
    swap = [[0, 1], [1, 0]]

    def permute(rows, perm_rows, perm_cols):
        return tuple(tuple(rows[perm_rows[i]][perm_cols[j]] for j in range(2)) for i in range(2))

    ident = [0, 1]
    assert permute(prod.d0, [1, 0], ident) == direct.d0
    assert permute(prod.d1, ident, [1, 0]) == direct.d1


def test_tensor_with_unit():
    a = rank11(x, x**2)
    # the unit object: rank (1, 0) of potential 0
    u = MatrixFactorization(R1.zero(), [], [[]], r0=1, r1=0,
                            gradings=((Fraction(0),), ()), check=False)
    prod = tensor_mf(a, u)
    assert (prod.r0, prod.r1) == (a.r0, a.r1)
    assert prod.potential == a.potential
    assert prod.d0 == a.d0 and prod.d1 == a.d1


def test_tensor_cubics():
    a = koszul_mf([x**2], [x])
    ry = PolyRing(("y",))
    b = koszul_mf([ry.var("y") ** 2], [ry.var("y")])
    prod = tensor_mf(a, b)
    x2, y2 = R2.var("x"), R2.var("y")
    assert prod.potential == x2**3 + y2**3
    validate_mf(prod)


def test_pullback_examples():
    mf = rank11(x, x)
    p = pullback([-1], mf)
    assert p.d0[0][0] == -x and p.d1[0][0] == -x

    mf2 = rank11(x, x**2)
    z3 = RootOfUnity(3, 1)
    p2 = pullback([z3], mf2)
    assert p2.d0[0][0] == x * Scalar.zeta(3)
    assert p2.d1[0][0] == x**2 * Scalar.zeta(3, 2)

    back = pullback([z3.inverse()], p2)
    assert back.d0 == mf2.d0 and back.d1 == mf2.d1
    # pullbacks stay valid factorizations
    validate_mf(p)
    validate_mf(p2)


def test_pullback_functorial():
    x2, y2 = R2.var("x"), R2.var("y")
    mf = koszul_mf([x2**2, y2**2], [x2, y2])
    s = [RootOfUnity(3, 1), RootOfUnity(3, 2)]
    t = [RootOfUnity(3, 2), RootOfUnity(3, 2)]
    st = [a * b for a, b in zip(s, t)]
    via_two = pullback(s, pullback(t, mf))
    direct = pullback(st, mf)
    assert via_two.d0 == direct.d0 and via_two.d1 == direct.d1


def test_stabilized_diagonal_examples():
    mf = stabilized_diagonal(x**2)
    big = mf.ring
    bx, by = big.var("x"), big.var("y_x")
    assert mf.potential == by**2 - bx**2
    assert mf.d0[0][0] == bx + by

    mf3 = stabilized_diagonal(x**3)
    big3 = mf3.ring
    bx3, by3 = big3.var("x"), big3.var("y_x")
    assert mf3.d0[0][0] == bx3**2 + bx3 * by3 + by3**2
    validate_mf(mf3)

    x2 = R2.var("x")
    y2 = R2.var("y")
    mf12 = stabilized_diagonal(x2 * y2)
    assert (mf12.r0, mf12.r1) == (2, 2)
    validate_mf(mf12)


def test_morphism_closed_examples():
    mf = rank11(x, x)
    assert MFMorphism.identity(mf).is_closed()

    mf2 = rank11(x, x**2)
    z = RootOfUnity(3, 1)
    target = pullback([z], mf2)
    alpha = MFMorphism.diagonal(mf2, target, [Scalar.one(), Scalar.zeta(3)])
    assert alpha.is_closed()

    minus = pullback([-1], mf)
    bad = MFMorphism.diagonal(mf, minus, [Scalar.one(), Scalar.one()])
    assert not bad.is_closed()


def test_equivariance_power_check_examples():
    mf = rank11(x, x)
    minus = pullback([-1], mf)
    alpha = MFMorphism.diagonal(mf, minus, [1, -1])
    assert equivariance_power_check([RootOfUnity(2, 1)], alpha, 2)

    mf2 = rank11(x, x**2)
    z = RootOfUnity(3, 1)
    alpha2 = MFMorphism.diagonal(mf2, pullback([z], mf2), [Scalar.one(), Scalar.zeta(3)])
    assert equivariance_power_check([z], alpha2, 3)

    bad = MFMorphism.diagonal(mf2, pullback([z], mf2), [Scalar.one(), -Scalar.zeta(3)])
    assert not equivariance_power_check([z], bad, 3)


def test_supertrace_at_origin_examples():
    mf = rank11(x, x)
    assert supertrace_at_origin(MFMorphism.identity(mf)) == 0

    minus = pullback([-1], mf)
    alpha = MFMorphism.diagonal(mf, minus, [1, -1])
    assert supertrace_at_origin(alpha) == 2

    mf2 = rank11(x, x**2)
    z = RootOfUnity(3, 1)
    alpha2 = MFMorphism.diagonal(mf2, pullback([z], mf2), [Scalar.one(), Scalar.zeta(3)])
    assert supertrace_at_origin(alpha2) == 1 - Scalar.zeta(3)


def test_supertrace_kills_coboundaries():
    # str at the origin of D(psi)|_0 vanishes for the even D(psi) of an odd psi
    mf = koszul_mf([x**2], [x])
    psi = MFMorphism.from_blocks(mf, mf, 1, [[x]], [[R1.one()]])
    d_psi = psi.differential()
    assert d_psi.parity == 0
    assert supertrace_at_origin(d_psi) == 0


@pytest.mark.parametrize("seed", range(6))
def test_differential_matches_the_two_products(seed):
    # differential() sums phi_ij D e_ij over _d_column; it must equal the
    # product formula d_B phi - (-1)^|phi| phi d_A entry by entry, and
    # is_closed must read the same verdict off it
    import random

    from mflef import linalg

    rng = random.Random(seed)
    x2, y2 = R2.var("x"), R2.var("y")
    a = koszul_mf([x2, y2], [x2 ** 2, y2])
    b = koszul_mf([x2 ** 2, y2], [x2, y2])  # another factorization of w = x^3 + y^2
    coeffs = [Scalar.one(), -Scalar.one(), Scalar.zeta(3), Scalar.from_rational(Fraction(1, 2))]
    monos = [(0, 0), (1, 0), (0, 1), (2, 1)]
    for parity in (0, 1):
        sp, tp = a.parities(), b.parities()
        mat = [[R2.zero() if (tp[i] + sp[j]) % 2 != parity else
                sum((R2.monomial(m, rng.choice(coeffs)) for m in rng.sample(monos, 2)), R2.zero())
                for j in range(a.total_rank)] for i in range(b.total_rank)]
        phi = MFMorphism(a, b, parity, mat)
        zero = R2.zero()
        left = linalg.mat_mul(b.full_matrix(), phi.matrix, zero, cols=a.total_rank)
        right = linalg.mat_mul(phi.matrix, a.full_matrix(), zero, cols=a.total_rank)
        sign = 1 if parity == 0 else -1
        expected = [[l - r * sign for l, r in zip(lr, rr)] for lr, rr in zip(left, right)]
        d_phi = phi.differential()
        assert d_phi.parity == 1 - parity
        assert all(e == f for row, erow in zip(d_phi.matrix, expected) for e, f in zip(row, erow))
        assert phi.is_closed() == all(e.is_zero() for row in expected for e in row)
        assert d_phi.is_closed()  # D^2 = 0


def test_stabilize_r_mod_x():
    pres = GradedModulePresentation.cyclic(R1, [x])
    mf, alpha = stabilize_module(pres, x**2)
    assert (mf.r0, mf.r1) == (1, 1)
    assert mf.d0[0][0] == x and mf.d1[0][0] == x
    assert alpha is not None and alpha.is_closed()
    assert supertrace_at_origin(alpha) == 2


def test_stabilize_contractible():
    w = x**4
    pres = GradedModulePresentation.cyclic(R1, [w])
    mf, alpha = stabilize_module(pres, w)
    assert (mf.r0, mf.r1) == (1, 1)
    validate_mf(mf)
    assert supertrace_at_origin(alpha) == 0


def test_stabilize_residue_field_quadric():
    x2, y2 = R2.var("x"), R2.var("y")
    pres = GradedModulePresentation(R2, [0], [[x2, y2]])
    w = x2**2 + y2**2
    mf, alpha = stabilize_module(pres, w)
    assert (mf.r0, mf.r1) == (2, 2)
    validate_mf(mf)
    assert alpha.is_closed()
    assert equivariance_power_check([RootOfUnity(2, 1)] * 2, alpha, 2)
    assert supertrace_at_origin(alpha) == 4


def _stabilization_digest(mf):
    """Leading hex digits of the sha256 of the printed blocks and gradings."""
    return hashlib.sha256(repr((mf.d0, mf.d1, mf.gradings)).encode()).hexdigest()[:16]


R3 = PolyRing(("x", "y", "z"))
X2, Y2 = R2.var("x"), R2.var("y")
K3 = [R3.var(v) for v in R3.vars]


@pytest.mark.parametrize("relations, w, digest", [
    ([x], x**2, "cd7c1de33f0a5fb9"),
    ([X2, Y2], X2**2 + Y2**2, "916d71e822f2baac"),
    ([X2, Y2**2], X2**2 + Y2**2, "2eb0cb57d6e835dd"),
    ([X2**2 + Y2**2], X2**2 + Y2**2, "4764788bfce04b3d"),
    (K3, sum((v**2 for v in K3), R3.zero()), "6cdbc9cde87a81e8"),
    (K3, sum((v**4 for v in K3), R3.zero()), "82f02ffd89f30255"),
], ids=["Mx-a2", "Mk2-q2", "Mxy2-q2", "Mw2-q2", "Mk3-q3", "Mk3-k3"])
def test_stabilize_pins_the_homotopy(relations, w, digest):
    # ranks, d^2 = w and the origin supertrace hold for any valid homotopy;
    # the digest pins the one the solver returns
    mf, _ = stabilize_module(GradedModulePresentation.cyclic(w.ring, relations), w)
    assert _stabilization_digest(mf) == digest


def test_stabilize_residue_field_quartic_four_variables():
    # the resolution of k is linear: each generator of homological degree i
    # sits at internal degree i and adds (-1)^i (-1)^i = +1, so 2^4 in all
    R4 = PolyRing(("x", "y", "z", "u"))
    gens = [R4.var(v) for v in R4.vars]
    w = gens[0] ** 4 + gens[1] ** 4 + gens[2] ** 4 + gens[3] ** 4
    mf, alpha = stabilize_module(GradedModulePresentation(R4, [0], [gens]), w)
    assert (mf.r0, mf.r1) == (8, 8)
    assert _stabilization_digest(mf) == "dd9a71485f3ab2c0"
    validate_mf(mf)
    assert alpha.is_closed()
    assert equivariance_power_check([RootOfUnity(2, 1)] * 4, alpha, 2)
    assert supertrace_at_origin(alpha) == 16


def _value_key(value):
    # factorizations and morphisms define no equality; compare what they hold
    if isinstance(value, MatrixFactorization):
        return (value.ring, value.potential, value.r0, value.r1, value.d0, value.d1, value.gradings)
    if isinstance(value, MFMorphism):
        return (_value_key(value.source), _value_key(value.target), value.parity, value.matrix)
    if isinstance(value, WeightSystem):
        return value.weights
    return value


def _twisted_identity():
    """The closed even morphism (1, zeta_3) of (x, x^2) to its zeta_3 pullback."""
    mf = rank11(x, x**2)
    return MFMorphism.diagonal(mf, pullback([RootOfUnity(3, 1)], mf),
                               [Scalar.one(), Scalar.zeta(3)])


@pytest.mark.parametrize("value", [
    Scalar.zeta(5) + Scalar.from_rational(2) / 3,
    RootOfUnity(6, 5),
    R2,
    R2.var("x") ** 3 - Scalar.zeta(3) * R2.var("y"),
    koszul_mf([R2.var("x") ** 2, R2.var("y")], [R2.var("x"), R2.var("y") ** 2],
              gradings=[Fraction(1, 3), Fraction(2, 3)]),
    _twisted_identity(),
    WeightSystem((Fraction(1, 3), Fraction(2, 3))),
], ids=["scalar", "root-of-unity", "ring", "polynomial", "koszul-mf", "morphism", "weights"])
def test_frozen_values_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert _value_key(twin) == _value_key(value)


def test_factorizations_and_morphisms_are_immutable():
    # and the exact values they are built of: every frozen class refuses assignment
    alpha = _twisted_identity()
    mf = alpha.source
    weights = WeightSystem((Fraction(1, 3), Fraction(2, 3)))
    for obj, name in ((mf, "d0"), (mf, "d1"), (mf, "gradings"), (alpha, "matrix"),
                      (alpha, "parity"), (alpha, "source"), (Scalar.zeta(5), "num"),
                      (RootOfUnity(6, 5), "exponent"), (R2, "vars"), (x**3, "terms"),
                      (weights, "weights")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(TypeError):
        mf.d0[0][0] = x
    with pytest.raises(TypeError):
        mf.d0[0] = (x,)
    with pytest.raises(TypeError):
        alpha.matrix[0][0] = R1.one()
    with pytest.raises(TypeError):
        mf.full_matrix()[1][0] = x
    # a caller's list is copied, so changing it later changes nothing
    rows = [[x]]
    kept = MatrixFactorization(x**2, rows, [[x]])
    rows[0][0] = x**2
    assert kept.d0 == ((x,),)


def test_derived_values_are_computed_once():
    alpha = _twisted_identity()
    assert alpha.source.full_matrix() is alpha.source.full_matrix()
    assert alpha.is_closed()
    calls = []

    class Spy(MFMorphism):
        __slots__ = ()

        def _d_sums(self):  # the accumulator that is_closed and differential share
            calls.append(1)
            return super()._d_sums()

    spy = Spy(alpha.source, alpha.target, alpha.parity, alpha.matrix)
    assert spy.is_closed() and spy.is_closed()
    assert len(calls) == 1


def test_copies_carry_no_cache():
    from mflef.lefschetz import pair_cohomology

    alpha = _twisted_identity()
    a = alpha.source
    for _ in range(2):
        pair_cohomology(a, a)
    alpha.is_closed()
    a.full_matrix()
    assert a._hom_memo[id(a)][1] is not None
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin is not a
        assert twin._hom_memo == {} and twin._full is None
    for twin in (copy.deepcopy(alpha), pickle.loads(pickle.dumps(alpha))):
        assert twin.source._hom_memo == {}
        assert twin._closed is None and twin.is_closed()
    assert copy.copy(alpha)._closed is None


def test_stabilize_rejects_non_annihilated():
    x2, y2 = R2.var("x"), R2.var("y")
    pres = GradedModulePresentation(R2, [0], [[x2]])
    with pytest.raises(ValueError):
        stabilize_module(pres, x2**2 + y2**2)


def test_stabilize_refuses_a_residual_outside_the_graded_piece(monkeypatch):
    # with d = x + x^2 declared of degree 1 the first correction x leaves the
    # residual -x^3 (e_00 + e_11), whose degree no graded unknown reaches
    from mflef import mfcore
    from mflef.groebner import FreeResolution

    fake = FreeResolution(R1, [[0], [1]], [[[x + x**2]]])
    monkeypatch.setattr(mfcore, "free_resolution", lambda pres: fake)
    with pytest.raises(AssertionError, match="graded homotopy solve is singular"):
        stabilize_module(GradedModulePresentation.cyclic(R1, [x]), x**2)


def test_stabilize_random_monomial_quotients():
    # random monomial ideals containing (x^2, y^2), annihilated by x^4 + y^4:
    # resolutions of varying shape feed the homotopy solver; every output
    # must square to w exactly and satisfy the chi consistency at the origin
    import random

    from mflef.hilbert import chi_polynomial

    rng = random.Random(101)
    R2 = PolyRing(("x", "y"))
    w = R2.var("x") ** 4 + R2.var("y") ** 4
    digests = ["8e2c25a23e40fbe1", "4891ceda882a26de", "8e2c25a23e40fbe1",
               "4891ceda882a26de", "8e2c25a23e40fbe1", "557fc105fcf83a42"]
    for digest in digests:
        gens = [R2.monomial((2, 0)), R2.monomial((0, 2))]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            if (a, b) != (0, 0):
                gens.append(R2.monomial((a, b)))
        pres = GradedModulePresentation.cyclic(R2, gens)
        mf, alpha = stabilize_module(pres, w)
        assert _stabilization_digest(mf) == digest
        validate_mf(mf)
        assert alpha is not None and alpha.is_closed()
        assert equivariance_power_check([RootOfUnity(2, 1)] * 2, alpha, 2)
        chi = chi_polynomial(pres)
        assert supertrace_at_origin(alpha) == chi(-1)
