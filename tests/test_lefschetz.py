import gc
import math
import random
import re
import tracemalloc
import types
from fractions import Fraction

import pytest

import mflef.lefschetz
from mflef.homcoh import (CohomologyBasis, HomComplex, cohomology, graded_euler_supertrace,
                          hom_complex)
from mflef.milnor import canonical_pairing, trace_space
from mflef.scalars import RootOfUnity, Scalar, _coerce_symmetry
from mflef.polyring import PolyRing, check_symmetry, scale_substitute
from mflef.mfcore import (
    MatrixFactorization,
    MFMorphism,
    equivariance_power_check,
    koszul_mf,
    odd_rank11_generator,
    pullback,
    tensor_mf,
    tensor_morphisms,
)
from mflef.lefschetz import (
    boundary_bulk,
    divisibility_check,
    lhs_hlf,
    lunts_check,
    pair_cohomology,
    rhs_hlf,
    trace_identity_check,
    verify_hlf,
    verify_isolated,
    zero_fixed_locus_check,
)

R1 = PolyRing(("x",))
x = R1.var("x")
R2 = PolyRing(("x", "y"))
x2, y2 = R2.var("x"), R2.var("y")


def kfac(var, a, d):
    R = PolyRing((var,))
    return koszul_mf([R.var(var) ** (d - a)], [R.var(var) ** a], gradings=[Fraction(a, d)])


def a1_data():
    mf = MatrixFactorization(x**2, [[x]], [[x]])
    t = [RootOfUnity(2, 1)]
    tgt = pullback(t, mf)
    alpha = MFMorphism.diagonal(mf, tgt, [1, -1])
    beta = MFMorphism.diagonal(tgt, mf, [1, -1])
    return mf, t, alpha, beta


def a2_data():
    mf = MatrixFactorization(x**3, [[x]], [[x**2]])
    t = [RootOfUnity(3, 1)]
    tgt = pullback(t, mf)
    alpha = MFMorphism.diagonal(mf, tgt, [Scalar.one(), Scalar.zeta(3)])
    beta = MFMorphism.diagonal(tgt, mf, [Scalar.one(), Scalar.zeta(3, 2)])
    return mf, t, alpha, beta


def test_boundary_bulk_isolated_fixed_point():
    # all coordinates moving: the class is str(alpha|_0) in H(w_t) = k
    mf, t, alpha, _ = a1_data()
    tau = boundary_bulk(mf, t, alpha)
    assert tau.space.milnor.nvars == 0
    assert tau.class_poly.constant_term() == 2
    assert tau.parity == 0


def test_boundary_bulk_identity_kernel_xy():
    # w = xy, t = id, E = koszul {x; y}, alpha = id: class 1 dx^dy
    x2, y2 = R2.var("x"), R2.var("y")
    mf = koszul_mf([x2], [y2])
    tau = boundary_bulk(mf, [RootOfUnity(1, 0)] * 2, MFMorphism.identity(mf))
    assert tau.class_poly == tau.space.milnor.ring.one()
    assert tau.parity == 0


def test_boundary_bulk_odd_composite_vanishes():
    # even alpha with an odd number of fixed coordinates: zero class
    fx, fy = kfac("x", 1, 3), kfac("y", 1, 3)
    A = tensor_mf(fx, fy)
    t = [RootOfUnity(3, 1), RootOfUnity(1, 0)]
    u = MFMorphism.diagonal(fx, pullback([RootOfUnity(3, 1)], fx), [Scalar.one(), Scalar.zeta(3, 2)])
    alpha = tensor_morphisms(u, MFMorphism.identity(fy), source=A, target=pullback(t, A))
    tau = boundary_bulk(A, t, alpha)
    assert tau.is_zero() and tau.parity == 1


def test_boundary_bulk_refuses_an_alpha_twisted_by_another_symmetry():
    # alpha: A -> t^*A taken as a class of s = t^2 printed 1 - zeta(3) for s;
    # the target must be s^*A, so alpha is refused, and by rhs_hlf too
    mf, t, alpha, beta = a2_data()
    s = [RootOfUnity(3, 2)]
    message = "^alpha must end at the pullback of the source factorization by t$"
    with pytest.raises(ValueError, match=message):
        boundary_bulk(mf, s, alpha)
    with pytest.raises(ValueError, match=message):
        rhs_hlf(mf, mf, s, alpha, beta)
    # the same roots of another order are the same symmetry
    assert boundary_bulk(mf, [RootOfUnity(6, 2)], alpha) == boundary_bulk(mf, t, alpha)


def _fixed_locus_pair(case):
    # the tensor-built pairs of test_acceptance's criterion 2: t = (zeta_3, 1)
    # moves x and fixes y
    fx = kfac("x", 1, 3)
    ry = PolyRing(("y",))
    fy = {"natural": kfac("y", 1, 3), "odd": kfac("y", 1, 3), "odd-nonzero": kfac("y", 1, 2),
          "odd-nonzero-mu3": koszul_mf([ry.var("y") ** 2], [ry.var("y") ** 2])}[case]
    A = tensor_mf(fx, fy)
    t = [RootOfUnity(3, 1), RootOfUnity(1, 0)]
    tgt = pullback(t, A)
    u = MFMorphism.diagonal(fx, pullback([RootOfUnity(3, 1)], fx), [Scalar.one(), Scalar.zeta(3, 2)])
    eta = MFMorphism.identity(fy) if case == "natural" else odd_rank11_generator(fy)
    alpha = tensor_morphisms(u, eta, source=A, target=tgt)
    if case in ("odd", "odd-nonzero-mu3"):
        return A, t, alpha, tensor_morphisms(u.inverse(), eta, source=tgt, target=A)
    return A, t, alpha, alpha.inverse()


@pytest.mark.parametrize("case, nonzero", [
    ("natural", False), ("odd", False), ("odd-nonzero", True), ("odd-nonzero-mu3", True),
])
def test_rhs_hlf_reads_beta_class_as_its_twin_class(case, nonzero):
    # reference: the class of beta's twin B -> (t^{-1})^*B, entries beta(t^{-1} x),
    # with beta moved by a coboundary whose entries involve the moving x
    A, t, alpha, beta = _fixed_locus_pair(case)
    rng = random.Random(case)
    n = A.r0

    def block():
        return [[A.ring.monomial((rng.randint(1, 2), rng.randint(0, 1)), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)]

    psi = MFMorphism.from_blocks(beta.source, A, 1 - beta.parity, block(), block())
    beta = beta + psi.differential()
    inv = [r.inverse() for r in t]
    twin = MFMorphism(A, pullback(inv, A), beta.parity,
                      [[scale_substitute(e, inv) for e in row] for row in beta.matrix],
                      check_parity=False)
    assert twin.matrix != beta.matrix
    value = rhs_hlf(A, A, t, alpha, beta)
    assert value == canonical_pairing(boundary_bulk(A, t, alpha), boundary_bulk(A, inv, twin))
    assert value.is_zero() != nonzero


def test_verify_hlf_a1():
    mf, t, alpha, beta = a1_data()
    rep = verify_hlf(mf, mf, t, alpha, beta, case="A1")
    assert rep.equal and rep.lhs == 2


def test_verify_hlf_a2():
    mf, t, alpha, beta = a2_data()
    rep = verify_hlf(mf, mf, t, alpha, beta, case="A2")
    assert rep.equal
    assert rep.lhs == 1 - Scalar.zeta(3, 2)


@pytest.mark.parametrize("engine", ["groebner", "graded", "both"])
def test_verify_hlf_cubic_tensor_even_and_odd(engine):
    # w = x^3 + y^3, t = (zeta_3, 1), A = B built by tensor_mf
    fx, fy = kfac("x", 1, 3), kfac("y", 1, 3)
    A = tensor_mf(fx, fy)
    t = [RootOfUnity(3, 1), RootOfUnity(1, 0)]
    tgt = pullback(t, A)
    u = MFMorphism.diagonal(fx, pullback([RootOfUnity(3, 1)], fx), [Scalar.one(), Scalar.zeta(3, 2)])
    # natural even alpha with beta = alpha^{-1}: both sides vanish (odd fixed locus)
    alpha_even = tensor_morphisms(u, MFMorphism.identity(fy), source=A, target=tgt)
    rep = verify_hlf(A, A, t, alpha_even, alpha_even.inverse(), engine=engine, case="cubic-even")
    assert rep.equal and rep.lhs.is_zero() and rep.rhs.is_zero()
    # odd alpha and beta: the pairing runs through nonzero classes in H(y^3),
    # which are all proportional to y, so the value is again exactly zero
    alpha_odd = tensor_morphisms(u, odd_rank11_generator(fy), source=A, target=tgt)
    beta_odd = tensor_morphisms(u.inverse(), odd_rank11_generator(fy), source=tgt, target=A)
    from mflef.lefschetz import boundary_bulk as bb

    assert not bb(A, t, alpha_odd).is_zero()
    rep = verify_hlf(A, A, t, alpha_odd, beta_odd, engine=engine, case="cubic-odd")
    assert rep.equal


@pytest.mark.parametrize("engine", ["groebner", "graded", "both"])
def test_verify_hlf_nonzero_through_full_pairing(engine):
    # w = x^3 + y^2, t = (zeta_3, 1): odd twists pair nontrivially on H(y^2)
    fx, fy = kfac("x", 1, 3), kfac("y", 1, 2)
    A = tensor_mf(fx, fy)
    t = [RootOfUnity(3, 1), RootOfUnity(1, 0)]
    tgt = pullback(t, A)
    u = MFMorphism.diagonal(fx, pullback([RootOfUnity(3, 1)], fx), [Scalar.one(), Scalar.zeta(3, 2)])
    alpha = tensor_morphisms(u, odd_rank11_generator(fy), source=A, target=tgt)
    rep = verify_hlf(A, A, t, alpha, alpha.inverse(), engine=engine, case="x3y2-odd")
    assert rep.equal and not rep.lhs.is_zero()
    assert rep.lhs == 4 + 2 * Scalar.zeta(3)


def test_verify_isolated_examples():
    mf, t, alpha, beta = a1_data()
    rep = verify_isolated(mf, mf, t, alpha, beta, case="A1")
    assert rep.equal and rep.rhs == 2  # 2*2/2

    mf, t, alpha, beta = a2_data()
    rep = verify_isolated(mf, mf, t, alpha, beta, case="A2")
    assert rep.equal and rep.rhs == 1 - Scalar.zeta(3, 2)


def test_verify_isolated_contractible():
    # (w, 1) is contractible: any equivariant alpha has str(alpha|_0) = 0
    w = x**2
    mf = MatrixFactorization(w, [[R1.one()]], [[w]])
    t = [RootOfUnity(2, 1)]
    tgt = pullback(t, mf)
    alpha = MFMorphism.diagonal(mf, tgt, [1, 1])
    assert alpha.is_closed()
    beta = MFMorphism.diagonal(tgt, mf, [1, 1])
    rep = verify_isolated(mf, mf, t, alpha, beta, case="contractible")
    assert rep.equal and rep.lhs.is_zero() and rep.rhs.is_zero()


def test_verify_isolated_rejects_fixed_directions():
    fx, fy = kfac("x", 1, 3), kfac("y", 1, 3)
    A = tensor_mf(fx, fy)
    t = [RootOfUnity(3, 1), RootOfUnity(1, 0)]
    ident = MFMorphism.identity(A)
    with pytest.raises(ValueError):
        verify_isolated(A, A, t, ident, ident)


def test_lunts_examples():
    assert lunts_check(x**2, [RootOfUnity(2, 1)]).equal
    rep = lunts_check(x**3, [RootOfUnity(3, 1)])
    assert rep.equal and rep.lhs == 1
    x2, y2 = R2.var("x"), R2.var("y")
    rep = lunts_check(x2**3 + y2**3, [RootOfUnity(3, 1), RootOfUnity(1, 0)])
    assert rep.equal and rep.lhs == -2


def test_lunts_identity_symmetry():
    # t = identity: both sides are (-1)^n mu(w)
    x2, y2 = R2.var("x"), R2.var("y")
    rep = lunts_check(x2**3 + y2**3, [RootOfUnity(1, 0), RootOfUnity(1, 0)])
    assert rep.equal and rep.lhs == 4


def test_zero_fixed_locus_examples():
    # t = id with n = 1 odd: chi(Hom(A, B)) = 0
    mf = MatrixFactorization(x**3, [[x]], [[x**2]])
    ident = MFMorphism.identity(mf)
    rep = zero_fixed_locus_check(mf, mf, [RootOfUnity(1, 0)], ident, ident, case="chi-odd-n")
    assert rep.equal

    # w = x^3 + y^3, t = (zeta_3, 1): n - k = 1 odd
    fx, fy = kfac("x", 1, 3), kfac("y", 1, 3)
    A = tensor_mf(fx, fy)
    t = [RootOfUnity(3, 1), RootOfUnity(1, 0)]
    u = MFMorphism.diagonal(fx, pullback([RootOfUnity(3, 1)], fx), [Scalar.one(), Scalar.zeta(3, 2)])
    alpha = tensor_morphisms(u, MFMorphism.identity(fy), source=A, target=pullback(t, A))
    rep = zero_fixed_locus_check(A, A, t, alpha, alpha.inverse(), case="cubic")
    assert rep.equal

    with pytest.raises(ValueError):
        zero_fixed_locus_check(mf, mf, [RootOfUnity(3, 1)], ident, ident)


def test_trace_identity_examples():
    mf, t, alpha, _ = a1_data()
    rep = trace_identity_check(mf, t, alpha, case="A1")
    assert rep.equal and rep.lhs == 4

    mf, t, alpha, _ = a2_data()
    rep = trace_identity_check(mf, t, alpha, case="A2")
    assert rep.equal and rep.lhs == 3  # (1-z)(1-z^2) = 3

    # contractible factorization: 0 = 0
    w = x**2
    mf = MatrixFactorization(w, [[R1.one()]], [[w]])
    tgt = pullback([RootOfUnity(2, 1)], mf)
    alpha = MFMorphism.diagonal(mf, tgt, [1, 1])
    rep = trace_identity_check(mf, [RootOfUnity(2, 1)], alpha, case="contractible")
    assert rep.equal and rep.lhs.is_zero()


def test_trace_identity_koszul_quadric():
    x2, y2 = R2.var("x"), R2.var("y")
    K = koszul_mf([x2, y2], [x2, y2])
    t = [RootOfUnity(2, 1), RootOfUnity(2, 1)]
    tgt = pullback(t, K)
    # parity involution (-1)^{|S|}: evens ({}, {1,2}) get +1, odds get -1
    alpha = MFMorphism.diagonal(K, tgt, [1, 1, -1, -1])
    assert alpha.is_closed()
    rep = trace_identity_check(K, t, alpha, case="quadric")
    assert rep.equal and rep.lhs == 16


def _sign_action_alpha(K, n):
    t = [RootOfUnity(2, 1)] * n
    tgt = pullback(t, K)
    signs = []
    subsets_even = [s for s in range(1 << n) if bin(s).count("1") % 2 == 0]
    subsets_odd = [s for s in range(1 << n) if bin(s).count("1") % 2 == 1]
    for s in subsets_even + subsets_odd:
        signs.append((-1) ** bin(s).count("1"))
    return t, MFMorphism.diagonal(K, tgt, signs)


def test_divisibility_examples():
    # Koszul of x^2+y^2, p = 2, sign action: a = 4, v = 2 >= 1
    x2, y2 = R2.var("x"), R2.var("y")
    K = koszul_mf([x2, y2], [x2, y2])
    t, alpha = _sign_action_alpha(K, 2)
    rep = divisibility_check(K, t, alpha, 2, case="n2")
    assert rep.passed and rep.value == 4 and rep.valuation == 2 and rep.bound == 1

    R3 = PolyRing(("x", "y", "z"))
    vs = [R3.var(v) for v in ("x", "y", "z")]
    K3 = koszul_mf(vs, vs)
    t, alpha = _sign_action_alpha(K3, 3)
    rep = divisibility_check(K3, t, alpha, 2, case="n3")
    assert rep.passed and rep.value == 8 and rep.valuation == 3 and rep.bound == 2

    # contractible: a = 0, v = inf, pass
    w = x**2
    mf = MatrixFactorization(w, [[R1.one()]], [[w]])
    tgt = pullback([RootOfUnity(2, 1)], mf)
    alpha = MFMorphism.diagonal(mf, tgt, [1, 1])
    rep = divisibility_check(mf, [RootOfUnity(2, 1)], alpha, 2, case="contractible")
    assert rep.passed and rep.valuation == math.inf


def test_divisibility_rejects_non_equivariant():
    x2, y2 = R2.var("x"), R2.var("y")
    K = koszul_mf([x2, y2], [x2, y2])
    t = [RootOfUnity(2, 1)] * 2
    tgt = pullback(t, K)
    bad = MFMorphism.diagonal(K, tgt, [1, 1, -1, 2])
    with pytest.raises(ValueError):
        divisibility_check(K, t, bad, 2)


def test_boundary_bulk_linear_and_kills_coboundaries():
    rng = random.Random(41)
    mf, t, alpha, _ = a2_data()
    tau = boundary_bulk(mf, t, alpha)
    for _ in range(10):
        psi = MFMorphism.from_blocks(
            mf,
            pullback(t, mf),
            1,
            [[R1.monomial((rng.randint(0, 2),), rng.randint(-3, 3))]],
            [[R1.monomial((rng.randint(0, 2),), rng.randint(-3, 3))]],
        )
        perturbed = alpha + psi.differential()
        assert perturbed.is_closed()
        tau2 = boundary_bulk(mf, t, perturbed)
        assert tau2.class_poly == tau.class_poly
    # scalar linearity
    c = Scalar.from_rational(Fraction(7, 2))
    assert boundary_bulk(mf, t, alpha.scale(c)).class_poly == tau.class_poly * c


@pytest.mark.parametrize("engine", ["groebner", "graded", "both"])
def test_lhs_hlf_checks_the_endpoints_before_either_engine(engine):
    # alpha must start at A and beta end at B; without the check, an alpha
    # of B = (x^2, x) where A = (x, x^2) is expected reached the engines and
    # failed there as "not a cocycle" or "no internal grading"
    a = MatrixFactorization(x**3, [[x]], [[x**2]])
    b = MatrixFactorization(x**3, [[x**2]], [[x]])
    t = [RootOfUnity(3, 1)]
    alpha_a = MFMorphism.diagonal(a, pullback(t, a), [Scalar.one(), Scalar.zeta(3)])
    alpha_b = MFMorphism.diagonal(b, pullback(t, b), [Scalar.one(), Scalar.zeta(3, 2)])
    beta_a, beta_b = alpha_a.inverse(), alpha_b.inverse()
    with pytest.raises(ValueError, match="^alpha must start at the source factorization$"):
        lhs_hlf(a, a, t, alpha_b, beta_a, engine=engine)
    with pytest.raises(ValueError, match="^beta must end at the target factorization$"):
        lhs_hlf(a, b, t, alpha_a, beta_a, engine=engine)
    # an equal factorization that is another object matches
    if engine == "groebner":
        copy = MatrixFactorization(x**3, [[x]], [[x**2]])
        assert lhs_hlf(copy, b, t, alpha_a, beta_b) == lhs_hlf(a, b, t, alpha_a, beta_b)


def _natural(mf, e, j):
    """The structure (1, zeta_3^(j e)) of mf = {x^e ; x^(3-e)} for t = zeta_3^j."""
    return MFMorphism.diagonal(mf, pullback([RootOfUnity(3, j)], mf),
                               [Scalar.one(), Scalar.zeta(3, j * e)])


MIS_TWISTS = {  # bad input -> the twisting rule's message for it
    "alpha-into-sA": "alpha must end at the pullback of the source factorization by t",
    "beta-from-sB": "beta must start at the pullback of the target factorization by t",
    "alpha-of-B": "alpha must start at the source factorization",
}
TWISTED_ENTRIES = {  # entry point -> its call on (A, B, t, alpha, beta)
    "lhs-groebner": lhs_hlf,
    "lhs-graded": lambda a, b, t, al, be: lhs_hlf(a, b, t, al, be, engine="graded"),
    "lhs-both": lambda a, b, t, al, be: lhs_hlf(a, b, t, al, be, engine="both"),
    "verify-hlf": verify_hlf,
    "verify-isolated": verify_isolated,
    "rhs": rhs_hlf,
    "trace-identity": lambda a, b, t, al, be: trace_identity_check(a, t, al),
    "boundary-bulk": lambda a, b, t, al, be: boundary_bulk(a, t, al),
    "divisibility": lambda a, b, t, al, be: divisibility_check(a, t, al, 3),
}
ALPHA_ONLY = ("trace-identity", "boundary-bulk", "divisibility")  # beta is not an input


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in TWISTED_ENTRIES for bad in MIS_TWISTS
    if not (entry in ALPHA_ONLY and bad.startswith("beta"))])
def test_every_entry_point_refuses_a_mis_twisted_input_before_recording(entry, bad):
    # A = (x, x^2) and B = (x^2, x) of x^3, t = zeta_3 and s = t^2; each bad
    # input is right but for one endpoint, which the twisting rule refuses
    # before any engine builds or records the pair
    a, b, t = kfac("x", 2, 3), kfac("x", 1, 3), [RootOfUnity(3, 1)]
    alpha, beta = _natural(a, 1, 1), _natural(b, 2, 1).inverse()
    inputs = {"alpha-into-sA": (_natural(a, 1, 2), beta),
              "beta-from-sB": (alpha, _natural(b, 2, 2).inverse()),
              "alpha-of-B": (_natural(b, 2, 1), beta)}
    call = TWISTED_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(MIS_TWISTS[bad])}$"):
        call(a, b, t, *inputs[bad])
    assert a._hom_memo == {}
    call(a, b, t, alpha, beta)  # the right input passes


def test_roots_of_unity_are_raised_by_exponent_arithmetic(monkeypatch):
    # a RootOfUnity t_i enters as zeta_m^(a e), with the same stored form as
    # the power of the Scalar zeta_m^a, and Scalar.__pow__ is never called
    f = 3 * x**7 - x**2 + 5
    t = [RootOfUnity(3, 1), RootOfUnity(4, 3)]

    def run():
        mf, t1, alpha, beta = a2_data()
        return [str(verify_isolated(mf, mf, t1, alpha, beta)), str(lunts_check(x2**3 + y2**4, t))]

    expected = {}
    for m, c in f.terms.items():
        scaled = c * RootOfUnity(6, 5).to_scalar() ** m[0] if m[0] else c
        expected[m] = (scaled.order, scaled.num, scaled.den)
    reports = run()

    def no_pow(*args):
        raise AssertionError("Scalar.__pow__ called")

    monkeypatch.setattr(Scalar, "__pow__", no_pow)
    got = scale_substitute(f, [RootOfUnity(6, 5)])
    assert {m: (c.order, c.num, c.den) for m, c in got.terms.items()} == expected
    assert run() == reports


def test_lhs_hlf_homotopy_invariance():
    rng = random.Random(43)
    mf, t, alpha, beta = a2_data()
    base = lhs_hlf(mf, mf, t, alpha, beta)
    for _ in range(5):
        psi = MFMorphism.from_blocks(
            mf,
            pullback(t, mf),
            1,
            [[R1.monomial((rng.randint(0, 2),), rng.randint(-3, 3))]],
            [[R1.monomial((rng.randint(0, 2),), rng.randint(-3, 3))]],
        )
        assert lhs_hlf(mf, mf, t, alpha + psi.differential(), beta) == base


def test_variable_order_invariance():
    # same data declared with the two variable orders gives identical verdicts
    values = []
    for names, exps in ((("x", "y"), (1, 0)), (("y", "x"), (0, 1))):
        R = PolyRing(names)
        a, b = R.var("x"), R.var("y")
        fx = koszul_mf([a**2], [a])
        fy = koszul_mf([b**2], [b])
        A = tensor_mf(fx, fy)
        t = [RootOfUnity(3, 1), RootOfUnity(1, 0)] if names[0] == "x" else [
            RootOfUnity(1, 0), RootOfUnity(3, 1)
        ]
        u = MFMorphism.diagonal(fx, pullback(t, fx), [Scalar.one(), Scalar.zeta(3, 2)])
        alpha = tensor_morphisms(u, odd_rank11_generator(fy), source=A, target=pullback(t, A))
        beta = tensor_morphisms(u.inverse(), odd_rank11_generator(fy), source=pullback(t, A), target=A)
        lhs = lhs_hlf(A, A, t, alpha, beta)
        rhs = rhs_hlf(A, A, t, alpha, beta)
        assert lhs == rhs
        values.append(lhs)
    assert values[0] == values[1]


def test_engine_both_cross_checks():
    fx = kfac("x", 1, 3)
    t = [RootOfUnity(3, 1)]
    u = MFMorphism.diagonal(fx, pullback(t, fx), [Scalar.one(), Scalar.zeta(3, 2)])
    rep = verify_hlf(fx, fx, t, u, u.inverse(), engine="both", case="A2-both")
    assert rep.equal


def test_engine_both_raises_on_first_mismatch(monkeypatch):
    from mflef import lefschetz

    fx = kfac("x", 1, 3)
    t = [RootOfUnity(3, 1)]
    u = MFMorphism.diagonal(fx, pullback(t, fx), [Scalar.one(), Scalar.zeta(3, 2)])
    beta = u.inverse()
    reference = lhs_hlf(fx, fx, t, u, beta)
    calls = []

    def off_by_one(*args, **kwargs):
        calls.append(args)
        return reference + 1

    monkeypatch.setattr(lefschetz, "graded_euler_supertrace", off_by_one)
    with pytest.raises(lefschetz.EngineDisagreementError):
        lhs_hlf(fx, fx, t, u, beta, engine="both")
    assert len(calls) == 1


def test_hrr_special_case_spinor():
    # t = id, alpha = beta = id: the verified identity is chi(Hom(A, B)) =
    # <ch A, ch B> computed through boundary_bulk + canonical_pairing
    i = Scalar.zeta(4)
    S = MatrixFactorization(x2**2 + y2**2, [[x2 + y2 * i]], [[x2 - y2 * i]])
    ident = MFMorphism.identity(S)
    t_id = [RootOfUnity(1, 0)] * 2
    rep = verify_hlf(S, S, t_id, ident, ident, case="hrr-spinor")
    assert rep.equal and rep.lhs == 1  # the spinor object is exceptional

    K = koszul_mf([x2, y2], [x2, y2])
    idk = MFMorphism.identity(K)
    rep = verify_hlf(K, K, t_id, idk, idk, case="hrr-koszul")
    assert rep.equal and rep.lhs.is_zero()  # ch of the full Koszul object vanishes

    rep = verify_hlf(S, K, t_id, ident, idk, case="hrr-cross")
    assert rep.equal


def test_isolated_agrees_with_hlf():
    for data in (a1_data(), a2_data()):
        mf, t, alpha, beta = data
        full = verify_hlf(mf, mf, t, alpha, beta)
        closed = verify_isolated(mf, mf, t, alpha, beta)
        assert full.equal and closed.equal
        assert full.lhs == closed.lhs and full.rhs == closed.rhs


def test_verify_hlf_nonzero_pairing_larger_milnor_algebra():
    # w = x^3 + y^4, t = (zeta_3, 1): the boundary-bulk classes land on the
    # middle basis element y of the mu = 3 algebra of y^4, and <y, y> = 1/4
    fx, fy = kfac("x", 1, 3), koszul_mf(
        [PolyRing(("y",)).var("y") ** 2], [PolyRing(("y",)).var("y") ** 2],
        gradings=[Fraction(1, 2)],
    )
    A = tensor_mf(fx, fy)
    t = [RootOfUnity(3, 1), RootOfUnity(1, 0)]
    u = MFMorphism.diagonal(fx, pullback([RootOfUnity(3, 1)], fx),
                            [Scalar.one(), Scalar.zeta(3, 2)])
    eta = odd_rank11_generator(fy)
    alpha = tensor_morphisms(u, eta, source=A, target=pullback(t, A))
    beta = tensor_morphisms(u.inverse(), eta, source=pullback(t, A), target=A)
    tau = boundary_bulk(A, t, alpha)
    assert tau.space.milnor.milnor_number == 3
    assert not tau.is_zero()
    rep = verify_hlf(A, A, t, alpha, beta, case="x3y4-odd")
    assert rep.equal and rep.lhs == -8 - 4 * Scalar.zeta(3)


# -- reuse of a pair's cohomology ----------------------------------------------


def _count_cohomology(monkeypatch):
    """The (source, target) of every cohomology call lhs_hlf makes from now on."""
    calls = []

    def counted(hom):
        calls.append((hom.source, hom.target))
        return cohomology(hom)

    monkeypatch.setattr(mflef.lefschetz, "cohomology", counted)
    return calls


def _xy_pair():
    """Two Koszul factorizations of x^3 + y^3."""
    a = koszul_mf([x2, y2], [x2**2, y2**2])
    b = koszul_mf([x2**2, y2], [x2, y2**2])
    return a, b


def test_pair_requested_once_keeps_its_basis(monkeypatch):
    calls = _count_cohomology(monkeypatch)
    mf, t, alpha, beta = a2_data()
    lhs_hlf(mf, mf, t, alpha, beta)
    assert calls == [(mf, mf)]
    (entry,) = mf._hom_memo.values()
    assert entry[0] is mf and isinstance(entry[1], CohomologyBasis) and entry[2] is None
    assert pair_cohomology(mf, mf) is entry[1] and calls == [(mf, mf)]


def test_third_request_makes_no_cohomology_call(monkeypatch):
    calls = _count_cohomology(monkeypatch)
    mf, t, alpha, beta = a2_data()
    values = [lhs_hlf(mf, mf, t, alpha, beta) for _ in range(3)]
    assert len(calls) == 1
    assert values[0] == values[1] == values[2]
    a, b = _xy_pair()
    first, second = pair_cohomology(a, b), pair_cohomology(a, b)
    assert len(calls) == 2 and first is second
    assert pair_cohomology(a, b) is first and len(calls) == 2
    assert a._hom_memo[id(b)] == (b, first, None)
    assert b._hom_memo == {}


def test_equal_but_distinct_target_gets_its_own_entry(monkeypatch):
    calls = _count_cohomology(monkeypatch)
    a, b = _xy_pair()
    twin = koszul_mf([x2**2, y2], [x2, y2**2])
    assert twin is not b and twin.d0 == b.d0 and twin.d1 == b.d1
    for _ in range(3):
        pair_cohomology(a, b)
    assert len(calls) == 1
    kept = pair_cohomology(a, twin)
    assert calls[-1] == (a, twin) and len(calls) == 2
    assert pair_cohomology(a, twin) is kept and len(calls) == 2
    assert a._hom_memo[id(twin)] == (twin, kept, None)
    assert a._hom_memo[id(b)][0] is b and a._hom_memo[id(b)][1] is not kept


def _isolated_sweep(d_max):
    """verify_isolated on (x^a, x^(d-a)) of x^d for every zeta_d^j, objects shared."""
    reports = []
    for d in range(2, d_max + 1):
        mfs = {a: koszul_mf([x**a], [x ** (d - a)]) for a in range(1, d)}
        for j in range(1, d):
            t = [RootOfUnity(d, j)]
            structures = {
                a: MFMorphism.diagonal(mf, pullback(t, mf), [Scalar.one(), Scalar.zeta(d, j * a)])
                for a, mf in mfs.items()
            }
            for a, mf_a in mfs.items():
                for b, mf_b in mfs.items():
                    reports.append(verify_isolated(mf_a, mf_b, t, structures[a],
                                                   structures[b].inverse(),
                                                   case=f"d={d} j={j} a={a} b={b}"))
    return reports


def test_reuse_changes_no_verdict_or_printed_value(monkeypatch):
    calls = _count_cohomology(monkeypatch)
    reused = [(str(rep), rep.equal) for rep in _isolated_sweep(5)]
    assert len(calls) < len(reused)  # the sweep repeats pairs, so reuse happened
    monkeypatch.setattr(mflef.lefschetz, "pair_cohomology",
                        lambda a, b: mflef.lefschetz.cohomology(hom_complex(a, b)))
    del calls[:]
    fresh = [(str(rep), rep.equal) for rep in _isolated_sweep(5)]
    assert len(calls) == len(fresh)
    assert reused == fresh
    assert all(equal for _, equal in fresh)


def test_isolated_sweep_builds_each_pair_once(monkeypatch):
    calls = _count_cohomology(monkeypatch)
    reports = _isolated_sweep(5)
    pairs = {(id(a), id(b)) for a, b in calls}
    # d = 2..5 gives (d - 1)^2 pairs, each twisted by d - 1 symmetries
    assert len(reports) == 100 and len(pairs) == 30
    assert len(calls) == len(pairs)


def test_kept_basis_reaches_no_hom_complex_differential(monkeypatch):
    homs = []

    def recorded(a, b):
        homs.append(hom_complex(a, b))
        return homs[-1]

    monkeypatch.setattr(mflef.lefschetz, "hom_complex", recorded)
    a, b = _xy_pair()
    basis = pair_cohomology(a, b)
    basis.representative(0, 0)
    (hom,) = homs
    d_lists = {id(m) for m in hom.d_matrices} | {id(row) for m in hom.d_matrices for row in m}
    # everything the kept entry refers to, short of types and modules
    seen, stack = set(), [a._hom_memo]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, HomComplex) and id(obj) not in d_lists
        stack.extend(gc.get_referents(obj))
    assert id(basis) in seen and id(b) in seen


def _held_bytes(build):
    """Bytes still allocated when build() has returned, with its result alive."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result
        return held
    finally:
        tracemalloc.stop()


def test_kept_basis_is_smaller_than_a_fresh_one_with_its_hom_complex():
    # a pair of x^2 + y^2 + z^3, as in the benchmark's three-variable cases;
    # full matrices are built first, since both ways share them
    R3 = PolyRing(("x", "y", "z"))
    x3, y3, z3 = (R3.var(v) for v in "xyz")

    def pair():
        a, b = koszul_mf([x3, y3, z3], [x3, y3, z3**2]), koszul_mf([x3, y3, z3**2], [x3, y3, z3])
        a.full_matrix(), b.full_matrix()
        return a, b

    def fresh(a, b):
        hom = hom_complex(a, b)
        return hom, cohomology(hom)

    fresh(*pair())  # warm every cache that outlives the pair
    (a, b), (c, d) = pair(), pair()
    memo = _held_bytes(lambda: (pair_cohomology(a, b), a._hom_memo))
    with_hom = _held_bytes(lambda: fresh(c, d))
    assert memo <= 2 * with_hom / 3, (memo, with_hom)


# -- refusals of the verifiers -------------------------------------------------


def _odd_zero(mf, target):
    return MFMorphism(mf, target, 1, [[R1.zero()] * mf.total_rank] * target.total_rank)


def _refusal_cases():
    """(id, call, error, message) for each refusal; a2 data unless a case needs other input."""
    mf, t, alpha, beta = a2_data()
    fixed = [RootOfUnity(1, 0)]
    odd_alpha, odd_beta = _odd_zero(mf, alpha.target), _odd_zero(beta.source, mf)
    a1, _, a1_alpha, _ = a1_data()
    unclosed = MFMorphism.diagonal(mf, alpha.target, [Scalar.one(), Scalar.from_rational(2)])
    # w = 0 allows ranks (1, 0); the constant 1 is a Z/2-equivariant structure for t = -1
    lopsided = MatrixFactorization(R1.zero(), [], [[]], r0=1, r1=0)
    sign = [RootOfUnity(2, 1)]
    lopsided_alpha = MFMorphism(lopsided, pullback(sign, lopsided), 0, [[R1.one()]])
    graded = kfac("x", 1, 2)  # (x, x), on which the odd [[0, 1], [-1, 0]] has degree 0
    graded_odd = MFMorphism(graded, graded, 1, [[R1.zero(), R1.one()], [-R1.one(), R1.zero()]])
    # unchecked, and no factorization of x^2: its operator has degree 1, not 1/2
    squares = MatrixFactorization(x**2, [[x**2]], [[x**2]], gradings=([0], [0]), check=False)
    plane = koszul_mf([x2**2, y2**2], [x2, y2], gradings=[Fraction(1, 3)] * 2)
    return [
        ("trace-identity-fixed-coordinate", lambda: trace_identity_check(mf, fixed, alpha),
         ValueError, "the trace identity needs t_i != 1 for every coordinate"),
        ("trace-identity-odd-alpha", lambda: trace_identity_check(mf, t, odd_alpha),
         ValueError, "alpha must be even"),
        ("zero-check-odd-alpha", lambda: zero_fixed_locus_check(mf, mf, fixed, odd_alpha, beta),
         ValueError, "vanishing is stated for even alpha and beta"),
        ("zero-check-odd-beta", lambda: zero_fixed_locus_check(mf, mf, fixed, alpha, odd_beta),
         ValueError, "vanishing is stated for even alpha and beta"),
        ("divisibility-fixed-coordinate", lambda: divisibility_check(mf, fixed, alpha, 3),
         ValueError, "divisibility needs an isolated fixed point"),
        ("divisibility-order", lambda: divisibility_check(mf, t, alpha, 2),
         ValueError, "symmetry must have order dividing p"),
        ("divisibility-virtual-rank",
         lambda: divisibility_check(lopsided, sign, lopsided_alpha, 2),
         ValueError, "virtual rank must vanish"),
        ("lhs-unknown-engine", lambda: lhs_hlf(mf, mf, t, alpha, beta, engine="nope"),
         ValueError, "unknown engine 'nope'"),
        ("boundary-bulk-other-source", lambda: boundary_bulk(a1, t, alpha),
         ValueError, "alpha must start at the source factorization"),
        ("boundary-bulk-unclosed", lambda: boundary_bulk(mf, t, unclosed),
         ValueError, "alpha must be closed"),
        ("graded-parity-reversing",
         lambda: graded_euler_supertrace(graded, graded, fixed, graded_odd,
                                         MFMorphism.identity(graded)),
         ValueError, "parity-reversing twists have no supertrace"),
        ("graded-operator-shifts",
         lambda: graded_euler_supertrace(graded, squares, fixed, MFMorphism.identity(graded),
                                         MFMorphism.identity(squares)),
         ValueError, "source and target gradings use different operator shifts"),
        # the graded engine must not read a one-entry t on two variables as (t, 1)
        ("graded-short-symmetry",
         lambda: lhs_hlf(plane, plane, fixed, MFMorphism.identity(plane),
                         MFMorphism.identity(plane), engine="graded"),
         ValueError, "one symmetry entry per variable required"),
        ("symmetry-entry-2", lambda: _coerce_symmetry([1, 2]),
         ValueError, "symmetry entries must be roots of unity, got 2"),
        ("symmetry-entry-fraction", lambda: _coerce_symmetry([Fraction(1)]),
         ValueError, "symmetry entries must be roots of unity, got Fraction"),
        ("symmetry-entry-text", lambda: _coerce_symmetry(["-1"]),
         ValueError, "symmetry entries must be roots of unity, got '-1'"),
        ("symmetry-entry-bool", lambda: _coerce_symmetry([True]),
         ValueError, "symmetry entries must be roots of unity, got True"),
    ]


REFUSALS = _refusal_cases()


@pytest.mark.parametrize("call, error, message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_verifier_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_coerce_symmetry_accepts_plus_and_minus_one():
    assert _coerce_symmetry([1, -1, RootOfUnity(3, 2)]) == (
        RootOfUnity(1, 0), RootOfUnity(2, 1), RootOfUnity(3, 2))


def _symmetry_takers():
    mf, _, alpha, beta = a2_data()
    return {
        "pullback": lambda t: pullback(t, mf),
        "scale_substitute": lambda t: scale_substitute(x**3, t),
        "check_symmetry": lambda t: check_symmetry(x**3, t),
        "equivariance_power_check": lambda t: equivariance_power_check(t, alpha, 3),
        "trace_space": lambda t: trace_space(x**3, t),
        "lhs_hlf": lambda t: lhs_hlf(mf, mf, t, alpha, beta),
    }


@pytest.mark.parametrize("taker", sorted(_symmetry_takers()))
@pytest.mark.parametrize("entry", [Scalar.zeta(3), True, 2], ids=["scalar", "bool", "int-2"])
def test_every_symmetry_taker_refuses_what_is_no_root(taker, entry):
    # one boundary: a Scalar, even a root of unity, is not a symmetry entry
    with pytest.raises(ValueError, match=re.escape(f"symmetry entries must be roots of unity, got {entry!r}")):
        _symmetry_takers()[taker]([entry])


def test_minus_one_is_the_root_of_order_two():
    mf = MatrixFactorization(x**2, [[x]], [[x]])
    by_int, by_root = pullback([-1], mf), pullback([RootOfUnity(2, 1)], mf)
    for row, twin in zip(by_int.d0 + by_int.d1, by_root.d0 + by_root.d1):
        for e, f in zip(row, twin):
            assert {m: (c.order, c.num, c.den) for m, c in e.terms.items()} == {
                m: (c.order, c.num, c.den) for m, c in f.terms.items()}
