import gc
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import mflef.homcoh
from mflef import linalg
from mflef.document import parse_document
from mflef.scalars import RootOfUnity, Scalar
from mflef.polyring import PolyRing, WeightSystem, partial_derivative
from mflef.mfcore import (
    MFMorphism,
    MatrixFactorization,
    koszul_mf,
    odd_rank11_generator,
    pullback,
    tensor_mf,
    tensor_morphisms,
    validate_mf,
)
from mflef.lefschetz import lhs_hlf, pair_cohomology
from mflef.homcoh import (
    cohomology,
    graded_cohomology_dimensions,
    graded_euler_supertrace,
    hom_complex,
    induced_endomorphism,
    supertrace_on_cohomology,
    twisted_endomorphism_image,
)

R1 = PolyRing(("x",))
x = R1.var("x")
R2 = PolyRing(("x", "y"))
x2, y2 = R2.var("x"), R2.var("y")


def graded_rank11(a_exp, d):
    """(x^a, x^(d-a)) with the grading that makes delta homogeneous of degree 1/2."""
    mf = koszul_mf([x**a_exp], [x ** (d - a_exp)], gradings=[Fraction(d - a_exp, d)])
    return mf


def natural_alpha(mf, d, a_exp, j=1):
    """The canonical equivariant structure (1, zeta_d^(j a)) for t = zeta_d^j."""
    z = RootOfUnity(d, j)
    target = pullback([z], mf)
    return MFMorphism.diagonal(mf, target, [Scalar.one(), Scalar.zeta(d, j * a_exp)])


def test_hom_complex_shapes():
    mf = koszul_mf([x], [x])
    hx = hom_complex(mf, mf)
    assert len(hx.pairs[0]) == 2 and len(hx.pairs[1]) == 2

    a = koszul_mf([x], [x**2])
    b = koszul_mf([x**2], [x])
    hx = hom_complex(a, b)
    assert len(hx.pairs[0]) == 2

    with pytest.raises(ValueError):
        hom_complex(koszul_mf([x], [x]), koszul_mf([x**2], [x]))


def _d_a_slots(hom, parity):
    """(row, column) of each entry that d_A gives D on the parity block."""
    da = hom.source.full_matrix()
    index = hom.pair_index[1 - parity]
    return [(index[(a, j)], col) for col, (a, b) in enumerate(hom.pairs[parity])
            for j, entry in enumerate(da[b]) if not entry.is_zero()]


def _flip_d_a_sign(hom, parity, mat):
    if parity == 0:
        for row, col in _d_a_slots(hom, parity):
            mat[row][col] = -mat[row][col]


def _nonzero_slot(mat):
    return next((i, j) for i, row in enumerate(mat) for j, e in enumerate(row) if not e.is_zero())


def _misplace_an_entry(hom, parity, mat):
    if parity == 1:
        i, j = _nonzero_slot(mat)
        free = next(k for k, row in enumerate(mat) if row[j].is_zero())
        mat[free][j], mat[i][j] = mat[i][j], mat[free][j]


def _drop_an_entry(hom, parity, mat):
    if parity == 0:
        i, j = _nonzero_slot(mat)
        mat[i][j] = hom.ring.zero()


def _add_an_entry(hom, parity, mat):
    if parity == 1:
        i, j = next((i, j) for i, row in enumerate(mat) for j, e in enumerate(row) if e.is_zero())
        mat[i][j] = hom.ring.one()


@pytest.mark.parametrize("mutate", [_flip_d_a_sign, _misplace_an_entry, _drop_an_entry,
                                    _add_an_entry])
@pytest.mark.parametrize("ea, eb", [(1, 2), (2, 1), (1, 1)])
def test_d_squared_check_catches_a_broken_differential(monkeypatch, mutate, ea, eb):
    # D^2 = 0 follows from d^2 = w on both factorizations once D is
    # _d_column's matrix, which HomComplex checks entry by entry: a
    # differential with one parity block built wrongly must not pass it
    a, b = (koszul_mf([x2, y2**e], [x2, y2 ** (3 - e)]) for e in (ea, eb))
    hom_complex(a, b)
    build = mflef.homcoh.HomComplex._build_d

    def mutated(self, parity):
        mat = build(self, parity)
        mutate(self, parity, mat)
        return mat

    monkeypatch.setattr(mflef.homcoh.HomComplex, "_build_d", mutated)
    with pytest.raises(AssertionError, match="^Hom-complex differential does not square to zero$"):
        hom_complex(a, b)


def test_hom_complex_multiplies_no_matrices(monkeypatch):
    # D^2 = 0 is not multiplied out: building D and checking it against the
    # rule takes no matrix product, while validate_mf still takes two
    a, b = koszul_mf([x2, y2], [x2, y2 ** 2]), koszul_mf([x2, y2 ** 2], [x2, y2])
    calls = []
    product = linalg.mat_mul

    def counted(*args, **kwargs):
        calls.append(1)
        return product(*args, **kwargs)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    hom_complex(a, b)
    assert calls == []
    validate_mf(a)
    assert len(calls) == 2


def test_end_cohomology_dims_a1():
    mf = koszul_mf([x], [x])
    basis = cohomology(hom_complex(mf, mf))
    assert basis.dims == (1, 1)


def test_end_cohomology_dims_a2():
    mf = koszul_mf([x], [x**2])
    basis = cohomology(hom_complex(mf, mf))
    assert basis.dims == (1, 1)


def test_parity_shift_swaps_dims():
    mf = koszul_mf([x], [x**2])
    # the parity shift E[1] swaps the blocks and negates the operator
    shifted = MatrixFactorization(mf.potential, [[-e for e in row] for row in mf.d1],
                                  [[-e for e in row] for row in mf.d0], r0=mf.r1, r1=mf.r0)
    basis = cohomology(hom_complex(mf, shifted))
    plain = cohomology(hom_complex(mf, mf))
    assert basis.dims == (plain.dims[1], plain.dims[0])


def test_representatives_are_closed_and_exact_reduces_to_zero():
    mf = koszul_mf([x**2], [x])
    hx = hom_complex(mf, mf)
    basis = cohomology(hx)
    for parity in (0, 1):
        for k in range(basis.dims[parity]):
            rep = basis.representative(parity, k)
            assert rep.is_closed()
    # a coboundary reduces to the zero coordinate vector
    psi = MFMorphism.from_blocks(mf, mf, 1, [[x]], [[R1.one()]])
    d_psi = psi.differential()
    coords = basis.reduce(d_psi)
    assert all(c.is_zero() for c in coords)


def test_induced_endomorphism_identity():
    mf = koszul_mf([x], [x])
    basis = cohomology(hom_complex(mf, mf))
    ident = MFMorphism.identity(mf)
    mat = induced_endomorphism([RootOfUnity(1, 0)], ident, ident, basis)
    n = basis.total_dim()
    for i in range(n):
        for j in range(n):
            assert mat[i][j] == (1 if i == j else 0)


def test_induced_endomorphism_a2_twist():
    # A = B = (x, x^2) over w = x^3, t = zeta_3, alpha = (1, z), beta = (1, z^2)
    mf = koszul_mf([x**2], [x])  # d0 = x^2? ensure (d0=x, d1=x^2) orientation below
    mf = MatrixFactorization(x**3, [[x]], [[x**2]])
    z = RootOfUnity(3, 1)
    target = pullback([z], mf)
    alpha = MFMorphism.diagonal(mf, target, [Scalar.one(), Scalar.zeta(3)])
    beta = MFMorphism.diagonal(target, mf, [Scalar.one(), Scalar.zeta(3, 2)])
    assert alpha.is_closed() and beta.is_closed()
    basis = cohomology(hom_complex(mf, mf))
    assert basis.dims == (1, 1)
    mat = induced_endomorphism([z], alpha, beta, basis)
    assert mat[0][0] == 1
    assert mat[1][1] == Scalar.zeta(3, 2)
    assert mat[0][1].is_zero() and mat[1][0].is_zero()
    str_val = supertrace_on_cohomology(mat, basis.parities())
    assert str_val == 1 - Scalar.zeta(3, 2)


def test_induced_endomorphism_scale_invariance():
    mf = MatrixFactorization(x**3, [[x]], [[x**2]])
    z = RootOfUnity(3, 1)
    target = pullback([z], mf)
    alpha = MFMorphism.diagonal(mf, target, [Scalar.one(), Scalar.zeta(3)])
    beta = MFMorphism.diagonal(target, mf, [Scalar.one(), Scalar.zeta(3, 2)])
    basis = cohomology(hom_complex(mf, mf))
    c = Scalar.from_rational(Fraction(5, 3))
    mat1 = induced_endomorphism([z], alpha, beta, basis)
    mat2 = induced_endomorphism([z], alpha.scale(c), beta.scale(c.inverse()), basis)
    assert mat1 == mat2


def test_induced_endomorphism_representative_independent():
    # perturbing the input cocycle by a coboundary leaves its class fixed
    rng = random.Random(77)
    mf = MatrixFactorization(x**3, [[x]], [[x**2]])
    basis = cohomology(hom_complex(mf, mf))
    for parity in (0, 1):
        rep = basis.representative(parity, 0)
        base = basis.reduce(rep)
        for _ in range(5):
            psi = MFMorphism.from_blocks(
                mf,
                mf,
                (parity + 1) % 2,
                [[R1.monomial((rng.randint(0, 2),), rng.randint(-2, 2))]],
                [[R1.monomial((rng.randint(0, 2),), rng.randint(-2, 2))]],
            )
            perturbed = rep + psi.differential()
            assert basis.reduce(perturbed) == base


def test_supertrace_examples():
    # identity on dims (1,1) has supertrace 0
    mf = koszul_mf([x], [x])
    basis = cohomology(hom_complex(mf, mf))
    ident = MFMorphism.identity(mf)
    mat = induced_endomorphism([RootOfUnity(1, 0)], ident, ident, basis)
    assert supertrace_on_cohomology(mat, basis.parities()).is_zero()
    assert basis.dims[0] - basis.dims[1] == 0


def test_graded_engine_matches_groebner_a2():
    d, a_exp = 3, 1
    mf = graded_rank11(a_exp, d)
    z = RootOfUnity(d, 1)
    alpha = natural_alpha(mf, d, a_exp)
    beta = alpha.inverse()
    beta = MFMorphism(pullback([z], mf), mf, 0, beta.matrix, check_parity=False)
    basis = cohomology(hom_complex(mf, mf))
    mat = induced_endomorphism([z], alpha, beta, basis)
    lhs = supertrace_on_cohomology(mat, basis.parities())
    rhs = graded_euler_supertrace(mf, mf, [z], alpha, beta)
    assert lhs == rhs


def test_graded_engine_euler_characteristic():
    # t = id, alpha = beta = id: the graded engine returns chi(Hom(A, B))
    mf = graded_rank11(1, 3)
    ident = MFMorphism.identity(mf)
    val = graded_euler_supertrace(mf, mf, [RootOfUnity(1, 0)], ident, ident)
    basis = cohomology(hom_complex(mf, mf))
    assert val == basis.dims[0] - basis.dims[1]


def test_every_engine_accepts_a_rank_zero_factorization():
    # Hom to and from the zero object vanishes; its operator has no nonzero
    # entry, so it carries no shift to compare with the other side's 1/2
    zero = MatrixFactorization(x**2, [], [], r0=0, r1=0, gradings=([], []))
    b = koszul_mf([x], [x], gradings=[Fraction(1, 2)])
    for engine in ("groebner", "graded", "both"):
        for source, target in ((zero, b), (b, zero), (zero, zero)):
            alpha, beta = MFMorphism.identity(source), MFMorphism.identity(target)
            assert lhs_hlf(source, target, [1], alpha, beta, engine=engine) == 0, engine


def test_graded_dims_oracle_matches_groebner_on_an():
    for d in (2, 3, 4, 5):
        for a_exp in range(1, d):
            mf = graded_rank11(a_exp, d)
            basis = cohomology(hom_complex(mf, mf))
            oracle = graded_cohomology_dimensions(mf, mf)
            assert basis.dims == oracle, (d, a_exp, basis.dims, oracle)


def test_cohomology_rejects_non_isolated_potential():
    from mflef.milnor import NonIsolatedError
    from mflef.polyring import PolyRing

    R2 = PolyRing(("x", "y"))
    xx, yy = R2.var("x"), R2.var("y")
    # w = x^2 y^2 is not an isolated singularity; End cohomology is infinite
    mf = MatrixFactorization(xx**2 * yy**2, [[xx * yy**2]], [[xx]])
    with pytest.raises(NonIsolatedError):
        cohomology(hom_complex(mf, mf))


def _hom_pairs_xy():
    """End of a two-variable Koszul factorization of x^3 + y^3, and a Hom(A, B)."""
    a = koszul_mf([x2, y2], [x2**2, y2**2])
    b = koszul_mf([x2**2, y2], [x2, y2**2])
    return [(a, a), (a, b)]


@pytest.mark.parametrize("case", [0, 1], ids=["end", "hom"])
def test_reduce_inverts_representative_modulo_coboundaries(case):
    rng = random.Random(case)
    a, b = _hom_pairs_xy()[case]
    hx = hom_complex(a, b)
    basis = cohomology(hx)
    assert basis.dims[0] > 0 and basis.dims[1] > 0
    for parity in (0, 1):
        n = basis.dims[parity]
        for k in range(n):
            unit = [Scalar.one() if i == k else Scalar.zero() for i in range(n)]
            rep = basis.representative(parity, k)
            assert basis.reduce(rep) == unit
            column = [
                R2.monomial((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-2, 2))
                for _ in hx.pairs[1 - parity]
            ]
            psi = hx.unflatten(1 - parity, column)
            assert basis.reduce(rep + psi.differential()) == unit


def test_reduce_rejects_non_cocycle():
    a, b = _hom_pairs_xy()[1]
    hx = hom_complex(a, b)
    basis = cohomology(hx)
    for parity in (0, 1):
        column = [R2.zero() for _ in hx.pairs[parity]]
        column[0] = R2.one()
        phi = hx.unflatten(parity, column)
        assert not phi.is_closed()
        with pytest.raises(ValueError, match="not a cocycle"):
            basis.reduce(phi)


def test_cohomology_basis_makes_one_elimination_per_parity(monkeypatch):
    calls = {"buchberger": 0, "syzygy_basis": 0}

    def counting(name):
        original = getattr(mflef.homcoh, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mflef.homcoh, name, counting(name))
    for a, b in _hom_pairs_xy():
        calls.update(buchberger=0, syzygy_basis=0)
        hx = hom_complex(a, b)
        cohomology(hx)
        nonempty = sum(1 for parity in (0, 1) if hx.pairs[parity])
        assert nonempty == 2
        assert calls == {"buchberger": nonempty, "syzygy_basis": nonempty}


@pytest.mark.parametrize("case, message", [
    ("ungraded target", "factorization carries no internal grading"),
    ("ungraded source", "factorization carries no internal grading"),
    ("non-quasi-homogeneous", "potential is not quasi-homogeneous"),
    ("different potentials", "factorizations have different potentials"),
])
def test_graded_functions_validate_alike(case, message):
    graded, ungraded = graded_rank11(1, 3), koszul_mf([x], [x**2])
    a, b = {
        "ungraded target": (graded, ungraded),
        "ungraded source": (ungraded, graded),
        "non-quasi-homogeneous": (koszul_mf([x], [x + x**2], gradings=[Fraction(1, 2)]),) * 2,
        "different potentials": (graded, graded_rank11(2, 6)),
    }[case]
    ident = MFMorphism.identity(a)
    with pytest.raises(ValueError, match=message):
        graded_cohomology_dimensions(a, b)
    with pytest.raises(ValueError, match=message):
        graded_euler_supertrace(a, b, [RootOfUnity(1, 0)], ident, ident)


@pytest.mark.parametrize("wrong, message", [
    ("alpha", "alpha must start at the source factorization"),
    ("beta", "beta must end at the target factorization"),
])
def test_engines_check_the_twist_endpoints(wrong, message):
    # called directly, each engine refuses a twist that leaves or reaches the
    # wrong factorization, as lhs_hlf does
    a, b = graded_rank11(1, 3), graded_rank11(2, 3)
    t = [RootOfUnity(1, 0)]
    alpha = beta = MFMorphism.identity(b if wrong == "alpha" else a)
    with pytest.raises(ValueError, match=message):
        induced_endomorphism(t, alpha, beta, cohomology(hom_complex(a, b)))
    with pytest.raises(ValueError, match=message):
        graded_euler_supertrace(a, b, t, alpha, beta)


def test_graded_engine_rejects_a_twist_that_is_not_closed():
    # the Groebner engine's input error, not the graded engine's internal check
    a = koszul_mf([x2**2, y2**2], [x2, y2], gradings=[Fraction(1, 3)] * 2)
    t = [RootOfUnity(1, 0)] * 2
    alpha = MFMorphism.diagonal(a, pullback(t, a), [Scalar.from_rational(c) for c in (1, 2, 1, 1)])
    assert not alpha.is_closed()
    with pytest.raises(ValueError, match="^alpha must be closed$"):
        graded_euler_supertrace(a, a, t, alpha, MFMorphism.identity(a))


@pytest.mark.parametrize("engine", ["groebner", "graded", "both"])
def test_lhs_refuses_a_twist_that_is_not_closed_before_either_engine(engine):
    a = koszul_mf([x2**2, y2**2], [x2, y2], gradings=[Fraction(1, 3)] * 2)
    t = [RootOfUnity(1, 0)] * 2
    alpha = MFMorphism.diagonal(a, pullback(t, a), [Scalar.from_rational(c) for c in (1, 2, 1, 1)])
    with pytest.raises(ValueError, match="^alpha must be closed$"):
        lhs_hlf(a, a, t, alpha, MFMorphism.identity(a), engine=engine)
    assert a._hom_memo == {}  # no engine recorded the pair


def _q(rows):
    return [[Scalar.from_rational(c) for c in row] for row in rows]


# On Q^3 with m_out = [0 0 1] and m_in = e0 the kernel is span(e0, e1) and the
# image span(e0), so the subquotient is spanned by the class of e1.
M_OUT = _q([[0, 0, 1]])
M_IN = _q([[1], [0], [0]])


@pytest.mark.parametrize("twist", [
    [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
    [[2, 7, 11], [0, 3, 13], [0, 0, 5]],
], ids=["diagonal", "upper-triangular"])
def test_subquotient_trace_reads_the_quotient(twist):
    strand = mflef.homcoh.GradedStrand(0, None, M_OUT, M_IN)
    assert mflef.homcoh._subquotient_trace(strand, _q(twist)) == 3


@pytest.mark.parametrize("m_in, twist, message", [
    (M_IN, [[2, 0, 0], [0, 3, 0], [0, 1, 5]], "twist does not preserve the kernel"),
    (_q([[0], [0], [1]]), [[2, 0, 0], [0, 3, 0], [0, 0, 5]], "image does not lie in the kernel"),
    (M_IN, [[2, 0, 0], [1, 3, 0], [0, 0, 5]], "twist does not preserve the image"),
], ids=["kernel", "image-in-kernel", "image"])
def test_subquotient_trace_checks_its_invariants(m_in, twist, message):
    # the image check runs when the strand is reduced, the twist checks on
    # every trace
    with pytest.raises(AssertionError, match=message):
        mflef.homcoh._subquotient_trace(mflef.homcoh.GradedStrand(0, None, M_OUT, m_in),
                                        _q(twist))


def test_acyclic_strand_keeps_no_image_and_still_checks_its_kernel():
    # m_in spans the whole kernel span(e0, e1): ker = im, so the strand keeps
    # no image rows and its trace is 0, yet each twist is checked on the kernel
    strand = mflef.homcoh.GradedStrand(0, None, M_OUT, _q([[1, 1], [0, 1], [0, 0]]))
    assert len(strand.pivots) == len(strand.free) == 2 and strand.image == []
    assert mflef.homcoh._subquotient_trace(strand, _q([[2, 7, 11], [0, 3, 13], [0, 0, 5]])) == 0
    with pytest.raises(AssertionError, match="twist does not preserve the kernel"):
        mflef.homcoh._subquotient_trace(strand, _q([[2, 0, 0], [0, 3, 0], [0, 1, 5]]))


# -- theorem oracle: the Jacobian ideal acts by zero on H(Hom(A, B)) -----------


def _koszul_family(exponents, graded=False):
    """Koszul factorizations of sum x_i^(d_i) over R2, one per split of each
    power; with `graded`, deg x_i = 1/d_i and the odd operator has degree 1/2."""
    gens = (x2, y2)
    choices = [()]
    for d in exponents:
        choices = [c + (a,) for c in choices for a in range(1, d)]
    return [koszul_mf([g**a for g, a in zip(gens, split)],
                      [g ** (d - a) for g, a, d in zip(gens, split, exponents)],
                      gradings=[Fraction(d - a, d) for a, d in zip(split, exponents)]
                      if graded else None)
            for split in choices]


def _assert_jacobian_annihilates(basis):
    w = basis.source.potential
    partials = [partial_derivative(w, i) for i in range(w.ring.nvars)]
    checked = 0
    for parity in (0, 1):
        for k in range(basis.dims[parity]):
            rep = basis.representative(parity, k)
            for dw in partials:
                times = MFMorphism(rep.source, rep.target, rep.parity,
                                   [[dw * e for e in row] for row in rep.matrix])
                assert all(c.is_zero() for c in basis.reduce(times))
                checked += 1
    return checked


@pytest.mark.parametrize("exponents", [(3, 3), (4, 2)], ids=["x3+y3", "x4+y2"])
def test_jacobian_ideal_annihilates_hom_cohomology(exponents):
    # Dyckerhoff (Duke 2011): for an isolated singularity each d_i w acts
    # by zero on H(Hom(A, B)), so d_i w . rho is a coboundary for every rho
    family = _koszul_family(exponents)
    checked = 0
    for a in family:
        for b in family:
            checked += _assert_jacobian_annihilates(cohomology(hom_complex(a, b)))
    assert checked > 0


def test_jacobian_ideal_annihilates_a_reused_basis():
    from mflef.lefschetz import pair_cohomology

    a, b = _koszul_family((3, 3))[:2]
    pair_cohomology(a, b)
    kept = pair_cohomology(a, b)
    assert pair_cohomology(a, b) is kept
    assert _assert_jacobian_annihilates(kept) > 0
    # representatives are built once and shared by later requests
    assert kept.representative(0, 0) is kept.representative(0, 0)


# -- theorem oracle: graded Serre duality --------------------------------------


def _socle_and_spread(a, b):
    socle = sum(1 - 2 * q for q in WeightSystem.of(a.potential).weights)
    gradings = a.grading_list() + b.grading_list()
    return socle, max(gradings) - min(gradings)


def _wide_bound(a, b):
    """socle + spread + 1, the window of the brute-force oracle."""
    socle, spread = _socle_and_spread(a, b)
    return socle + spread + 1


def _graded_dims(a, b, bound=None):
    """{(P, d): dim H^P_d(Hom(A, B))} over the nonzero pieces of the graded
    engine up to degree bound, the engine's own window if None."""
    weights, shift, socle, spread = mflef.homcoh._graded_pair(a, b)
    ga, gb = a.grading_list(), b.grading_list()
    dims = {}
    bound = socle / 2 + spread if bound is None else bound
    for parity, piece, m_out, m_in in mflef.homcoh._strands(a, b, weights, shift, bound):
        dim = len(piece.elements) - linalg.rank(m_out) - linalg.rank(m_in)
        if dim:
            ai, bj, mono = piece.elements[0]
            degree = sum(q * e for q, e in zip(weights, mono)) + gb[ai] - ga[bj]
            dims[(parity, degree)] = dim
    return dims


@pytest.mark.parametrize("family", [
    [graded_rank11(c, 3) for c in (1, 2)],
    [graded_rank11(c, 4) for c in (1, 2, 3)],
    [graded_rank11(c, 5) for c in (1, 2, 3, 4)],
    _koszul_family((3, 3), graded=True),
    _koszul_family((4, 2), graded=True),
], ids=["x3", "x4", "x5", "x3+y3", "x4+y2"])
def test_graded_serre_duality(family):
    # graded Serre duality (Dyckerhoff, Duke 2011; Polishchuk-Vaintrob):
    # dim H^P_d(Hom(A, B)) = dim H^{P+n}_{c/2-d}(Hom(B, A)), c = sum(1 - 2 q_i)
    w = family[0].potential
    weights = WeightSystem.of(w).weights
    c_hat = sum(1 - 2 * q for q in weights)
    n = w.ring.nvars
    dims = {(i, j): _graded_dims(a, b, _wide_bound(a, b))
            for i, a in enumerate(family) for j, b in enumerate(family)}
    for (i, j), forward in dims.items():
        assert forward
        dual = {((p + n) % 2, c_hat / 2 - d): dim for (p, d), dim in forward.items()}
        assert dual == dims[(j, i)]


def _tier1_graded_pairs():
    """The a2 fixture's pair (A, A), and every pair within the rank-(1,1)
    families of x^d, d = 2..5, and the graded Koszul families of x^3 + y^3 and
    x^4 + y^2."""
    doc = parse_document((Path(__file__).parent / "fixtures" / "a2.mflef").read_text())
    a2 = doc.factorizations["A"][1]
    families = [[graded_rank11(c, d) for c in range(1, d)] for d in (2, 3, 4, 5)]
    families += [_koszul_family((3, 3), graded=True), _koszul_family((4, 2), graded=True)]
    return [(a2, a2)] + [(a, b) for family in families for a in family for b in family]


def test_graded_window_stops_at_the_serre_duality_bound():
    # over the oracle's window socle + spread + 1, all cohomology sits at or
    # below socle / 2 + spread, the top of the engine's window, and some sits
    # on it; the engine's window then sees every degree the oracle sees
    on_bound = 0
    for a, b in _tier1_graded_pairs():
        socle, spread = _socle_and_spread(a, b)
        top = socle / 2 + spread
        wide = _graded_dims(a, b, _wide_bound(a, b))
        assert wide and all(d <= top for _, d in wide), (top, wide)
        on_bound += any(d == top for _, d in wide)
        assert _graded_dims(a, b) == wide
        ident = [RootOfUnity(1, 0)] * a.potential.ring.nvars
        chi = graded_euler_supertrace(a, b, ident, MFMorphism.identity(a), MFMorphism.identity(b))
        assert chi == sum(n if p == 0 else -n for (p, _), n in wide.items())
    assert on_bound


# -- graded engine: strands reduced once per (A, B) pair -------------------------


def _count_strands(monkeypatch):
    calls = []
    original = mflef.homcoh._strands

    def counted(a, b, weights, shift, bound):
        calls.append((a, b))
        return original(a, b, weights, shift, bound)

    monkeypatch.setattr(mflef.homcoh, "_strands", counted)
    return calls


def _natural_twists(a, a_exp, b, b_exp, d):
    """(t, alpha, beta) for every zeta_d^j, with the natural structures of the
    rank-(1,1) factorizations a = (x^a_exp, ...) and b = (x^b_exp, ...)."""
    twists = []
    for j in range(1, d):
        z = RootOfUnity(d, j)
        inverse = natural_alpha(b, d, b_exp, j).inverse()
        beta = MFMorphism(pullback([z], b), b, 0, inverse.matrix, check_parity=False)
        twists.append(([z], natural_alpha(a, d, a_exp, j), beta))
    return twists


def test_graded_strands_are_built_once_per_pair(monkeypatch):
    calls = _count_strands(monkeypatch)
    a, b = graded_rank11(1, 4), graded_rank11(2, 4)
    twists = _natural_twists(a, 1, b, 2, 4)
    values = [lhs_hlf(a, b, *twist, engine="graded") for twist in twists * 2]
    assert calls == [(a, b)]
    # the same values as the Groebner engine on an equal but distinct pair
    fresh = [lhs_hlf(graded_rank11(1, 4), graded_rank11(2, 4), *twist) for twist in twists]
    assert values == fresh * 2 and any(not v.is_zero() for v in fresh)
    entry = a._hom_memo[id(b)]
    assert entry[0] is b and entry[1] is None
    assert entry[2] and all(isinstance(s, mflef.homcoh.GradedStrand) for s in entry[2])
    assert b._hom_memo == {}


def test_graded_equal_but_distinct_target_gets_its_own_entry(monkeypatch):
    calls = _count_strands(monkeypatch)
    a, b, twin = graded_rank11(1, 4), graded_rank11(2, 4), graded_rank11(2, 4)
    assert twin is not b and twin.d0 == b.d0 and twin.d1 == b.d1
    for target in (b, twin, b, twin):
        twist = _natural_twists(a, 1, target, 2, 4)[0]
        lhs_hlf(a, target, *twist, engine="graded")
    assert calls == [(a, b), (a, twin)]
    assert a._hom_memo[id(b)][0] is b and a._hom_memo[id(twin)][0] is twin
    assert a._hom_memo[id(b)][2] is not a._hom_memo[id(twin)][2]


MIS_TWISTED = "^alpha must end at the pullback of the source factorization by t$"


def _kernel_breaking_twist(strand):
    """A twist of the strand's piece that sends the kernel vector of the first
    free column to a unit vector off the free columns.  A kernel vector is the
    sum of its free entries times the basis vectors, so that unit vector is
    not in the kernel."""
    n = len(strand.piece.elements)
    off = next(c for c in range(n) if c not in strand.free)
    return [[Scalar.one() if (r, c) == (off, strand.free[0]) else Scalar.zero()
             for c in range(n)] for r in range(n)]


def test_twist_checks_run_on_a_reused_entry():
    a, b = graded_rank11(1, 4), graded_rank11(2, 4)
    twists = _natural_twists(a, 1, b, 2, 4)
    lhs_hlf(a, b, *twists[0], engine="graded")
    kept = a._hom_memo[id(b)][2]
    (_, alpha1, _), (t2, _, beta2) = twists[:2]
    # alpha for zeta_4 under t = zeta_4^2 is no morphism A -> t^*A: refused
    # before the engine runs, so the kept strands stay as they were
    with pytest.raises(ValueError, match=MIS_TWISTED):
        lhs_hlf(a, b, t2, alpha1, beta2, engine="graded")
    assert a._hom_memo[id(b)][2] is kept
    # the engine's own check still runs on a kept strand
    strand = next(s for s in kept if len(s.free) < len(s.piece.elements))
    with pytest.raises(AssertionError, match="twist does not preserve the kernel"):
        mflef.homcoh._subquotient_trace(strand, _kernel_breaking_twist(strand))
    # a strand whose kernel is larger than its nonzero image; the twist maps
    # everything to a kernel vector v outside the image, and an image vector to v
    a, b = _koszul_family((3, 3), graded=True)[0::2]
    ident = [RootOfUnity(1, 0)] * 2
    lhs_hlf(a, b, ident, MFMorphism.identity(a), MFMorphism.identity(b), engine="graded")
    strand = next(s for s in a._hom_memo[id(b)][2] if len(s.free) > len(s.pivots) > 0)
    outside = next(c for c in range(len(strand.free)) if c not in strand.pivots)
    hit = strand.free[strand.pivots[0]]
    n = len(strand.piece.elements)
    t_mat = [[strand.kernel[r][outside] if col == hit else Scalar.zero() for col in range(n)]
             for r in range(n)]
    with pytest.raises(AssertionError, match="twist does not preserve the image"):
        mflef.homcoh._subquotient_trace(strand, t_mat)


def test_twist_checks_run_on_a_reused_acyclic_entry():
    # B = (1, x^4) is contractible, so every strand of Hom(A, B) is acyclic
    a, b = graded_rank11(1, 4), graded_rank11(0, 4)
    twists = _natural_twists(a, 1, b, 0, 4)
    assert lhs_hlf(a, b, *twists[0], engine="graded").is_zero()
    kept = a._hom_memo[id(b)][2]
    assert kept and all(len(s.pivots) == len(s.free) and not s.image for s in kept)
    (_, alpha1, _), (t2, _, beta2) = twists[:2]
    with pytest.raises(ValueError, match=MIS_TWISTED):
        lhs_hlf(a, b, t2, alpha1, beta2, engine="graded")
    assert a._hom_memo[id(b)][2] is kept
    # the kernel check runs before an acyclic strand's trace is read as 0
    strand = next(s for s in kept if len(s.free) < len(s.piece.elements))
    with pytest.raises(AssertionError, match="twist does not preserve the kernel"):
        mflef.homcoh._subquotient_trace(strand, _kernel_breaking_twist(strand))


def test_degree_shifting_twist_builds_no_strands(monkeypatch):
    calls = _count_strands(monkeypatch)
    a = graded_rank11(1, 4)
    ident = MFMorphism.identity(a)
    zero = R1.zero()
    times_x = MFMorphism(a, a, 0, [[x, zero], [zero, x]])  # internal degree 1/4
    for alpha in (times_x, odd_rank11_generator(a)):
        assert graded_euler_supertrace(a, a, [RootOfUnity(1, 0)], alpha, ident).is_zero()
    assert calls == [] and a._hom_memo == {}


def test_graded_entry_leaves_no_cycle_back_to_its_source():
    # a != b: the entry holds b and scalars only, so a goes with its last
    # reference; a kept Groebner basis, by contrast, refers back to a
    class Tracked(MatrixFactorization):
        __slots__ = ("__weakref__",)

    def tracked(mf):
        return Tracked(mf.potential, mf.d0, mf.d1, gradings=mf.gradings)

    b = graded_rank11(2, 4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        a = tracked(graded_rank11(1, 4))
        lhs_hlf(a, b, *_natural_twists(a, 1, b, 2, 4)[0], engine="graded")
        assert a._hom_memo[id(b)][2]
        ref = weakref.ref(a)
        del a
        assert ref() is None
        a = tracked(graded_rank11(1, 4))
        pair_cohomology(a, b)
        pair_cohomology(a, b)
        ref = weakref.ref(a)
        del a
        assert ref() is not None
    finally:
        if enabled:
            gc.enable()
    gc.collect()
    assert ref() is None


# -- the induced endomorphism by semilinearity ------------------------------------


def _elementwise_matrix(t, alpha, beta, basis):
    """The induced matrix built one basis element at a time: each
    representative twisted, composed and reduced on its own."""
    n, dims = basis.total_dim(), basis.dims
    out = linalg.zeros(n, n)
    shift = (alpha.parity + beta.parity) % 2
    offsets = (0, dims[0])
    for parity in (0, 1):
        target = (parity + shift) % 2
        for k in range(dims[parity]):
            image = twisted_endomorphism_image(t, alpha, beta, basis.representative(parity, k))
            for i, c in enumerate(basis.reduce(image)):
                out[offsets[target] + i][offsets[parity] + k] = c
    return out


def _stored(matrix):
    """Entries as stored: equal values of different cyclotomic order print
    differently, so they count as different here."""
    return [[(c.order, c.num, c.den) for c in row] for row in matrix]


def _times(p, phi):
    """p phi for a polynomial p: closed when phi is, and in general not
    homotopic to a scalar multiple of phi, so images leave the unit monomials."""
    return MFMorphism(phi.source, phi.target, phi.parity, [[p * e for e in row] for row in phi.matrix])


def _has_non_unit_monomial(basis):
    return any(any(m) for keys in basis.std for _, m in keys)


def test_induced_endomorphism_matches_elementwise_reduction_in_one_variable():
    # every pair (x^a, x^(d-a)), (x^b, x^(d-b)) of x^d, d <= 7, and every
    # t = zeta_d^j, with alpha perturbed by a seeded multiple of itself and a
    # seeded coboundary
    rng = random.Random(13)
    non_unit = 0
    for d in range(2, 8):
        mfs = {a: MatrixFactorization(x**d, [[x**a]], [[x ** (d - a)]]) for a in range(1, d)}
        bases = {(a, b): cohomology(hom_complex(mfs[a], mfs[b])) for a in mfs for b in mfs}
        non_unit += sum(_has_non_unit_monomial(basis) for basis in bases.values())
        for j in range(1, d):
            t = [RootOfUnity(d, j)]
            for a, A in mfs.items():
                psi = MFMorphism.from_blocks(
                    A, pullback(t, A), 1,
                    [[R1.monomial((rng.randint(0, 2),), rng.randint(-3, 3))]],
                    [[R1.monomial((rng.randint(0, 2),), rng.randint(-3, 3))]],
                )
                natural = natural_alpha(A, d, a, j)
                multiple = R1.monomial((rng.randint(1, 2),), rng.randint(-3, 3))
                alpha = natural + _times(multiple, natural) + psi.differential()
                assert alpha.is_closed()
                for b, B in mfs.items():
                    beta = natural_alpha(B, d, b, j).inverse()
                    basis = bases[(a, b)]
                    assert _stored(induced_endomorphism(t, alpha, beta, basis)) == \
                        _stored(_elementwise_matrix(t, alpha, beta, basis))
    assert non_unit > 0


def _koszul(ring, degrees, exps):
    v = [ring.var(i) for i in range(ring.nvars)]
    return koszul_mf([v[i] ** e for i, e in enumerate(exps)],
                     [v[i] ** (d - e) for i, (d, e) in enumerate(zip(degrees, exps))])


def _sign_structure(mf, signs, exps):
    """e_S -> prod_{i in S} signs_i^(exps_i) e_S: closed, as every x_i^(d_i) is fixed."""
    t = [RootOfUnity(2, 1) if s == -1 else RootOfUnity(1, 0) for s in signs]
    subsets = sorted(range(1 << len(exps)), key=lambda s: (bin(s).count("1") % 2, s))
    scales = [math.prod(signs[i] ** exps[i] for i in range(len(exps)) if s >> i & 1)
              for s in subsets]
    phi = MFMorphism.diagonal(mf, pullback(t, mf), scales)
    assert phi.is_closed()
    return t, phi


SIGN_TWISTED_KOSZUL_PAIRS = [
    ((6, 6), (2, 3), (3, 2), (-1, -1)),
    ((6, 6), (3, 3), (3, 3), (-1, -1)),
    ((6, 6), (1, 5), (4, 3), (-1, -1)),
    ((6, 6), (2, 2), (4, 1), (-1, 1)),
    ((2, 2, 4), (1, 1, 2), (1, 1, 2), (-1, 1, -1)),
]


@pytest.mark.parametrize("degrees, a_exps, b_exps, signs", SIGN_TWISTED_KOSZUL_PAIRS,
                         ids=["x6y6-23-32", "x6y6-33-33", "x6y6-15-43", "x6y6-22-41", "x2y2z4"])
def test_induced_endomorphism_matches_elementwise_reduction_on_koszul_pairs(
        degrees, a_exps, b_exps, signs):
    ring = R2 if len(degrees) == 2 else PolyRing(("x", "y", "z"))
    a, b = _koszul(ring, degrees, a_exps), _koszul(ring, degrees, b_exps)
    t, alpha = _sign_structure(a, signs, a_exps)
    beta = _sign_structure(b, signs, b_exps)[1].inverse()
    basis = cohomology(hom_complex(a, b))
    assert _stored(induced_endomorphism(t, alpha, beta, basis)) == \
        _stored(_elementwise_matrix(t, alpha, beta, basis))
    alpha = alpha + _times(ring.var(0) - 2 * ring.var(1), alpha)
    assert _stored(induced_endomorphism(t, alpha, beta, basis)) == \
        _stored(_elementwise_matrix(t, alpha, beta, basis))


def test_induced_endomorphism_matches_elementwise_reduction_on_odd_twists():
    # w = x^5 + y^2, A = (x^2, x^3) (x) (y, y), t = (zeta_5, 1): odd alpha
    # and beta (the Koszul sign), and one odd with one even (a parity shift)
    fx = koszul_mf([PolyRing(("x",)).var("x") ** 2], [PolyRing(("x",)).var("x") ** 3])
    fy = koszul_mf([PolyRing(("y",)).var("y")], [PolyRing(("y",)).var("y")])
    a = tensor_mf(fx, fy)
    t = [RootOfUnity(5, 1), RootOfUnity(1, 0)]
    twisted = pullback(t, a)
    u = MFMorphism.diagonal(fx, pullback(t[:1], fx), [Scalar.one(), Scalar.zeta(5, 2)])
    odd = tensor_morphisms(u, odd_rank11_generator(fy), source=a, target=twisted)
    even = tensor_morphisms(u, MFMorphism.identity(fy), source=a, target=twisted)
    basis = cohomology(hom_complex(a, a))
    assert _has_non_unit_monomial(basis)
    for alpha, beta in ((odd, odd.inverse()), (odd, even.inverse()), (even, odd.inverse()),
                        (odd + _times(a.ring.var(0), odd), even.inverse())):
        assert _stored(induced_endomorphism(t, alpha, beta, basis)) == \
            _stored(_elementwise_matrix(t, alpha, beta, basis))


def test_induced_endomorphism_twists_each_generator_once(monkeypatch):
    # one twisted image per generator component in use, not per basis element
    a = _koszul(R2, (6, 6), (3, 3))
    t, alpha = _sign_structure(a, (-1, -1), (3, 3))
    beta = alpha.inverse()
    basis = cohomology(hom_complex(a, a))
    components = {(parity, comp) for parity in (0, 1) for comp, _ in basis.std[parity]}
    assert len(components) < basis.total_dim()
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return twisted_endomorphism_image(*args)

    monkeypatch.setattr(mflef.homcoh, "twisted_endomorphism_image", counted)
    induced_endomorphism(t, alpha, beta, basis)
    assert len(calls) == len(components)
