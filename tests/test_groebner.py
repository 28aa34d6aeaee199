import random
import sys
from itertools import combinations_with_replacement

from mflef.scalars import Scalar
from mflef.polyring import PolyRing, degrevlex_key
from mflef.groebner import (
    GradedModulePresentation,
    GroebnerBasis,
    Vec,
    buchberger,
    free_resolution,
    normal_form,
    standard_monomials,
    syzygy_basis,
)

import pytest

from mflef.homcoh import cohomology, hom_complex
from mflef.mfcore import koszul_mf

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))


def test_buchberger_examples():
    x = R1.var("x")
    gb = buchberger([2 * x])
    assert [str(g.to_poly()) for g in gb.generators] == ["x"]

    x2, y2 = R2.var("x"), R2.var("y")
    gb = buchberger([x2**2, x2 * y2])
    # hand Buchberger: the single S-polynomial reduces to zero
    assert {str(g.to_poly()) for g in gb.generators} == {"x^2", "x*y"}

    gb = buchberger([3 * x2**2, 3 * y2**2])
    assert {str(g.to_poly()) for g in gb.generators} == {"x^2", "y^2"}


def test_buchberger_nontrivial_spair():
    x, y = R2.var("x"), R2.var("y")
    gb = buchberger([x**2 - y, x * y - x])
    # x^2 - y, xy - x force y^2 - y (classic completion)
    polys = {str(g.to_poly()) for g in gb.generators}
    assert "x^2 - y" in polys
    assert any("y^2" in p for p in polys)
    assert normal_form(y**2 - y, gb).is_zero()


def test_groebner_basis_requires_monic_generators():
    x = R1.var("x")
    with pytest.raises(ValueError, match="monic"):
        GroebnerBasis(R1, 1, [Vec.from_poly(2 * x)])
    zeta_lead = Vec.from_poly(x * Scalar.zeta(3))
    with pytest.raises(ValueError, match="monic"):
        GroebnerBasis(R1, 1, [zeta_lead])
    assert len(GroebnerBasis(R1, 1, [Vec.from_poly(x + 3)])) == 1


def test_normal_form_examples():
    x = R1.var("x")
    gb = buchberger([x**2])
    assert normal_form(x**2, gb).is_zero()
    assert normal_form(x + 1, gb) == x + 1
    assert normal_form(x**3 + x, gb) == x


def test_normal_form_linear_idempotent():
    rng = random.Random(23)
    x, y = R2.var("x"), R2.var("y")
    gb = buchberger([x**3 - y, y**2])
    for _ in range(10):
        f = R2.zero()
        g = R2.zero()
        for _ in range(5):
            f = f + R2.monomial((rng.randint(0, 4), rng.randint(0, 3)), rng.randint(-3, 3))
            g = g + R2.monomial((rng.randint(0, 4), rng.randint(0, 3)), rng.randint(-3, 3))
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)
        assert normal_form(normal_form(f, gb), gb) == normal_form(f, gb)


def test_standard_monomials_examples():
    x = R1.var("x")
    gb = buchberger([x**2])
    assert standard_monomials(gb) == [(0, (0,)), (0, (1,))]

    x2, y2 = R2.var("x"), R2.var("y")
    gb = buchberger([x2**2, y2**2])
    # mu(x^3 + y^3) = 4 cross-check
    assert len(standard_monomials(gb)) == 4

    gb = buchberger([x2])
    assert standard_monomials(gb) is None  # all powers of y are standard


def _brute_force_graded_dimension(gens, max_degree):
    """Independent oracle: dim of R/I degree-by-degree by linear algebra."""
    from mflef import linalg

    ring = gens[0].ring
    n = ring.nvars
    total = 0
    for d in range(max_degree + 1):
        monos = sorted(
            (m for m in combinations_with_replacement(range(n), d) for m in [_exps(n, m)]),
            key=degrevlex_key,
        )
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for g in gens:
            gdeg = g.total_degree()
            if gdeg > d:
                continue
            for m in combinations_with_replacement(range(n), d - gdeg):
                shift = _exps(n, m)
                prod = g * ring.monomial(shift)
                row = [Scalar.zero()] * len(monos)
                for mono, c in prod.terms.items():
                    row[index[mono]] = c
                rows.append(row)
        span = linalg.rank(rows) if rows else 0
        total += len(monos) - span
    return total


def _exps(n, var_multiset):
    out = [0] * n
    for v in var_multiset:
        out[v] += 1
    return tuple(out)


def _in_walk_order(std):
    return std == sorted(std, key=lambda entry: (entry[0], degrevlex_key(entry[1])))


def test_standard_monomials_match_brute_force():
    x, y = R2.var("x"), R2.var("y")
    x3, y3, z3 = (R3.var(v) for v in "xyz")
    for gens in ([x**2, y**2], [x**2 + y**2, x * y], [x**3, y**3, x**2 * y],
                 [x3**2 + y3 * z3, y3**2 + x3 * z3, z3**2 + x3 * y3],
                 [x3**2, y3**2, z3**3, x3 * y3 * z3]):
        gb = buchberger(gens)
        std = standard_monomials(gb)
        assert std is not None and _in_walk_order(std)
        max_deg = max(sum(m) for _, m in std)
        # beyond the max standard degree every monomial lies in the ideal
        assert len(std) == _brute_force_graded_dimension(gens, max_deg + 2)
    # rank 2: the unit lead leaves component 0 nothing; component 1 is R/(x^2 + y^2, xy)
    gb = buchberger([Vec.from_column([R2.one(), x]), Vec.from_column([R2.zero(), x**2 + y**2]),
                     Vec.from_column([R2.zero(), x * y])])
    std = standard_monomials(gb)
    assert std == [(1, (0, 0)), (1, (0, 1)), (1, (1, 0)), (1, (0, 2))]
    assert _in_walk_order(std)


def test_syzygy_examples():
    x, y = R2.var("x"), R2.var("y")
    syz = syzygy_basis([[x, y]])
    assert len(syz) == 1
    col = syz[0]
    # Koszul syzygy, verified by substitution
    assert (x * col[0] + y * col[1]).is_zero()
    assert not col[0].is_zero() and not col[1].is_zero()

    ident = [[R2.one(), R2.zero()], [R2.zero(), R2.one()]]
    assert syzygy_basis(ident) == []

    zero_row = [[R2.zero(), R2.zero()]]
    syz = syzygy_basis(zero_row)
    assert len(syz) == 2


def test_syzygy_multiplies_to_zero_random():
    rng = random.Random(31)
    x, y = R2.var("x"), R2.var("y")
    pool = [x, y, x * y, x**2 - y, y**2, x + 1]
    for _ in range(5):
        mat = [[pool[rng.randrange(len(pool))] for _ in range(3)] for _ in range(2)]
        for col in syzygy_basis(mat):
            for i in range(2):
                acc = R2.zero()
                for j in range(3):
                    acc = acc + mat[i][j] * col[j]
                assert acc.is_zero()


def _reduced_syzygies(mat):
    """The reduced Groebner basis of the syzygies of mat's columns, by the full
    elimination: buchberger on the columns (mat e_j, e_j) also reduces the
    S-pairs among syzygies, and its elements led in the trailing block are
    that basis, shifted to components 0..ncols-1."""
    nrows, ncols = len(mat), len(mat[0])
    ring = mat[0][0].ring
    augmented = [
        Vec.from_column([row[j] for row in mat] + [ring.const(int(k == j)) for k in range(ncols)])
        for j in range(ncols)
    ]
    return [
        Vec(ring, ncols, {(comp - nrows, m): c for (comp, m), c in g.terms.items()})
        for g in buchberger(augmented).generators
        if g.lead()[0] >= nrows
    ]


def assert_syzygy_generators(mat):
    """syzygy_basis(mat) = K has mat . K = 0, and its columns generate every
    syzygy: their reduced Groebner basis is that of the full elimination."""
    ring = mat[0][0].ring
    kernel = syzygy_basis(mat)
    for col in kernel:
        for row in mat:
            assert sum((e * k for e, k in zip(row, col)), ring.zero()).is_zero()
    generated = buchberger([Vec.from_column(col) for col in kernel], rank=len(mat[0]))
    assert generated.generators == _reduced_syzygies(mat)


def test_syzygies_generate_the_kernel_of_random_matrices():
    rng = random.Random(47)
    x, y = R2.var("x"), R2.var("y")
    pool = [R2.zero(), x, y, x * y, x**2 - y, y**2, x + 1, 2 * x - 3 * y**2]
    for shape in [(1, 3), (2, 3), (2, 4), (3, 3)] * 3:
        assert_syzygy_generators(
            [[rng.choice(pool) for _ in range(shape[1])] for _ in range(shape[0])]
        )


def _koszul(ring, degrees, exps):
    v = [ring.var(i) for i in range(ring.nvars)]
    return koszul_mf([v[i] ** e for i, e in enumerate(exps)],
                     [v[i] ** (d - e) for i, (d, e) in enumerate(zip(degrees, exps))])


# Koszul factorizations of sum x_i^(d_i) with factors x_i^(a_i), x_i^(d_i - a_i).
# Pruning the syzygy generators like a Groebner basis by their leads loses a
# generator on the first three pairs and on the last.
@pytest.mark.parametrize("degrees, a, b", [
    ((2, 5), (1, 2), (1, 1)),
    ((3, 5), (1, 2), (2, 1)),
    ((3, 6), (2, 2), (1, 1)),
    ((2, 2), (1, 1), (1, 1)),
    ((2, 2, 3), (1, 1, 1), (1, 1, 2)),
    ((3, 2, 2), (2, 1, 1), (1, 1, 1)),
])
def test_syzygies_generate_the_cocycles_of_koszul_hom_complexes(degrees, a, b):
    ring = PolyRing(("x", "y", "z")[: len(degrees)])
    hom = hom_complex(_koszul(ring, degrees, a), _koszul(ring, degrees, b))
    for d in hom.d_matrices:
        assert_syzygy_generators(d)


def test_free_resolution_koszul():
    x = R1.var("x")
    pres = GradedModulePresentation.cyclic(R1, [x])
    res = free_resolution(pres)
    assert res.length == 1
    assert [len(d) for d in res.degrees] == [1, 1]
    assert res.matrices[0][0][0] == x

    x2, y2 = R2.var("x"), R2.var("y")
    pres = GradedModulePresentation.cyclic(R2, [x2, y2])
    res = free_resolution(pres)
    assert [len(d) for d in res.degrees] == [1, 2, 1]
    assert res.degrees[0] == (0,) and res.degrees[1] == (1, 1) and res.degrees[2] == (2,)
    # composite vanishes
    for i in range(1):
        d1, d2 = res.matrices[0], res.matrices[1]
        for a in range(len(d1)):
            for c in range(len(d2[0])):
                acc = R2.zero()
                for b in range(len(d2)):
                    acc = acc + d1[a][b] * d2[b][c]
                assert acc.is_zero()


def test_free_resolution_free_module():
    pres = GradedModulePresentation(R2, [0, 3], [])
    res = free_resolution(pres)
    assert res.length == 0


def test_free_resolution_minimizes_redundant_presentations():
    x, y = R2.var("x"), R2.var("y")
    # second relation is a multiple of the first: minimal Betti numbers anyway
    pres = GradedModulePresentation(R2, [0], [[x, x * y]])
    res = free_resolution(pres)
    assert [len(d) for d in res.degrees] == [1, 1]

    # unit entry in the presentation: generator gets cancelled
    one = R2.one()
    pres = GradedModulePresentation(R2, [0, 0], [[one, x], [-one, y]])
    res = free_resolution(pres)
    assert len(res.degrees[0]) == 1


def test_free_resolution_no_unit_entries():
    x, y = R2.var("x"), R2.var("y")
    pres = GradedModulePresentation(R2, [0], [[x**2, x * y, y**3]])
    res = free_resolution(pres)
    for mat in res.matrices:
        for row in mat:
            for entry in row:
                assert entry.is_zero() or not entry.is_constant()
    assert res.length <= 2


def test_module_groebner_basis_position_over_term():
    x, y = R2.var("x"), R2.var("y")
    v1 = Vec.from_column([x, y])
    v2 = Vec.from_column([y, x])
    gb = buchberger([v1, v2])
    assert all(not g.is_zero() for g in gb.generators)
    # membership: x*v1 + 0*v2 stays inside
    combo = Vec.from_column([x * x, x * y])
    assert normal_form(combo, gb).is_zero()


def test_free_resolution_koszul_three_variables():
    R3 = PolyRing(("x", "y", "z"))
    gens = [R3.var(v) for v in ("x", "y", "z")]
    pres = GradedModulePresentation(R3, [0], [gens])
    res = free_resolution(pres)
    assert [len(d) for d in res.degrees] == [1, 3, 3, 1]
    assert res.degrees[3] == (3,)
    # all consecutive composites vanish
    for k in range(res.length - 1):
        d1, d2 = res.matrices[k], res.matrices[k + 1]
        for i in range(len(d1)):
            for j in range(len(d2[0])):
                acc = R3.zero()
                for b in range(len(d2)):
                    acc = acc + d1[i][b] * d2[b][j]
                assert acc.is_zero()
    # minimality: no unit entries anywhere
    for mat in res.matrices:
        for row in mat:
            for entry in row:
                assert entry.is_zero() or not entry.is_constant()


def test_lead_index_lists_each_generator_once(monkeypatch):
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = (R3.var(v) for v in ("x", "y", "z"))
    for gb in (
        buchberger([x**2 - y * z, y**2 - x * z, z**2 - x * y]),
        buchberger([Vec.from_column([x, y]), Vec.from_column([y, z]), Vec.from_column([z, x])]),
    ):
        indexed = [(comp, mono, i) for comp, entries in gb.leads.items() for mono, i in entries]
        assert sorted(i for _, _, i in indexed) == list(range(len(gb)))
        for comp, mono, i in indexed:
            assert gb.generators[i].lead() == (comp, mono)
        for entries in gb.leads.values():
            assert [i for _, i in entries] == sorted(i for _, i in entries)

        calls = []
        lead = Vec.lead

        def counted_lead(vec):
            calls.append(vec)
            return lead(vec)

        monkeypatch.setattr(Vec, "lead", counted_lead)
        element = [x**3 + y * z, z**3] if gb.rank == 2 else [x**3 * y]
        normal_form(Vec.from_column(element), gb)
        monkeypatch.setattr(Vec, "lead", lead)
        assert calls == []


def _count_s_vector_reductions(monkeypatch):
    """Counts of the S-vectors `buchberger` reduces, of those that reduce to
    zero, and the coefficient types they were reduced over.  Both kernels
    reduce through `_full_reduce`; the S-vector loop reduces by the growing
    basis `gb`, the final inter-reduction tails by the kept generators."""
    from mflef import groebner

    full_reduce = groebner._full_reduce
    counts = {"reductions": 0, "zero": 0, "types": set()}

    def counted(vec, gens, leads):
        result = full_reduce(vec, gens, leads)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "buchberger" and leads is caller.f_locals["gb"].leads:
            counts["reductions"] += 1
            counts["zero"] += result[0].is_zero()
            counts["types"].update(type(c) for c in vec.terms.values())
        return result

    monkeypatch.setattr(groebner, "_full_reduce", counted)
    return counts


def _koszul_hom_cohomology():
    """H(Hom(A, B)) of two Koszul factorizations of x^2 + y^2 + z^3."""
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = (R3.var(v) for v in ("x", "y", "z"))
    a = koszul_mf([x, y, z], [x, y, z**2])
    b = koszul_mf([x, y, z**2], [x, y, z])
    return cohomology(hom_complex(a, b))


def test_pair_criteria_cut_the_reductions_of_a_hom_complex(monkeypatch):
    # without pair criteria buchberger reduced 392 S-vectors here, 240 of
    # them to zero; the Gebauer-Moeller update leaves 222 and 72.  The
    # complex is rational, so they are reduced on ints
    counts = _count_s_vector_reductions(monkeypatch)
    assert _koszul_hom_cohomology().dims == (4, 4)
    assert 0 < counts["reductions"] <= 222
    assert counts["zero"] <= 72
    assert counts["types"] == {int}


def test_schreyer_syzygies_cut_the_reductions_of_a_hom_complex(monkeypatch):
    # The Hom complex above: with S-pairs formed among syzygies too, the
    # kernel steps left 222 reductions, 72 to zero; read off the S-pair
    # reductions of the columns alone they leave 188 and 50
    counts = _count_s_vector_reductions(monkeypatch)
    assert _koszul_hom_cohomology().dims == (4, 4)
    assert 0 < counts["reductions"] <= 188
    assert counts["zero"] <= 50
    assert counts["types"] == {int}


def _without_columns(pres, dropped):
    keep = [j for j in range(pres.num_relations) if j not in dropped]
    rows = [[row[j] for j in keep] for row in pres.relations]
    return GradedModulePresentation(pres.ring, pres.gen_degrees, rows)


def test_free_resolution_ignores_zero_relation_columns():
    R3 = PolyRing(("x", "y", "z"))
    x, y = R2.var("x"), R2.var("y")
    u, v, w = (R3.var(n) for n in ("x", "y", "z"))
    o2, o3 = R2.zero(), R3.zero()
    cases = [
        (GradedModulePresentation(R2, [0], [[o2, o2]]), {0, 1}),
        (GradedModulePresentation(R2, [0], [[x, o2, R2.one(), y]]), {1}),
        (GradedModulePresentation(R2, [0], [[x**2, o2, x * y, y**3]]), {1}),
        (GradedModulePresentation(R3, [0], [[o3, u, v, o3, w]]), {0, 3}),
        (GradedModulePresentation(R2, [0, 1], [[x, o2, y**2], [R2.one(), o2, y]]), {1}),
        (GradedModulePresentation(R2, [0, 0], [[R2.one(), o2, x], [o2, o2, y]]), {1}),
    ]
    for pres, zero_columns in cases:
        with_zeros = free_resolution(pres)
        without = free_resolution(_without_columns(pres, zero_columns))
        assert with_zeros.degrees == without.degrees
        assert [[[str(e) for e in row] for row in mat] for mat in with_zeros.matrices] == [
            [[str(e) for e in row] for row in mat] for mat in without.matrices
        ]


# three-variable potentials whose Jacobian bases are compared with sympy's
SYMPY_POTENTIALS = [
    "x^3 + y^3 + z^3",
    "x^2*y + y^4 + z^2",
    "x^2*y + y^3 + z^2",
    "x^3 + x*y^3 + z^2",
    "x^2 + y^3 + z^5",
    "x^3*y + y^3*z + z^3*x",
    "x^6 + y^6 + z^6 - 3*x^2*y^2*z^2",
    "x^3 + y^3 + z^3 + 2*x*y*z",
    "x^4 + y^4 + z^4 - x^2*y*z",
]


@pytest.mark.parametrize("potential", SYMPY_POTENTIALS)
def test_jacobian_basis_matches_sympy(potential):
    sympy = pytest.importorskip("sympy")
    from mflef.document import parse_polynomial
    from mflef.polyring import partial_derivative

    R3 = PolyRing(("x", "y", "z"))
    w = parse_polynomial(potential, R3)
    jac = [partial_derivative(w, i) for i in range(3)]
    ours = {str(g.to_poly()).replace("^", "**") for g in buchberger(jac).generators}
    x, y, z = sympy.symbols("x y z")
    jac_sympy = [sympy.sympify(str(f).replace("^", "**")) for f in jac]
    theirs = sympy.groebner(jac_sympy, x, y, z, order="grevlex", domain="QQ")
    assert {sympy.expand(sympy.sympify(g)) for g in ours} == {
        sympy.expand(g) for g in theirs.exprs
    }
