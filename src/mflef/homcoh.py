"""Cohomology of the Z/2-graded Hom complex of two matrix factorizations.

Two engines compute supertraces of the twisted endomorphism
phi -> beta o t^*(phi) o alpha:

* the Groebner engine takes ker D as syzygies; one elimination per parity
  then gives the relations among them, a standard-monomial basis of H and a
  one-step reduction of cocycles to coordinates (see CohomologyBasis);
* the graded Euler engine works degree by degree: for each internal degree of
  a quasi-homogeneous Hom complex the trace on the cohomology subquotient of
  the finite three-term strand is plain scalar linear algebra.  The strands,
  their kernels and their images depend on the pair alone; they are reduced
  on a pair's first request and kept on the source factorization
  (pair_strands), so a later twist of the pair builds only its twist matrices.

The Groebner engine's CohomologyBasis is kept the same way, from the pair's
first request (lefschetz.pair_cohomology); MatrixFactorization states the
rules of the memo and what a kept entry holds.

They are independent; the corpus runner cross-checks them.  Both read D off
one rule, the image of each unit cochain e_ij (mfcore._d_column).  The
graded engine states its twist the same way: x^m e_ij maps to t^m x^m times
the image of e_ij, and one slicer (mfcore._slice) reads every scalar matrix
of a piece off them.  Both sum supertraces by mfcore._supertrace;
_graded_pair describes a graded pair once, and sets the engine's window and
the oracle's.  A twist is alpha: A -> t^*A and beta: t^*B -> B, both closed;
_check_twisting refuses any other, before anything is built or recorded, in
both engines, lhs_hlf, rhs_hlf (once, for both boundary-bulk classes),
boundary_bulk and divisibility_check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from . import linalg
from .groebner import GroebnerBasis, Vec, buchberger, normal_form, standard_monomials, syzygy_basis
from .milnor import NonIsolatedError
from .mfcore import (GradedHomPiece, MatrixFactorization, MFMorphism, _d_column, _slice,
                     _supertrace)
from .polyring import WeightSystem, monomial_mul, scale_substitute
from .scalars import Scalar, _coerce_symmetry, power_product


class HomComplex:
    """Hom(A, B) as two free modules (even, odd) with the odd differential.

    D^2(phi) = d_B^2 phi - phi d_A^2 = w phi - phi w = 0, as d^2 = w on A and B
    (MatrixFactorization's promise).  So D^2 is never multiplied out: one pass
    checks that D is _d_column's matrix, each rule entry in its slot and no other.
    """

    __slots__ = ("source", "target", "ring", "pairs", "pair_index", "d_matrices")

    def __init__(self, source: MatrixFactorization, target: MatrixFactorization):
        if source.ring != target.ring:
            raise ValueError("factorizations live over different rings")
        if not (source.potential == target.potential):
            raise ValueError("factorizations have different potentials")
        self.source, self.target = source, target
        self.ring = source.ring
        ps, pt = source.parities(), target.parities()
        self.pairs = tuple(tuple((a, b) for a in range(target.total_rank)
                                 for b in range(source.total_rank) if (pt[a] + ps[b]) % 2 == p)
                           for p in (0, 1))
        self.pair_index = tuple({p: i for i, p in enumerate(block)} for block in self.pairs)
        self.d_matrices = (self._build_d(0), self._build_d(1))
        da, db = source.full_matrix(), target.full_matrix()
        for parity, mat in enumerate(self.d_matrices):
            rule = [(self.pair_index[1 - parity][key], col, entry)
                    for col, (a, b) in enumerate(self.pairs[parity])
                    for key, entry in _d_column(da, db, a, b, parity)]
            if (any(not (mat[i][j] == entry) for i, j, entry in rule)
                    or len(rule) != sum(not e.is_zero() for row in mat for e in row)):
                raise AssertionError("Hom-complex differential does not square to zero")

    def _build_d(self, parity):
        """Matrix of D on the parity block, column by column (see _d_column)."""
        dst_index = self.pair_index[1 - parity]
        db, da = self.target.full_matrix(), self.source.full_matrix()
        mat = linalg.zeros(len(self.pairs[1 - parity]), len(self.pairs[parity]), self.ring.zero())
        for col, (a, b) in enumerate(self.pairs[parity]):
            for key, entry in _d_column(da, db, a, b, parity):
                mat[dst_index[key]][col] = entry
        return mat

    def unflatten(self, parity, column) -> MFMorphism:
        """The morphism with column's entries at the parity block's pairs, 0 elsewhere."""
        mat = linalg.zeros(self.target.total_rank, self.source.total_rank, self.source.ring.zero())
        for (a, b), entry in zip(self.pairs[parity], column):
            mat[a][b] = entry
        return MFMorphism(self.source, self.target, parity, mat, check_parity=False)


def hom_complex(source: MatrixFactorization, target: MatrixFactorization) -> HomComplex:
    return HomComplex(source, target)


class CohomologyBasis:
    """Even/odd bases of H(Hom(A,B)) with reduction of cocycles to coordinates.

    Per parity, K is a generating set of the syzygies of D, read off the
    S-pair reductions of its columns (see `syzygy_basis`): its s columns
    generate the cocycles in the rank-npairs cochain module.  One Buchberger
    run on the columns (K e_j, e_j) and (D c, 0) of R^npairs + R^s gives a
    basis G of M = {(K v + D c, v)}.  M meets the trailing block R^s in the
    relations {v : K v in im D}, so H = R^s / relations.  Position-over-term
    order ranks the leading block first; hence the elements of G whose lead
    lies on the trailing block are supported there and form the reduced
    basis of the relations.  A reduced basis is unique, so its standard
    monomials are the basis that a separate relation computation would give.
    A cocycle phi = K u reduces in one normal form: (phi, 0) = (K u, u) -
    (0, u), so its remainder r is (0, -v) with v the reduced coordinates of u.
    M is a submodule, so m (phi, 0) and m r have the same remainder for any
    monomial m (`multiple`): that is what makes induced_endomorphism's
    semilinear shortcut exact.  Only the relations act on m r.
    Once built, a basis needs of hom only its two factorizations and its
    cochain pairs; it keeps those, and no D matrix (see MatrixFactorization).
    It keeps the kernel columns that its standard monomials use, for
    `representative`, and G without its relations led by a unit e_j.
    """

    __slots__ = ("source", "target", "pairs", "std", "_kernels", "_gb", "_reps", "_lookup")

    def __init__(self, hom: HomComplex):
        self.source, self.target, self.pairs = hom.source, hom.target, hom.pairs
        ring = hom.ring
        unit = (0,) * ring.nvars
        std, kernels, gbs = [], [], []
        for parity in (0, 1):
            d_out, d_in = hom.d_matrices[parity], hom.d_matrices[1 - parity]
            npairs = len(hom.pairs[parity])
            kernel = [Vec.from_column(col) for col in syzygy_basis(d_out)] if d_out else [
                Vec(ring, npairs, {(j, unit): Scalar.one()}) for j in range(npairs)]
            s = len(kernel)
            if s == 0:
                std.append(())
                gbs.append(None)
                kernels.append({})
                continue
            columns = [Vec(ring, npairs + s, {**k.terms, (npairs + j, unit): Scalar.one()})
                       for j, k in enumerate(kernel)]
            if d_in and d_in[0]:
                columns += [
                    Vec.from_column([row[j] for row in d_in], npairs + s)
                    for j in range(len(d_in[0]))
                ]
            gb = buchberger(columns)
            led = [((comp, mono), gb.generators[i])  # (lead, generator), in generator order
                   for comp, entries in gb.leads.items() for mono, i in entries]
            relations = [((comp - npairs, mono), Vec(ring, s, {
                (c - npairs, m): v for (c, m), v in g.terms.items()}))
                for (comp, mono), g in led if comp >= npairs]
            monos = standard_monomials(GroebnerBasis(
                ring, s, [g for _, g in relations], [lead for lead, _ in relations]))
            if monos is None:
                raise NonIsolatedError(
                    "Hom-complex cohomology is infinite-dimensional; "
                    "the potential is not an isolated singularity"
                )
            std.append(tuple(monos))
            # G is reduced, so a relation led by a unit e_j is the one element
            # with a term on e_j, and no reduction of a cocycle meets it
            kept = [(lead, g) for lead, g in led if lead[0] < npairs or any(lead[1])]
            gbs.append(GroebnerBasis(ring, gb.rank, [g for _, g in kept], [lead for lead, _ in kept]))
            kernels.append({comp: kernel[comp] for comp, _ in monos})  # the columns std uses
        self.std = tuple(std)
        self._kernels = tuple(kernels)
        self._gb = tuple(gbs)
        self._reps = tuple([None] * len(keys) for keys in self.std)
        self._lookup = tuple({key: k for k, key in enumerate(keys)} for keys in self.std)

    @property
    def dims(self):
        return (len(self.std[0]), len(self.std[1]))

    def parities(self):
        return [0] * len(self.std[0]) + [1] * len(self.std[1])

    def total_dim(self):
        return len(self.std[0]) + len(self.std[1])

    def representative(self, parity, index) -> MFMorphism:
        """The cocycle of a basis element; built once, then shared."""
        rep = self._reps[parity][index]
        if rep is None:
            comp, mono = self.std[parity][index]
            k = self._kernels[parity][comp]
            if any(mono):
                k = Vec(k.ring, k.rank, {(c, monomial_mul(m, mono)): v for (c, m), v in k.terms.items()})
            rep = self._reps[parity][index] = self.unflatten(parity, k.to_column())
        return rep

    unflatten = HomComplex.unflatten  # it reads source, target and pairs alone

    def reduce(self, phi: MFMorphism):
        """Coordinates of a closed morphism's class in the chosen basis."""
        return self.coordinates(phi.parity, self.remainder(phi))

    def remainder(self, phi: MFMorphism):
        """Normal form of (phi, 0) modulo M, or None if phi's parity has no cocycles."""
        column = [phi.matrix[a][b] for (a, b) in self.pairs[phi.parity]]
        gb = self._gb[phi.parity]
        if gb is None:
            if any(not e.is_zero() for e in column):
                raise ValueError("morphism is not a cocycle")
            return None
        return normal_form(Vec.from_column(column, gb.rank), gb)

    def multiple(self, parity, rem, mono, factor):
        """The remainder of factor * mono * (phi, 0), given that of (phi, 0)."""
        gb = self._gb[parity]
        terms = {(comp, monomial_mul(m, mono)): c * factor for (comp, m), c in rem.terms.items()}
        return normal_form(Vec(gb.ring, gb.rank, terms), gb)

    def coordinates(self, parity, rem):
        """Coordinates of the class whose remainder (see `remainder`) is rem."""
        coords = [Scalar.zero()] * len(self.std[parity])
        if rem is None:
            return coords
        npairs = len(self.pairs[parity])
        lookup = self._lookup[parity]
        for (comp, m), c in rem.terms.items():
            if comp < npairs:
                raise ValueError("morphism is not a cocycle")
            k = lookup.get((comp - npairs, m))
            if k is None:
                raise AssertionError("normal form left a non-standard monomial")
            coords[k] = -c
        return coords


def cohomology(hom: HomComplex) -> CohomologyBasis:
    return CohomologyBasis(hom)


def twisted_endomorphism_image(t, alpha: MFMorphism, beta: MFMorphism, phi: MFMorphism) -> MFMorphism:
    """(-1)^(|phi||beta|) beta o t^*(phi) o alpha as a morphism A -> B.

    The sign is the Koszul rule for moving phi into the middle slot of the
    fixed pair (beta, alpha); it only matters when the twisting morphisms are
    odd, where dropping it would make every supertrace vanish identically.
    """
    twisted = MFMorphism(
        alpha.target,
        beta.source,
        phi.parity,
        [[scale_substitute(e, t) for e in row] for row in phi.matrix],
        check_parity=False,
    )
    result = beta.compose(twisted).compose(alpha)
    if phi.parity and beta.parity:
        result = result.scale(Scalar.from_rational(-1))
    return result


def _check_twisting(t, a, alpha, b=None, beta=None):
    """t as a tuple of roots, once the twisting contract holds (alpha's half if b is None)."""
    t = _coerce_symmetry(t)
    if len(t) != a.ring.nvars:
        raise ValueError("one symmetry entry per variable required")
    if alpha.source is not a and alpha.source.full_matrix() != a.full_matrix():
        raise ValueError("alpha must start at the source factorization")
    if not alpha._twisted_by(t, True):
        raise ValueError("alpha must end at the pullback of the source factorization by t")
    if not alpha.is_closed():
        raise ValueError("alpha must be closed")
    if b is None:
        return t
    if beta.target is not b and beta.target.full_matrix() != b.full_matrix():
        raise ValueError("beta must end at the target factorization")
    if not beta._twisted_by(t, False):
        raise ValueError("beta must start at the pullback of the target factorization by t")
    if not beta.is_closed():
        raise ValueError("beta must be closed")
    return t


def induced_endomorphism(t, alpha: MFMorphism, beta: MFMorphism, basis: CohomologyBasis):
    """Matrix of phi -> beta o t^*(phi) o alpha on the cohomology basis.

    Rows and columns run over the even basis then the odd basis.  alpha and
    beta must be closed; the result is representative-independent.

    The map is t-semilinear over R = k[x]: t^*(m phi) = m(t x) t^*(phi), and
    composition is R-bilinear.  So the basis element m K_c maps to t^m m Y_c,
    with Y_c the image of the generator K_c and t^m = prod t_i^(m_i).  Each
    Y_c is composed and reduced once, to the remainder r_c of (Y_c, 0); the
    element's coordinates are those of t^m m r_c (see CohomologyBasis).
    """
    t = _check_twisting(t, basis.source, alpha, basis.target, beta)
    n = basis.total_dim()
    dims = basis.dims
    out = linalg.zeros(n, n)
    shift = (alpha.parity + beta.parity) % 2
    offsets = (0, dims[0])
    unit = (0,) * basis.source.ring.nvars
    for parity in (0, 1):
        target = (parity + shift) % 2
        images = {}  # component c -> remainder r_c of its generator's image
        for k, (comp, mono) in enumerate(basis.std[parity]):
            if comp not in images:
                generator = basis.representative(parity, basis._lookup[parity][(comp, unit)])
                images[comp] = basis.remainder(twisted_endomorphism_image(t, alpha, beta, generator))
            rem = images[comp]
            if rem is not None and mono != unit:
                rem = basis.multiple(target, rem, mono, power_product(t, mono))
            for i, c in enumerate(basis.coordinates(target, rem)):
                out[offsets[target] + i][offsets[parity] + k] = c
    return out


def supertrace_on_cohomology(matrix, parities) -> Scalar:
    return _supertrace((matrix[i][i] for i in range(len(parities))), parities, Scalar.zero())


# -- graded Euler engine -------------------------------------------------------


def _grading_degree(matrix, weights, grading, error):
    """Common degree of the nonzero entries (i, j), each counted as its weighted
    degree + grading[i] - grading[j]; raises ValueError(error) if two differ,
    and returns None for a zero matrix."""
    degree = None
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if entry.is_zero():
                continue
            d = entry.weighted_degree(weights) + grading[i] - grading[j]
            if degree is None:
                degree = d
            elif degree != d:
                raise ValueError(error)
    return degree


def _graded_pair(a, b):
    """The weights of the potential, the odd operator's degree shift shared by
    A and B (None if both are zero), the socle degree sum(1 - 2 q_i) and the
    range of their gradings.

    H(Hom(A, B)) sits at degrees up to socle / 2 + spread, the graded engine's
    window: a cochain (a, b, m) has degree wdeg(m) + g_B(a) - g_A(b) >= -spread,
    and graded Serre duality pairs H(Hom(A, B))_d with H(Hom(B, A))_d' only for
    d + d' = socle / 2, where d' >= -spread too.  Above it every strand is
    acyclic.  The oracle graded_cohomology_dimensions runs to the wider
    socle + spread + 1, which checks this bound.
    """
    if not (a.potential == b.potential):
        raise ValueError("factorizations have different potentials")
    ws = WeightSystem.of(a.potential)
    if ws is None:
        raise ValueError("potential is not quasi-homogeneous")
    shifts = set()
    for mf in (a, b):
        grading = mf.grading_list()
        if grading is None:
            raise ValueError("factorization carries no internal grading")
        shifts.add(_grading_degree(mf.full_matrix(), ws.weights, grading,
                                   "operator is not homogeneous for the declared grading"))
    shifts.discard(None)  # a zero operator, as of a rank-0 factorization, has every shift
    if len(shifts) > 1:
        raise ValueError("source and target gradings use different operator shifts")
    gradings = a.grading_list() + b.grading_list()
    spread = (max(gradings) - min(gradings)) if gradings else Fraction(0)
    return ws.weights, next(iter(shifts), None), ws.socle_degree, spread


def _window_degrees(a, b, weights, bound):
    """The lattice min(offsets) + k/D up to bound, D the lcm of the denominators
    of the weights and of the offsets g_B - g_A: it holds every cochain degree,
    and _strands skips a degree whose piece is empty."""
    offsets = [g - h for g in b.grading_list() for h in a.grading_list()]
    if not offsets:
        return []
    low = min(offsets)
    step = Fraction(1, math.lcm(*(q.denominator for q in (*weights, *offsets))))
    return [low + k * step for k in range((bound - low) // step + 1)]


def _strands(a, b, weights, s_deg, bound):
    """Each nonempty piece C^P_d with d <= bound, with the matrices of its strand.

    Yields (P, piece, m_out, m_in) for the three-term strand
    C^{1-P}_{d-s} -> C^P_d -> C^{1-P}_{d+s}, by increasing degree d.  Each
    piece is built once per call, and so is each matrix: the m_out of C^P_d
    is the m_in of C^{1-P}_{d+s}.
    """
    ga, gb = a.grading_list(), b.grading_list()
    pa, pb = a.parities(), b.parities()
    da, db = a.full_matrix(), b.full_matrix()
    columns = {(i, j): _d_column(da, db, i, j, (pb[i] + pa[j]) % 2)
               for i in range(b.total_rank) for j in range(a.total_rank)}
    pieces = {}
    outs = {}  # (P, d) -> m_out of C^P_d, until it serves as an m_in

    def piece(parity, degree):
        key = (parity, degree)
        if key not in pieces:
            pieces[key] = GradedHomPiece.of(weights, gb, ga, degree,
                                            lambda i, j: (pb[i] + pa[j]) % 2 == parity)
        return pieces[key]

    for d in _window_degrees(a, b, weights, bound):
        for parity in (0, 1):
            middle = piece(parity, d)
            if not middle.elements:
                continue
            m_out = outs[(parity, d)] = _slice(middle, piece(1 - parity, d + s_deg), columns)
            m_in = outs.pop((1 - parity, d - s_deg), None)
            if m_in is None:
                m_in = _slice(piece(1 - parity, d - s_deg), middle, columns)
            yield parity, middle, m_out, m_in


def graded_euler_supertrace(a, b, t, alpha, beta):
    """Supertrace of the twisted endomorphism via per-degree linear algebra.

    For each internal degree d the three-term strand C^{1-P}_{d-s} -> C^P_d ->
    C^{1-P}_{d+s} is a finite scalar complex preserved by the twisted
    endomorphism; the trace on its middle cohomology is computed directly and
    summed over the degrees d <= socle / 2 + spread, above which cohomology
    vanishes (see _graded_pair).
    The strands depend on (a, b) alone and are reduced once per pair (see
    pair_strands); a call builds only its twist matrices.
    """
    weights, shift, socle, spread = _graded_pair(a, b)
    t = _check_twisting(t, a, alpha, b, beta)
    twist_degree = sum(
        _grading_degree(phi.matrix, weights, g,
                        "morphism is not homogeneous for the declared gradings") or 0
        for phi, g in ((alpha, a.grading_list()), (beta, b.grading_list()))
    )
    if twist_degree != 0:
        # a homogeneous degree-shifting operator has no diagonal on graded
        # cohomology, so its supertrace vanishes identically
        return Scalar.zero()
    if (alpha.parity + beta.parity) % 2:
        raise ValueError("parity-reversing twists have no supertrace")
    pa, pb = a.parities(), b.parities()
    columns = {}  # e_ij -> (-1)^(|e_ij||beta|) beta e_ij alpha; t^*(x^m e_ij) = t^m x^m e_ij
    for i in range(b.total_rank):
        for j in range(a.total_rank):
            odd = beta.parity and (pb[i] + pa[j]) % 2
            columns[(i, j)] = [((k, l), -(row[i] * e) if odd else row[i] * e)
                               for k, row in enumerate(beta.matrix) if not row[i].is_zero()
                               for l, e in enumerate(alpha.matrix[j]) if not e.is_zero()]
    strands = pair_strands(a, b, weights, shift, socle / 2 + spread)
    scale = partial(power_product, t)
    traces = (_subquotient_trace(s, _slice(s.piece, s.piece, columns, scale)) for s in strands)
    return _supertrace(traces, (s.parity for s in strands), Scalar.zero())


def pair_strands(a, b, weights, shift, bound):
    """The reduced strands of (a, b) up to degree bound, kept in a._hom_memo
    from the pair's first request on, by the rules stated on
    MatrixFactorization."""
    entry = a._hom_memo.get(id(b))
    if entry is not None and entry[2] is not None:
        return entry[2]
    reduced = (GradedStrand(*strand) for strand in _strands(a, b, weights, shift, bound))
    strands = tuple(s for s in reduced if s.free)  # no kernel: no trace, no twist to check
    a._hom_memo[id(b)] = (b, None if entry is None else entry[1], strands)
    return strands


def graded_cohomology_dimensions(a, b):
    """Brute-force degree-truncated oracle for the cohomology dimensions, over
    degrees up to socle + spread + 1, wider than the graded engine's window."""
    weights, shift, socle, spread = _graded_pair(a, b)
    dims = [0, 0]
    for parity, piece, m_out, m_in in _strands(a, b, weights, shift, socle + spread + 1):
        dims[parity] += len(piece.elements) - linalg.rank(m_out) - linalg.rank(m_in)
    return tuple(dims)


class GradedStrand:
    """One strand C^{1-P}_{d-s} -> C^P_d -> C^{1-P}_{d+s}, reduced for traces.

    What a trace on ker(m_out)/im(m_in) needs of the strand alone, computed
    once: the nullspace basis of m_out as the columns of `kernel`, the free
    column of each basis vector in `free`, and the reduced echelon rows of
    the image in kernel coordinates (`image`) with their pivot columns
    (`pivots`).  The nullspace basis vector of a free column is 1 there and 0
    on the other free columns.  So a kernel vector u equals the sum of u[f]
    times the basis vector of f over the free columns f: the difference lies
    in the kernel and vanishes on every free column, and the reduced rows of
    m_out then force its pivot entries to 0 too.  Kernel coordinates are thus
    read off the free columns, with no solve.  Building a strand checks that
    the image lies in the kernel.  An acyclic strand, whose image has a
    pivot on every free column, keeps its pivots but no image rows: they
    would be the identity.
    """

    __slots__ = ("parity", "piece", "kernel", "free", "image", "pivots")

    def __init__(self, parity, piece, m_out, m_in):
        self.parity, self.piece = parity, piece
        basis = linalg.nullspace(m_out) if m_out else linalg.identity(len(m_in))
        self.free = [max(i for i, c in enumerate(v) if not c.is_zero()) for v in basis]
        self.kernel = [list(col) for col in zip(*basis)]  # column j = v_j
        self.image, self.pivots = [], []
        if not (basis and m_in and m_in[0]):
            return
        if any(not e.is_zero() for row in linalg.mat_mul(m_out, m_in) for e in row):
            raise AssertionError("image does not lie in the kernel")
        self.image, self.pivots = linalg.echelon_form(
            [[m_in[f][j] for f in self.free] for j in range(len(m_in[0]))])
        if len(self.pivots) == len(self.free):  # ker = im
            self.image = []


def _subquotient_trace(strand: GradedStrand, t_mat):
    """Trace of t_mat on the strand's ker(m_out)/im(m_in); t_mat must preserve both.

    With K the kernel basis as columns, T v_j lies in the kernel exactly when
    it is the sum of (T v_j)[f] v_f over the free columns f, that is, when
    T K = K Z for Z the rows of T K at the free columns: Z is then the twist
    in kernel coordinates.  The image is spanned by the reduced rows S_i with
    pivot columns Q_i; an image vector x equals the sum of x[Q_i] S_i, so the
    trace on the image is the sum of (Z S_i)[Q_i].  Both preservation checks
    depend on the twist, so they run on every call.  On an acyclic strand, a
    twist that preserves ker = im preserves the image too, and the trace is 0.
    """
    free = strand.free
    tk = linalg.mat_mul(t_mat, strand.kernel, cols=len(free))  # column j = T v_j
    z = [tk[f] for f in free]
    if linalg.mat_mul(strand.kernel, z, cols=len(free)) != tk:
        raise AssertionError("twist does not preserve the kernel")
    if len(strand.pivots) == len(free):
        return Scalar.zero()
    trace = sum((z[i][i] for i in range(len(free))), Scalar.zero())
    s_rows = strand.image
    if not s_rows:
        return trace
    zs = linalg.mat_mul(s_rows, [list(col) for col in zip(*z)])  # row i = Z S_i
    coords = [[v[q] for q in strand.pivots] for v in zs]
    if linalg.mat_mul(coords, s_rows) != zs:
        raise AssertionError("twist does not preserve the image")
    return trace - sum((coords[i][i] for i in range(len(coords))), Scalar.zero())
