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

They are independent; the corpus runner cross-checks them.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .groebner import GroebnerBasis, Vec, buchberger, normal_form, standard_monomials, syzygy_basis
from .milnor import NonIsolatedError
from .mfcore import MatrixFactorization, MFMorphism
from .polyring import Polynomial, WeightSystem, monomials_of_weighted_degree, scale_substitute
from .scalars import Scalar, as_scalar


class HomComplex:
    """Hom(A, B) as two free modules (even, odd) with the odd differential."""

    __slots__ = ("source", "target", "ring", "pairs", "pair_index", "d_matrices")

    def __init__(self, source: MatrixFactorization, target: MatrixFactorization):
        if source.ring != target.ring:
            raise ValueError("factorizations live over different rings")
        if not (source.potential == target.potential):
            raise ValueError("factorizations have different potentials")
        self.source, self.target = source, target
        self.ring = source.ring
        ps, pt = source.parities(), target.parities()
        pairs = ([], [])
        for a in range(target.total_rank):
            for b in range(source.total_rank):
                pairs[(pt[a] + ps[b]) % 2].append((a, b))
        self.pairs = (tuple(pairs[0]), tuple(pairs[1]))
        self.pair_index = (
            {p: i for i, p in enumerate(pairs[0])},
            {p: i for i, p in enumerate(pairs[1])},
        )
        self.d_matrices = (self._build_d(0), self._build_d(1))
        for parity in (0, 1):
            square = linalg.mat_mul(self.d_matrices[1 - parity], self.d_matrices[parity],
                                    self.ring.zero(), cols=len(self.pairs[parity]))
            if any(not e.is_zero() for row in square for e in row):
                raise AssertionError("Hom-complex differential does not square to zero")

    def _build_d(self, parity):
        """Matrix of D = d_B phi - (-1)^parity phi d_A on the parity block."""
        ring = self.ring
        src_pairs = self.pairs[parity]
        dst_pairs = self.pairs[1 - parity]
        dst_index = self.pair_index[1 - parity]
        db = self.target.full_matrix()
        da = self.source.full_matrix()
        sign = Scalar.from_rational(1 if parity == 0 else -1)
        mat = linalg.zeros(len(dst_pairs), len(src_pairs), ring.zero())
        for col, (a, b) in enumerate(src_pairs):
            for i in range(self.target.total_rank):
                entry = db[i][a]
                if not entry.is_zero():
                    row = dst_index[(i, b)]
                    mat[row][col] = mat[row][col] + entry
            for j in range(self.source.total_rank):
                entry = da[b][j]
                if not entry.is_zero():
                    row = dst_index[(a, j)]
                    mat[row][col] = mat[row][col] - entry * sign
        return mat

    def flatten(self, phi: MFMorphism):
        """Column of phi's entries in the flattened basis of its parity."""
        parity = phi.parity
        return [phi.matrix[a][b] for (a, b) in self.pairs[parity]]

    def unflatten(self, parity, column) -> MFMorphism:
        mat = linalg.zeros(self.target.total_rank, self.source.total_rank, self.ring.zero())
        for (a, b), entry in zip(self.pairs[parity], column):
            mat[a][b] = entry
        return MFMorphism(self.source, self.target, parity, mat, check_parity=False)


def hom_complex(source: MatrixFactorization, target: MatrixFactorization) -> HomComplex:
    return HomComplex(source, target)


class CohomologyBasis:
    """Even/odd bases of H(Hom(A,B)) with reduction of cocycles to coordinates.

    Per parity, K is a syzygy basis of D: its s columns generate the
    cocycles in the rank-npairs cochain module.  One Buchberger run on the
    columns (K e_j, e_j) and (D c, 0) of R^npairs + R^s gives a basis G of
    M = {(K v + D c, v)}.  M meets the trailing block R^s in the relations
    {v : K v in im D}, so H = R^s / relations.  Position-over-term order
    ranks the leading block first; hence the elements of G whose lead lies
    on the trailing block are supported there and form the reduced basis of
    the relations.  A reduced basis is unique, so its standard monomials are
    the basis that a separate relation computation would give.  A cocycle
    phi = K u reduces in one normal form: (phi, 0) = (K u, u) - (0, u), so
    its remainder is (0, -v) with v the reduced coordinates of u.
    """

    __slots__ = ("hom", "std", "_kernel_cols", "_gb", "_reps")

    def __init__(self, hom: HomComplex):
        self.hom = hom
        ring = hom.ring
        unit = (0,) * ring.nvars
        std = []
        kernels = []
        gbs = []
        for parity in (0, 1):
            d_out = hom.d_matrices[parity]
            d_in = hom.d_matrices[1 - parity]
            npairs = len(hom.pairs[parity])
            kernel_cols = syzygy_basis(d_out) if d_out else [
                [ring.one() if i == j else ring.zero() for i in range(npairs)]
                for j in range(npairs)
            ]
            s = len(kernel_cols)
            kernels.append(kernel_cols)
            if s == 0:
                std.append(())
                gbs.append(None)
                continue
            columns = []
            for j, col in enumerate(kernel_cols):
                vec = Vec.from_column(col, npairs + s)
                vec.terms[(npairs + j, unit)] = Scalar.one()
                columns.append(vec)
            if d_in and d_in[0]:
                columns += [
                    Vec.from_column([row[j] for row in d_in], npairs + s)
                    for j in range(len(d_in[0]))
                ]
            gb = buchberger(columns)
            relations = [
                Vec(ring, s, {(comp - npairs, m): c for (comp, m), c in g.terms.items()})
                for g in gb.generators
                if g.lead()[0] >= npairs
            ]
            monos = standard_monomials(GroebnerBasis(ring, s, relations))
            if monos is None:
                raise NonIsolatedError(
                    "Hom-complex cohomology is infinite-dimensional; "
                    "the potential is not an isolated singularity"
                )
            std.append(tuple(monos))
            gbs.append(gb)
        self.std = tuple(std)
        self._kernel_cols = tuple(kernels)
        self._gb = tuple(gbs)
        self._reps = tuple([None] * len(keys) for keys in self.std)

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
            column = [
                self.hom.ring.monomial(mono) * entry
                for entry in self._kernel_cols[parity][comp]
            ]
            rep = self._reps[parity][index] = self.hom.unflatten(parity, column)
        return rep

    def reduce(self, phi: MFMorphism):
        """Coordinates of a closed morphism's class in the chosen basis."""
        parity = phi.parity
        column = self.hom.flatten(phi)
        gb = self._gb[parity]
        if gb is None:
            if any(not e.is_zero() for e in column):
                raise ValueError("morphism is not a cocycle")
            return []
        npairs = len(column)
        rem = normal_form(Vec.from_column(column, gb.rank), gb)
        coords = [Scalar.zero()] * len(self.std[parity])
        lookup = {key: k for k, key in enumerate(self.std[parity])}
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
    scales = [as_scalar(s) for s in t]
    twisted = MFMorphism(
        alpha.target,
        beta.source,
        phi.parity,
        [[scale_substitute(e, scales) for e in row] for row in phi.matrix],
        check_parity=False,
    )
    result = beta.compose(twisted).compose(alpha)
    if phi.parity and beta.parity:
        result = result.scale(Scalar.from_rational(-1))
    return result


def induced_endomorphism(t, alpha: MFMorphism, beta: MFMorphism, basis: CohomologyBasis):
    """Matrix of phi -> beta o t^*(phi) o alpha on the cohomology basis.

    Rows and columns run over the even basis then the odd basis.  alpha and
    beta must be closed; the result is representative-independent.
    """
    if not alpha.is_closed() or not beta.is_closed():
        raise ValueError("alpha and beta must be closed morphisms")
    n = basis.total_dim()
    dims = basis.dims
    out = linalg.zeros(n, n)
    shift = (alpha.parity + beta.parity) % 2
    for parity in (0, 1):
        for k in range(dims[parity]):
            phi = basis.representative(parity, k)
            psi = twisted_endomorphism_image(t, alpha, beta, phi)
            coords = basis.reduce(psi)
            target_parity = (parity + shift) % 2
            col = k if parity == 0 else dims[0] + k
            row_offset = 0 if target_parity == 0 else dims[0]
            for i, c in enumerate(coords):
                out[row_offset + i][col] = c
    return out


def supertrace_on_cohomology(matrix, parities) -> Scalar:
    total = Scalar.zero()
    for i, parity in enumerate(parities):
        term = matrix[i][i]
        total = total + (term if parity == 0 else -term)
    return total


def euler_characteristic(basis: CohomologyBasis) -> int:
    dims = basis.dims
    return dims[0] - dims[1]


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


def _weights_and_shift(a, b):
    """Weights of the potential and the odd operator's degree shift shared by A and B."""
    ws = WeightSystem.of(a.potential)
    if ws is None:
        raise ValueError("potential is not quasi-homogeneous")
    shifts = []
    for mf in (a, b):
        grading = mf.grading_list()
        if grading is None:
            raise ValueError("factorization carries no internal grading")
        shifts.append(_grading_degree(mf.full_matrix(), ws.weights, grading,
                                      "operator is not homogeneous for the declared grading"))
    if shifts[0] != shifts[1]:
        raise ValueError("source and target gradings use different operator shifts")
    return ws.weights, shifts[0]


class GradedHomPiece:
    """Basis of one internal degree of the Hom complex, one parity."""

    __slots__ = ("elements", "index")

    def __init__(self, elements):
        self.elements = elements  # list of (a, b, mono)
        self.index = {e: i for i, e in enumerate(elements)}


def default_window(w: Polynomial, a: MatrixFactorization, b: MatrixFactorization):
    """[-B, B] with B = socle degree + grading spread + 1 (degree of w).

    The window holds all of H(Hom(A, B)).  Every cochain (a, b, m) has
    internal degree wdeg(m) + g_B(a) - g_A(b) >= -spread, because monomials
    have nonnegative weight.  Graded Serre duality pairs H(Hom(A, B))_d
    nondegenerately with H(Hom(B, A))_d' only for d + d' = sum(1/2 - q_i),
    half the socle degree sum(1 - 2 q_i); as d' >= -spread too, cohomology
    sits at d <= socle / 2 + spread < B.
    """
    ws = WeightSystem.of(w)
    if ws is None:
        raise ValueError("potential is not quasi-homogeneous")
    socle = sum((1 - 2 * q) for q in ws.weights)
    gradings = list(a.grading_list() or []) + list(b.grading_list() or [])
    spread = (max(gradings) - min(gradings)) if gradings else Fraction(0)
    return socle + spread + 1


def _window_degrees(a, b, weights):
    """The internal degrees in the default window that carry a cochain."""
    bound = default_window(a.potential, a, b)
    offsets = {g - h for g in b.grading_list() for h in a.grading_list()}
    if not offsets:
        return []
    # weighted degrees of monomials, up to the largest one any offset needs
    top = bound - min(offsets)
    reachable = {Fraction(0)}
    for q in weights:
        reachable = {v + q * e for v in reachable for e in range(int((top - v) / q) + 1)}
    return sorted({v + o for v in reachable for o in offsets if -bound <= v + o <= bound})


def _strands(a, b, weights, s_deg):
    """Each nonempty piece C^P_d of the window with the matrices of its strand.

    Yields (P, piece, m_out, m_in) for the three-term strand
    C^{1-P}_{d-s} -> C^P_d -> C^{1-P}_{d+s}, by increasing degree d.  Each
    piece is built once per call, and so is each matrix: the m_out of C^P_d
    is the m_in of C^{1-P}_{d+s}.
    """
    ring = a.ring
    ga, gb = a.grading_list(), b.grading_list()
    pa, pb = a.parities(), b.parities()
    pieces = {}
    outs = {}  # (P, d) -> m_out of C^P_d, until it serves as an m_in

    def piece(parity, degree):
        key = (parity, degree)
        if key not in pieces:
            pieces[key] = _piece(a, b, weights, ga, gb, pa, pb, parity, degree)
        return pieces[key]

    for d in _window_degrees(a, b, weights):
        for parity in (0, 1):
            middle = piece(parity, d)
            if not middle.elements:
                continue
            m_out = outs[(parity, d)] = _d_matrix(
                a, b, middle, piece(1 - parity, d + s_deg), parity, ring)
            m_in = outs.pop((1 - parity, d - s_deg), None)
            if m_in is None:
                m_in = _d_matrix(a, b, piece(1 - parity, d - s_deg), middle, 1 - parity, ring)
            yield parity, middle, m_out, m_in


def graded_euler_supertrace(a, b, t, alpha, beta):
    """Supertrace of the twisted endomorphism via per-degree linear algebra.

    For each internal degree d the three-term strand C^{1-P}_{d-s} -> C^P_d ->
    C^{1-P}_{d+s} is a finite scalar complex preserved by the twisted
    endomorphism; the trace on its middle cohomology is computed directly and
    summed over the default window (outside of which cohomology vanishes).
    The strands depend on (a, b) alone and are reduced once per pair (see
    pair_strands); a call builds only its twist matrices.
    """
    weights, shift = _weights_and_shift(a, b)
    if not alpha.is_closed() or not beta.is_closed():
        raise ValueError("alpha and beta must be closed morphisms")
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
    powers = [[Scalar.one(), as_scalar(s)] for s in t]  # t_i^e, extended as needed
    total = Scalar.zero()
    for strand in pair_strands(a, b, weights, shift):
        t_mat = _twist_matrix(a, b, strand.piece, powers, alpha, beta)
        tr = _subquotient_trace(strand, t_mat)
        total = total + (tr if strand.parity == 0 else -tr)
    return total


def pair_strands(a, b, weights, shift):
    """The reduced strands of (a, b), kept in a._hom_memo from the pair's first
    request on, by the rules stated on MatrixFactorization."""
    entry = a._hom_memo.get(id(b))
    if entry is not None and entry[2] is not None:
        return entry[2]
    reduced = (GradedStrand(*strand) for strand in _strands(a, b, weights, shift))
    strands = tuple(s for s in reduced if s.free)  # no kernel: no trace, no twist to check
    a._hom_memo[id(b)] = (b, None if entry is None else entry[1], strands)
    return strands


def graded_cohomology_dimensions(a, b):
    """Brute-force degree-truncated oracle for the cohomology dimensions."""
    weights, shift = _weights_and_shift(a, b)
    dims = [0, 0]
    for parity, piece, m_out, m_in in _strands(a, b, weights, shift):
        dims[parity] += len(piece.elements) - linalg.rank(m_out) - linalg.rank(m_in)
    return tuple(dims)


def _piece(a, b, weights, ga, gb, pa, pb, parity, degree) -> GradedHomPiece:
    elements = []
    for ai in range(b.total_rank):
        for bj in range(a.total_rank):
            if (pb[ai] + pa[bj]) % 2 != parity:
                continue
            need = degree - (gb[ai] - ga[bj])
            for mono in monomials_of_weighted_degree(weights, need):
                elements.append((ai, bj, mono))
    return GradedHomPiece(elements)


def _d_matrix(a, b, src: GradedHomPiece, dst: GradedHomPiece, parity, ring):
    """Scalar matrix of D between two degree pieces."""
    da, db = a.full_matrix(), b.full_matrix()
    sign = Scalar.from_rational(1 if parity == 0 else -1)
    rows = linalg.zeros(len(dst.elements), len(src.elements))
    for col, (ai, bj, mono) in enumerate(src.elements):
        for i in range(b.total_rank):
            entry = db[i][ai]
            if entry.is_zero():
                continue
            for m, c in entry.terms.items():
                key = (i, bj, tuple(x + y for x, y in zip(m, mono)))
                row = dst.index.get(key)
                if row is not None:
                    rows[row][col] = rows[row][col] + c
        for j in range(a.total_rank):
            entry = da[bj][j]
            if entry.is_zero():
                continue
            for m, c in entry.terms.items():
                key = (ai, j, tuple(x + y for x, y in zip(m, mono)))
                row = dst.index.get(key)
                if row is not None:
                    rows[row][col] = rows[row][col] - c * sign
    return rows


def _twist_matrix(a, b, piece: GradedHomPiece, powers, alpha, beta):
    """Scalar matrix of the twisted endomorphism on one degree piece.

    powers[i][e] is t_i^e; the table is shared by a call's strands and grows
    as a monomial needs a higher power.
    """
    pa, pb = a.parities(), b.parities()
    rows = linalg.zeros(len(piece.elements), len(piece.elements))
    for col, (ai, bj, mono) in enumerate(piece.elements):
        factor = Scalar.one()
        # Koszul sign for moving the element past the (odd) post-twist
        if beta.parity and (pb[ai] + pa[bj]) % 2:
            factor = Scalar.from_rational(-1)
        for power, e in zip(powers, mono):
            if e:
                while len(power) <= e:
                    power.append(power[-1] * power[1])
                factor = factor * power[e]
        for i in range(b.total_rank):
            beta_entry = beta.matrix[i][ai]
            if beta_entry.is_zero():
                continue
            for mb, cb in beta_entry.terms.items():
                for j in range(a.total_rank):
                    alpha_entry = alpha.matrix[bj][j]
                    if alpha_entry.is_zero():
                        continue
                    for ma, ca in alpha_entry.terms.items():
                        key = (
                            i,
                            j,
                            tuple(x + y + z for x, y, z in zip(mono, mb, ma)),
                        )
                        row = piece.index.get(key)
                        if row is not None:
                            rows[row][col] = rows[row][col] + factor * cb * ca
    return rows


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
    the image lies in the kernel.
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


def _subquotient_trace(strand: GradedStrand, t_mat):
    """Trace of t_mat on the strand's ker(m_out)/im(m_in); t_mat must preserve both.

    With K the kernel basis as columns, T v_j lies in the kernel exactly when
    it is the sum of (T v_j)[f] v_f over the free columns f, that is, when
    T K = K Z for Z the rows of T K at the free columns: Z is then the twist
    in kernel coordinates.  The image is spanned by the reduced rows S_i with
    pivot columns Q_i; an image vector x equals the sum of x[Q_i] S_i, so the
    trace on the image is the sum of (Z S_i)[Q_i].  Both preservation checks
    depend on the twist, so they run on every call.
    """
    free = strand.free
    tk = linalg.mat_mul(t_mat, strand.kernel, cols=len(free))  # column j = T v_j
    z = [tk[f] for f in free]
    if linalg.mat_mul(strand.kernel, z, cols=len(free)) != tk:
        raise AssertionError("twist does not preserve the kernel")
    trace = sum((z[i][i] for i in range(len(free))), Scalar.zero())
    s_rows = strand.image
    if not s_rows:
        return trace
    zs = linalg.mat_mul(s_rows, [list(col) for col in zip(*z)])  # row i = Z S_i
    coords = [[v[q] for q in strand.pivots] for v in zs]
    if linalg.mat_mul(coords, s_rows) != zs:
        raise AssertionError("twist does not preserve the image")
    return trace - sum((coords[i][i] for i in range(len(coords))), Scalar.zero())
