"""Matrix factorizations: construction, pullback, morphisms, supertraces.

A factorization of w is stored as the two odd blocks d0 (even -> odd) and
d1 (odd -> even) with d1 d0 = d0 d1 = w, or equivalently as the full odd
square matrix in the generator order (all even generators, then all odd).
Morphisms are kept as full matrices with a declared parity; composition is
then plain matrix multiplication (linalg.mat_mul) and the Koszul sign
bookkeeping lives only in koszul_mf and in the one tensor kernel, which
builds both tensor_morphisms and the operator d1 (x) 1 + 1 (x) d2 of tensor_mf.
The Hom differential D is stated once, as the image of each unit cochain
(_d_column), and one slicer (_slice) reads scalar matrices of D off graded
pieces: homcoh's graded engine uses both, and stabilize_module solves its
homotopy as D on End(F) with them.  One even-minus-odd rule (_supertrace)
serves origin supertraces, lefschetz.boundary_bulk and both Hom engines.

Factorizations and morphisms are immutable, like Polynomial: matrices are
tuples of tuples and attributes cannot be reassigned.  So what is derived
from them (the full matrix, whether a morphism is closed) is computed once
and kept, and the Hom cohomology of a pair can be reused by identity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from . import linalg
from .groebner import GradedModulePresentation, buchberger, free_resolution, normal_form
from .polyring import (
    PolyRing,
    Polynomial,
    difference_quotients,
    extend_ring,
    monomial_mul,
    monomials_of_weighted_degree,
    scale_substitute,
)
from .scalars import Scalar, _coerce_symmetry, as_scalar, power_product


class MFValidationError(ValueError):
    pass


def _poly_mat_scale(a, c):
    return [[entry * c for entry in row] for row in a]


_set = object.__setattr__  # the one way to write a field of the frozen classes


def _frozen(matrix):
    return tuple(map(tuple, matrix))


def _place(out, block, top, left):
    """Copy block into out with its first entry at (top, left)."""
    for i, row in enumerate(block):
        out[top + i][left:left + len(row)] = row


class MatrixFactorization:
    """Z/2-graded free module with an odd operator squaring to w.

    d1 d0 = d0 d1 = w is checked unless check=False, the caller's promise of it:
    pullback makes it (a substitution fixing w keeps d^2 = w), and so does
    __reduce__, copying a factorization that kept it.  HomComplex rests D^2 = 0 on it.
    `_full` caches full_matrix().  `_hom_memo` maps id(b) to the entry
    (b, basis or None, graded strands or None) that the pair (self, b) reuses
    across requests.  The entry holds b, so id(b) cannot be reused while it
    lives, and an equal but distinct b gets its own entry.  Both engines
    admit on a pair's first request: lefschetz.pair_cohomology the Groebner
    engine's CohomologyBasis, homcoh.pair_strands the graded engine's reduced
    strands.  A kept basis holds no D matrix and no HomComplex, only the two
    factorizations, the cochain pairs, the cocycle module's basis and the
    kernel columns its standard monomials use.  It still refers back to self
    (basis -> self), and so does any entry of a pair (self, self): such an
    entry is freed by the cyclic garbage collector, not when the last outside
    reference goes.  Strands hold scalars and monomials only.  Under threads
    the worst case is a duplicate computation.  The memo is neither pickled
    nor copied.
    """

    __slots__ = ("ring", "potential", "r0", "r1", "d0", "d1", "gradings", "_full", "_hom_memo")

    def __init__(self, potential: Polynomial, d0, d1, r0=None, r1=None,
                 gradings=None, check=True):
        if r0 is None:
            r0 = len(d0[0]) if d0 else (len(d1) if d1 else 0)
        if r1 is None:
            r1 = len(d0) if d0 else (len(d1[0]) if d1 else 0)
        d0, d1 = _frozen(d0), _frozen(d1)
        if len(d0) != r1 or any(len(row) != r0 for row in d0):
            raise MFValidationError("d0 must be an (odd rank) x (even rank) matrix")
        if len(d1) != r0 or any(len(row) != r1 for row in d1):
            raise MFValidationError("d1 must be an (even rank) x (odd rank) matrix")
        if gradings is not None:
            even, odd = gradings
            gradings = (tuple(Fraction(g) for g in even), tuple(Fraction(g) for g in odd))
            if len(gradings[0]) != r0 or len(gradings[1]) != r1:
                raise MFValidationError("grading lists must match the ranks")
        _set(self, "ring", potential.ring)
        _set(self, "potential", potential)
        _set(self, "r0", r0)
        _set(self, "r1", r1)
        _set(self, "d0", d0)
        _set(self, "d1", d1)
        _set(self, "gradings", gradings)
        _set(self, "_full", None)
        _set(self, "_hom_memo", {})
        if check:
            validate_mf(self)

    def __setattr__(self, *args):
        raise AttributeError("MatrixFactorization is immutable")

    def __reduce__(self):
        return MatrixFactorization, (self.potential, self.d0, self.d1, self.r0, self.r1,
                                     self.gradings, False)

    @property
    def total_rank(self):
        return self.r0 + self.r1

    def parities(self):
        return [0] * self.r0 + [1] * self.r1

    def grading_list(self):
        if self.gradings is None:
            return None
        return list(self.gradings[0]) + list(self.gradings[1])

    def full_matrix(self):
        """The odd operator as one (r0+r1) square matrix, evens first; built once."""
        if self._full is None:
            _set(self, "_full", MFMorphism.from_blocks(self, self, 1, self.d0, self.d1).matrix)
        return self._full

    def __repr__(self):
        return f"MatrixFactorization(w={self.potential}, ranks=({self.r0},{self.r1}))"


def validate_mf(mf: MatrixFactorization):
    """Check d1 d0 = w id and d0 d1 = w id exactly; raise with details."""
    zero, w = mf.ring.zero(), mf.potential
    for name, left, right, n in (("d1*d0", mf.d1, mf.d0, mf.r0), ("d0*d1", mf.d0, mf.d1, mf.r1)):
        prod = linalg.mat_mul(left, right, zero, cols=n)
        for i in range(n):
            for j in range(n):
                expected = w if i == j else zero
                if not (prod[i][j] == expected):
                    raise MFValidationError(
                        f"({name})[{i}][{j}] = {prod[i][j]}, expected {expected}")
    if not w.is_zero() and mf.r0 != mf.r1:
        raise MFValidationError("nonzero potential forces equal even and odd ranks")
    return True


class MFMorphism:
    """A parity-homogeneous matrix between the modules of two factorizations.

    `_closed` and `_twists` cache is_closed() and _twisted_by(); neither is pickled or copied.
    """

    __slots__ = ("source", "target", "parity", "matrix", "_closed", "_twists")

    def __init__(self, source, target, parity, matrix, check_parity=True):
        parity &= 1
        matrix = _frozen(matrix)
        if len(matrix) != target.total_rank or (
            matrix and len(matrix[0]) != source.total_rank
        ):
            raise ValueError("morphism matrix has wrong shape")
        if check_parity:
            sp, tp = source.parities(), target.parities()
            for i in range(target.total_rank):
                for j in range(source.total_rank):
                    if not matrix[i][j].is_zero() and (tp[i] + sp[j]) % 2 != parity:
                        raise ValueError("matrix entry violates the declared parity")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "parity", parity)
        _set(self, "matrix", matrix)
        _set(self, "_closed", None)
        _set(self, "_twists", {})

    def __setattr__(self, *args):
        raise AttributeError("MFMorphism is immutable")

    def __reduce__(self):
        return MFMorphism, (self.source, self.target, self.parity, self.matrix, False)

    @staticmethod
    def from_blocks(source, target, parity, block_a, block_b):
        """Even: blocks (A0->B0, A1->B1).  Odd: blocks (A0->B1, A1->B0)."""
        mat = linalg.zeros(target.total_rank, source.total_rank, source.ring.zero())
        odd = parity % 2
        _place(mat, block_a, target.r0 * odd, 0)
        _place(mat, block_b, target.r0 * (1 - odd), source.r0)
        return MFMorphism(source, target, parity, mat, check_parity=False)

    @staticmethod
    def identity(mf):
        mat = linalg.zeros(mf.total_rank, mf.total_rank, mf.ring.zero())
        for i in range(mf.total_rank):
            mat[i][i] = mf.ring.one()
        return MFMorphism(mf, mf, 0, mat, check_parity=False)

    @staticmethod
    def diagonal(source, target, scalars):
        mat = linalg.zeros(target.total_rank, source.total_rank, source.ring.zero())
        for i, c in enumerate(scalars):
            mat[i][i] = source.ring.const(as_scalar(c))
        return MFMorphism(source, target, 0, mat)

    def compose(self, other: "MFMorphism") -> "MFMorphism":
        """self after other."""
        return MFMorphism(
            other.source,
            self.target,
            self.parity + other.parity,
            linalg.mat_mul(self.matrix, other.matrix, self.source.ring.zero(),
                           cols=other.source.total_rank),
            check_parity=False,
        )

    def __add__(self, other):
        if self.parity != other.parity:
            raise ValueError("cannot add morphisms of different parity")
        return MFMorphism(
            self.source, self.target, self.parity,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)],
            check_parity=False,
        )

    def scale(self, c):
        return MFMorphism(self.source, self.target, self.parity,
                          _poly_mat_scale(self.matrix, as_scalar(c)), check_parity=False)

    def _d_sums(self) -> dict:
        """D(self) = sum of phi_ij D e_ij, D e_ij from _d_column, as {(k, l): entry}."""
        da, db = self.source.full_matrix(), self.target.full_matrix()
        sums = {}
        for i, row in enumerate(self.matrix):
            for j, phi in enumerate(row):
                if not phi.is_zero():
                    for key, e in _d_column(da, db, i, j, self.parity):
                        sums[key] = sums[key] + phi * e if key in sums else phi * e
        return sums

    def differential(self) -> "MFMorphism":
        """D(self), of the opposite parity (see _d_sums)."""
        mat = linalg.zeros(self.target.total_rank, self.source.total_rank, self.source.ring.zero())
        for (k, l), e in self._d_sums().items():
            mat[k][l] = e
        return MFMorphism(self.source, self.target, self.parity + 1, mat, check_parity=False)

    def is_closed(self) -> bool:
        """Whether D(self) = 0; computed at most once per morphism."""
        if self._closed is None:
            _set(self, "_closed", all(e.is_zero() for e in self._d_sums().values()))
        return self._closed

    def _twisted_by(self, t, into) -> bool:
        """Whether the target is t^*(source) (into) or the source t^*(target), block by block."""
        known = self._twists.get((into, t))
        if known is None:
            base, image = (self.source, self.target) if into else (self.target, self.source)
            known = self._twists[(into, t)] = (base.r0, base.r1) == (image.r0, image.r1) and all(
                e.terms.keys() == f.terms.keys()
                and all(f.terms[m] == c * power_product(t, m) for m, c in e.terms.items())
                for row, twisted in zip(base.d0 + base.d1, image.d0 + image.d1)
                for e, f in zip(row, twisted))
        return known

    def inverse(self) -> "MFMorphism":
        """Inverse of a morphism with scalar entries (unit determinant)."""
        n = self.source.total_rank
        if self.target.total_rank != n:
            raise ValueError("only square morphisms can be inverted")
        if not all(e.is_zero() or e.is_constant() for row in self.matrix for e in row):
            raise ValueError("inverse implemented for scalar-entry morphisms only")
        scal = [[e.constant_term() for e in row] for row in self.matrix]
        inv = linalg.invert(scal)
        ring = self.source.ring
        mat = [[ring.const(c) for c in row] for row in inv]
        return MFMorphism(self.target, self.source, self.parity, mat, check_parity=False)

    def __repr__(self):
        return (f"MFMorphism(parity={self.parity}, "
                f"{self.target.total_rank}x{self.source.total_rank})")


# -- constructions ------------------------------------------------------------


def koszul_mf(a_seq, b_seq, gradings=None) -> MatrixFactorization:
    """The Koszul factorization {a ; b} of sum a_i b_i on an exterior algebra.

    Generators e_S are ordered by increasing subset bitmask inside each parity;
    signs follow the fixed convention e_{i_1} ^ ... ^ e_{i_j}, i_1 < ... < i_j.
    Optional `gradings` gives the weighted degree of each b_i (with the
    potential normalized to weighted degree 1); generator e_S then carries
    degree sum_{i in S} (deg b_i - 1/2) and the odd operator is homogeneous
    of degree 1/2.
    """
    a_seq, b_seq = list(a_seq), list(b_seq)
    if len(a_seq) != len(b_seq) or not a_seq:
        raise ValueError("need equally long nonempty sequences")
    ring = a_seq[0].ring
    r = len(a_seq)
    w = ring.zero()
    for a, b in zip(a_seq, b_seq):
        w = w + a * b
    evens = [s for s in range(1 << r) if bin(s).count("1") % 2 == 0]
    odds = [s for s in range(1 << r) if bin(s).count("1") % 2 == 1]
    even_index = {s: i for i, s in enumerate(evens)}
    odd_index = {s: i for i, s in enumerate(odds)}
    d0 = linalg.zeros(len(odds), len(evens), ring.zero())
    d1 = linalg.zeros(len(evens), len(odds), ring.zero())

    def act(sources, target_index, block):
        for col, s in enumerate(sources):
            for i in range(r):
                bit = 1 << i
                sign = Scalar.from_rational((-1) ** bin(s & (bit - 1)).count("1"))
                if not (s & bit):
                    row = target_index[s | bit]
                    block[row][col] = block[row][col] + a_seq[i] * sign
                else:
                    row = target_index[s & ~bit]
                    block[row][col] = block[row][col] + b_seq[i] * sign

    act(evens, odd_index, d0)
    act(odds, even_index, d1)

    mf_gradings = None
    if gradings is not None:
        b_degs = [Fraction(g) for g in gradings]

        def subset_degree(s):
            return sum((b_degs[i] - Fraction(1, 2) for i in range(r) if s & (1 << i)),
                       Fraction(0))

        mf_gradings = (tuple(subset_degree(s) for s in evens),
                       tuple(subset_degree(s) for s in odds))
    return MatrixFactorization(w, d0, d1, gradings=mf_gradings)


def _merged_ring(r1: PolyRing, r2: PolyRing) -> PolyRing:
    if r1 == r2:
        return r1
    return PolyRing(tuple(list(r1.vars) + [v for v in r2.vars if v not in r1.vars]))


def _tensor_index(e1: MatrixFactorization, e2: MatrixFactorization) -> dict:
    """Position in e1 (x) e2 of each pair (j1, j2) of generator indices: the
    pairs in generator order, the even ones first."""
    p1, p2 = e1.parities(), e2.parities()
    pairs = [(j1, j2) for j1 in range(e1.total_rank) for j2 in range(e2.total_rank)]
    pairs.sort(key=lambda p: (p1[p[0]] + p2[p[1]]) % 2)  # stable: evens first
    return {p: k for k, p in enumerate(pairs)}


def _lift(p: Polynomial, ring: PolyRing) -> Polynomial:
    return p if p.ring == ring else extend_ring(p, ring)


def _add_tensor(out, m1: MFMorphism, m2: MFMorphism, ring: PolyRing):
    """Add the matrix of m1 (x) m2 over `ring` into `out`, with the sign
    (m1 (x) m2)(a (x) b) = (-1)^(|m2||a|) m1(a) (x) m2(b)."""
    dst = _tensor_index(m1.target, m2.target)
    for (j1, j2), col in _tensor_index(m1.source, m2.source).items():
        sign = Scalar.from_rational(-1 if m2.parity and j1 >= m1.source.r0 else 1)
        for i1, row1 in enumerate(m1.matrix):
            v1 = row1[j1]
            if v1.is_zero():
                continue
            for i2, row2 in enumerate(m2.matrix):
                v2 = row2[j2]
                if not v2.is_zero():
                    row = dst[(i1, i2)]
                    out[row][col] = out[row][col] + _lift(v1, ring) * _lift(v2, ring) * sign


def tensor_mf(e1: MatrixFactorization, e2: MatrixFactorization) -> MatrixFactorization:
    """Graded tensor product: a factorization of w1 + w2 with operator
    d1 (x) 1 + 1 (x) d2, whose tensor sign is the Koszul sign."""
    ring = _merged_ring(e1.ring, e2.ring)
    w = _lift(e1.potential, ring) + _lift(e2.potential, ring)
    delta1, delta2 = (MFMorphism(e, e, 1, e.full_matrix(), check_parity=False) for e in (e1, e2))
    index = _tensor_index(e1, e2)
    n, n0 = len(index), e1.r0 * e2.r0 + e1.r1 * e2.r1
    full = linalg.zeros(n, n, ring.zero())
    _add_tensor(full, delta1, MFMorphism.identity(e2), ring)
    _add_tensor(full, MFMorphism.identity(e1), delta2, ring)
    d0 = [row[:n0] for row in full[n0:]]
    d1 = [row[n0:] for row in full[:n0]]
    gradings = None
    if e1.gradings is not None and e2.gradings is not None:
        g1, g2 = e1.grading_list(), e2.grading_list()
        flat = [g1[j1] + g2[j2] for j1, j2 in index]
        gradings = (flat[:n0], flat[n0:])
    return MatrixFactorization(w, d0, d1, r0=n0, r1=n - n0, gradings=gradings)


def tensor_morphisms(m1: MFMorphism, m2: MFMorphism,
                     source: MatrixFactorization | None = None,
                     target: MatrixFactorization | None = None) -> MFMorphism:
    """m1 (x) m2 on tensor products, with the sign (m1 (x) m2)(a (x) b) =
    (-1)^(|m2||a|) m1(a) (x) m2(b).

    `source` and `target` default to fresh tensor products; passing existing
    ones (built by tensor_mf from the same factors) keeps object identity.
    """
    if source is None:
        source = tensor_mf(m1.source, m2.source)
    if target is None:
        target = tensor_mf(m1.target, m2.target)
    out = linalg.zeros(target.total_rank, source.total_rank, source.ring.zero())
    _add_tensor(out, m1, m2, source.ring)
    return MFMorphism(source, target, m1.parity + m2.parity, out, check_parity=False)


def odd_rank11_generator(mf: MatrixFactorization) -> MFMorphism:
    """The minimal odd closed endomorphism of a rank-(1,1) factorization
    (f, g) with monomial entries: blocks u = f/h, v = -g/h for the monomial
    gcd h, satisfying g u = -v f.  For f = g this is (1 -> -e, e -> 1)."""
    if (mf.r0, mf.r1) != (1, 1):
        raise ValueError("defined for rank-(1,1) factorizations")
    f, g = mf.d0[0][0], mf.d1[0][0]
    if len(f.terms) != 1 or len(g.terms) != 1:
        raise ValueError("odd generator construction needs monomial entries")
    ring = mf.ring
    (mf_mono, cf), = f.terms.items()
    (mg_mono, cg), = g.terms.items()
    h = tuple(min(a, b) for a, b in zip(mf_mono, mg_mono))
    u = ring.monomial(tuple(a - b for a, b in zip(mf_mono, h)), cf)
    v = ring.monomial(tuple(a - b for a, b in zip(mg_mono, h)), -cg)
    phi = MFMorphism.from_blocks(mf, mf, 1, [[u]], [[v]])
    if not phi.is_closed():
        raise AssertionError("odd generator failed to close")
    return phi


def pullback(t, mf: MatrixFactorization) -> MatrixFactorization:
    """Entrywise substitution x_i -> t_i x_i; t must fix the potential."""
    if not (scale_substitute(mf.potential, t) == mf.potential):
        raise ValueError("t is not a symmetry of the potential")
    d0 = [[scale_substitute(e, t) for e in row] for row in mf.d0]
    d1 = [[scale_substitute(e, t) for e in row] for row in mf.d1]
    return MatrixFactorization(mf.potential, d0, d1, r0=mf.r0, r1=mf.r1,
                               gradings=mf.gradings, check=False)


def stabilized_diagonal(w: Polynomial) -> MatrixFactorization:
    """Koszul factorization of w(y) - w(x) built from difference quotients."""
    n = w.ring.nvars
    if n == 0:
        raise ValueError("need at least one variable")
    quotients = difference_quotients(w)
    big = quotients[0].ring
    b_seq = [big.var(n + i) - big.var(i) for i in range(n)]
    return koszul_mf(quotients, b_seq)


def equivariance_power_check(t, alpha: MFMorphism, p: int) -> bool:
    """True iff t^((p-1)*)(alpha) o ... o t^*(alpha) o alpha is the identity."""
    t = _coerce_symmetry(t)
    if not all((r**p).is_one() for r in t):
        raise ValueError("symmetry entries must have order dividing p")
    ring = alpha.source.ring
    composite = alpha.matrix
    power = t
    for _ in range(p - 1):
        twisted = [[scale_substitute(e, power) for e in row] for row in alpha.matrix]
        composite = linalg.mat_mul(twisted, composite, ring.zero(), cols=alpha.source.total_rank)
        power = [a * b for a, b in zip(power, t)]
    return _frozen(composite) == MFMorphism.identity(alpha.source).matrix


def _supertrace(diagonal, parities, zero):
    """The sum of the even diagonal entries minus that of the odd ones, from zero."""
    return sum((-entry if parity else entry for entry, parity in zip(diagonal, parities)), zero)


def supertrace_at_origin(phi: MFMorphism) -> Scalar:
    """str(phi|_0): trace on the even block minus trace on the odd block.

    Odd morphisms have zero diagonal blocks, so their supertrace is 0.
    """
    mf = phi.source
    if phi.target.r0 != mf.r0 or phi.target.r1 != mf.r1:
        raise ValueError("supertrace needs equal source and target ranks")
    return _supertrace((row[i].constant_term() for i, row in enumerate(phi.matrix)),
                       mf.parities(), Scalar.zero())


# -- the Hom differential on graded pieces ------------------------------------


def _d_column(da, db, i, j, parity):
    """D e_ij = d_B e_ij - (-1)^parity e_ij d_A for the unit cochain e_ij of that
    parity, as ((row, column), entry) pairs.  Its two terms never share an
    entry: an odd operator has a zero diagonal."""
    column = [((k, j), row[i]) for k, row in enumerate(db) if not row[i].is_zero()]
    return column + [((i, l), e if parity else -e) for l, e in enumerate(da[j]) if not e.is_zero()]


class GradedHomPiece:
    """A basis of monomial cochains x^m e_ij: one internal degree and parity of
    a Hom complex, or one homological rise of End(F) (stabilize_module)."""

    __slots__ = ("elements", "index")

    def __init__(self, elements):
        self.elements = elements  # list of (i, j, mono)
        self.index = {e: i for i, e in enumerate(elements)}

    @classmethod
    def of(cls, weights, rows, cols, degree, keep):
        """The cochains x^m e_ij, by i, j and then m, with keep(i, j) and
        wdeg(m) = degree - rows[i] + cols[j]: rows and cols are the degrees of
        the target and source slots."""
        return cls([(i, j, m) for i, gi in enumerate(rows) for j, gj in enumerate(cols)
                    if keep(i, j) for m in monomials_of_weighted_degree(weights, degree - gi + gj)])


def _slice(src: GradedHomPiece, dst: GradedHomPiece, columns, factor=None):
    """Scalar matrix, from piece src to piece dst, of the operator sending x^m e_ij
    to factor(m) x^m columns[(i, j)], with factor 1 if None.  columns[(i, j)] is
    the image of the unit cochain e_ij as ((k, l), polynomial) pairs, each (k, l)
    at most once, so no two terms of a column meet in one entry."""
    rows = linalg.zeros(len(dst.elements), len(src.elements))
    for col, (i, j, mono) in enumerate(src.elements):
        scale = None if factor is None else factor(mono)
        for (k, l), entry in columns[(i, j)]:
            for m, c in entry.terms.items():
                row = dst.index.get((k, l, monomial_mul(m, mono)))
                if row is not None:
                    rows[row][col] = c if scale is None else c * scale
    return rows


# -- stabilization of graded modules ------------------------------------------


def _annihilates(w: Polynomial, pres: GradedModulePresentation) -> bool:
    n_gens = len(pres.gen_degrees)
    if not pres.relations or not pres.relations[0]:
        return w.is_zero()
    cols = [[pres.relations[i][j] for i in range(n_gens)] for j in range(pres.num_relations)]
    gb = buchberger(cols, rank=n_gens)
    for i in range(n_gens):
        target = [w if k == i else w.ring.zero() for k in range(n_gens)]
        if not normal_form(target, gb).is_zero():
            return False
    return True


def stabilize_module(pres: GradedModulePresentation, w: Polynomial):
    """Matrix factorization from a null-homotopy for w on a free resolution.

    Takes the minimal graded resolution (F, d) of the module, then solves
    (d + s)^2 = w id: first a homotopy with d s + s d = w id, then higher
    corrections raising the homological degree until the square is exact.
    The left side d s + s d is D(s), the odd differential of End(F, d), so
    each solve reads one scalar system off graded pieces of End(F) with
    _d_column and _slice; elimination pivots deterministically.

    Returns (mf, alpha): alpha is the transferred Z/2-equivariant structure
    diag((-1)^(internal degree)) when deg w is even (else None).  Solving in
    graded-homogeneous unknowns makes alpha closed automatically; it needs w
    homogeneous in the standard grading of the resolution.
    """
    if len({sum(m) for m in w.terms}) > 1:
        raise ValueError("the potential is not homogeneous in the standard grading")
    if not _annihilates(w, pres):
        raise ValueError("the potential does not annihilate the module")
    res = free_resolution(pres)
    ring, zero, ones = pres.ring, pres.ring.zero(), (1,) * pres.ring.nvars
    step = [k for k, row in enumerate(res.degrees) for _ in row]  # homological degree of a slot
    degrees = [g for row in res.degrees for g in row]  # internal degree of a slot
    total, offsets = len(step), list(accumulate(map(len, res.degrees), initial=0))
    w_deg = w.total_degree()
    d = linalg.zeros(total, total, zero)
    for k, mat in enumerate(res.matrices):  # d_{k+1}: F_{k+1} -> F_k
        _place(d, mat, offsets[k], offsets[k + 1])
    # s is odd, so D(s) = d s + s d
    columns = {(i, j): _d_column(d, d, i, j, 1) for i in range(total) for j in range(total)}

    def piece(rise, op_degree):
        """The entries x^m e_ij of End(F) that raise the step by `rise`, of degree op_degree."""
        return GradedHomPiece.of(ones, degrees, degrees, op_degree,
                                 lambda i, j: step[i] - step[j] == rise)

    operator = [row[:] for row in d]
    guard = 0
    while True:
        square = linalg.mat_mul(operator, operator, zero, cols=total)
        residual = [[(w if i == j else zero) - e for j, e in enumerate(row)]
                    for i, row in enumerate(square)]  # w id - operator^2
        shifts = {step[i] - step[j] for i, row in enumerate(residual)
                  for j, e in enumerate(row) if not e.is_zero()}
        if not shifts:
            break
        guard += 1
        if guard > len(res.degrees) + 2:
            raise AssertionError("homotopy iteration failed to terminate")
        shift = min(shifts)
        if shift < 0 or shift % 2:
            raise AssertionError("residual has an inconsistent homological shift")
        # solve D(s) = residual at this shift for s one step higher
        op_degree = w_deg * (shift + 2) // 2
        unknowns, targets = piece(shift + 1, op_degree), piece(shift, op_degree)
        if not unknowns.elements:
            raise AssertionError("homotopy solve has no unknowns but nonzero residual")
        terms = {(i, j, m): c for i, row in enumerate(residual) for j, e in enumerate(row)
                 if step[i] - step[j] == shift for m, c in e.terms.items()}
        rhs = [terms.pop(key, Scalar.zero()) for key in targets.elements]
        # a term left over lies outside the equations' piece: no s reaches it
        solution = None if terms else linalg.solve(_slice(unknowns, targets, columns), rhs)
        if solution is None:
            raise AssertionError("graded homotopy solve is singular")
        for (i, j, m), c in zip(unknowns.elements, solution):
            if not c.is_zero():
                operator[i][j] = operator[i][j] + ring.monomial(m, c)

    # d0 and d1 are the blocks of the operator between even and odd steps
    evens = [i for i in range(total) if step[i] % 2 == 0]
    odds = [i for i in range(total) if step[i] % 2]
    d0 = [[operator[i][j] for j in evens] for i in odds]
    d1 = [[operator[i][j] for j in odds] for i in evens]
    gradings = (tuple(Fraction(degrees[i]) for i in evens),
                tuple(Fraction(degrees[i]) for i in odds))
    mf = MatrixFactorization(w, d0, d1, r0=len(evens), r1=len(odds), gradings=gradings)

    alpha = None
    if w_deg % 2 == 0 and ring.nvars > 0:
        signs = [Scalar.from_rational((-1) ** int(degrees[i])) for i in evens + odds]
        alpha = MFMorphism.diagonal(mf, pullback([-1] * ring.nvars, mf), signs)
        if not alpha.is_closed():
            raise AssertionError("canonical Z/2 structure failed to close")
    return mf, alpha
