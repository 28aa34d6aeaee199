"""Matrix factorizations: construction, pullback, morphisms, supertraces.

A factorization of w is stored as the two odd blocks d0 (even -> odd) and
d1 (odd -> even) with d1 d0 = d0 d1 = w, or equivalently as the full odd
square matrix in the generator order (all even generators, then all odd).
Morphisms are kept as full matrices with a declared parity; composition is
then plain matrix multiplication (linalg.mat_mul) and the Koszul sign
bookkeeping lives only in koszul_mf and in the one tensor kernel, which
builds both tensor_morphisms and the operator d1 (x) 1 + 1 (x) d2 of tensor_mf.

Factorizations and morphisms are immutable, like Polynomial: matrices are
tuples of tuples and attributes cannot be reassigned.  So what is derived
from them (the full matrix, whether a morphism is closed) is computed once
and kept, and the Hom cohomology of a pair can be reused by identity.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .groebner import GradedModulePresentation, buchberger, free_resolution, normal_form
from .polyring import (
    PolyRing,
    Polynomial,
    difference_quotients,
    extend_ring,
    monomials_of_weighted_degree,
    scale_substitute,
)
from .scalars import Scalar, as_scalar


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

    `_full` caches full_matrix().  `_hom_memo` maps id(b) to the entry
    (b, basis or None, graded strands or None) that the pair (self, b) reuses
    across requests.  The entry holds b, so id(b) cannot be reused while it
    lives, and an equal but distinct b gets its own entry.
    lefschetz.pair_cohomology admits a Groebner basis on the pair's second
    request by either engine, so a pair used once keeps no basis alive;
    homcoh.pair_strands admits the graded engine's reduced strands on the
    first, as a document twists most graded pairs more than once and strands
    are small.  A basis refers back to self (basis -> HomComplex -> self), and
    so does any entry of a pair (self, self): such an entry is freed by the
    cyclic garbage collector, not when the last outside reference goes.
    Strands hold scalars and monomials only.  Under threads the worst case is
    a duplicate computation.  The memo is neither pickled nor copied.
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

    def shift(self):
        """The parity shift E[1]: swaps the blocks and negates the operator."""
        gradings = None if self.gradings is None else (self.gradings[1], self.gradings[0])
        minus = Scalar.from_rational(-1)
        return MatrixFactorization(
            self.potential,
            _poly_mat_scale(self.d1, minus),
            _poly_mat_scale(self.d0, minus),
            r0=self.r1,
            r1=self.r0,
            gradings=gradings,
            check=False,
        )

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

    `_closed` caches is_closed() and is not pickled or copied.
    """

    __slots__ = ("source", "target", "parity", "matrix", "_closed")

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

    def differential(self) -> "MFMorphism":
        """D(phi) = d_B phi - (-1)^{|phi|} phi d_A."""
        zero, n = self.source.ring.zero(), self.source.total_rank
        left = linalg.mat_mul(self.target.full_matrix(), self.matrix, zero, cols=n)
        right = linalg.mat_mul(self.matrix, self.source.full_matrix(), zero, cols=n)
        sign = Scalar.from_rational(1 if self.parity % 2 == 0 else -1)
        mat = [[l - r * sign for l, r in zip(lr, rr)] for lr, rr in zip(left, right)]
        return MFMorphism(self.source, self.target, self.parity + 1, mat, check_parity=False)

    def is_closed(self) -> bool:
        """Whether D(self) = 0; computed at most once per morphism."""
        if self._closed is None:
            _set(self, "_closed", all(
                e.is_zero() for row in self.differential().matrix for e in row))
        return self._closed

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


def morphism_closed(phi: MFMorphism) -> bool:
    return phi.is_closed()


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


def unit_mf(ring: PolyRing) -> MatrixFactorization:
    """Rank-(1,0) unit object of potential 0."""
    return MatrixFactorization(ring.zero(), [], [[]], r0=1, r1=0,
                               gradings=((Fraction(0),), ()), check=False)


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
    scales = [as_scalar(s) for s in t]
    if not (scale_substitute(mf.potential, scales) == mf.potential):
        raise ValueError("t is not a symmetry of the potential")
    d0 = [[scale_substitute(e, scales) for e in row] for row in mf.d0]
    d1 = [[scale_substitute(e, scales) for e in row] for row in mf.d1]
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
    scales = [as_scalar(s) for s in t]
    for s in scales:
        if not (s**p == 1):
            raise ValueError("symmetry entries must have order dividing p")
    ring = alpha.source.ring
    composite = alpha.matrix
    power = scales
    for _ in range(p - 1):
        twisted = [[scale_substitute(e, power) for e in row] for row in alpha.matrix]
        composite = linalg.mat_mul(twisted, composite, ring.zero(), cols=alpha.source.total_rank)
        power = [a * b for a, b in zip(power, scales)]
    return _frozen(composite) == MFMorphism.identity(alpha.source).matrix


class OriginComplex:
    """The Z/2-graded scalar complex E|_0 with its square-zero odd operator."""

    __slots__ = ("r0", "r1", "delta0")

    def __init__(self, mf: MatrixFactorization):
        if not mf.potential.constant_term().is_zero():
            raise ValueError("potential must vanish at the origin")
        self.r0, self.r1 = mf.r0, mf.r1
        self.delta0 = [[e.constant_term() for e in row] for row in mf.full_matrix()]
        if any(not e.is_zero() for row in linalg.mat_mul(self.delta0, self.delta0) for e in row):
            raise ValueError(
                "restriction to the origin does not square to zero; "
                "the potential has terms outside the square of the maximal ideal"
            )


def restrict_to_origin(mf: MatrixFactorization) -> OriginComplex:
    return OriginComplex(mf)


def supertrace_at_origin(phi: MFMorphism) -> Scalar:
    """str(phi|_0): trace on the even block minus trace on the odd block.

    Odd morphisms have zero diagonal blocks, so their supertrace is 0.
    """
    mf = phi.source
    if phi.target.r0 != mf.r0 or phi.target.r1 != mf.r1:
        raise ValueError("supertrace needs equal source and target ranks")
    total = Scalar.zero()
    for i in range(mf.r0):
        total = total + phi.matrix[i][i].constant_term()
    for i in range(mf.r0, mf.total_rank):
        total = total - phi.matrix[i][i].constant_term()
    return total


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
    Each solve is graded scalar linear algebra with deterministic pivoting.

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
    ring = pres.ring
    steps = len(res.degrees)
    ranks = [len(d) for d in res.degrees]
    offsets = [0]
    for r in ranks:
        offsets.append(offsets[-1] + r)
    total = offsets[-1]
    step = [k for k in range(steps) for _ in range(ranks[k])]  # homological degree of a slot
    degrees = [d for row in res.degrees for d in row]  # internal degree of a slot
    w_deg = w.total_degree()

    blocks = {(k, k + 1): mat for k, mat in enumerate(res.matrices)}  # d_{k+1}: F_{k+1} -> F_k

    def total_matrix():
        out = linalg.zeros(total, total, ring.zero())
        for (ti, si), mat in blocks.items():
            _place(out, mat, offsets[ti], offsets[si])
        return out

    def residual_of(op):
        sq = linalg.mat_mul(op, op, ring.zero(), cols=total)
        for i in range(total):
            sq[i][i] = sq[i][i] - w
        return [[-e for e in row] for row in sq]  # w id - op^2

    operator = total_matrix()
    guard = 0
    while True:
        residual = residual_of(operator)
        shifts = {step[i] - step[j] for i, row in enumerate(residual)
                  for j, e in enumerate(row) if not e.is_zero()}
        if not shifts:
            break
        guard += 1
        if guard > steps + 2:
            raise AssertionError("homotopy iteration failed to terminate")
        shift = min(shifts)
        if shift < 0 or shift % 2:
            raise AssertionError("residual has an inconsistent homological shift")
        correction = _solve_homotopy(res, ring, ranks, offsets, residual, shift, w_deg)
        for key, mat in correction.items():
            if key in blocks:
                old = blocks[key]
                blocks[key] = [[old[i][j] + mat[i][j] for j in range(len(mat[0]))]
                               for i in range(len(mat))]
            else:
                blocks[key] = mat
        operator = total_matrix()

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
        minus = [Scalar.from_rational(-1)] * ring.nvars
        alpha = MFMorphism.diagonal(mf, pullback(minus, mf), signs)
        if not alpha.is_closed():
            raise AssertionError("canonical Z/2 structure failed to close")
    return mf, alpha


def _solve_homotopy(res, ring, ranks, offsets, residual, shift, w_deg):
    """Solve d s + s d = residual-at-shift for s raising homological degree by
    shift + 1; unknowns are graded entries of operator degree ((shift+2)/2) deg w."""
    steps = len(ranks)
    degrees = res.degrees
    op_degree = w_deg * ((shift + 2) // 2)

    def entry_monos(source_step, j, target_step, i):
        return monomials_of_weighted_degree(
            (1,) * ring.nvars, degrees[source_step][j] + op_degree - degrees[target_step][i]
        )

    unknown_slots = []
    for k in range(steps):
        kt = k + shift + 1
        if kt >= steps:
            continue
        for i in range(ranks[kt]):
            for j in range(ranks[k]):
                for m in entry_monos(k, j, kt, i):
                    unknown_slots.append((k, i, j, m))
    index = {slot: pos for pos, slot in enumerate(unknown_slots)}
    d_mats = res.matrices

    rows, rhs = [], []
    for k in range(steps):
        kt = k + shift
        if kt >= steps:
            continue
        for i in range(ranks[kt]):
            for j in range(ranks[k]):
                target = residual[offsets[kt] + i][offsets[k] + j]
                coeffs: dict = {}

                def add(mono, pos, c):
                    bucket = coeffs.setdefault(mono, {})
                    bucket[pos] = bucket.get(pos, Scalar.zero()) + c

                # d_{kt+1} s_k
                if kt + 1 < steps:
                    dmat = d_mats[kt]
                    for b in range(ranks[kt + 1]):
                        entry = dmat[i][b]
                        if entry.is_zero():
                            continue
                        for m, c in entry.terms.items():
                            for sm in entry_monos(k, j, kt + 1, b):
                                slot = (k, b, j, sm)
                                if slot in index:
                                    add(tuple(x + y for x, y in zip(m, sm)), index[slot], c)
                # s_{k-1} d_k
                if k >= 1:
                    dmat = d_mats[k - 1]
                    for b in range(ranks[k - 1]):
                        entry = dmat[b][j]
                        if entry.is_zero():
                            continue
                        for m, c in entry.terms.items():
                            for sm in entry_monos(k - 1, b, kt, i):
                                slot = (k - 1, i, b, sm)
                                if slot in index:
                                    add(tuple(x + y for x, y in zip(m, sm)), index[slot], c)
                monos = set(coeffs) | set(target.terms)
                for mono in sorted(monos):
                    row = [Scalar.zero()] * len(unknown_slots)
                    for pos, c in coeffs.get(mono, {}).items():
                        row[pos] = c
                    rows.append(row)
                    rhs.append(target.terms.get(mono, Scalar.zero()))
    if not unknown_slots:
        raise AssertionError("homotopy solve has no unknowns but nonzero residual")
    solution = linalg.solve(rows, rhs)
    if solution is None:
        raise AssertionError("graded homotopy solve is singular")
    out: dict = {}
    for slot, pos in index.items():
        k, i, j, m = slot
        c = solution[pos]
        if c.is_zero():
            continue
        key = (k + shift + 1, k)
        if key not in out:
            out[key] = linalg.zeros(ranks[k + shift + 1], ranks[k], ring.zero())
        out[key][i][j] = out[key][i][j] + ring.monomial(m, c)
    return out
