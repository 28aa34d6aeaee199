"""Exact dense linear algebra on lists of rows.

`zeros` and `mat_mul` take Scalars in Q(zeta_m), and Polynomials for the odd
operators, morphisms, Hom differentials and stabilization residuals of
`mfcore`, `homcoh` and `lefschetz`.  The caller passes the zero of its
entries.  On Polynomials `mat_mul` is fused: it reads B's nonzero entries by
row and sums the term products of each output entry in one dict.

One reduced-echelon elimination over Q(zeta_m), `_echelon`, serves `rank`,
`solve`, `nullspace`, `invert`, `det` and `echelon_form`.  Its callers are the
graded engine's strand traces, the stabilization homotopy solves,
`find_weights` and `MFMorphism.inverse`.
"""

from __future__ import annotations

from operator import add

from .scalars import Scalar, as_scalar

Matrix = list  # list[list[Scalar]] or list[list[Polynomial]]


def zeros(rows: int, cols: int, zero=Scalar.zero()) -> Matrix:
    return [[zero] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = Scalar.one()
    return mat


def mat_mul(a: Matrix, b: Matrix, zero=Scalar.zero(), cols=None) -> Matrix:
    """A B.  `cols` gives the width of B when B has no rows."""
    rows, inner = len(a), len(b)
    if cols is None:
        cols = len(b[0]) if b else 0
    if not isinstance(zero, Scalar):
        b_rows = [[(j, e.terms) for j, e in enumerate(row) if e.terms] for row in b]
        out = []
        for ai in a:
            sums = [{} for _ in range(cols)]
            for c, bk in zip(ai, b_rows):
                for m1, c1 in c.terms.items():
                    for j, terms in bk:
                        acc = sums[j]
                        for m2, c2 in terms.items():
                            m = tuple(map(add, m1, m2))
                            old = acc.get(m)
                            acc[m] = c1 * c2 if old is None else old + c1 * c2
            out.append([type(zero)(zero.ring, {m: v for m, v in acc.items() if not v.is_zero()})
                        if acc else zero for acc in sums])
        return out
    out = zeros(rows, cols, zero)
    for i in range(rows):
        ai, oi = a[i], out[i]
        for k in range(inner):
            c = ai[k]
            if c.is_zero():
                continue
            bk = b[k]
            for j in range(cols):
                e = bk[j]
                if not e.is_zero():
                    oi[j] = oi[j] + c * e
    return out


def _echelon(mat: Matrix):
    """Row-reduce mat in place to reduced echelon form.

    Returns (pivot columns, factor).  The factor is the product of the pivots,
    negated once per row swap, so for a square matrix of full rank it is the
    determinant.  A row update touches only the nonzero entries of the pivot row.
    """
    pivots = []
    factor = Scalar.one()
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if not mat[i][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            factor = -factor
        row = mat[r]
        factor = factor * row[col]
        inv = row[col].inverse()
        # entries left of col are zero: earlier columns are pivots or all zero below r
        support = [j for j in range(col, len(row)) if not row[j].is_zero()]
        for j in support:
            row[j] = row[j] * inv
        for i in range(len(mat)):
            other = mat[i]
            f = other[col]
            if i != r and not f.is_zero():
                for j in support:
                    other[j] = other[j] - f * row[j]
        pivots.append(col)
        r += 1
    return pivots, factor


def echelon_form(a: Matrix):
    """(rows, pivots): the nonzero rows of the reduced echelon form of A and
    their pivot columns, leftmost first.  A is not changed."""
    work = [row[:] for row in a]
    pivots, _ = _echelon(work)
    return work[: len(pivots)], pivots


def rank(a: Matrix) -> int:
    return len(echelon_form(a)[1])


def solve(a: Matrix, b: list):
    """One solution x of A x = b, or None when inconsistent."""
    cols = len(a[0]) if a else 0
    reduced, pivots = echelon_form([row + [as_scalar(v)] for row, v in zip(a, b)])
    if cols in pivots:
        return None
    x = [Scalar.zero()] * cols
    for row, col in zip(reduced, pivots):
        x[col] = row[cols]
    return x


def nullspace(a: Matrix) -> list:
    """Basis column vectors of ker(A), one per free column, in column order.

    The basis vector of free column f is 1 at f and 0 at the other free
    columns, and f is its last nonzero entry.
    """
    cols = len(a[0]) if a else 0
    reduced, pivots = echelon_form(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Scalar.zero()] * cols
        vec[free] = Scalar.one()
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def invert(a: Matrix) -> Matrix:
    n = len(a)
    reduced, pivots = echelon_form([row + e for row, e in zip(a, identity(n))])
    if pivots != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in reduced]


def det(a: Matrix) -> Scalar:
    n = len(a)
    pivots, factor = _echelon([row[:] for row in a])
    return factor if len(pivots) == n else Scalar.zero()
