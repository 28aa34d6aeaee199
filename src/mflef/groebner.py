"""Buchberger Groebner bases for ideals and submodules of free modules.

Elements of a rank-r free module are sparse maps (component, monomial) ->
Scalar.  The term order is degree-reverse-lexicographic on monomials, extended
position-over-term to modules with lower component index taking priority; that
fixed priority is what lets `syzygy_basis` read a generating set of the
syzygies off the S-pair reductions of the columns (Schreyer's theorem).
`term_key` is the one encoding of this order: the leading term of a vector is
the term with the smallest key.  A `GroebnerBasis` indexes its generators by
lead once, in `leads`, and every reduction reads that index.
`buchberger` prunes its S-pairs by the Gebauer-Moeller criteria (the chain
criterion B_k, the M and F steps, and for ideals the coprime test).  They
change how many S-vectors are reduced, never the reduced basis, which is
unique.
All pair selection and reduction choices are deterministic, so reduced bases
and everything derived from them are reproducible bit for bit.

Coefficients run on one of two kernels, chosen once per call.  When every
input coefficient is an order-1 Scalar (a rational), `buchberger` runs on
Python ints: each vector is kept primitive (content removed), S-vectors
scale by the cofactors of the two leads' gcd, and reduction scales the work
by pseudo-division (Bareiss, Math. Comp. 22, 1968), so no gcd or inverse is
taken per coefficient; generators become monic order-1 Scalars only in the
result.  `normal_form` of a rational element by a rational basis runs the
same way.  Any coefficient of higher order, an order-2 rational included,
keeps the whole call on Scalars, so every result keeps the orders it has on
Scalars.  The int kernel cannot change a result: its work is at every step
a nonzero multiple of the Scalar kernel's, so it takes the same steps, and
a reduced monic basis and a remainder divided back by its factor are
unique.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .polyring import (
    Monomial,
    PolyRing,
    Polynomial,
    degrevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .scalars import Scalar, _scalar


def term_key(term):
    """Sort key of a (component, monomial) term; the leading term sorts first."""
    comp, mono = term
    return (comp, -sum(mono), tuple(reversed(mono)))


class Vec:
    """Sparse element of a free module R^rank over the polynomial ring."""

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring: PolyRing, rank: int, terms: dict):
        self.ring = ring
        self.rank = rank
        self.terms = terms

    @staticmethod
    def from_column(column, rank=None):
        ring = column[0].ring
        rank = len(column) if rank is None else rank
        terms = {}
        for comp, poly in enumerate(column):
            for m, c in poly.terms.items():
                terms[(comp, m)] = c
        return Vec(ring, rank, terms)

    @staticmethod
    def from_poly(poly):
        return Vec.from_column([poly], 1)

    def to_column(self):
        """The element as a list of Polynomials, its empty components one shared zero."""
        cols = {}
        for (comp, m), c in self.terms.items():
            cols.setdefault(comp, {})[m] = c
        zero = Polynomial(self.ring, {})
        return [Polynomial(self.ring, cols[comp]) if comp in cols else zero
                for comp in range(self.rank)]

    def to_poly(self):
        if self.rank != 1:
            raise ValueError("not a rank-1 element")
        return self.to_column()[0]

    def is_zero(self):
        return not self.terms

    def lead(self):
        return min(self.terms, key=term_key)

    def monic(self, lead=None):
        if not self.terms:
            return self
        inv = self.terms[lead or self.lead()].inverse()
        return Vec(self.ring, self.rank, {k: c * inv for k, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(c == other.terms[k] for k, c in self.terms.items())

    __hash__ = None

    def __repr__(self):
        return f"Vec({self.to_column()})"


def _coerce_vec(element, rank=None):
    if isinstance(element, Vec):
        return element
    if isinstance(element, Polynomial):
        return Vec.from_poly(element)
    if isinstance(element, (list, tuple)):
        return Vec.from_column(list(element), rank)
    raise TypeError(f"cannot interpret {element!r} as a module element")


class GroebnerBasis:
    """A Groebner basis of a submodule of R^rank (R^1 = ideal case).

    Every generator is monic, so reduction never divides by a lead (only
    the int run inside `buchberger` holds primitive int ones).  `leads`
    is the lead index: it maps each component to the (lead monomial,
    generator index) pairs of the generators leading in that component, in
    generator order.  It is built once, as generators are appended, and
    reduction, pair selection and standard monomials all read it.
    """

    __slots__ = ("ring", "rank", "generators", "leads")

    def __init__(self, ring, rank, generators, leads=None):
        self.ring = ring
        self.rank = rank
        self.generators = []
        self.leads = {}
        for k, g in enumerate(generators):
            if g.terms[self.append(g, leads and leads[k])] != 1:
                raise ValueError("Groebner basis generators must be monic")

    def append(self, g, lead=None):
        """Append and index a generator by its lead, given or found; returns the lead."""
        lead = lead or g.lead()
        self.leads.setdefault(lead[0], []).append((lead[1], len(self.generators)))
        self.generators.append(g)
        return lead

    def __len__(self):
        return len(self.generators)


def _rational(terms):
    """True when every coefficient of a term dict is an order-1 Scalar."""
    return all(c.order == 1 for c in terms.values())


def _integral(terms):
    """(den, ints): den times an order-1 term dict, den the lcm of its denominators."""
    den = math.lcm(*(c.den for c in terms.values()))
    return den, {t: c.num[0] * (den // c.den) for t, c in terms.items()}


def _primitive(vec):
    """An int vector divided by the gcd of its coefficients."""
    g = math.gcd(*vec.terms.values())
    if g == 1:
        return vec
    return Vec(vec.ring, vec.rank, {t: c // g for t, c in vec.terms.items()})


_MINUS_ONE = -Scalar.one()


def _over(terms, den):
    """The order-1 Scalar term dict of int terms divided by a nonzero int den;
    the values 1 and -1 are one shared Scalar each."""
    signs, s = {den: Scalar.one(), -den: _MINUS_ONE}, (1 if den > 0 else -1)
    return {t: signs.get(c) or _scalar(1, (s * c,), s * den) for t, c in terms.items()}


def _full_reduce(vec: Vec, gens, leads):
    """Unique remainder with no term divisible by any generator lead, and the
    factor by which the input was scaled to reach it.

    `leads` must be the lead index of the generators (see `GroebnerBasis`).
    Over Scalars the generators are monic and the factor is 1.  Over Python
    ints a generator with lead c reduces a term a by pseudo-division: the
    work is scaled by |c| / gcd(a, c), never divided, so every coefficient
    stays an integer (Bareiss), and the factor is positive.  The int work is
    at every step the factor times the Scalar work, so both kernels take the
    same steps.
    Works on a mutable term dict with a lazy heap of candidate leading
    terms; each reduction step touches only the terms of one generator.
    """
    remainder: dict = {}
    work = dict(vec.terms)
    scale = 1
    heap = [(term_key(t), t) for t in work]
    heapq.heapify(heap)
    while heap:
        comp, mono = term = heapq.heappop(heap)[1]
        coeff = work.pop(term, None)
        if coeff is None:
            continue  # stale heap entry
        for lead_mono, idx in leads.get(comp, ()):
            if monomial_divides(lead_mono, mono):
                break
        else:
            remainder[term] = coeff
            continue
        g = gens[idx]
        lead_key = (comp, lead_mono)
        lead_coeff = g.terms[lead_key]
        if lead_coeff.__class__ is int and lead_coeff != 1:
            d = math.gcd(coeff, lead_coeff)
            coeff //= d if lead_coeff > 0 else -d
            factor = abs(lead_coeff) // d
            if factor != 1:
                scale *= factor
                for t in work:
                    work[t] *= factor
                for t in remainder:
                    remainder[t] *= factor
        qmono = monomial_div(mono, lead_mono)
        for (gc, gm), gcoef in g.terms.items():
            if (gc, gm) == lead_key:
                continue  # the lead cancels exactly
            tkey = (gc, monomial_mul(gm, qmono))
            old = work.get(tkey)
            if old is None:
                work[tkey] = -(coeff * gcoef)
                heapq.heappush(heap, (term_key(tkey), tkey))
            else:
                val = old - coeff * gcoef
                if val:
                    work[tkey] = val
                else:
                    del work[tkey]
    return Vec(vec.ring, vec.rank, remainder), scale


def _s_vector(gi: Vec, qi: Monomial, ci, gj: Vec, qj: Monomial, cj) -> Vec:
    """ci * qi * gi - cj * qj * gj, with factors that cancel the leads: 1 and 1
    for monic Scalar generators, the cofactors of the leads' gcd over ints."""
    if ci == 1:
        terms = {(comp, monomial_mul(m, qi)): c for (comp, m), c in gi.terms.items()}
    else:
        terms = {(comp, monomial_mul(m, qi)): c * ci for (comp, m), c in gi.terms.items()}
    for (comp, m), c in gj.terms.items():
        key = (comp, monomial_mul(m, qj))
        if cj != 1:
            c *= cj
        old = terms.pop(key, None)
        if old is None:
            terms[key] = -c
        else:
            diff = old - c
            if diff:
                terms[key] = diff
    return Vec(gi.ring, gi.rank, terms)


def buchberger(generators, rank=None, *, _syzygies_from=None) -> GroebnerBasis:
    """Reduced Groebner basis; normal selection strategy (lowest lcm first).

    S-pairs join leads in one component only.  Each new generator updates
    the pairs as Gebauer & Moeller do (JSC 6, 1988):
    - the chain criterion B_k drops a queued pair whose lcm the new lead
      divides with a different lcm against each of the pair's two leads;
    - the M and F steps keep, of the new pairs, those of minimal lcm and one
      of equal lcms;
    - for ideals, a pair of coprime leads is dropped (Buchberger's first
      criterion); in a module that test is not valid.
    A dropped pair's S-vector has a standard representation through the
    pairs kept, so the loop still ends with a Groebner basis of the same
    submodule.  The reduced basis of a submodule is unique, so the criteria
    change only how many S-vectors are reduced, never the result.
    When every input coefficient is rational of order 1, the whole run is on
    primitive int vectors, made monic only in the result (see the module
    docstring).
    `_syzygies_from` is for `syzygy_basis` alone: see there.
    """
    items = [_coerce_vec(g, rank) for g in generators]
    items = [v for v in items if not v.is_zero()]
    if not items:
        if rank is None:
            raise ValueError("rank required for an empty generating set")
        return GroebnerBasis(None, rank, [])
    ring = items[0].ring
    rank = items[0].rank
    ints = all(_rational(v.terms) for v in items)
    if ints:
        items = [Vec(ring, rank, _integral(v.terms)[1]) for v in items]
    block = rank if _syzygies_from is None else _syzygies_from
    gb = GroebnerBasis(ring, rank, [])
    pairs: list = []  # heap of (lcm key, push count, component)
    queued: dict = {}  # component -> {push count: (lcm, lead_i, i, lead_j, j)}
    pushes = itertools.count()

    def add(v, lead=None):
        """Append v, primitive or monic, and update the pairs by the criteria above."""
        new = len(gb)
        lead = lead or v.lead()
        comp, mono = gb.append(_primitive(v) if ints else v.monic(lead), lead)
        if comp >= block:
            return
        live = queued.setdefault(comp, {})
        # chain criterion B_k, on the queued pairs of this component only
        for n, (lcm, mono_i, _, mono_j, _) in list(live.items()):
            if (monomial_divides(mono, lcm) and monomial_lcm(mono_i, mono) != lcm
                    and monomial_lcm(mono_j, mono) != lcm):
                del live[n]
        # M and F; among equal lcms an ideal's coprime pair comes first, and it
        # is then dropped, since its S-polynomial reduces to zero
        new_pairs = []
        for old_mono, old in gb.leads[comp][:-1]:
            lcm = monomial_lcm(old_mono, mono)
            coprime = rank == 1 and monomial_mul(old_mono, mono) == lcm
            new_pairs.append((lcm, old_mono, old, coprime))
        new_pairs.sort(key=lambda pair: not pair[3])  # coprime pairs first
        for k, (lcm, old_mono, old, coprime) in enumerate(new_pairs):
            if coprime or any(
                k2 != k and monomial_divides(other, lcm) and (other != lcm or k2 < k)
                for k2, (other, _, _, _) in enumerate(new_pairs)
            ):
                continue
            n = next(pushes)
            live[n] = (lcm, old_mono, old, mono, new)
            heapq.heappush(pairs, (degrevlex_key(lcm), n, comp))

    for v in items:
        add(v)
    while pairs:
        _, n, comp = heapq.heappop(pairs)
        pair = queued[comp].pop(n, None)
        if pair is None:
            continue  # dropped by the chain criterion
        lcm, mono_i, i, mono_j, j = pair
        gi, gj = gb.generators[i], gb.generators[j]
        ci = cj = 1
        if ints:
            ci, cj = gi.terms[(comp, mono_i)], gj.terms[(comp, mono_j)]
            d = math.gcd(ci, cj)
            ci, cj = cj // d, ci // d
        s = _s_vector(gi, monomial_div(lcm, mono_i), ci, gj, monomial_div(lcm, mono_j), cj)
        rem = _full_reduce(s, gb.generators, gb.leads)[0]
        if not rem.is_zero():
            add(rem, next(iter(rem.terms)))  # a remainder is built in term order

    # inter-reduce to the unique reduced basis: prune generators whose lead
    # is divisible by another's (keeping the first of equal leads; for
    # syzygy_basis, keep the syzygies alone), then reduce each tail by the
    # kept generators.  Every tail term, and every term its reduction
    # produces, lies below the generator's own lead, so the generator cannot
    # reduce itself and one shared index serves all.  An int tail comes back
    # scaled by some factor, so its lead is that factor times the old one.
    kept = GroebnerBasis(ring, rank, [])
    for comp, entries in gb.leads.items():
        for mono, i in entries:
            if comp >= block or (_syzygies_from is None and not any(
                j != i and monomial_divides(other, mono) and (other != mono or j < i)
                for other, j in entries
            )):
                kept.append(gb.generators[i], (comp, mono))
    # A result keeps one tuple per distinct monomial, and its lead term first.
    reduced = []
    monos = {}
    for comp, entries in kept.leads.items():
        for mono, i in entries:
            lead = (comp, mono)
            g = kept.generators[i]
            tail = {t: c for t, c in g.terms.items() if t != lead}
            rem, scale = _full_reduce(Vec(ring, rank, tail), kept.generators, kept.leads)
            terms = {(comp, monos.setdefault(mono, mono)): Scalar.one()}
            for (c, m), v in (_over(rem.terms, g.terms[lead] * scale) if ints else rem.terms).items():
                terms[(c, monos.setdefault(m, m))] = v
            reduced.append((term_key(lead), lead, Vec(ring, rank, terms)))
    reduced.sort(key=lambda entry: entry[0])
    return GroebnerBasis(ring, rank, [g for _, _, g in reduced], [lead for _, lead, _ in reduced])


def normal_form(element, gb: GroebnerBasis):
    """Remainder modulo the basis; idempotent and scalar-linear.  A rational
    element reduces by a rational basis on ints, as in `buchberger`."""
    was_poly = isinstance(element, Polynomial)
    vec = _coerce_vec(element, gb.rank)
    if not gb.generators:
        return element
    gens = gb.generators
    if vec.terms and _rational(vec.terms) and all(_rational(g.terms) for g in gens):
        den, terms = _integral(vec.terms)
        gens = [Vec(g.ring, g.rank, _integral(g.terms)[1]) for g in gens]
        rem, scale = _full_reduce(Vec(vec.ring, vec.rank, terms), gens, gb.leads)
        rem.terms = _over(rem.terms, den * scale)
    else:
        rem = _full_reduce(vec, gens, gb.leads)[0]
    return rem.to_poly() if was_poly else rem


def standard_monomials(gb: GroebnerBasis, nvars=None):
    """All module monomials outside the leading-term module, or None if infinite.

    Entries are (component, monomial) pairs in (component, degrevlex) order;
    their number is the scalar dimension of the quotient.  They form an order
    ideal (Macaulay's basis; Cox, Little, O'Shea, Ideals, Varieties, and
    Algorithms, 5.3): each degree is the one-variable steps up from the one
    below, less the multiples of a lead.  It is finite iff some lead is a
    power of each variable; the unit lead is one of every variable.
    """
    nvars = gb.ring.nvars if gb.ring is not None else nvars
    if nvars is None:
        raise ValueError("variable count needed for an empty basis")
    result = []
    for comp in range(gb.rank):
        leads = [lead for lead, _ in gb.leads.get(comp, ())]
        if not all(any(sum(m) == m[var] for m in leads) for var in range(nvars)):
            return None
        layer = {(0,) * nvars}
        while layer:
            standard = sorted((m for m in layer if not any(monomial_divides(lead, m) for lead in leads)),
                              key=degrevlex_key)
            result.extend((comp, m) for m in standard)
            layer = {m[:var] + (m[var] + 1,) + m[var + 1:] for m in standard for var in range(nvars)}
    return result


def syzygy_basis(mat):
    """Generators of {v : mat . v = 0} for a row-major matrix over the ring.

    `buchberger` runs on the columns (mat e_j, e_j), extended by unit vectors
    in trailing components, and returns the elements led there: syzygies.
    They join no S-pair and are not pruned, only tail-reduced: by Schreyer's
    theorem (La Scala & Stillman, JSC 26, 1998) the S-pair reductions of the
    columns already generate the syzygies, so the result is a generating
    set, not their reduced Groebner basis.  Returns a list of columns (lists
    of Polynomials of length ncols).
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    if ncols == 0:
        return []
    ring = mat[0][0].ring
    augmented = []
    for j in range(ncols):
        vec = Vec.from_column([row[j] for row in mat], nrows + ncols)
        vec.terms[(nrows + j, (0,) * ring.nvars)] = Scalar.one()
        augmented.append(vec)
    gb = buchberger(augmented, _syzygies_from=nrows)
    return [
        Vec(ring, ncols, {(comp - nrows, m): c for (comp, m), c in g.terms.items()}).to_column()
        for g in gb.generators
    ]


# -- graded presentations and free resolutions -------------------------------


class GradedModulePresentation:
    """coker of a homogeneous matrix between graded free modules.

    `relations` is row-major: rows are indexed by the generators (with the
    given degrees, deg x_i = 1 grading), columns by the relations.
    """

    __slots__ = ("ring", "gen_degrees", "relations")

    def __init__(self, ring: PolyRing, gen_degrees, relations):
        self.ring = ring
        self.gen_degrees = tuple(int(d) for d in gen_degrees)
        self.relations = [list(row) for row in relations]
        if self.relations and len(self.relations) != len(self.gen_degrees):
            raise ValueError("relation matrix needs one row per generator")
        _column_degrees(self.relations, self.gen_degrees)  # validates homogeneity

    @property
    def num_relations(self):
        return len(self.relations[0]) if self.relations and self.relations[0] else 0

    @staticmethod
    def cyclic(ring, relation_polys, degree=0):
        """R/(f_1, ..., f_k) with its generator in the given degree."""
        return GradedModulePresentation(ring, [degree], [list(relation_polys)])


class NonHomogeneousError(ValueError):
    pass


def _column_degrees(mat, row_degrees):
    """Degrees of the column generators; raises unless homogeneous."""
    if not mat or not mat[0]:
        return []
    degrees = []
    for j in range(len(mat[0])):
        degree = None
        for i, row in enumerate(mat):
            entry = row[j]
            if entry.is_zero():
                continue
            terms_deg = {sum(m) for m in entry.terms}
            if len(terms_deg) != 1:
                raise NonHomogeneousError("matrix entry is not homogeneous")
            d = terms_deg.pop() + row_degrees[i]
            if degree is None:
                degree = d
            elif degree != d:
                raise NonHomogeneousError("column mixes degrees")
        degrees.append(degree)  # None for a zero column (dropped by minimization)
    return degrees


class FreeResolution:
    """A minimal graded free resolution: F_0 <- F_1 <- ... <- F_len."""

    __slots__ = ("ring", "degrees", "matrices")

    def __init__(self, ring, degrees, matrices):
        self.ring = ring
        self.degrees = [tuple(d) for d in degrees]
        self.matrices = matrices

    @property
    def length(self):
        return len(self.matrices)


def _minimize(mat, col_degrees):
    """Cancel constant entries; returns (mat, col_degrees, kept_row_indices)."""
    nrows = len(mat)
    kept_rows = list(range(nrows))
    mat = [row[:] for row in mat]
    while True:
        unit = None
        for i in range(len(mat)):
            for j in range(len(mat[0]) if mat else 0):
                entry = mat[i][j]
                if not entry.is_zero() and entry.is_constant():
                    unit = (i, j)
                    break
            if unit:
                break
        if unit is None:
            break
        i, j = unit
        c_inv = mat[i][j].constant_term().inverse()
        for j2 in range(len(mat[0])):
            if j2 == j or mat[i][j2].is_zero():
                continue
            factor = mat[i][j2] * c_inv
            for i2 in range(len(mat)):
                mat[i2][j2] = mat[i2][j2] - factor * mat[i2][j]
        for row in mat:
            del row[j]
        del col_degrees[j]
        del mat[i]
        del kept_rows[i]
    # drop zero columns left behind
    j = 0
    while mat and j < (len(mat[0]) if mat else 0):
        if all(row[j].is_zero() for row in mat):
            for row in mat:
                del row[j]
            del col_degrees[j]
        else:
            j += 1
    return mat, col_degrees, kept_rows


def free_resolution(pres: GradedModulePresentation) -> FreeResolution:
    """Minimal graded free resolution by iterated syzygies plus minimization.

    Consecutive composites vanish and no matrix carries a unit entry, so the
    generator degrees per step are the graded Betti numbers.  The length is
    bounded by the variable count (Hilbert syzygy theorem), asserted here.
    """
    ring = pres.ring
    gen_degrees = list(pres.gen_degrees)
    mat = [row[:] for row in pres.relations]
    if not mat or not mat[0]:
        return FreeResolution(ring, [gen_degrees], [])
    col_degs = _column_degrees(mat, gen_degrees)

    degrees = [gen_degrees]
    matrices = []
    while mat and mat[0]:
        mat, col_degs, kept_rows = _minimize(mat, col_degs)
        if len(kept_rows) != len(degrees[-1]):
            # rows of `mat` are the generators of the current step, i.e. the
            # columns of the previously emitted matrix: drop those columns too
            degrees[-1] = [degrees[-1][i] for i in kept_rows]
            if matrices:
                prev = matrices[-1]
                matrices[-1] = [[row[j] for j in kept_rows] for row in prev]
        if not mat or not mat[0]:
            break
        matrices.append(mat)
        degrees.append(list(col_degs))
        syz = syzygy_basis(mat)
        if not syz:
            break
        mat = [[syz[j][i] for j in range(len(syz))] for i in range(len(syz[0]))]
        col_degs = _column_degrees(mat, degrees[-1])
    if len(matrices) > ring.nvars:
        raise AssertionError("resolution exceeds the syzygy bound; minimization failed")
    return FreeResolution(ring, degrees, matrices)
