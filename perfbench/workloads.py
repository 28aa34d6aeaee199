"""The benchmark's three workloads: seeded inputs, one pass, known answers.

Each workload makes the inputs of pass `p` from `(seed, p)` alone, runs them
through mflef's public API (or its CLI), times every case and checks it:

* the verdict the theorem predicts (`equal`; a zero left side on an
  odd-dimensional fixed locus; the closed form in the isolated sweep);
* every printed value, byte for byte, against `reference/<workload>.json`,
  which `record.py` wrote from the program at the commit that added the
  benchmark.  A speedup that changes a printed value does not count.

mflef is imported inside the functions, never at module level, because the
benchmark imports it afresh for every measured set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = HERE / "work"


@dataclass
class CaseResult:
    key: str
    ns: int
    error: str | None = None


@dataclass
class PassResult:
    cases: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # failures not tied to one case

    @property
    def failed(self):
        return sum(1 for c in self.cases if c.error) + len(self.errors)

    @property
    def attempted(self):
        return len(self.cases) + len(self.errors)


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _check_values(rep, expected, reference):
    """None when the report has the expected verdict and recorded values."""
    if not rep.equal:
        return f"verdict MISMATCH: lhs = {rep.lhs}  rhs = {rep.rhs}"
    if expected is not None and not (rep.lhs == expected and rep.rhs == expected):
        return f"known answer {expected}: lhs = {rep.lhs}  rhs = {rep.rhs}"
    printed = [str(rep.lhs), str(rep.rhs)]
    if printed != reference:
        return f"printed {printed} != reference {reference}"
    return None


@dataclass
class ApiCase:
    """One verifier call; `expected` is the value of both sides, if the theorem gives it."""

    key: str
    call: object
    expected: object = None


def _bind(module, name, *args, **kwargs):
    """A call of module.name looked up when it runs, so tracer patches apply."""
    return lambda: getattr(module, name)(*args, **kwargs)


def run_api_pass(cases, reference, tracer=None):
    result = PassResult()
    for case in cases:
        if tracer is not None:
            tracer.case = case.key
        start = time.perf_counter_ns()
        try:
            rep = case.call()
        except Exception as exc:  # a raising case is a failed case, not a crash
            result.cases.append(CaseResult(case.key, time.perf_counter_ns() - start,
                                           f"raised {type(exc).__name__}: {exc}"))
            continue
        ns = time.perf_counter_ns() - start
        if case.key not in reference:
            error = "no reference value recorded"
        else:
            error = _check_values(rep, case.expected, reference[case.key])
        result.cases.append(CaseResult(case.key, ns, error))
    return result


# -- isolated-sweep ------------------------------------------------------------


class IsolatedSweep:
    """verify_isolated over (x^a, x^(d-a)) of x^d: every zeta_d^j and (a, b)."""

    name = "isolated-sweep"
    sizes = {"full": 7, "tiny": 3}  # largest d

    @staticmethod
    def key(d, j, a, b):
        return f"d={d} j={j} a={a} b={b}"

    def make_pass(self, seed, index, size):
        from mflef import lefschetz
        from mflef.mfcore import MatrixFactorization, MFMorphism, pullback
        from mflef.polyring import PolyRing
        from mflef.scalars import RootOfUnity, Scalar

        rng = random.Random(f"{self.name}/{seed}/{index}")
        ring = PolyRing(("x",))
        x = ring.var("x")
        one = Scalar.one()

        def canonical(mf, d, a, j):
            # the equivariant structure (1, zeta_d^(j a)) on (x^a, x^(d-a)) for t = zeta_d^j
            return MFMorphism.diagonal(mf, pullback([RootOfUnity(d, j)], mf),
                                       [one, Scalar.zeta(d, j * a)])

        cases = []
        for d in range(2, self.sizes[size] + 1):
            mfs = {a: MatrixFactorization(x**d, [[x**a]], [[x ** (d - a)]])
                   for a in range(1, d)}
            for j in range(1, d):
                t = [RootOfUnity(d, j)]
                betas = {b: canonical(B, d, b, j).inverse() for b, B in mfs.items()}
                # str(alpha|0) str(beta|0) / (1 - zeta_d^j), factor by factor
                str_alpha = {a: one - Scalar.zeta(d, j * a) for a in mfs}
                str_beta = {b: one - Scalar.zeta(d, -j * b) for b in mfs}
                denominator = (one - Scalar.zeta(d, j)).inverse()
                for a, A in mfs.items():
                    # a seeded coboundary keeps the class, hence the answer
                    # (homotopy invariance), but not the matrix entries
                    psi = MFMorphism.from_blocks(
                        A, pullback(t, A), 1,
                        [[ring.monomial((rng.randint(0, 2),), rng.randint(-3, 3))]],
                        [[ring.monomial((rng.randint(0, 2),), rng.randint(-3, 3))]],
                    )
                    alpha = canonical(A, d, a, j) + psi.differential()
                    if not alpha.is_closed():
                        raise AssertionError(f"perturbed alpha not closed: d={d} a={a} j={j}")
                    for b, B in mfs.items():
                        key = self.key(d, j, a, b)
                        cases.append(ApiCase(
                            key,
                            _bind(lefschetz, "verify_isolated", A, B, t, alpha, betas[b],
                                  case=key),
                            str_alpha[a] * str_beta[b] * denominator,
                        ))
        return cases

    def run_pass(self, cases, reference, tracer=None):
        return run_api_pass(cases, reference, tracer)


# -- koszul-hom ----------------------------------------------------------------


class KoszulHom:
    """Koszul factorizations of sum x_i^(d_i) with identity or sign symmetries.

    Every case has its own (A, B) pair, so a reuse cache has nothing to reuse;
    scalars stay in Q.  Time goes to module Groebner work on rank-4 (two
    variables) and rank-8 (three variables) Hom complexes.
    """

    name = "koszul-hom"
    # cases per pass by kind.  The cheaper kinds outnumber the two hlf kinds
    # so that p50 lies inside one cluster of case times, not between two.
    sizes = {
        "full": {"hlf-id": 8, "hlf-sign": 8, "zero-sign": 16, "trace": 16, "three": 1},
        "tiny": {"hlf-id": 1, "hlf-sign": 1, "zero-sign": 1, "trace": 1, "three": 0},
    }
    KINDS2 = ("hlf-id", "hlf-sign", "zero-sign", "trace")
    UNIVERSE_PER_KIND = 120

    @staticmethod
    def key(kind, ds, As, Bs, ts):
        fmt = lambda v: ",".join(str(e) for e in v)
        return f"{kind} d={fmt(ds)} a={fmt(As)} b={fmt(Bs)} t={fmt(ts)}"

    def universe(self):
        """Every case a seed can draw, by kind; fixed, so references cover it."""
        rng = random.Random(f"{self.name}/universe")
        degrees = (2, 3, 4, 5, 6)
        even = (2, 4, 6)
        kinds = {kind: [] for kind in self.KINDS2 + ("three",)}

        def factor_choices(ds):
            out = [()]
            for d in ds:
                out = [c + (a,) for c in out for a in range(1, d)]
            return out

        for d1 in degrees:
            for d2 in degrees:
                ds = (d1, d2)
                choices = factor_choices(ds)
                pairs = [(A, B) for A in choices for B in choices]
                kinds["hlf-id"] += [(ds, A, B, (1, 1)) for A, B in pairs]
                if d1 in even and d2 in even:
                    kinds["hlf-sign"] += [(ds, A, B, (-1, -1)) for A, B in pairs]
                    kinds["trace"] += [(ds, A, A, (-1, -1)) for A in choices]
                if d1 in even:
                    kinds["zero-sign"] += [(ds, A, B, (-1, 1)) for A, B in pairs]
                if d2 in even:
                    kinds["zero-sign"] += [(ds, A, B, (1, -1)) for A, B in pairs]
        for kind in self.KINDS2:
            pool = kinds[kind]
            if len(pool) > self.UNIVERSE_PER_KIND:
                kinds[kind] = rng.sample(pool, self.UNIVERSE_PER_KIND)
        # three variables: permutations of x^2 + y^2 + z^3
        for cubic in range(3):
            ds = tuple(3 if i == cubic else 2 for i in range(3))
            evens = [i for i in range(3) if i != cubic]
            sym = {
                "zero": [tuple(1 for _ in ds),
                         tuple(-1 if i in evens else 1 for i in range(3))],
                "hlf": [tuple(-1 if i == e else 1 for i in range(3)) for e in evens],
            }
            for A in factor_choices(ds):
                for B in factor_choices(ds):
                    for family, ts_list in sym.items():
                        kinds["three"] += [(ds, A, B, ts) for ts in ts_list]
        return kinds

    def everything(self):
        """Every drawable case, in the form `build` takes."""
        return [(self._kind_of(kind, ts), ds, A, B, ts)
                for kind, pool in self.universe().items() for ds, A, B, ts in pool]

    @staticmethod
    def _kind_of(kind, ts):
        if kind != "three":
            return kind
        fixed = sum(1 for s in ts if s == 1)
        return "zero3" if fixed % 2 else "hlf3"

    def draw(self, seed, index, size):
        """Case tuples of pass `index`: per kind, the next unused ones of a
        seeded order of the universe, skipping any (A, B) pair already in
        the pass.

        The three-variable cases follow one fixed order for every seed: each
        costs 1.7 to 3.1 s, and a seeded draw of so few would make the run's
        time depend on the seed."""
        wanted = self.sizes[size]
        orders = {}
        for kind, pool in self.universe().items():
            order = list(pool)
            fixed = kind == "three"
            random.Random(f"{self.name}/{'schedule' if fixed else seed}/{kind}").shuffle(order)
            orders[kind] = order
        cursors = {kind: 0 for kind in orders}
        for p in range(index + 1):
            pairs = set()
            chosen = []
            for kind in self.KINDS2 + ("three",):
                order = orders[kind]
                taken = 0
                while taken < wanted[kind]:
                    ds, A, B, ts = order[cursors[kind] % len(order)]
                    cursors[kind] += 1
                    if (ds, A, B) in pairs:
                        continue
                    pairs.add((ds, A, B))
                    chosen.append((self._kind_of(kind, ts), ds, A, B, ts))
                    taken += 1
        return chosen

    def make_pass(self, seed, index, size):
        return self.build(self.draw(seed, index, size))

    def build(self, drawn):
        from mflef import lefschetz
        from mflef.mfcore import MFMorphism, koszul_mf, pullback
        from mflef.polyring import PolyRing
        from mflef.scalars import RootOfUnity, Scalar

        rings = {2: PolyRing(("x", "y")), 3: PolyRing(("x", "y", "z"))}
        cases = []
        for kind, ds, As, Bs, ts in drawn:
            ring = rings[len(ds)]
            v = [ring.var(i) for i in range(ring.nvars)]
            t = [RootOfUnity(2, 1) if s == -1 else RootOfUnity(1, 0) for s in ts]

            def koszul(exps):
                return koszul_mf([v[i] ** e for i, e in enumerate(exps)],
                                 [v[i] ** (d - e) for i, (d, e) in enumerate(zip(ds, exps))])

            def structure(mf, exps):
                # e_S -> prod_{i in S} t_i^(a_i) e_S, evens then odds, closed
                # because t fixes every x_i^(d_i)
                n = len(ds)
                subsets = sorted(range(1 << n), key=lambda s: (bin(s).count("1") % 2, s))
                scales = []
                for s in subsets:
                    c = 1
                    for i in range(n):
                        if s >> i & 1:
                            c *= ts[i] ** exps[i]
                    scales.append(c)
                phi = MFMorphism.diagonal(mf, pullback(t, mf), scales)
                if not phi.is_closed():
                    raise AssertionError(f"structure not closed: {kind} {ds} {exps}")
                return phi

            A = koszul(As)
            alpha = structure(A, As)
            key = self.key(kind, ds, As, Bs, ts)
            expected = None
            if kind == "trace":
                call = _bind(lefschetz, "trace_identity_check", A, t, alpha, case=key)
            else:
                B = koszul(Bs)
                beta = structure(B, Bs).inverse()
                if kind.startswith("zero"):
                    # an odd-dimensional fixed locus forces a zero supertrace
                    call = _bind(lefschetz, "zero_fixed_locus_check", A, B, t, alpha, beta,
                                 case=key)
                    expected = Scalar.zero()
                else:
                    call = _bind(lefschetz, "verify_hlf", A, B, t, alpha, beta, case=key)
            cases.append(ApiCase(key, call, expected))
        return cases

    def run_pass(self, cases, reference, tracer=None):
        return run_api_pass(cases, reference, tracer)


# -- corpus-cli ----------------------------------------------------------------


def _koszul_quadric_text(names):
    """d0, d1 of the Koszul factorization {x_i ; x_i} of sum x_i^2, as text rows."""
    n = len(names)
    evens = [s for s in range(1 << n) if bin(s).count("1") % 2 == 0]
    odds = [s for s in range(1 << n) if bin(s).count("1") % 2 == 1]

    def block(sources, targets):
        index = {s: i for i, s in enumerate(targets)}
        rows = [["0"] * len(sources) for _ in targets]
        for col, s in enumerate(sources):
            for i in range(n):
                bit = 1 << i
                sign = "-" if bin(s & (bit - 1)).count("1") % 2 else ""
                row = index[s ^ bit]
                rows[row][col] = sign + names[i]
        return rows

    return block(evens, odds), block(odds, evens), len(evens)


def _matrix(rows):
    return "{\n" + "\n".join(" ; ".join(row) for row in rows) + "\n}"


def _zeta(d, k):
    k %= d
    return "1" if k == 0 else f"zeta({d})^{k}"


class _Library:
    """Named document sections, each with the names it depends on."""

    def __init__(self):
        self.sections = {}  # name -> (text, dependencies), in declaration order

    def add(self, name, text, deps=()):
        self.sections[name] = (text, tuple(deps))

    def closure(self, names):
        out = set()
        todo = list(names)
        while todo:
            name = todo.pop()
            if name not in out:
                out.add(name)
                todo.extend(self.sections[name][1])
        return [name for name in self.sections if name in out]


class CorpusCli:
    """A generated workspace document run through `mflef corpus --engine both`."""

    name = "corpus-cli"
    AN = (2, 3, 4, 5)
    # family -> cases per pass.  Cases 5 to 50 times slower than the rest of
    # their family are "fixed": they run once in every pass, so the draw
    # does not decide whether a pass holds them.  The cheap families
    # outnumber the graded-engine ones (hlf, trace), so p50 lies among the
    # cheap cases and p90 among the graded ones.
    sizes = {
        "full": {"hlf": 30, "trace": 20, "bb": 16, "pair": 16, "lunts": 20, "milnor": 14,
                 "divisibility": 8, "stabilize": 4, "hilbert": 6, "fixed": 5},
        "tiny": {"hlf": 1, "trace": 1, "bb": 1, "pair": 1, "lunts": 1, "milnor": 1,
                 "divisibility": 1, "stabilize": 1, "hilbert": 1, "fixed": 0},
    }

    def __init__(self):
        self.library, self.templates = self._build()

    def _build(self):
        lib = _Library()
        fam = {f: [] for f in self.sizes["full"]}

        def potential(name, variables, expr):
            lib.add(name, f"[potential]\nname = {name}\nvars = {variables}\nexpr = {expr}\n")
            fam["milnor"].append((f"milnor {name}", [name]))

        def symmetry(name, pot, literal):
            lib.add(name, f"[symmetry]\nname = {name}\npotential = {pot}\nroots = {literal}\n",
                    [pot])
            fam["lunts"].append((f"lunts {pot} {name}", [pot, name]))

        def morphism(name, source, twist, twisted, diag, deps):
            n = len(diag)
            rows = [[diag[i] if i == j else "0" for j in range(n)] for i in range(n)]
            lib.add(name, f"[morphism]\nname = {name}\nsource = {source}\ntarget = {source}\n"
                          f"twist = {twist}\ntwisted = {twisted}\nparity = even\n"
                          f"mat = {_matrix(rows)}\n", deps)

        def module(name, variables, relations):
            lib.add(name, f"[module]\nname = {name}\nvars = {variables}\ndegrees = 0\n"
                          f"relations = {_matrix([relations])}\n")

        # A_(d-1): x^d with the graded factorizations (x^c, x^(d-c))
        for d in self.AN:
            potential(f"a{d}", "x", f"x^{d}")
            for j in range(d):
                symmetry(f"z{d}_{j}", f"a{d}", f"zeta({d})^[{j}]")
            for c in range(1, d):
                mf = f"A{d}_{c}"
                grading = Fraction(d - c, d) - Fraction(1, 2)
                lib.add(mf, f"[mf]\nname = {mf}\npotential = a{d}\nd0 = {{ x^{c} }}\n"
                            f"d1 = {{ x^{d - c} }}\ngrading_even = 0\ngrading_odd = {grading}\n",
                        [f"a{d}"])
                for j in range(1, d):
                    sym = f"z{d}_{j}"
                    morphism(f"al{d}_{c}_{j}", mf, sym, "target", ["1", _zeta(d, j * c)],
                             [mf, sym])
                    morphism(f"be{d}_{c}_{j}", mf, sym, "source", ["1", _zeta(d, -j * c)],
                             [mf, sym])
            for j in range(1, d):
                sym = f"z{d}_{j}"
                for c in range(1, d):
                    al = f"al{d}_{c}_{j}"
                    deps = [al]
                    fam["trace"].append((f"trace-identity A{d}_{c} {sym} {al}", deps))
                    fam["bb"].append((f"bb A{d}_{c} {sym} {al}", deps))
                    if d in (2, 3, 5):
                        fam["divisibility"].append((f"divisibility A{d}_{c} {sym} {al} {d}", deps))
                    for c2 in range(1, d):
                        be = f"be{d}_{c2}_{j}"
                        args = f"A{d}_{c} A{d}_{c2} {sym} {al} {be}"
                        fam["hlf"].append((f"hlf-verify {args}", [al, be]))
                        fam["pair"].append((f"pair {args}", [al, be]))
        # Koszul quadrics in two and three variables with the sign symmetry
        for n, variables in ((2, "x, y"), (3, "x, y, z")):
            names = ["x", "y", "z"][:n]
            w, sym, mf = f"q{n}", f"q{n}m", f"K{n}"
            potential(w, variables, " + ".join(f"{v}^2" for v in names))
            symmetry(sym, w, f"zeta(2)^[{','.join('1' * n)}]")
            symmetry(f"q{n}i", w, f"zeta(1)^[{','.join('0' * n)}]")
            d0, d1, half = _koszul_quadric_text(names)
            zeros = ", ".join("0" * half)
            lib.add(mf, f"[mf]\nname = {mf}\npotential = {w}\nd0 = {_matrix(d0)}\n"
                        f"d1 = {_matrix(d1)}\ngrading_even = {zeros}\ngrading_odd = {zeros}\n",
                    [w])
            signs = ["1"] * half + ["-1"] * half
            morphism(f"s{n}", mf, sym, "target", signs, [mf, sym])
            morphism(f"s{n}b", mf, sym, "source", signs, [mf, sym])
            fam["divisibility"].append((f"divisibility {mf} {sym} s{n} 2", [f"s{n}"]))
            fam["bb"].append((f"bb {mf} {sym} s{n}", [f"s{n}"]))
            if n == 2:
                fam["fixed"].append((f"hlf-verify K2 K2 {sym} s2 s2b", ["s2", "s2b"]))
                fam["pair"].append((f"pair K2 K2 {sym} s2 s2b", ["s2", "s2b"]))
                fam["fixed"].append((f"trace-identity K2 {sym} s2", ["s2"]))
        symmetry("q2p", "q2", "zeta(2)^[1,0]")
        # further potentials for Milnor algebras and the superdimension identity
        potential("c2", "x, y", "x^3 + y^3")
        for name, literal in (("c2i", "zeta(1)^[0,0]"), ("c2a", "zeta(3)^[1,1]"),
                              ("c2b", "zeta(3)^[1,2]"), ("c2c", "zeta(3)^[1,0]")):
            symmetry(name, "c2", literal)
        potential("d5", "x, y", "x^2*y + y^4")
        for name, literal in (("d5i", "zeta(1)^[0,0]"), ("d5a", "zeta(2)^[1,0]"),
                              ("d5b", "zeta(4)^[1,2]")):
            symmetry(name, "d5", literal)
        potential("d8", "x, y", "x^2*y + y^7")
        symmetry("d8i", "d8", "zeta(1)^[0,0]")
        symmetry("d8a", "d8", "zeta(2)^[1,0]")
        potential("e6", "x, y", "x^3 + y^4")
        for name, literal in (("e6a", "zeta(3)^[1,0]"), ("e6b", "zeta(4)^[0,1]"),
                              ("e6c", "zeta(12)^[4,3]")):
            symmetry(name, "e6", literal)
        potential("c3", "x, y, z", "x^3 + y^3 + z^3")
        for name, literal in (("c3i", "zeta(1)^[0,0,0]"), ("c3a", "zeta(3)^[1,1,1]"),
                              ("c3b", "zeta(3)^[1,2,0]")):
            symmetry(name, "c3", literal)
        potential("k3", "x, y, z", "x^4 + y^4 + z^4")
        # graded modules and the potentials they are stabilized over
        module("Mx", "x", ["x"])
        module("Mk2", "x, y", ["x", "y"])
        module("Mxy2", "x, y", ["x", "y^2"])
        module("Mw2", "x, y", ["x^2 + y^2"])
        module("Mk3", "x, y, z", ["x", "y", "z"])
        for mod, w in (("Mx", "a2"), ("Mk2", "q2"), ("Mxy2", "q2"), ("Mw2", "q2")):
            fam["stabilize"].append((f"stabilize {mod} {w}", [mod, w]))
            fam["hilbert"].append((f"hilbert {mod} {w}", [mod, w]))
        fam["hilbert"].append(("hilbert Mk3", ["Mk3"]))
        fam["fixed"].append(("stabilize Mk3 q3", ["Mk3", "q3"]))
        fam["fixed"].append(("hilbert Mk3 q3", ["Mk3", "q3"]))
        # the three-variable quartic: the slowest stabilization kept in
        fam["fixed"].append(("stabilize Mk3 k3", ["Mk3", "k3"]))
        return lib, fam

    def all_templates(self):
        return [t for family in self.templates.values() for t in family]

    def draw(self, seed, index, size):
        """Template texts of the cases of pass `index`, in document order."""
        rng = random.Random(f"{self.name}/{seed}/{index}")
        chosen = []
        for family, count in self.sizes[size].items():
            pool = self.templates[family]
            chosen += pool[:count] if family == "fixed" else rng.choices(pool, k=count)
        rng.shuffle(chosen)
        return chosen

    def document(self, templates, names):
        parts = ["# generated benchmark workspace\n"]
        needed = self.library.closure(n for _, deps in templates for n in deps)
        parts += [self.library.sections[n][0] for n in needed]
        for name, (text, _) in zip(names, templates):
            command, *args = text.split()
            parts.append(f"[case]\nname = {name}\ncommand = {command}\nargs = {' '.join(args)}\n")
        return "\n".join(parts)

    def make_pass(self, seed, index, size):
        from mflef.document import parse_document

        templates = self.draw(seed, index, size)
        names = [f"case{k:03d}" for k in range(len(templates))]
        text = self.document(templates, names)
        parse_document(text)  # validates every factorization, symmetry and morphism
        WORK_DIR.mkdir(exist_ok=True)
        path = WORK_DIR / f"{self.name}-{size}-{index}.mflef"
        path.write_text(text, encoding="utf-8")
        return path, [(name, text) for name, (text, _) in zip(names, templates)]

    @staticmethod
    def run_document(path):
        """(exit status, stdout, per-case ns) of one `mflef corpus` run."""
        from mflef import cli

        from tracer import SpanTracer

        timer = SpanTracer([("cli", "run_command", "cli.run_command")])
        out = io.StringIO()
        timer.install()
        try:
            with contextlib.redirect_stdout(out):
                status = cli.main(["corpus", "-i", str(path), "--engine", "both"])
        finally:
            timer.uninstall()
        # the corpus call is the root span; its children are the cases, in order
        case_ns = [end - start for _, parent, _, _, start, end in timer.spans if parent == 0]
        return status, out.getvalue(), case_ns

    def run_pass(self, inputs, reference, tracer=None):
        # spans of one case are those under its cli.run_command span
        path, cases = inputs
        result = PassResult()
        try:
            status, stdout, case_ns = self.run_document(path)
        except Exception as exc:
            result.errors.append(f"corpus raised {type(exc).__name__}: {exc}")
            return result
        got = {}
        for line in stdout.splitlines():
            name, _, rest = line.partition(": ")
            got.setdefault(name, []).append(rest)
        expected = []
        for (name, template), ns in zip(cases, case_ns + [0] * len(cases)):
            lines = reference.get(template)
            error = None
            if lines is None:
                error = "no reference output recorded"
            elif got.get(name) != lines:
                error = f"printed {got.get(name)} != reference {lines}"
            else:
                expected += [f"{name}: {line}" for line in lines]
            result.cases.append(CaseResult(template, ns, error))
        if len(case_ns) != len(cases):
            result.errors.append(f"{len(case_ns)} cases ran, {len(cases)} declared")
        expected.append(f"corpus: {len(cases)} cases, all passed")
        if status != 0:
            result.errors.append(f"exit status {status}")
        elif result.failed == 0 and stdout != "\n".join(expected) + "\n":
            result.errors.append("stdout differs from the reference outside the case lines")
        return result


WORKLOADS = {w.name: w for w in (IsolatedSweep(), KoszulHom(), CorpusCli())}
