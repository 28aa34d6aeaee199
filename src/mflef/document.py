"""Workspace documents: a line-oriented format for potentials, symmetries,
matrix factorizations, morphisms, graded modules, and verification cases.

Grammar summary.  Sections open with a bracketed header and hold `key = value`
lines; `#` starts a comment.  Matrix values are rows of `;`-separated
expressions inside `{ }` (one row per line, or a single row inline); only
`d0`, `d1`, `mat` and `relations` take one, and every other key one value.
Expressions use integers, `a/b` rationals, `zeta(m)` and `zeta(m)^k`, variable
identifiers, and `+ - * / ^ ( )`.  Symmetries are written
`t = zeta(m)^[a_1,...,a_n]`, one exponent per variable of the potential.
A number is a run of decimal digits and an identifier a word that starts with
a letter or `_`; any other character is refused.  Every refusal names its line.

    [potential]
    w = x^3 + y^3            # or: name = w / expr = ... ; optional vars = x, y

    [symmetry]
    potential = w
    t = zeta(3)^[1,0]

    [mf]
    name = A
    potential = w
    d0 = { x }
    d1 = { x^2 }

    [morphism]
    name = alpha
    source = A
    target = A
    twist = t
    twisted = target         # alpha : A -> t^* A   (source: t^* A -> A)
    parity = even
    mat = {
    1 ; 0
    0 ; zeta(3)
    }

    [module]
    name = M
    vars = x
    degrees = 0
    relations = { x }

    [case]
    name = caseA2
    command = hlf-verify
    args = A A t alpha beta

Every declared factorization is validated on load, every symmetry is checked
against its potential, and every morphism must be closed.

Parsing checks the LIMITS below before the arithmetic they guard.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .groebner import GradedModulePresentation
from .mfcore import MatrixFactorization, MFMorphism, pullback
from .polyring import PolyRing, Polynomial, check_symmetry
from .scalars import RootOfUnity, Scalar


class DocumentError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# The work a document can request: each bounded count and its largest value.
LIMITS = {
    "nesting depth": 100,  # of parentheses and unary signs
    "zeta order": 100, "cyclotomic order": 100,  # of each sum, product or quotient
    "exponent": 100, "total degree": 32,  # of a product or power
    "power bit size": 4096,  # exponent times the bit length of the base's coefficients
    "term count": 1000,  # the most terms a product or power can expand to
    "variable count": 8,  # of a potential or a module
    "matrix row count": 16, "matrix column count": 16, "generator count": 16,
}

RESERVED_KEYS = {
    "name", "expr", "vars", "potential", "roots", "source", "target", "twist",
    "twisted", "parity", "d0", "d1", "grading_even", "grading_odd", "degrees",
    "relations", "command", "args", "mat",
}
_BLOCK_KEYS = {"d0", "d1", "mat", "relations"}  # every other key takes a single value


# -- expression parsing --------------------------------------------------------


# decimal digits | a word, an identifier if it starts with a letter or `_` and
# refused otherwise | an operator | any other character, refused
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|([-+*/^()\[\],;])|(\S))")


class _Tokens:
    def __init__(self, text, line=None):
        self.items = []
        self.pos = 0
        self.depth = 0
        self.line = line
        for digits, word, op, other in _TOKEN.findall(text):
            if digits:
                try:
                    self.items.append(("num", int(digits)))
                except ValueError:  # longer than the interpreter's digit limit
                    raise DocumentError(f"integer literal of {len(digits)} digits is too long",
                                        line) from None
            elif op:
                self.items.append((op, op))
            elif word and (word[0].isalpha() or word[0] == "_"):
                self.items.append(("ident", word))
            else:
                raise DocumentError(f"unexpected character {(word or other)[0]!r}", line)

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise DocumentError(f"expected {kind!r}, found {tok[1]!r}", self.line)
        return tok


def _bound(line, what, value):
    """value, unless it exceeds LIMITS[what]."""
    if value > LIMITS[what]:
        raise DocumentError(f"{what} {value} exceeds the limit {LIMITS[what]}", line)
    return value


def _bound_terms(tokens, count, factors, exponent=1):
    """Bound, before expanding, the terms of the product of `factors`, each
    to the power `exponent`: at most `count`, and at most the monomials of
    its degree range in the variables the factors use."""
    if count <= LIMITS["term count"]:
        return
    used = sum(1 for column in zip(*(m for f in factors for m in f.terms)) if any(column))
    low = exponent * sum(min(sum(m) for m in f.terms) for f in factors)
    high = exponent * sum(max(sum(m) for m in f.terms) for f in factors)
    monomials = math.comb(used + high, used) - (math.comb(used + low - 1, used) if low else 0)
    _bound(tokens.line, "term count", min(count, monomials))


def _order(p: Polynomial) -> int:
    """The cyclotomic order that arithmetic on p's coefficients runs in."""
    return math.lcm(1, *(c.order for c in p.terms.values()))


def _parse_sum(tokens, ring):
    value = _parse_product(tokens, ring)
    order = _order(value)
    while tokens.peek()[0] in ("+", "-"):
        op = tokens.next()[0]
        rhs = _parse_product(tokens, ring)
        order = _bound(tokens.line, "cyclotomic order", math.lcm(order, _order(rhs)))
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_product(tokens, ring):
    value = _parse_power(tokens, ring)
    order = _order(value)
    while tokens.peek()[0] in ("*", "/"):
        op = tokens.next()[0]
        rhs = _parse_power(tokens, ring)
        order = _bound(tokens.line, "cyclotomic order", math.lcm(order, _order(rhs)))
        if op == "*":
            _bound(tokens.line, "total degree", value.total_degree() + rhs.total_degree())
            _bound_terms(tokens, len(value.terms) * len(rhs.terms), (value, rhs))
            value = value * rhs
        else:
            if not rhs.is_constant() or rhs.is_zero():
                raise DocumentError("division needs a nonzero scalar divisor", tokens.line)
            value = value * rhs.constant_term().inverse()
    return value


def _parse_power(tokens, ring):
    base = _parse_atom(tokens, ring)
    if tokens.peek()[0] != "^":
        return base
    tokens.next()
    negative = False
    if tokens.peek()[0] == "-":
        tokens.next()
        negative = True
    exponent = _bound(tokens.line, "exponent", tokens.expect("num")[1])
    _bound(tokens.line, "total degree", base.total_degree() * exponent)
    bits = max((abs(n).bit_length() for c in base.terms.values() for n in c.num + (c.den,)),
               default=0)
    _bound(tokens.line, "power bit size", exponent * bits)
    if negative:
        if not base.is_constant():
            raise DocumentError("negative powers need a scalar base", tokens.line)
        if base.is_zero():
            raise DocumentError("negative powers need a nonzero scalar base", tokens.line)
        return ring.const(base.constant_term().inverse() ** exponent)
    # each term of a power is a product of `exponent` terms of the base, in any order
    _bound_terms(tokens, math.comb(max(len(base.terms) + exponent - 1, 0), exponent), (base,),
                 exponent)
    return base**exponent


def _parse_atom(tokens, ring):
    kind, value = tokens.next()
    if kind == "num":
        return ring.const(value)
    if kind in ("-", "+", "("):
        tokens.depth = _bound(tokens.line, "nesting depth", tokens.depth + 1)
        if kind == "(":
            inner = _parse_sum(tokens, ring)
            tokens.expect(")")
        else:
            inner = _parse_power(tokens, ring)
            if kind == "-":
                inner = -inner
        tokens.depth -= 1
        return inner
    if kind == "ident":
        if value == "zeta":
            return ring.const(Scalar.zeta(_zeta_order(tokens)))
        if value in ring.vars:
            return ring.var(value)
        raise DocumentError(f"unknown variable {value!r}", tokens.line)
    raise DocumentError(f"unexpected token {value!r}", tokens.line)


def _zeta_order(tokens):
    """The `(m)` after `zeta`, checked to be positive and within its limit."""
    tokens.expect("(")
    order = tokens.expect("num")[1]
    tokens.expect(")")
    if order < 1:
        raise DocumentError("zeta needs a positive order", tokens.line)
    return _bound(tokens.line, "zeta order", order)


def parse_polynomial(text: str, ring: PolyRing, line=None) -> Polynomial:
    tokens = _Tokens(text, line)
    expr = _parse_sum(tokens, ring)
    if tokens.peek()[0] is not None:
        raise DocumentError(f"trailing input {tokens.peek()[1]!r}", line)
    return expr


def parse_symmetry_literal(text: str, nvars: int, line=None):
    """`zeta(m)^[a_1,...,a_n]` -> tuple of RootOfUnity (also accepts 1, -1)."""
    tokens = _Tokens(text, line)
    kind, value = tokens.next()
    if kind == "ident" and value == "zeta":
        order = _zeta_order(tokens)
        tokens.expect("^")
        tokens.expect("[")
        exponents = []
        while True:
            sign = 1
            if tokens.peek()[0] == "-":
                tokens.next()
                sign = -1
            exponents.append(sign * tokens.expect("num")[1])
            kind, _ = tokens.next()
            if kind == "]":
                break
            if kind != ",":
                raise DocumentError("expected ',' or ']' in exponent list", line)
        if tokens.peek()[0] is not None:
            raise DocumentError("trailing input after symmetry literal", line)
        if len(exponents) != nvars:
            raise DocumentError(
                f"symmetry lists {len(exponents)} exponents for {nvars} variables", line
            )
        return tuple(RootOfUnity(order, e) for e in exponents)
    raise DocumentError("symmetry literal must be zeta(m)^[...]", line)


def _variable_list(entry):
    """(names, line) of a `vars = x, y, ...` entry."""
    value, line = entry
    return tuple(v.strip() for v in value.split(",") if v.strip()), line


def _variables_in_order(text: str, line=None):
    """The identifiers of an expression other than `zeta`, in order of first use."""
    return tuple(dict.fromkeys(value for kind, value in _Tokens(text, line).items
                               if kind == "ident" and value != "zeta"))


# -- workspace entities --------------------------------------------------------


class WorkspaceDocument:
    def __init__(self):
        self.potentials: dict = {}   # name -> Polynomial
        self.symmetries: dict = {}   # name -> (potential_name, tuple[RootOfUnity])
        self.factorizations: dict = {}  # name -> (potential_name, MatrixFactorization)
        self.morphisms: dict = {}    # name -> dict with source/target/twist/twisted/mfmorphism
        self.modules: dict = {}      # name -> GradedModulePresentation
        self.cases: dict = {}        # name -> (command, list of raw args)

    def _identity(self):
        """Each table as a comparable value; equal documents have equal identities."""
        fields = ("source", "target", "twist", "twisted", "parity")
        return (
            {k: (w.ring, w) for k, w in self.potentials.items()},
            {k: (p, mf.d0, mf.d1, mf.gradings) for k, (p, mf) in self.factorizations.items()},
            {k: (*(e[f] for f in fields), e["morphism"].matrix) for k, e in self.morphisms.items()},
            {k: (m.ring, m.gen_degrees, m.relations) for k, m in self.modules.items()},
            self.symmetries,
            self.cases,
        )

    def __eq__(self, other):
        if not isinstance(other, WorkspaceDocument):
            return NotImplemented
        return self._identity() == other._identity()

    __hash__ = None


def _split_sections(text: str):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = {"kind": stripped[1:-1].strip(), "line": lineno, "entries": []}
            sections.append(current)
            continue
        if current is None:
            raise DocumentError("content before the first section header", lineno)
        current["entries"].append((lineno, stripped))
    return sections


def _collect_entries(section):
    """Fold `key = value` lines, joining brace blocks into row lists."""
    entries = []
    rows = None
    key = None
    key_line = None
    for lineno, line in section["entries"]:
        if rows is not None:
            if line.strip() == "}":
                entries.append((key, rows, key_line))
                rows = None
                continue
            rows.append((lineno, line.strip()))
            continue
        if "=" not in line:
            raise DocumentError(f"expected `key = value`, found {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        key_line = lineno
        if value == "{":
            rows = []
        elif value.startswith("{") and value.endswith("}"):
            inner = value[1:-1].strip()
            entries.append((key, [(lineno, inner)] if inner else [], lineno))
        else:
            entries.append((key, value, lineno))
    if rows is not None:
        raise DocumentError("unterminated matrix block", key_line)
    return entries


def _parse_matrix(rows, ring, line):
    if len(rows) > LIMITS["matrix row count"]:
        _bound(rows[LIMITS["matrix row count"]][0], "matrix row count", len(rows))
    matrix = []
    width = None
    for lineno, row in rows:
        cells = [c.strip() for c in row.split(";")]
        _bound(lineno, "matrix column count", len(cells))
        parsed = [parse_polynomial(c, ring, lineno) for c in cells]
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise DocumentError("ragged matrix rows", lineno)
        matrix.append(parsed)
    return matrix


def _parse_fraction_list(value, line):
    out = []
    for piece in value.split(","):
        piece = piece.strip()
        if not piece:
            continue
        num, slash, den = piece.partition("/")
        try:
            out.append(Fraction(int(num), int(den) if slash else 1))
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"invalid number {piece!r}", line) from None
    return out


def parse_document(text: str) -> WorkspaceDocument:
    doc = WorkspaceDocument()
    for section in _split_sections(text):
        kind = section["kind"]
        entries = _collect_entries(section)
        data = {}
        free = []
        for key, value, lineno in entries:
            _check_shape(kind, key, value, lineno)
            if key in RESERVED_KEYS:
                if key in data:
                    raise DocumentError(f"duplicate key {key!r}", lineno)
                data[key] = (value, lineno)
            else:
                free.append((key, value, lineno))
        line0 = section["line"]
        if kind not in _LOADERS:
            raise DocumentError(f"unknown section kind {kind!r}", line0)
        _LOADERS[kind](doc, data, free, line0)
    return doc


def _check_shape(kind, key, value, line):
    """Refuse a `{ }` block where a single value belongs, and the reverse."""
    if isinstance(value, list) != (key in _BLOCK_KEYS):
        if key in _BLOCK_KEYS:
            raise DocumentError(f"{key} needs a {{ }} block", line)
        if kind == "potential" and (key == "expr" or key not in RESERVED_KEYS):
            raise DocumentError("potential expression cannot be a matrix", line)
        raise DocumentError(f"{key} takes a single value, not a {{ }} block", line)


def _define(table, name, value, what, line):
    """Store a loaded entity under its name, refusing a second definition."""
    if name in table:
        raise DocumentError(f"duplicate {what} {name!r}", line)
    table[name] = value


def _potential_name(doc, data, line):
    """The potential a section refers to: its `potential` entry, or the only one declared."""
    if "potential" in data:
        pname = data["potential"][0]
    elif len(doc.potentials) == 1:
        pname = next(iter(doc.potentials))
    elif not doc.potentials:
        raise DocumentError("no potential is declared", line)
    else:
        raise DocumentError("potential reference required (several declared)", line)
    if pname not in doc.potentials:
        raise DocumentError(f"unknown potential {pname!r}", line)
    return pname


def _get_name(data, free, line, what):
    if "name" in data:
        return data["name"][0], None
    if len(free) == 1:
        return free[0][0], free[0]
    raise DocumentError(f"{what} needs a name", line)


def _load_potential(doc, data, free, line):
    name, free_entry = _get_name(data, free, line, "potential")
    if free_entry is not None:
        expr_value, expr_line = free_entry[1], free_entry[2]
    elif "expr" in data:
        expr_value, expr_line = data["expr"]
    else:
        raise DocumentError("potential needs an expression", line)
    if "vars" in data:
        var_names, vars_line = _variable_list(data["vars"])
    else:
        var_names, vars_line = _variables_in_order(expr_value, expr_line), expr_line
    if not var_names:
        raise DocumentError("potential has no variables", expr_line)
    _bound(vars_line, "variable count", len(var_names))
    ring = PolyRing(var_names)
    poly = parse_polynomial(expr_value, ring, expr_line)
    _define(doc.potentials, name, poly, "potential", line)


def _load_symmetry(doc, data, free, line):
    name, free_entry = _get_name(data, free, line, "symmetry")
    if free_entry is not None:
        literal, lit_line = free_entry[1], free_entry[2]
    elif "roots" in data:
        literal, lit_line = data["roots"]
    else:
        raise DocumentError("symmetry needs a zeta(m)^[...] literal", line)
    pname = _potential_name(doc, data, line)
    w = doc.potentials[pname]
    roots = parse_symmetry_literal(literal, w.ring.nvars, lit_line)
    if not check_symmetry(w, roots):
        raise DocumentError(f"{name!r} is not a symmetry of {pname!r}", lit_line)
    _define(doc.symmetries, name, (pname, roots), "symmetry", line)


def _load_mf(doc, data, free, line):
    name, _ = _get_name(data, free, line, "matrix factorization")
    pname = _potential_name(doc, data, line)
    w = doc.potentials[pname]
    for key in ("d0", "d1"):
        if key not in data:
            raise DocumentError(f"matrix factorization needs a {key} matrix", line)
    d0 = _parse_matrix(data["d0"][0], w.ring, line)
    d1 = _parse_matrix(data["d1"][0], w.ring, line)
    gradings = None
    if "grading_even" in data or "grading_odd" in data:
        if not ("grading_even" in data and "grading_odd" in data):
            raise DocumentError("gradings need both grading_even and grading_odd", line)
        gradings = (
            _parse_fraction_list(data["grading_even"][0], line),
            _parse_fraction_list(data["grading_odd"][0], line),
        )
    try:
        mf = MatrixFactorization(w, d0, d1, gradings=gradings)
    except ValueError as exc:
        raise DocumentError(f"invalid factorization {name!r}: {exc}", line)
    _define(doc.factorizations, name, (pname, mf), "factorization", line)


def _load_morphism(doc, data, free, line):
    name, _ = _get_name(data, free, line, "morphism")
    for key in ("source", "target", "mat"):
        if key not in data:
            raise DocumentError(f"morphism needs {key}", line)
    source_name = data["source"][0]
    target_name = data["target"][0]
    for ref in (source_name, target_name):
        if ref not in doc.factorizations:
            raise DocumentError(f"unknown factorization {ref!r}", line)
    source = doc.factorizations[source_name][1]
    target = doc.factorizations[target_name][1]
    twist_name = data["twist"][0] if "twist" in data else None
    twisted = data["twisted"][0] if "twisted" in data else "target"
    if twisted not in ("source", "target"):
        raise DocumentError("twisted must be `source` or `target`", line)
    parity_text = data["parity"][0] if "parity" in data else "even"
    if parity_text not in ("even", "odd"):
        raise DocumentError("parity must be `even` or `odd`", line)
    parity = 0 if parity_text == "even" else 1
    if twist_name is not None:
        if twist_name not in doc.symmetries:
            raise DocumentError(f"unknown symmetry {twist_name!r}", line)
        roots = doc.symmetries[twist_name][1]
        if twisted == "target":
            target = pullback(roots, target)
        else:
            source = pullback(roots, source)
    mat = _parse_matrix(data["mat"][0], source.ring, line)
    try:
        morphism = MFMorphism(source, target, parity, mat)
    except ValueError as exc:
        raise DocumentError(f"invalid morphism {name!r}: {exc}", line)
    if not morphism.is_closed():
        raise DocumentError(f"morphism {name!r} is not closed", line)
    _define(doc.morphisms, name, {
        "source": source_name,
        "target": target_name,
        "twist": twist_name,
        "twisted": twisted,
        "parity": parity_text,
        "morphism": morphism,
    }, "morphism", line)


def _load_module(doc, data, free, line):
    name, _ = _get_name(data, free, line, "module")
    if "vars" in data:
        var_names, vars_line = _variable_list(data["vars"])
        _bound(vars_line, "variable count", len(var_names))
        ring = PolyRing(var_names)
    elif len(doc.potentials) == 1:
        ring = next(iter(doc.potentials.values())).ring
    else:
        raise DocumentError("module needs a vars list", line)
    if "degrees" not in data:
        raise DocumentError("module needs generator degrees", line)
    degrees = _parse_fraction_list(data["degrees"][0], line)
    _bound(data["degrees"][1], "generator count", len(degrees))
    if any(d.denominator != 1 for d in degrees):
        raise DocumentError("module degrees must be integers", line)
    relations = []
    if "relations" in data:
        relations = _parse_matrix(data["relations"][0], ring, line)
        if relations and len(relations) != len(degrees):
            raise DocumentError("relation matrix needs one row per generator", line)
    try:
        pres = GradedModulePresentation(ring, degrees, relations)
    except ValueError as exc:
        raise DocumentError(f"invalid module {name!r}: {exc}", line)
    _define(doc.modules, name, pres, "module", line)


def _load_case(doc, data, free, line):
    if "name" not in data or "command" not in data:
        raise DocumentError("case needs name and command", line)
    args = data["args"][0].split() if "args" in data else []
    _define(doc.cases, data["name"][0], (data["command"][0], args), "case", line)


_LOADERS = {"potential": _load_potential, "symmetry": _load_symmetry, "mf": _load_mf,
            "morphism": _load_morphism, "module": _load_module, "case": _load_case}


# -- serialization -------------------------------------------------------------


def _matrix_lines(key, matrix):
    lines = [f"{key} = {{"]
    for row in matrix:
        lines.append("; ".join(str(e) for e in row))
    lines.append("}")
    return lines


def serialize_document(doc: WorkspaceDocument) -> str:
    lines = []
    for name, w in doc.potentials.items():
        lines += ["[potential]", f"name = {name}",
                  f"vars = {', '.join(w.ring.vars)}", f"expr = {w}", ""]
    for name, (pname, roots) in doc.symmetries.items():
        order = math.lcm(1, *(r.order for r in roots))
        exps = [r.exponent * (order // r.order) % order for r in roots]
        literal = f"zeta({order})^[{','.join(str(e) for e in exps)}]"
        lines += ["[symmetry]", f"name = {name}", f"potential = {pname}",
                  f"roots = {literal}", ""]
    for name, (pname, mf) in doc.factorizations.items():
        lines += ["[mf]", f"name = {name}", f"potential = {pname}"]
        lines += _matrix_lines("d0", mf.d0)
        lines += _matrix_lines("d1", mf.d1)
        if mf.gradings is not None:
            lines.append("grading_even = " + ", ".join(str(g) for g in mf.gradings[0]))
            lines.append("grading_odd = " + ", ".join(str(g) for g in mf.gradings[1]))
        lines.append("")
    for name, entry in doc.morphisms.items():
        lines += ["[morphism]", f"name = {name}", f"source = {entry['source']}",
                  f"target = {entry['target']}"]
        if entry["twist"] is not None:
            lines.append(f"twist = {entry['twist']}")
            lines.append(f"twisted = {entry['twisted']}")
        lines.append(f"parity = {entry['parity']}")
        lines += _matrix_lines("mat", entry["morphism"].matrix)
        lines.append("")
    for name, pres in doc.modules.items():
        lines += ["[module]", f"name = {name}",
                  f"vars = {', '.join(pres.ring.vars)}",
                  "degrees = " + ", ".join(str(d) for d in pres.gen_degrees)]
        if pres.relations and pres.relations[0]:
            lines += _matrix_lines("relations", pres.relations)
        lines.append("")
    for name, (command, args) in doc.cases.items():
        lines += ["[case]", f"name = {name}", f"command = {command}"]
        if args:
            lines.append("args = " + " ".join(str(a) for a in args))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
