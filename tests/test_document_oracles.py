"""Differential tests of the document scanner and of document equality.

The reference scanner and the reference equality below are the character
loop of `_Tokens` and the table-by-table `WorkspaceDocument.__eq__` that the
one token regex and the one entity view replaced.  They are test oracles
only: the scanner must give the same tokens and the same refusals, except
that a literal the loop let escape as a bare ValueError is now refused with
its line, and the two equalities must agree on every document.
"""

import re
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mflef.document import (  # noqa: E402
    DocumentError,
    _Tokens,
    parse_document,
    serialize_document,
)
from mflef.groebner import GradedModulePresentation  # noqa: E402
from mflef.mfcore import MatrixFactorization, MFMorphism  # noqa: E402
from mflef.scalars import RootOfUnity  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
SOURCES = {name: (FIXTURES / f"{name}.mflef").read_text()
           for name in ("a2", "passing", "violation")}
# ASCII letters, digits, operators and spaces; then e-acute, sharp s and
# Arabic-Indic three, superscript two, Roman numeral twelve and one half, which
# str.isdigit, isdecimal, isalpha and isalnum classify in different ways; a
# no-break space; and two ASCII characters outside every token class
ALPHABET = ("abcxyz_XYZ0123456789+-*/^()[],; \t"
            "\u00e9\u00df\u0663\u00b2\u216b\u00bd\u00a0=.")


def reference_tokens(text, line=None):
    items = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            items.append(("num", int(text[i:j])))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            items.append(("ident", text[i:j]))
            i = j
        elif c in "+-*/^()[],;":
            items.append((c, c))
            i += 1
        else:
            raise DocumentError(f"unexpected character {c!r}", line)
    return items


def reference_equal(self, other):
    if self.potentials.keys() != other.potentials.keys():
        return False
    for k, w in self.potentials.items():
        v = other.potentials[k]
        if w.ring != v.ring or not (w == v):
            return False
    if self.symmetries != other.symmetries:
        return False
    if self.factorizations.keys() != other.factorizations.keys():
        return False
    for k, (pname, mf) in self.factorizations.items():
        qname, other_mf = other.factorizations[k]
        if pname != qname or mf.d0 != other_mf.d0 or mf.d1 != other_mf.d1:
            return False
        if mf.gradings != other_mf.gradings:
            return False
    if self.morphisms.keys() != other.morphisms.keys():
        return False
    for k, entry in self.morphisms.items():
        o = other.morphisms[k]
        for field in ("source", "target", "twist", "twisted", "parity"):
            if entry[field] != o[field]:
                return False
        if entry["morphism"].matrix != o["morphism"].matrix:
            return False
    if self.modules.keys() != other.modules.keys():
        return False
    for k, pres in self.modules.items():
        o = other.modules[k]
        if pres.ring != o.ring or pres.gen_degrees != o.gen_degrees:
            return False
        if pres.relations != o.relations:
            return False
    return self.cases == other.cases


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=24))
@example("x^\u00b2")  # a digit to isdigit that int() cannot read
@example("3\u00b2")
@example("\u0663x + \u00e9\u0663")  # a decimal digit that int() reads; a letter word
@example("\u216b")  # a number that is neither a digit nor a letter
@example("x = y")
def test_tokens_match_the_reference_scanner(text):
    try:
        expected = reference_tokens(text, 7)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as refused:
            _Tokens(text, 7)
        assert str(refused.value) == str(exc)
        return
    except ValueError:  # the loop let int() fail with no line
        with pytest.raises(DocumentError, match="^line 7: "):
            _Tokens(text, 7)
        return
    assert _Tokens(text, 7).items == expected


def test_token_classes_are_the_str_predicates_on_every_code_point():
    # \s, \d and \w are the loop's str.isspace, isalnum and "_" on every code
    # point, and \d is isdecimal: a run of digits is one that int() reads
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]


def _first(table):
    return next(iter(table))


def _scaled(matrix):
    """The matrix with its first nonzero entry doubled."""
    rows = [list(row) for row in matrix]
    i, j = next((i, j) for i, row in enumerate(rows)
                for j, e in enumerate(row) if not e.is_zero())
    rows[i][j] = rows[i][j] * 2
    return rows


def _with_mf(doc, **fields):
    name = _first(doc.factorizations)
    pname, mf = doc.factorizations[name]
    args = {"d0": mf.d0, "d1": mf.d1, "gradings": mf.gradings, **fields}
    doc.factorizations[name] = (pname, MatrixFactorization(
        mf.potential, args["d0"], args["d1"], mf.r0, mf.r1, args["gradings"], False))


def _with_morphism(doc, **fields):
    name = _first(doc.morphisms)
    doc.morphisms[name] = {**doc.morphisms[name], **fields}


def _toggle(doc, field, *values):
    value = doc.morphisms[_first(doc.morphisms)][field]
    _with_morphism(doc, **{field: values[values.index(value) - 1]})


def _with_module(doc, degrees=None, relations=None):
    name = _first(doc.modules)
    pres = doc.modules[name]
    doc.modules[name] = GradedModulePresentation(
        pres.ring, pres.gen_degrees if degrees is None else degrees,
        pres.relations if relations is None else relations)


def _potential_term(doc):
    name = _first(doc.potentials)
    w = doc.potentials[name]
    doc.potentials[name] = w + w.ring.var(w.ring.vars[0]) ** 5


def _symmetry_root(doc):
    name = _first(doc.symmetries)
    pname, roots = doc.symmetries[name]
    r = roots[0]
    doc.symmetries[name] = (pname, (RootOfUnity(2 * r.order, 1), *roots[1:]))


def _grading(doc):
    mf = doc.factorizations[_first(doc.factorizations)][1]
    even, odd = mf.gradings or ((0,) * mf.r0, (0,) * mf.r1)
    _with_mf(doc, gradings=((even[0] + 1, *even[1:]), tuple(odd)))


def _morphism_entry(doc):
    morphism = doc.morphisms[_first(doc.morphisms)]["morphism"]
    _with_morphism(doc, morphism=MFMorphism(morphism.source, morphism.target, morphism.parity,
                                            _scaled(morphism.matrix)))


def _case_argument(doc):
    name = _first(doc.cases)
    command, args = doc.cases[name]
    doc.cases[name] = (command, [*args[:-1], args[-1] + "x"])


MUTATIONS = {
    "potential-term": ("potentials", _potential_term),
    "symmetry-root": ("symmetries", _symmetry_root),
    "d0-entry": ("factorizations", lambda doc: _with_mf(
        doc, d0=_scaled(doc.factorizations[_first(doc.factorizations)][1].d0))),
    "grading": ("factorizations", _grading),
    "morphism-source": ("morphisms", lambda doc: _with_morphism(doc, source="elsewhere")),
    "morphism-twist": ("morphisms", lambda doc: _with_morphism(doc, twist="elsewhere")),
    "morphism-twisted": ("morphisms", lambda doc: _toggle(doc, "twisted", "source", "target")),
    "morphism-parity": ("morphisms", lambda doc: _toggle(doc, "parity", "even", "odd")),
    "morphism-entry": ("morphisms", _morphism_entry),
    "module-degree": ("modules", lambda doc: _with_module(
        doc, degrees=[d + 1 for d in doc.modules[_first(doc.modules)].gen_degrees])),
    "module-relation": ("modules", lambda doc: _with_module(
        doc, relations=_scaled(doc.modules[_first(doc.modules)].relations))),
    "case-argument": ("cases", _case_argument),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_one_changed_field_makes_documents_unequal_under_both_equalities(mutation):
    table, mutate = MUTATIONS[mutation]
    changed = 0
    for name, text in SOURCES.items():
        doc, other = parse_document(text), parse_document(text)
        if not getattr(other, table):
            continue
        mutate(other)
        changed += 1
        for a, b in ((doc, other), (other, doc)):
            assert reference_equal(a, b) is False, name
            assert (a == b) is False, name
    assert changed, f"no fixture declares {table}"


@pytest.mark.parametrize("name", SOURCES)
def test_a_serialized_document_parses_equal_under_both_equalities(name):
    doc = parse_document(SOURCES[name])
    again = parse_document(serialize_document(doc))
    assert reference_equal(doc, again) is True
    assert doc == again
