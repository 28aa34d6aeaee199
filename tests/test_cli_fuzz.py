"""Grammar fuzzing: `mflef` on mutated workspace documents, in-process.

Each example mutates the lines of a fixture document and runs one command on
it.  Whatever the input, the exit status is one of 0, 1 and 2 (3 is an
internal failure), an input error prints exactly one `error: ` line, and no
exception escapes `main`.
"""

import contextlib
import io
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mflef.cli import COMMANDS, main  # noqa: E402
from mflef.document import parse_document  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
SOURCES = [(FIXTURES / f"{name}.mflef").read_text() for name in ("a2", "passing", "violation")]
DOCS = [parse_document(text) for text in SOURCES]
NAMES = sorted({"nope", "2", "3"}.union(*(
    table for doc in DOCS for table in (doc.potentials, doc.symmetries, doc.factorizations,
                                        doc.morphisms, doc.modules, doc.cases))))
TOKENS = [
    "x", "y", "z", "x^2", "y^3", "-x", "x*y", "0", "1", "2", "3", "-1", "1/2", "1/6", "1/0",
    "zeta(3)", "zeta(3)^2", "zeta(4)^3", "zeta(0)", "zeta(2)^[1]", "zeta(3)^[1,2]",
    "zeta(6)^[1]", "^", "*", "+", "-", "/", "(", ")", ";", ",", "=", "{", "}", "[", "]", "#",
    "even", "odd", "source", "target", "[case]", "[mf]", "[module]", "[symmetry]",
    "name = w", "command = hilbert", "args = M w", "degrees = 0, 1", "grading_even = 0",
    "grading_odd = 1/2",
] + NAMES + list(COMMANDS)


@st.composite
def invocations(draw):
    """(document text, argv): a fixture with one to three line edits, and a
    command that is a declared case, the corpus, or any command on any names."""
    k = draw(st.integers(0, len(SOURCES) - 1))
    lines = SOURCES[k].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(range(len(lines) + 1)))
        op = draw(st.sampled_from(("insert", "delete", "duplicate", "token", "replace")))
        if i == len(lines) or op == "insert":
            lines.insert(i, " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=4))))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            words = lines[i].split(" ")
            j = draw(st.sampled_from(range(len(words) + 1)))
            words[j:j + (op == "replace")] = [draw(st.sampled_from(TOKENS))]
            lines[i] = " ".join(words)
    cases = sorted((command, name) for name, (command, _) in DOCS[k].cases.items())
    argv = draw(st.one_of(
        st.sampled_from(cases).map(list),
        st.just(["corpus"]),
        st.builds(lambda c, names: [c, *names], st.sampled_from(COMMANDS),
                  st.lists(st.sampled_from(NAMES), max_size=5)),
    ))
    return "\n".join(lines) + "\n", argv


def test_mutated_documents_exit_with_a_documented_status(tmp_path):
    path = tmp_path / "doc.mflef"

    @settings(max_examples=120, deadline=None)
    @given(invocations(), st.sampled_from(("groebner", "graded", "both")))
    def run(invocation, engine):
        text, argv = invocation
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*argv, "-i", str(path), "--engine", engine])
        assert status in (0, 1, 2), err.getvalue()
        if status == 2:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")
        assert "Traceback" not in out.getvalue() + err.getvalue()

    run()
