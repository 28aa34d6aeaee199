import json
import subprocess
import sys
from pathlib import Path

import pytest

from mflef.cli import main
from mflef.document import DocumentError, parse_document, serialize_document

FIXTURES = Path(__file__).parent / "fixtures"


def _run(argv):
    return main(argv)


def test_parse_serialize_parse_idempotent_on_fixtures():
    for name in ("a2.mflef", "passing.mflef", "violation.mflef"):
        text = (FIXTURES / name).read_text()
        doc = parse_document(text)
        text2 = serialize_document(doc)
        doc2 = parse_document(text2)
        assert doc == doc2, name
        # serialization is a fixed point after one round
        assert serialize_document(doc2) == text2


def test_minimal_document():
    doc = parse_document("[potential]\nw = x^2\n")
    assert set(doc.potentials) == {"w"}
    assert doc.potentials["w"].ring.vars == ("x",)


def test_non_closing_morphism_rejected():
    text = """
[potential]
w = x^2

[mf]
name = A
potential = w
d0 = { x }
d1 = { x }

[morphism]
name = bad
source = A
target = A
parity = even
mat = {
1 ; 0
0 ; -1
}
"""
    with pytest.raises(DocumentError):
        parse_document(text)


def test_invalid_mf_rejected():
    text = """
[potential]
name = w
vars = x, y
expr = x^2

[mf]
name = A
potential = w
d0 = { x }
d1 = { y }
"""
    with pytest.raises(DocumentError):
        parse_document(text)


def test_non_symmetry_rejected():
    text = """
[potential]
w = x^3

[symmetry]
name = t
potential = w
roots = zeta(2)^[1]
"""
    with pytest.raises(DocumentError):
        parse_document(text)


def test_exit_code_zero(tmp_path, capsys):
    assert _run(["corpus", "-i", str(FIXTURES / "passing.mflef")]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out


def test_exit_code_one(capsys):
    assert _run(["corpus", "-i", str(FIXTURES / "violation.mflef")]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_exit_code_two_on_syntax_error(capsys):
    assert _run(["corpus", "-i", str(FIXTURES / "syntax_error.mflef")]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_two_on_unknown_entity(capsys):
    assert _run(["milnor", "nope", "-i", str(FIXTURES / "a2.mflef")]) == 2
    assert "unknown" in capsys.readouterr().err


def test_case_dispatch_and_direct_args(capsys):
    assert _run(["hlf-verify", "caseA2", "-i", str(FIXTURES / "a2.mflef")]) == 0
    via_case = capsys.readouterr().out
    assert _run(["hlf-verify", "A", "A", "t", "alpha", "beta", "-i", str(FIXTURES / "a2.mflef")]) == 0
    direct = capsys.readouterr().out
    assert "lhs = 2 + zeta(3)" in via_case
    assert "lhs = 2 + zeta(3)" in direct


def test_milnor_command(capsys):
    assert _run(["milnor", "w", "-i", str(FIXTURES / "a2.mflef")]) == 0
    out = capsys.readouterr().out
    assert "mu = 2" in out and "basis = [1, x]" in out


def test_lunts_with_non_symmetry_is_input_error(tmp_path, capsys):
    # `lunts w t` where t is not declared: exit 2
    assert _run(["lunts", "w", "missing", "-i", str(FIXTURES / "a2.mflef")]) == 2


def test_output_deterministic(capsys):
    _run(["corpus", "-i", str(FIXTURES / "a2.mflef")])
    first = capsys.readouterr().out
    _run(["corpus", "-i", str(FIXTURES / "a2.mflef")])
    second = capsys.readouterr().out
    assert first == second


def test_json_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = _run(["corpus", "-i", str(FIXTURES / "a2.mflef"), "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["schema_version"] == "1"
    cases = {rep["case"] for rep in payload["reports"]}
    assert {"caseA2", "caseA2iso", "caseA2lunts", "caseA2trace"} <= cases
    for rep in payload["reports"]:
        assert set(rep) == {"case", "command", "lhs", "rhs", "equal", "engine", "micros"}
        assert rep["equal"] is True


@pytest.mark.parametrize("fixture, argv", [
    ("a2", ["milnor", "w"]),
    ("a2", ["bb", "A", "t", "alpha"]),
    ("a2", ["pair", "A", "A", "t", "alpha", "beta"]),
    ("passing", ["stabilize", "M", "w"]),
    ("passing", ["hilbert", "M"]),
])
def test_json_reports_carry_elapsed_time(fixture, argv, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = _run(argv + ["-i", str(FIXTURES / f"{fixture}.mflef"), "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    [report] = json.loads(out_path.read_text())["reports"]
    assert report["command"] == argv[0]
    assert isinstance(report["micros"], int) and report["micros"] > 0


def test_engine_both_flag(capsys):
    code = _run(["hlf-verify", "caseA2", "-i", str(FIXTURES / "a2.mflef"),
                 "--engine", "both"])
    capsys.readouterr()
    assert code == 0


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "mflef.cli", "lunts", "caseA2lunts",
         "-i", str(FIXTURES / "a2.mflef")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "equal" in proc.stdout


def test_graded_engine_without_gradings_is_input_error(capsys):
    # K in passing.mflef carries no internal grading: graceful exit 2
    code = _run(["trace-identity", "K", "minus", "sign",
                 "-i", str(FIXTURES / "passing.mflef"), "--engine", "graded"])
    captured = capsys.readouterr()
    assert code == 2
    assert "grading" in captured.err


@pytest.mark.parametrize("engine", ["groebner", "graded", "both"])
@pytest.mark.parametrize("name, status", [("passing", 0), ("a2", 0), ("violation", 1)])
def test_corpus_text_matches_recorded_output(name, status, engine, capsys):
    # The .out files hold the corpus text of each fixture; every engine prints
    # the same bytes, and a refactor that keeps behaviour must keep them.
    code = _run(["corpus", "-i", str(FIXTURES / f"{name}.mflef"), "--engine", engine])
    assert code == status
    assert capsys.readouterr().out == (FIXTURES / f"{name}.out").read_text()


HILBERT_MODULES = """
[module]
name = M
vars = x, y
degrees = 0
relations = { x^2 ; x*y }

[module]
name = N
vars = x, y
degrees = 1
relations = { x ; y }

[module]
name = P
vars = x, y
degrees = -1
relations = { x ; y }

[potential]
w = x^3

[symmetry]
name = t
potential = w
roots = zeta(3)^[1]

[mf]
name = C
potential = w
d0 = { 1 }
d1 = { x^3 }

[morphism]
name = one
source = C
target = C
twist = t
twisted = target
parity = even
mat = {
1 ; 0
0 ; 1
}
"""


@pytest.mark.parametrize("argv, status, out, err", [
    (["hilbert", "M"], 0, "hilbert M: chi = 1 - 2*t^2 + t^3  d = 1  e = 1 + t - t^2\n", ""),
    (["hilbert", "N"], 0, "hilbert N: chi = t - 2*t^2 + t^3  d = 0  e = t\n", ""),
    (["hilbert", "P"], 2, "", "error: chi needs nonnegative generator degrees\n"),
    (["divisibility", "C", "t", "one", "3"], 0, "divisibility C/t/p=3: str = 0  "
     "valuation = inf  bound = 1  m_max = 0  [pass]\n", ""),
], ids=["gap", "shifted", "negative-degree", "infinite-valuation"])
def test_hilbert_output(argv, status, out, err, tmp_path, capsys):
    # R/(x^2, xy): chi has a coefficient other than +-1 and a gap at t^1.
    # A generator of negative degree would need a Laurent polynomial.
    # The contractible C = (1, x^3) has the zero supertrace, whose
    # (1 - zeta_3)-adic valuation is infinite and prints as `inf`.
    doc = tmp_path / "modules.mflef"
    doc.write_text(HILBERT_MODULES)
    assert _run(argv + ["-i", str(doc)]) == status
    assert capsys.readouterr() == (out, err)


SINGULAR_ALPHA = """
[potential]
w = x^3

[symmetry]
name = t
potential = w
roots = zeta(3)^[1]

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
twisted = target
parity = even
mat = {
0 ; 0
0 ; 0
}
"""


def test_singular_alpha_is_input_error(tmp_path):
    doc = tmp_path / "singular.mflef"
    doc.write_text(SINGULAR_ALPHA)
    proc = subprocess.run(
        [sys.executable, "-m", "mflef.cli", "trace-identity", "A", "t", "alpha",
         "-i", str(doc)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: alpha must be invertible at the origin"]
    assert "Traceback" not in proc.stderr


ZERO_DENOMINATOR_MF = """
[potential]
w = x^3

[mf]
name = A
potential = w
d0 = { x }
d1 = { x^2 }
grading_even = 0
grading_odd = {grading}
"""

BAD_DEGREE_MODULE = """
[module]
name = M
vars = x, y
degrees = 0, {degree}
relations = {{
x ; y
0 ; x
}}
"""


@pytest.mark.parametrize("text, argv, message", [
    (ZERO_DENOMINATOR_MF.replace("{grading}", "1/0"), ["milnor", "w"],
     "error: line 5: invalid number '1/0'"),
    (BAD_DEGREE_MODULE.format(degree="1/0"), ["hilbert", "M"],
     "error: line 2: invalid number '1/0'"),
    (BAD_DEGREE_MODULE.format(degree="1/2"), ["hilbert", "M"],
     "error: line 2: module degrees must be integers"),
    (BAD_DEGREE_MODULE.format(degree="one"), ["hilbert", "M"],
     "error: line 2: invalid number 'one'"),
], ids=["grading-zero-denominator", "degree-zero-denominator", "degree-fraction", "degree-word"])
def test_bad_number_in_list_is_input_error(text, argv, message, tmp_path):
    doc = tmp_path / "bad.mflef"
    doc.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "mflef.cli", *argv, "-i", str(doc)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [message]
    assert "Traceback" not in proc.stderr


ZERO_NEGATIVE_POWER = """
[potential]
name = w
expr = x^3 + 0^-1
"""

ZETA_ZERO_ROOTS = """
[potential]
name = w
expr = x^3

[symmetry]
name = t
potential = w
roots = zeta(0)^[1]
"""


@pytest.mark.parametrize("text, message", [
    (ZERO_NEGATIVE_POWER, "error: line 4: negative powers need a nonzero scalar base"),
    (ZETA_ZERO_ROOTS, "error: line 9: zeta needs a positive order"),
], ids=["zero-negative-power", "zeta-zero-roots"])
def test_degenerate_scalar_literal_is_input_error(text, message, tmp_path):
    doc = tmp_path / "bad.mflef"
    doc.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "mflef.cli", "milnor", "w", "-i", str(doc)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [message]
    assert "Traceback" not in proc.stderr


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit


@pytest.mark.parametrize("expr, message", [
    ("x^\u00b2", "error: line 2: unexpected character '\u00b2'"),
    pytest.param("7" * (DIGIT_LIMIT + 1) + "*x^2",
                 f"error: line 2: integer literal of {DIGIT_LIMIT + 1} digits is too long",
                 marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")),
], ids=["superscript-digit", "over-long-integer"])
def test_unreadable_literal_is_input_error_on_its_line(expr, message, tmp_path, capsys):
    doc = tmp_path / "bad.mflef"
    doc.write_text(f"[potential]\nw = {expr}\n", encoding="utf-8")
    assert _run(["milnor", "w", "-i", str(doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


MF_HEAD = "[potential]\nw = x^2\n[mf]\nname = A\nd0 = { x }\nd1 = { x }\n"


@pytest.mark.parametrize("text, argv, message", [
    ("[module]\nname = M\nvars = x\ndegrees = 0\nrelations = x\n", ["hilbert", "M"],
     "error: line 5: relations needs a { } block"),
    (MF_HEAD + "[morphism]\nname = a\nsource = A\ntarget = A\nmat = 1\n", ["milnor", "w"],
     "error: line 11: mat needs a { } block"),
    ("[potential]\nname = { w }\nexpr = x^2\n", ["milnor", "w"],
     "error: line 2: name takes a single value, not a { } block"),
    ("[potential]\nw = x^2\n[symmetry]\npotential = { w }\nt = zeta(2)^[1]\n", ["milnor", "w"],
     "error: line 4: potential takes a single value, not a { } block"),
    (MF_HEAD + "[morphism]\nname = a\nsource = { A }\ntarget = A\nmat = { 1 ; 0 }\n",
     ["milnor", "w"], "error: line 9: source takes a single value, not a { } block"),
    ("[potential]\nw = x^2\n[symmetry]\nt = { zeta(2)^[1] }\n", ["milnor", "w"],
     "error: line 4: t takes a single value, not a { } block"),
    ("[potential]\nvars = { x }\nw = x^2\n", ["milnor", "w"],
     "error: line 2: vars takes a single value, not a { } block"),
    ("[module]\nname = M\nvars = x\ndegrees = { 0 }\n", ["hilbert", "M"],
     "error: line 4: degrees takes a single value, not a { } block"),
    ("[potential]\nw = x^2\n[case]\nname = c\ncommand = milnor\nargs = { w }\n", ["milnor", "c"],
     "error: line 6: args takes a single value, not a { } block"),
    (MF_HEAD + "grading_even = { 0 }\ngrading_odd = 1/2\n", ["milnor", "w"],
     "error: line 7: grading_even takes a single value, not a { } block"),
    ("[potential]\nw = x^2\n[case]\nname = c\ncommand = { milnor }\nargs = w\n", ["milnor", "c"],
     "error: line 5: command takes a single value, not a { } block"),
    ("[potential]\nw = { x^2 }\n", ["milnor", "w"],
     "error: line 2: potential expression cannot be a matrix"),
], ids=["relations-value", "mat-value", "name-block", "potential-block", "source-block",
        "free-symmetry-block", "vars-block", "degrees-block", "args-block", "grading-block",
        "command-block", "expression-block"])
def test_wrong_value_shape_is_input_error_on_its_line(text, argv, message, tmp_path, capsys):
    # only d0, d1, mat and relations take a { } block; every other key a single value
    doc = tmp_path / "bad.mflef"
    doc.write_text(text)
    assert _run([*argv, "-i", str(doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


def test_missing_potential_is_named(tmp_path, capsys):
    doc = tmp_path / "bad.mflef"
    doc.write_text("[symmetry]\nname = t\nroots = zeta(3)^[1]\n")
    assert _run(["milnor", "w", "-i", str(doc)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: line 1: no potential is declared"]


def test_internal_check_failure_exits_three(monkeypatch, capsys):
    # a broken invariant inside an engine is neither a verdict (1) nor an
    # input error (2): one `error: internal:` line and exit 3, no traceback
    def broken(strand, t_mat):
        raise AssertionError("twist does not preserve the kernel")

    monkeypatch.setattr("mflef.homcoh._subquotient_trace", broken)
    code = _run(["corpus", "-i", str(FIXTURES / "a2.mflef"), "--engine", "graded"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.splitlines() == ["error: internal: twist does not preserve the kernel"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("exc, line", [
    (KeyError("piece"), "error: internal: KeyError: 'piece'"),
    (IndexError("list index out of range"), "error: internal: IndexError: list index out of range"),
    (TypeError("unsupported operand"), "error: internal: TypeError: unsupported operand"),
], ids=["key", "index", "type"])
def test_escaped_lookup_or_type_error_exits_three(exc, line, monkeypatch, capsys):
    # exit 1 is reserved for an identity violation; a bug that escapes as
    # one of these errors is reported like a failed internal check
    def broken(strand, t_mat):
        raise exc

    monkeypatch.setattr("mflef.homcoh._subquotient_trace", broken)
    code = _run(["corpus", "-i", str(FIXTURES / "a2.mflef"), "--engine", "graded"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.splitlines() == [line]
    assert "Traceback" not in captured.err


def test_graded_corpus_reduces_each_strand_once(monkeypatch, capsys):
    # a2.mflef makes three graded calls on one pair (A, A), whose window
    # holds 11 strands: each is reduced on the first call and reused by the
    # other two.  Reducing every strand on every call made 33 nullspace calls.
    from mflef import linalg

    calls = []
    original = linalg.nullspace

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(linalg, "nullspace", counted)
    assert _run(["corpus", "-i", str(FIXTURES / "a2.mflef"), "--engine", "graded"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "a2.out").read_text()
    assert len(calls) <= 11


def test_graded_corpus_reduces_only_the_window_below_the_duality_bound(monkeypatch, capsys):
    # the graded window of a2.mflef's pair (A, A) stops at socle / 2 + spread
    # = 1/6 + 1/6 = 1/3, above which every strand is acyclic: it holds 4
    # strands, where the window up to socle + spread + 1 = 3/2 held 11
    from mflef import linalg

    calls = []
    original = linalg.nullspace

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(linalg, "nullspace", counted)
    assert _run(["corpus", "-i", str(FIXTURES / "a2.mflef"), "--engine", "graded"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "a2.out").read_text()
    assert len(calls) <= 4


def test_unwritable_json_path_is_input_error(tmp_path):
    # the report is printed; the failed --json write is one error line and
    # exit 2, never a traceback with exit 1 (an identity violation)
    out = tmp_path / "no-such-dir" / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mflef.cli", "hlf-verify", "caseA2",
         "-i", str(FIXTURES / "a2.mflef"), "--json", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_undecodable_input_is_input_error(tmp_path):
    # a document that is not UTF-8 is unreadable input: one error line and
    # exit 2, never a UnicodeDecodeError traceback with exit 1
    doc = tmp_path / "latin.mflef"
    doc.write_bytes(b"\xff\xfe[potential]\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mflef.cli", "milnor", "w", "-i", str(doc)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: cannot read {doc}: ")
    assert "Traceback" not in proc.stderr


# One step past each parser limit in mflef.document.LIMITS: nesting depth,
# zeta and cyclotomic order, exponent, total degree, power bit size, term
# count, variable count, and the matrix and module ranks.
NESTED_POTENTIAL = "[potential]\nw = {expr}\n"


@pytest.mark.parametrize("expr", [
    "(" * 101 + "x" + ")" * 101 + "^3",
    "-" * 101 + "x^3",
], ids=["parentheses", "unary-signs"])
def test_deep_nesting_is_input_error(expr, tmp_path):
    doc = tmp_path / "deep.mflef"
    doc.write_text(NESTED_POTENTIAL.format(expr=expr))
    proc = subprocess.run(
        [sys.executable, "-m", "mflef.cli", "milnor", "w", "-i", str(doc)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: line 2: nesting depth 101 exceeds the limit 100"]
    assert "Traceback" not in proc.stderr


BOUNDED_POTENTIAL = """
[potential]
vars = x, y
w = x^3 + y^3 + {expr}
"""

BOUNDED_FIVE_VARIABLES = """
[potential]
vars = x, y, z, u, v
w = x^3 + y^3 + z^3 + u^3 + v^3 + {expr}
"""

BOUNDED_ROOTS = """
[potential]
w = x^3

[symmetry]
name = t
potential = w
roots = zeta(101)^[1]
"""


# The variable count limit is 8 and the rank limits 16.  The largest values in the tests,
# fixtures, demos and benchmark documents are 5 variables, 8 rows or entries
# of a matrix block and 2 module generators.
NINE_VARIABLES = ", ".join(f"x{i}" for i in range(1, 10))
NINE_CUBES = " + ".join(f"x{i}^3" for i in range(1, 10))
SEVENTEEN = "; ".join(["x"] * 17)

BOUNDED_MATRIX = """[potential]
w = x^2

[mf]
name = A
d0 = {{
{rows}
}}
d1 = {{ x }}
"""

BOUNDED_MODULE = """[potential]
w = x^2

[module]
name = M
vars = {variables}
degrees = {degrees}
"""


@pytest.mark.parametrize("text, message", [
    (BOUNDED_POTENTIAL.format(expr="zeta(101)"), "line 4: zeta order 101 exceeds the limit 100"),
    (BOUNDED_ROOTS, "line 8: zeta order 101 exceeds the limit 100"),
    # 102 is the least order past 100 that two orders up to 100 can combine to
    (BOUNDED_POTENTIAL.format(expr="zeta(3)*zeta(34)"),
     "line 4: cyclotomic order 102 exceeds the limit 100"),
    (BOUNDED_POTENTIAL.format(expr="2^101"), "line 4: exponent 101 exceeds the limit 100"),
    (BOUNDED_POTENTIAL.format(expr="x^33"), "line 4: total degree 33 exceeds the limit 32"),
    (BOUNDED_POTENTIAL.format(expr="x^16*y^17"), "line 4: total degree 33 exceeds the limit 32"),
    # 2^240 has 241 bits and 17 * 241 = 4097
    (BOUNDED_POTENTIAL.format(expr="((2^80)^3)^17"),
     "line 4: power bit size 4097 exceeds the limit 4096"),
    # there are C(14, 4) = 1001 monomials of degree 10 in five variables
    (BOUNDED_FIVE_VARIABLES.format(expr="(x+y+z+u+v)^10"),
     "line 4: term count 1001 exceeds the limit 1000"),
    (BOUNDED_FIVE_VARIABLES.format(expr="(x+y+z+u+v)^5*(x+y+z+u+v)^5"),
     "line 4: term count 1001 exceeds the limit 1000"),
    (f"[potential]\nvars = {NINE_VARIABLES}\nw = {NINE_CUBES}\n",
     "line 2: variable count 9 exceeds the limit 8"),
    (f"[potential]\nw = {NINE_CUBES}\n", "line 2: variable count 9 exceeds the limit 8"),
    (BOUNDED_MODULE.format(variables=NINE_VARIABLES, degrees="0"),
     "line 6: variable count 9 exceeds the limit 8"),
    (BOUNDED_MATRIX.format(rows="\n".join(["x"] * 17)),
     "line 23: matrix row count 17 exceeds the limit 16"),
    (BOUNDED_MATRIX.format(rows=SEVENTEEN), "line 7: matrix column count 17 exceeds the limit 16"),
    (BOUNDED_MODULE.format(variables="x", degrees=", ".join(["0"] * 17)),
     "line 7: generator count 17 exceeds the limit 16"),
], ids=["zeta-order", "roots-order", "combined-order", "exponent", "power-degree",
        "product-degree", "power-bits", "power-terms", "product-terms", "variables",
        "inferred-variables", "module-variables", "matrix-rows", "matrix-columns",
        "module-generators"])
def test_work_bounds_are_input_errors(text, message, tmp_path, capsys):
    doc = tmp_path / "big.mflef"
    doc.write_text(text)
    assert _run(["milnor", "w", "-i", str(doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


NON_HOMOGENEOUS_STABILIZE = """
[potential]
name = w
vars = x, y
expr = x^4 + y^2

[module]
name = M
vars = x, y
degrees = 0
relations = { x^2 ; y }
"""


def test_stabilize_needs_a_homogeneous_potential(tmp_path):
    # the stabilization solves in the standard grading; a potential that is
    # not homogeneous there is an input the method does not cover (exit 2),
    # not a failed internal check (exit 3)
    doc = tmp_path / "stabilize.mflef"
    doc.write_text(NON_HOMOGENEOUS_STABILIZE)
    proc = subprocess.run(
        [sys.executable, "-m", "mflef.cli", "stabilize", "M", "w", "-i", str(doc)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: the potential is not homogeneous in the standard grading"
    ]
    assert "Traceback" not in proc.stderr


DIFFERENT_POTENTIALS = """
[potential]
w = x^3

[potential]
v = x^6

[symmetry]
name = t
potential = w
roots = zeta(3)^[1]

[mf]
name = A
potential = w
d0 = { x }
d1 = { x^2 }
grading_even = 0
grading_odd = 1/6

[mf]
name = B
potential = v
d0 = { x^2 }
d1 = { x^4 }
grading_even = 0
grading_odd = 1/6

[morphism]
name = alpha
source = A
target = A
twist = t
twisted = target
parity = even
mat = {
1 ; 0
0 ; zeta(3)
}

[morphism]
name = beta
source = B
target = B
twist = t
twisted = source
parity = even
mat = {
1 ; 0
0 ; zeta(3)
}
"""


@pytest.mark.parametrize("argv, message", [
    (["pair", "A", "B", "t", "alpha", "beta"], "pairing requires the same potential"),
    (["hlf-verify", "A", "B", "t", "alpha", "beta", "--engine", "graded"],
     "factorizations have different potentials"),
    (["hlf-verify", "A", "B", "t", "alpha", "beta"], "factorizations have different potentials"),
], ids=["pair", "graded", "groebner"])
def test_pair_over_different_potentials_is_input_error(argv, message, tmp_path, capsys):
    # classes of H(w_t) and H(v_t) for w != v have no pairing between them
    doc = tmp_path / "potentials.mflef"
    doc.write_text(DIFFERENT_POTENTIALS)
    assert _run(argv + ["-i", str(doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


TWISTS = (FIXTURES / "a2.mflef").read_text() + """
[symmetry]
name = s
potential = w
roots = zeta(3)^[2]

[symmetry]
name = u
potential = w
roots = zeta(6)^[2]

[symmetry]
name = i
potential = w
roots = zeta(1)^[0]

[morphism]
name = gamma
source = A
target = A
twist = s
twisted = source
parity = even
mat = {
1 ; 0
0 ; zeta(3)
}

[morphism]
name = ident
source = A
target = A
parity = even
mat = {
1 ; 0
0 ; 1
}
"""


@pytest.mark.parametrize("engine", ["groebner", "graded"])
@pytest.mark.parametrize("argv, message", [
    (["bb", "A", "s", "alpha"], "morphism 'alpha' is twisted by t, not by the symmetry 's'"),
    (["pair", "A", "A", "s", "alpha", "beta"],
     "morphism 'alpha' is twisted by t, not by the symmetry 's'"),
    (["hlf-verify", "A", "A", "s", "alpha", "beta"],
     "morphism 'alpha' is twisted by t, not by the symmetry 's'"),
    (["isolated-verify", "A", "A", "s", "alpha", "beta"],
     "morphism 'alpha' is twisted by t, not by the symmetry 's'"),
    (["zero-check", "A", "A", "s", "alpha", "beta"],
     "morphism 'alpha' is twisted by t, not by the symmetry 's'"),
    (["trace-identity", "A", "s", "alpha"],
     "morphism 'alpha' is twisted by t, not by the symmetry 's'"),
    (["divisibility", "A", "s", "alpha", "3"],
     "morphism 'alpha' is twisted by t, not by the symmetry 's'"),
    (["pair", "A", "A", "t", "alpha", "gamma"],
     "morphism 'gamma' is twisted by s, not by the symmetry 't'"),
    (["bb", "A", "t", "ident"], "morphism 'ident' is twisted by the identity, not by the symmetry 't'"),
], ids=["bb", "pair", "hlf-verify", "isolated-verify", "zero-check", "trace-identity",
        "divisibility", "pair-beta", "untwisted"])
def test_morphism_twisted_by_another_symmetry_is_input_error(argv, message, engine, tmp_path,
                                                            capsys):
    # alpha: A -> t^*A used with s = t^2 once printed a class of t as one of s
    # (bb, divisibility) or failed deep inside an engine
    doc = tmp_path / "twists.mflef"
    doc.write_text(TWISTS)
    assert _run(argv + ["-i", str(doc), "--engine", engine]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: {message}"]


OTHER_FACTORIZATION = TWISTS + """
[mf]
name = B
potential = w
d0 = { x^2 }
d1 = { x }

[morphism]
name = alphaB
source = B
target = B
twist = t
twisted = target
parity = even
mat = {
1 ; 0
0 ; zeta(3)^2
}
"""


def test_divisibility_refuses_a_morphism_of_another_factorization(tmp_path, capsys):
    # alphaB: B -> t^*B is twisted by t, as the document checks, but it is
    # no structure on A, so the library refuses it
    doc = tmp_path / "other.mflef"
    doc.write_text(OTHER_FACTORIZATION)
    assert _run(["divisibility", "A", "t", "alphaB", "3", "-i", str(doc)]) == 2
    assert capsys.readouterr() == ("", "error: alpha must start at the source factorization\n")


@pytest.mark.parametrize("argv, line", [
    (["bb", "A", "u", "alpha"], "bb A u alpha: class = 1 - zeta(3)  parity = even"),
    (["hlf-verify", "A", "A", "u", "alpha", "beta"],
     "hlf-verify A/A/u: lhs = 1 + zeta(6)  rhs = 1 + zeta(6)  [equal]"),
    (["bb", "A", "i", "ident"], "bb A i ident: class = 0  parity = odd"),
], ids=["same-roots", "same-roots-verify", "identity"])
def test_twist_is_matched_by_roots_not_names(argv, line, tmp_path, capsys):
    # u = zeta(6)^[2] is t = zeta(3)^[1] under another name, and an untwisted
    # morphism is twisted by the identity
    doc = tmp_path / "twists.mflef"
    doc.write_text(TWISTS)
    assert _run(argv + ["-i", str(doc)]) == 0
    assert capsys.readouterr() == (line + "\n", "")


@pytest.mark.parametrize("p", ["4", "1000000", "2000000000"])
def test_divisibility_refuses_a_composite_p_before_the_power_check(p, monkeypatch, capsys):
    # the power check composes p - 1 twists of alpha; a composite p must be
    # refused before it, not after
    from mflef import lefschetz

    def unbounded(t, alpha, p):
        raise AssertionError("the power check ran")

    monkeypatch.setattr(lefschetz, "equivariance_power_check", unbounded)
    argv = ["divisibility", "K", "minus", "sign", p, "-i", str(FIXTURES / "passing.mflef")]
    assert _run(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: p must be prime"]


MILNOR_BOUND = """
[potential]
w = x^32 + y^32 + z^32 + u^32

[potential]
v = x^11 + y^11 + z^11 + u^11

[module]
name = M
vars = x, y, z, u
degrees = 0
relations = { x ; y ; z ; u }
"""


def test_milnor_number_is_bounded_before_enumeration(tmp_path, monkeypatch, capsys):
    # the pure-power leads x^31, ..., u^31 of the Jacobian ideal bound mu by
    # 31^4; past the limit the standard monomials must not be enumerated
    from mflef import milnor

    def unbounded(*args, **kwargs):
        raise AssertionError("standard monomials enumerated")

    doc = tmp_path / "milnor.mflef"
    doc.write_text(MILNOR_BOUND)
    monkeypatch.setattr(milnor, "standard_monomials", unbounded)
    for argv in (["milnor", "w"], ["hilbert", "M", "w"]):
        assert _run(argv + ["-i", str(doc)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: Milnor number bound 923521 exceeds the limit 10000"]
    monkeypatch.undo()
    # 10^4 is at the limit and still enumerated
    assert _run(["milnor", "v", "-i", str(doc)]) == 0
    assert capsys.readouterr().out.startswith("milnor v: mu = 10000  basis = [1, u, z, ")
