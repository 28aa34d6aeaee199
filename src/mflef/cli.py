"""Command-line driver: load a workspace document, run verifiers, emit reports.

Usage: mflef <command> [entity names] -i <file> [--json <out>]
              [--engine groebner|graded|both]

Commands and their positional arguments:

    milnor W                  Milnor number and monomial basis of a potential
    bb MF SYM ALPHA           boundary-bulk class of a twisted endomorphism
    pair A B SYM ALPHA BETA   pairing of the two boundary-bulk classes
    hlf-verify A B SYM ALPHA BETA
    isolated-verify A B SYM ALPHA BETA
    lunts W SYM
    zero-check A B SYM ALPHA BETA
    trace-identity A SYM ALPHA
    divisibility A SYM ALPHA P
    stabilize M W
    hilbert M [W]
    corpus                    run every [case] in the document, ordered by name

A verification command may also be given a single case name declared in the
document with the same command.  Exit status: 0 when every report passes,
1 when an identity fails, 2 on input errors, 3 when an internal check fails
or a KeyError, IndexError or TypeError escapes.
Text output carries no timing and is byte-identical across runs; --json
output includes microsecond timings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .document import DocumentError, parse_document
from .groebner import NotInModuleError
from .hilbert import (
    chi_polynomial,
    chi_stabilization_consistency,
    multiplicity_data,
    verify_even_multiplicity_divisibility,
)
from .lefschetz import (
    LefschetzReport,
    _now,
    boundary_bulk,
    divisibility_check,
    lunts_check,
    rhs_hlf,
    trace_identity_check,
    verify_hlf,
    verify_isolated,
    zero_fixed_locus_check,
)
from .mfcore import stabilize_module, supertrace_at_origin, validate_mf
from .milnor import MilnorAlgebra, NonIsolatedError

SCHEMA_VERSION = "1"

COMMANDS = (
    "milnor", "bb", "pair", "hlf-verify", "isolated-verify", "lunts",
    "zero-check", "trace-identity", "divisibility", "stabilize", "hilbert",
    "corpus",
)


class InputError(ValueError):
    pass


_KIND_NAMES = {
    "potentials": "potential", "symmetries": "symmetry",
    "factorizations": "factorization", "morphisms": "morphism",
    "modules": "module", "cases": "case",
}


def _need(doc, table_name, name):
    table = getattr(doc, table_name)
    if name not in table:
        raise InputError(f"unknown {_KIND_NAMES[table_name]} {name!r}")
    return table[name]


def _symmetry_roots(doc, name):
    return _need(doc, "symmetries", name)[1]


def _mf(doc, name):
    return _need(doc, "factorizations", name)[1]


def _morphism_as(doc, name, expected_twisted):
    entry = _need(doc, "morphisms", name)
    if entry["twisted"] != expected_twisted:
        raise InputError(
            f"morphism {name!r} must be twisted on the {expected_twisted} "
            f"(declared: {entry['twisted']})"
        )
    return entry["morphism"]


def run_command(command, args, doc, engine="groebner"):
    """Execute one command; returns (lines, report_dicts, ok)."""
    if command != "corpus" and len(args) == 1 and args[0] in doc.cases:
        case_command, case_args = doc.cases[args[0]]
        if case_command != command:
            raise InputError(
                f"case {args[0]!r} is declared for command {case_command!r}"
            )
        lines, reports, ok = run_command(case_command, case_args, doc, engine)
        lines = [f"{args[0]}: {line}" for line in lines]
        for rep in reports:
            rep["case"] = args[0]
        return lines, reports, ok

    if command == "milnor":
        (wname,) = _args(args, 1)
        w = _need(doc, "potentials", wname)
        start = _now()
        algebra = MilnorAlgebra(w)
        micros = _now() - start
        basis = ", ".join(_mono_str(w.ring, m) for m in algebra.basis)
        lines = [f"milnor {wname}: mu = {algebra.milnor_number}  basis = [{basis}]"]
        return lines, [_row(command, wname, algebra.milnor_number, "groebner", micros)], True

    if command == "bb":
        aname, sname, mname = _args(args, 3)
        mf = _mf(doc, aname)
        roots = _symmetry_roots(doc, sname)
        alpha = _morphism_as(doc, mname, "target")
        start = _now()
        tau = boundary_bulk(mf, roots, alpha)
        micros = _now() - start
        parity = "odd" if tau.parity else "even"
        lines = [f"bb {aname} {sname} {mname}: class = {tau.class_poly}  parity = {parity}"]
        report = _row(command, f"{aname}/{sname}/{mname}", tau.class_poly, "boundary-bulk", micros)
        return lines, [report], True

    if command == "pair":
        aname, bname, sname, m1, m2 = _args(args, 5)
        start = _now()
        value = rhs_hlf(
            _mf(doc, aname), _mf(doc, bname), _symmetry_roots(doc, sname),
            _morphism_as(doc, m1, "target"), _morphism_as(doc, m2, "source"),
        )
        micros = _now() - start
        lines = [f"pair {aname} {bname} {sname}: value = {value}"]
        report = _row(command, f"{aname}/{bname}/{sname}", value, "residue-pairing", micros)
        return lines, [report], True

    if command in ("hlf-verify", "isolated-verify", "zero-check"):
        aname, bname, sname, m1, m2 = _args(args, 5)
        a, b = _mf(doc, aname), _mf(doc, bname)
        roots = _symmetry_roots(doc, sname)
        alpha = _morphism_as(doc, m1, "target")
        beta = _morphism_as(doc, m2, "source")
        fn = {"hlf-verify": verify_hlf, "isolated-verify": verify_isolated,
              "zero-check": zero_fixed_locus_check}[command]
        rep = fn(a, b, roots, alpha, beta, engine=engine,
                 case=f"{aname}/{bname}/{sname}")
        return _lefschetz_output(command, rep)

    if command == "lunts":
        wname, sname = _args(args, 2)
        w = _need(doc, "potentials", wname)
        roots = _symmetry_roots(doc, sname)
        rep = lunts_check(w, roots, case=f"{wname}/{sname}")
        return _lefschetz_output(command, rep)

    if command == "trace-identity":
        aname, sname, mname = _args(args, 3)
        rep = trace_identity_check(
            _mf(doc, aname), _symmetry_roots(doc, sname),
            _morphism_as(doc, mname, "target"), engine=engine,
            case=f"{aname}/{sname}",
        )
        return _lefschetz_output(command, rep)

    if command == "divisibility":
        aname, sname, mname, p_text = _args(args, 4)
        try:
            p = int(p_text)
        except ValueError:
            raise InputError(f"divisibility needs an integer prime, got {p_text!r}")
        rep = divisibility_check(
            _mf(doc, aname), _symmetry_roots(doc, sname),
            _morphism_as(doc, mname, "target"), p, case=f"{aname}/{sname}/p={p}",
        )
        verdict = "pass" if rep.passed else "FAIL"
        val = rep.valuation if rep.valuation != math.inf else "inf"
        lines = [
            f"divisibility {rep.case}: str = {rep.value}  valuation = {val}  "
            f"bound = {rep.bound}  m_max = {rep.m_max}  [{verdict}]"
        ]
        report = _row(command, rep.case, rep.value, "cyclotomic-valuation", rep.micros,
                      rhs=f"valuation>={rep.bound}", equal=rep.passed)
        return lines, [report], rep.passed

    if command == "stabilize":
        mname, wname = _args(args, 2)
        pres = _need(doc, "modules", mname)
        w = _need(doc, "potentials", wname)
        start = _now()
        mf, alpha = stabilize_module(pres, w)
        validate_mf(mf)
        lines = [f"stabilize {mname} {wname}: ranks = ({mf.r0},{mf.r1})"]
        if alpha is not None:
            value = supertrace_at_origin(alpha)
            lines.append(f"stabilize {mname} {wname}: str((-1)*|0) = {value}")
        micros = _now() - start
        report = _row(command, f"{mname}/{wname}", f"({mf.r0},{mf.r1})", "stabilization", micros)
        return lines, [report], True

    if command == "hilbert":
        if len(args) == 1:
            (mname,) = args
            wname = None
        else:
            mname, wname = _args(args, 2)
        pres = _need(doc, "modules", mname)
        start = _now()
        chi = chi_polynomial(pres)
        data = multiplicity_data(chi, pres.ring.nvars)
        micros = _now() - start
        lines = [
            f"hilbert {mname}: chi = {chi}  d = {data.krull_dim}  e = {data.multiplicity}"
        ]
        ok = True
        reports = [_row(command, mname, chi, "free-resolution", micros,
                        rhs=f"({data.multiplicity})*(1-t)^{pres.ring.nvars - data.krull_dim}")]
        if wname is not None:
            w = _need(doc, "potentials", wname)
            even_rep = verify_even_multiplicity_divisibility(pres, w, case=f"{mname}/{wname}")
            verdict = "pass" if even_rep.passed else "FAIL"
            lines.append(
                f"hilbert {mname} {wname}: e(-1) = {even_rep.e_at_minus_one}  "
                f"required 2-power = {even_rep.required_power}  [{verdict}]"
            )
            chi_rep = chi_stabilization_consistency(pres, w, case=f"{mname}/{wname}")
            verdict = "equal" if chi_rep.equal else "MISMATCH"
            lines.append(
                f"hilbert {mname} {wname}: chi(-1) = {chi_rep.lhs}  "
                f"str((-1)*|0) = {chi_rep.rhs}  [{verdict}]"
            )
            ok = even_rep.passed and chi_rep.equal
            reports.append(_row(
                "hilbert/even-divisibility", even_rep.case, even_rep.e_at_minus_one,
                "hilbert-series", even_rep.micros,
                rhs=f"2^{even_rep.required_power}", equal=even_rep.passed,
            ))
            reports.append(_report_dict("hilbert/chi-stabilization", chi_rep))
        return lines, reports, ok

    if command == "corpus":
        if args:
            raise InputError("corpus takes no arguments")
        lines = []
        reports = []
        ok = True
        for case_name in sorted(doc.cases):
            case_command, case_args = doc.cases[case_name]
            sub_lines, sub_reports, sub_ok = run_command(
                case_command, case_args, doc, engine
            )
            lines += [f"{case_name}: {line}" for line in sub_lines]
            for rep in sub_reports:
                rep["case"] = case_name
            reports += sub_reports
            ok = ok and sub_ok
        lines.append(f"corpus: {len(doc.cases)} cases, " + ("all passed" if ok else "FAILURES"))
        return lines, reports, ok

    raise InputError(f"unknown command {command!r}")


def _args(args, count):
    if len(args) != count:
        raise InputError(f"expected {count} arguments, got {len(args)}")
    return args


def _mono_str(ring, mono):
    if not any(mono):
        return "1"
    return "*".join(
        f"{v}^{e}" if e > 1 else v for v, e in zip(ring.vars, mono) if e
    )


def _row(command, case, lhs, engine, micros, rhs=None, equal=True):
    """One JSON report; a command that only computes a value reports it on both sides."""
    return {
        "case": case, "command": command, "lhs": str(lhs),
        "rhs": str(lhs if rhs is None else rhs), "equal": equal, "engine": engine,
        "micros": micros,
    }


def _report_dict(command, rep: LefschetzReport):
    return _row(command, rep.case, rep.lhs, rep.engine, rep.micros, rep.rhs, rep.equal)


def _lefschetz_output(command, rep: LefschetzReport):
    verdict = "equal" if rep.equal else "MISMATCH"
    lines = [f"{command} {rep.case}: lhs = {rep.lhs}  rhs = {rep.rhs}  [{verdict}]"]
    return lines, [_report_dict(command, rep)], rep.equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mflef",
        description="exact verification of matrix-factorization trace formulas",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("names", nargs="*", help="entity or case names")
    parser.add_argument("-i", "--input", required=True, help="workspace document")
    parser.add_argument("--json", dest="json_out", help="write a structured report")
    parser.add_argument(
        "--engine", choices=("groebner", "graded", "both"), default="groebner"
    )
    opts = parser.parse_args(argv)

    try:
        with open(opts.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {opts.input}: {exc}", file=sys.stderr)
        return 2

    try:
        doc = parse_document(text)
        lines, reports, ok = run_command(opts.command, opts.names, doc, opts.engine)
    except (DocumentError, InputError, NonIsolatedError, NotInModuleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        # a broken internal invariant (an engine disagreement included) is
        # neither a verdict nor an input error
        print(f"error: internal: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (KeyError, IndexError, TypeError) as exc:
        # a lookup or type error escaping the engines is a bug, not a verdict
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for line in lines:
        print(line)
    if opts.json_out:
        payload = {"schema_version": SCHEMA_VERSION, "reports": reports}
        try:
            with open(opts.json_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write {opts.json_out}: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
