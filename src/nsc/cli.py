"""The `nsc` command line tool.

Every command prints a single JSON document

    {"status": "pass" | "fail" | "error", "payload": ..., "diagnostics": [...]}

with sorted keys and all numbers as exact rational literals.  Exit codes:
0 = pass, 1 = mathematical mismatch, 2 = usage or input error, or any
unexpected exception, reported by its type and message.  Divisor
multiplicities, `curve canonical --m-max`, the `s-table` genus, m-max and
j-max, the largest genus of `verify --genus-range`, a spec's jet width and
algebra basis size per singular point, its algebra basis entries in all and
its marked points are bounded (see README).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .curveio import curve_to_jsonable, dump_curve, load_curve, parse_divisor
from .curves import MAX_JET_WIDTH, arithmetic_genus, h0, h1
from .errors import InternalInconsistencyError, NscError, ValidationError
from .genus2 import fit_parameters
from .normalform import run_recursion
from .rational import INTEGER, format_rational
from .sections import alpha_beta, canonical_parameter
from .suites import SUITE_NAMES, parse_genus_range, run_suite
from .zoo import ZOO_IDS, zoo

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
MAX_M_MAX = 32
MAX_TABLE_GENUS, MAX_TABLE_M_MAX, MAX_TABLE_J_MAX = 48, 64, 16


def _print_result(status: str, payload, diagnostics=()) -> None:
    doc = {"status": status, "payload": payload, "diagnostics": list(diagnostics)}
    print(json.dumps(doc, sort_keys=True, indent=2))


class _Parser(argparse.ArgumentParser):
    """Raises a parse error as ValidationError, so that it is reported as a
    JSON document like every other usage error, instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _int_option(text: str) -> int:
    """The argparse type of integer options: ASCII digits only, unlike int()."""
    if not re.fullmatch(INTEGER, text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}, expected an integer in ASCII digits")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("s-table", help="coefficient table of the polar-term recursion")
    p.add_argument("--genus", type=_int_option, required=True)
    p.add_argument("--m-max", type=_int_option, default=None)
    p.add_argument("--j-max", type=_int_option, default=6)
    p.add_argument("--table", action="store_true")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--genus-range", default=None)
    p.add_argument("--perturb", default=None, choices=("c1", "c2", "c3"))

    p = sub.add_parser("curve", help="exact computations on a curve spec file")
    p.add_argument("operation", choices=("genus", "h0", "h1", "alphabeta", "canonical", "fit"))
    p.add_argument("curve_file")
    p.add_argument("--divisor", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--m-max", type=_int_option, default=None)

    p = sub.add_parser("zoo", help="built-in curves")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("case_id", nargs="?")
    p.add_argument("out_file", nargs="?")
    return parser


def _cmd_s_table(args) -> int:
    if args.genus < 2:
        raise ValidationError(f"genus must be >= 2, got {args.genus}")
    m_max = args.m_max if args.m_max is not None else args.genus + 6
    if m_max <= args.genus or args.j_max < 0:
        raise ValidationError("need m-max > genus and j-max >= 0")
    limits = (("genus", args.genus, MAX_TABLE_GENUS), ("m-max", m_max, MAX_TABLE_M_MAX),
              ("j-max", args.j_max, MAX_TABLE_J_MAX))
    for name, value, limit in limits:
        if value > limit:
            raise ValidationError(f"{name} {value} is out of range: the limit is {limit}")
    result = run_recursion(args.genus, m_max, args.j_max)
    if args.table:
        print(f"# s_{{m,j}} for genus {args.genus}")
        for (m, j), v in sorted(result.s_table.entries.items()):
            print(f"{m}\t{j}\t{format_rational(v)}")
    else:
        _print_result("pass", result.s_table.to_jsonable())
    return EXIT_PASS


def _cmd_verify(args) -> int:
    if args.perturb is not None and args.suite != "buchberger":
        raise ValidationError("--perturb applies to --suite buchberger only")
    if args.genus_range is not None and args.suite != "closed-forms":
        raise ValidationError("--genus-range applies to --suite closed-forms only")
    genus_range = parse_genus_range(args.genus_range) if args.genus_range is not None else None
    if genus_range is not None and genus_range[-1] > MAX_TABLE_GENUS:
        raise ValidationError(f"genus {genus_range[-1]} is out of range: the limit is {MAX_TABLE_GENUS}")
    ok, payload = run_suite(args.suite, genus_range=genus_range, perturb=args.perturb)
    _print_result("pass" if ok else "fail", payload)
    return EXIT_PASS if ok else EXIT_FAIL


def _parse_weights(curve, text):
    ids, values = curve.point_ids(), text.split(",")
    if len(values) != len(ids) or not all(re.fullmatch(INTEGER, v.strip()) for v in values):
        raise ValidationError(f"--weights: expected {len(ids)} comma-separated integers in ASCII digits, "
                              f"one per marked point, got {text!r}")
    return dict(zip(ids, map(int, values)))


def _cmd_curve(args) -> int:
    curve = load_curve(args.curve_file)
    op = args.operation
    if op == "genus":
        _print_result("pass", {"genus": arithmetic_genus(curve)})
        return EXIT_PASS
    if op in ("h0", "h1"):
        if args.divisor is None:
            raise ValidationError(f"{op} needs --divisor")
        div = parse_divisor(args.divisor, curve)
        if op == "h0":
            res = h0(curve, div)
            payload = {
                "dimension": res.dimension,
                "divisor": dict(div.items),
                "basis": [fn.to_jsonable() for fn in res.basis],
            }
        else:
            payload = {"h1": h1(curve, div), "divisor": dict(div.items)}
        _print_result("pass", payload)
        return EXIT_PASS
    if args.point is None:
        raise ValidationError(f"{op} needs --point")
    pid = f"p{curve.point_index(args.point, '--point')}"
    g = arithmetic_genus(curve)
    if op == "alphabeta":
        others = [q for q in curve.point_ids() if q != pid]
        if not others:
            raise ValidationError("alphabeta needs a second marked point")
        jid = others[0]
        weights = _parse_weights(curve, args.weights) if args.weights else {pid: g - 1, jid: 1}
        alpha, beta = alpha_beta(curve, pid, jid, weights=weights)
        _print_result("pass", {
            "alpha": format_rational(alpha),
            "beta": format_rational(beta),
            "point": pid,
            "second_point": jid,
        })
        return EXIT_PASS
    if op == "canonical":
        weights = _parse_weights(curve, args.weights) if args.weights else {pid: g}
        m_max = args.m_max if args.m_max is not None else g + 4
        if m_max > MAX_M_MAX:
            raise ValidationError(f"m-max {m_max} is out of range: the limit is {MAX_M_MAX}")
        pc = canonical_parameter(curve, weights, pid, m_max)
        coeffs = {str(e): format_rational(pc.coefficient(e)) for e in range(2, pc.order())}
        _print_result("pass", {"point": pid, "m_max": m_max, "coefficients": coeffs})
        return EXIT_PASS
    if op == "fit":
        params = fit_parameters(curve, pid)
        _print_result("pass", {
            "q1": format_rational(params.q1),
            "q20": format_rational(params.q20),
            "q21": format_rational(params.q21),
            "q30": format_rational(params.q30),
            "q31": format_rational(params.q31),
        })
        return EXIT_PASS
    raise ValidationError(f"unknown curve operation {op!r}")


def _cmd_zoo(args) -> int:
    if args.action == "list":
        _print_result("pass", {"cases": list(ZOO_IDS),
                               "family": f"ccusp<a> for a >= 1, jet order 2(a+1) <= {MAX_JET_WIDTH}"})
        return EXIT_PASS
    if args.case_id is None or args.out_file is None:
        raise ValidationError("zoo emit needs CASE_ID and OUT_FILE")
    curve = zoo(args.case_id)
    dump_curve(curve, args.out_file)
    _print_result("pass", {"case": args.case_id, "written": args.out_file,
                           "curve": curve_to_jsonable(curve)})
    return EXIT_PASS


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`): nothing more can be
        # reported there, and what is still buffered goes to devnull so that
        # the interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_USAGE


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        commands = {"s-table": _cmd_s_table, "verify": _cmd_verify, "curve": _cmd_curve, "zoo": _cmd_zoo}
        return commands[args.command](args)
    except SystemExit as exc:  # --help; parse errors raise ValidationError
        return EXIT_USAGE if exc.code not in (0,) else 0
    except BrokenPipeError:
        raise
    except InternalInconsistencyError as exc:
        _print_result("fail", None, [str(exc)])
        return EXIT_FAIL
    except (NscError, OSError, ValueError) as exc:
        _print_result("error", None, [str(exc)])
        return EXIT_USAGE
    except Exception as exc:  # any other failure still gives one JSON document, not a traceback
        _print_result("error", None, [f"internal error: {type(exc).__name__}: {exc}"])
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
