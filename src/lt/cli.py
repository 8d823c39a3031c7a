"""Command-line front end.

Verdicts are printed as JSON with a stable key order so identical runs
are byte-identical; timing is only included when --timing is given.
Exit codes: 0 = positive logical result, 1 = negative logical result
(countermodel, counterexample or proof violation), 2 = usage or parse
error, 3 = budget exhausted, 4 = internal error (an unexpected exception,
reported on one line of stderr).  The argument parser is built once per
process, on the first call of `main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .algebra import Algebra, Denotation
from .entailment import (
    DEFAULT_CAP,
    SearchReport,
    default_max_n,
    find_countermodel,
    find_labelled_countermodel,
)
from .errors import BudgetExceededError, LTError, ParseError, load_json
from .proofcheck import check, load_assumptions, load_derivation
from .ptplus import PTDenotation, format_team, f_map, pt_entails, pt_eval, verify_f_representation
from .semantics import Homomorphism, evaluate
from .syntax import (
    format_formula,
    formula_repr,
    parse_entailment_query,
    parse_formula,
    parse_labelled_query,
    parse_lines,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _elapsed_field(obj: dict, started: float, timing: bool) -> dict:
    if timing:
        obj["elapsed_ms"] = round((time.monotonic() - started) * 1000, 3)
    return obj


def _variable_index(name: str, where: str) -> int:
    """The index of a variable named P<digits>, ASCII digits only, as the
    lexer reads them; an error names `where` the name was given."""
    digits = name[1:]
    if not name.startswith("P") or not (digits.isascii() and digits.isdigit()):
        raise LTError(f"bad variable name {name!r} in {where}; use P<digits>")
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads
        raise LTError(f"index of P<{len(digits)} digits> in {where} is too large") from None


def _homomorphism(algebra: Algebra, pairs, where: str) -> Homomorphism:
    """The homomorphism that gives each named variable the set of the
    listed elements, from (name, element strings) pairs read from `where`;
    a variable given twice, under any spelling of its name, is an error."""
    assignment: dict[int, Denotation] = {}
    for name, elements in pairs:
        index = _variable_index(name, where)
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise LTError(f"denotation of {name} must be a list of element strings")
        d = Denotation.from_strings(algebra, elements)
        if index in assignment:
            raise LTError(f"P{index} is assigned more than once")
        assignment[index] = d
    return Homomorphism(algebra, assignment)


def _parse_assignment(algebra: Algebra, specs: list[str]) -> Homomorphism:
    """The --assign values, each NAME=[e1,e2,...], as a homomorphism."""
    pairs = []
    for spec in filter(None, map(str.strip, specs)):
        name, _, value = spec.partition("=")
        value = value.strip()
        if not (value.startswith("[") and value.endswith("]")):
            raise LTError(f"bad assignment value {value!r}; use e.g. [01,10] or []")
        inner = value[1:-1].strip()
        pairs.append((name.strip(), [p.strip().strip('"') for p in inner.split(",")] if inner else []))
    return _homomorphism(algebra, pairs, "--assign")


# -- subcommand handlers


def _cmd_parse(args) -> int:
    formula = parse_formula(args.expr)
    print(formula_repr(formula))
    return EXIT_OK


def _cmd_expand(args) -> int:
    from .syntax import expand

    print(format_formula(expand(parse_formula(args.expr))))
    return EXIT_OK


def _cmd_eval(args) -> int:
    algebra = Algebra(args.n)
    hom = _parse_assignment(algebra, args.assign or [])
    formula = parse_formula(args.expr)
    denotation = evaluate(hom, formula, native_derived=args.native)
    _emit({"algebra_n": algebra.n, "denotation": denotation.to_strings()})
    return EXIT_OK


_STATUS = {
    "countermodel": ("countermodel", EXIT_NEGATIVE),
    "exhausted": ("entailed_up_to_n", EXIT_OK),
    "budget_exceeded": ("budget_exceeded", EXIT_BUDGET),
}


def _emit_search(
    report: SearchReport, fields: dict, note: str | None, started: float, timing: bool
) -> int:
    status, code = _STATUS[report.status]
    cm = report.countermodel
    n = report.completed_n if cm is None else cm.algebra.n
    verdict: dict = {"status": status, "n": n, **fields}
    if cm is not None:
        verdict["countermodel"] = cm.to_json_obj()
        verdict["witness"] = verdict["countermodel"]["witness"]
    if note:
        verdict["note"] = note
    _emit(_elapsed_field(verdict, started, timing))
    return code


def _cmd_entail(args) -> int:
    started = time.monotonic()
    if args.premises_file:
        premises = parse_lines(args.premises_file, parse_formula)
        conclusion = parse_formula(args.query)
    else:
        premises, conclusion = parse_entailment_query(args.query)
    max_n = args.max_n if args.max_n is not None else default_max_n()
    report = find_countermodel(
        premises,
        conclusion,
        max_n=max_n,
        class_restriction=args.class_restriction,
        cap=args.cap,
        jobs=args.jobs,
    )
    fields = {"max_n": max_n, "class": args.class_restriction, "cap": args.cap, "jobs": args.jobs}
    return _emit_search(report, fields, report.note, started, args.timing)


def _cmd_lentail(args) -> int:
    started = time.monotonic()
    gamma, conclusion = parse_labelled_query(args.query)
    max_n = args.max_n if args.max_n is not None else default_max_n()
    report = find_labelled_countermodel(
        gamma, conclusion, max_n=max_n, cap=args.cap, jobs=args.jobs
    )
    # a labelled verdict carries a note only when the cap stopped the search
    note = report.note if report.status == "budget_exceeded" else None
    fields = {"max_n": max_n, "cap": args.cap, "jobs": args.jobs}
    return _emit_search(report, fields, note, started, args.timing)


def _cmd_check_proof(args) -> int:
    derivation = load_derivation(args.file)
    gamma = load_assumptions(args.assumptions) if args.assumptions else []
    result = check(derivation, gamma)
    if result.ok:
        _emit({"status": "ok"})
        return EXIT_OK
    _emit(
        {
            "status": "violation",
            "path": list(result.path or ()),
            "reason": result.reason,
            "message": result.message,
        }
    )
    return EXIT_NEGATIVE


def _cmd_pt_eval(args) -> int:
    denotation: PTDenotation = pt_eval(parse_formula(args.expr), args.k)
    _emit({"k": args.k, "denotation": denotation.to_lists()})
    return EXIT_OK


def _cmd_pt_entail(args) -> int:
    premises, conclusion = parse_entailment_query(args.query)
    entailed, counter_team = pt_entails(premises, conclusion, args.k)
    verdict: dict = {"status": "entailed" if entailed else "countermodel", "k": args.k}
    if not entailed:
        verdict["counter_team"] = format_team(counter_team, args.k)
    _emit(verdict)
    return EXIT_OK if entailed else EXIT_NEGATIVE


def _load_hom_file(path: str) -> Homomorphism:
    with open(path, encoding="utf-8") as fh:
        obj = load_json(fh.read(), path, object_pairs_hook=tuple)  # an object as its (key, value) pairs
    if not isinstance(obj, tuple):
        raise LTError("homomorphism file must hold a JSON object {n, assignment}")
    fields = dict(obj)
    n = fields.get("n")
    if type(n) is not int:
        raise LTError(f"homomorphism file needs an integer n, got {n!r}")
    algebra = Algebra(n)
    entries = fields.get("assignment", ())
    if not isinstance(entries, tuple):
        raise LTError("assignment in homomorphism file must be a JSON object")
    return _homomorphism(algebra, entries, f"homomorphism file {path}")


def _cmd_bridge_verify_f(args) -> int:
    hom = _load_hom_file(args.hfile)
    ok = verify_f_representation(hom, args.k, depth=args.depth)
    fmap = f_map(hom, args.k)
    _emit(
        {
            "status": "ok" if ok else "mismatch",
            "n": hom.algebra.n,
            "k": args.k,
            "depth": args.depth,
            "atom_valuations": {
                hom.algebra.format_element(1 << s): format(
                    fmap.valuation_of(s), f"0{args.k}b"
                ) if args.k else ""
                for s in range(hom.algebra.n)
            },
        }
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_classes_principal_check(args) -> int:
    algebra = Algebra(args.n)
    texts = load_json(args.denotation, "denotation")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise LTError('denotation must be a JSON array of element strings, like ["01","10"]')
    d = Denotation.from_strings(algebra, texts)
    principal = d.is_principal_ideal()
    obj = {
        "n": args.n,
        "denotation": d.to_strings(),
        "is_principal_ideal": principal,
    }
    if principal:
        obj["max_element"] = algebra.format_element(d.join_of())
    _emit(obj)
    return EXIT_OK if principal else EXIT_NEGATIVE


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


JOBS_HELP = "at least 1, and echoed in the verdict; the scan runs in this process"


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lt", description="Workbench for the logic of teams."
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and dump its tree")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("expand", help="expand derived connectives to core syntax")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("eval", help="evaluate a formula under an assignment")
    p.add_argument("--n", type=int, required=True, help="number of algebra atoms")
    p.add_argument(
        "--assign",
        action="append",
        default=[],
        help="variable assignment, e.g. P0=[01,10]; repeatable; '' for none",
    )
    p.add_argument("--native", action="store_true", help="evaluate derived connectives natively")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("entail", help="countermodel search for 'premises |- conclusion'")
    p.add_argument("--max-n", type=int, dest="max_n", default=None)
    p.add_argument(
        "--class",
        dest="class_restriction",
        choices=["all", "principal_variables"],
        default="all",
    )
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--jobs", type=_positive_int, default=1, help=JOBS_HELP)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--premises-file", dest="premises_file", default=None)
    p.add_argument("query", help="'phi1, phi2 |- psi', or just psi with --premises-file")
    p.set_defaults(handler=_cmd_entail)

    p = sub.add_parser("lentail", help="labelled countermodel search")
    p.add_argument("--max-n", type=int, dest="max_n", default=None)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--jobs", type=_positive_int, default=1, help=JOBS_HELP)
    p.add_argument("--timing", action="store_true")
    p.add_argument("query", help="'a1:phi1, a2:phi2 |- b:psi'")
    p.set_defaults(handler=_cmd_lentail)

    p = sub.add_parser("check-proof", help="check a derivation file")
    p.add_argument("file")
    p.add_argument("--assumptions", default=None, help="file with one labelled formula per line")
    p.set_defaults(handler=_cmd_check_proof)

    pt = sub.add_parser("pt", help="valuational team semantics")
    ptsub = pt.add_subparsers(dest="pt_command", required=True)
    p = ptsub.add_parser("eval", help="evaluate a PT+ formula over teams")
    p.add_argument("--k", type=int, required=True, help="number of variables")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_pt_eval)
    p = ptsub.add_parser("entail", help="PT+ entailment check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("query")
    p.set_defaults(handler=_cmd_pt_entail)

    bridge = sub.add_parser("bridge", help="bridges between the two semantics")
    bsub = bridge.add_subparsers(dest="bridge_command", required=True)
    p = bsub.add_parser(
        "verify-f", help="check the representation map for a homomorphism file"
    )
    p.add_argument("hfile", help="JSON {n, assignment: {P0: [bits,...], ...}}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(handler=_cmd_bridge_verify_f)

    classes = sub.add_parser("classes", help="homomorphism class tools")
    csub = classes.add_subparsers(dest="classes_command", required=True)
    p = csub.add_parser("principal-check", help="is a denotation a principal ideal?")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("denotation", help='JSON list of element bit-strings, e.g. ["00","01"]')
    p.set_defaults(handler=_cmd_classes_principal_check)

    top.commands = sub.choices  # each command's name to its parser
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on the first call and reused for the
    rest of the process: parsing leaves it unchanged (`--assign` appends
    to a copy of its default, and handlers are bound by `set_defaults`)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command: the arguments after its name go straight to its
    parser.  The top-level parser reads argv only to report on it: no or
    an unknown command, `-h`, or arguments the command's parser left."""
    argv = sys.argv[1:] if argv is None else argv
    command = _parser().commands.get(argv[0]) if argv else None
    try:
        args, rest = command.parse_known_args(argv[1:]) if command else (None, ())
        if args is None or rest:
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except BudgetExceededError as exc:
        _emit({"status": "budget_exceeded", "note": str(exc)})
        return EXIT_BUDGET
    except (LTError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a fault of the workbench, never a verdict
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
