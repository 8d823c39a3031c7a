"""Command-line front end.

Verdicts are printed as JSON with a stable key order so identical runs
are byte-identical; timing is only included when --timing is given.
Exit codes: 0 = positive logical result, 1 = negative logical result
(countermodel, counterexample or proof violation), 2 = usage or parse
error, 3 = budget exhausted, 4 = internal error (an unexpected exception,
reported on one line of stderr).  Each command's argument parser is built
on the command's first use and kept for the process; the whole tree is
built only to print the top-level usage, help or error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .algebra import Algebra, algebra, iter_bits
from .entailment import (
    DEFAULT_CAP,
    DEFAULT_MAX_N,
    SearchReport,
    find_countermodel,
    find_labelled_countermodel,
)
from .errors import BudgetExceededError, LTError, ParseError, load_json
from .proofcheck import check, load_assumptions, load_derivation
from .ptplus import f_map, pt_entails, pt_eval, verify_f_representation
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


_escape = json.encoder.encode_basestring_ascii


def dumps(obj) -> str:
    """Exactly json.dumps(obj, indent=2) for what a verdict holds: dicts
    with str keys, lists, str, int, bool and None, with strings escaped by
    json's C code; any other value, such as a float, is written by
    json.dumps.  The open containers are a stack of (items left, closing
    text), each item a (text before it, value) pair."""
    out, stack = [], [(iter((("", obj),)), "")]
    while stack:
        items, closing = stack[-1]
        for before, value in items:
            out.append(before)
            if isinstance(value, str):
                out.append(_escape(value))
            elif value is None or value is True or value is False:
                out.append("null" if value is None else "true" if value else "false")
            elif isinstance(value, int):
                out.append(int.__repr__(value))
            elif isinstance(value, (dict, list, tuple)):
                if not value:
                    out.append("{}" if isinstance(value, dict) else "[]")
                    continue
                sep, end = ",\n" + "  " * len(stack), "\n" + "  " * (len(stack) - 1)
                if isinstance(value, dict):
                    befores = [sep + _escape(k) + ": " for k in value]
                    befores[0] = "{" + befores[0][1:]
                    stack.append((zip(befores, value.values()), end + "}"))
                    break
                try:  # a list of strings at once
                    out.append("[" + sep[1:] + sep.join(map(_escape, value)) + end + "]")
                except TypeError:
                    befores = [sep] * len(value)
                    befores[0] = "[" + sep[1:]
                    stack.append((zip(befores, value), end + "]"))
                    break
            else:
                out.append(json.dumps(value))
        else:
            stack.pop()
            out.append(closing)
    return "".join(out)


def _emit(obj) -> None:
    print(dumps(obj))


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
    assignment: dict[int, int] = {}
    for name, elements in pairs:
        index = _variable_index(name, where)
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise LTError(f"denotation of {name} must be a list of element strings")
        bits = algebra.parse_denotation(elements)
        if index in assignment:
            raise LTError(f"P{index} is assigned more than once")
        assignment[index] = bits
    return Homomorphism.from_bits(algebra, assignment)


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
    hom = _parse_assignment(algebra(args.n), args.assign or [])
    formula = parse_formula(args.expr)
    bits = evaluate(hom, formula).bits
    _emit({"algebra_n": args.n, "denotation": hom.algebra.format_denotation(bits)})
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
    report = find_countermodel(premises, conclusion, max_n=args.max_n,
                               class_restriction=args.class_restriction, cap=args.cap)
    fields = {"max_n": args.max_n, "class": args.class_restriction, "cap": args.cap,
              "jobs": args.jobs}
    return _emit_search(report, fields, report.note, started, args.timing)


def _cmd_lentail(args) -> int:
    started = time.monotonic()
    gamma, conclusion = parse_labelled_query(args.query)
    report = find_labelled_countermodel(gamma, conclusion, max_n=args.max_n, cap=args.cap)
    # a labelled verdict carries a note only when the cap stopped the search
    note = report.note if report.status == "budget_exceeded" else None
    fields = {"max_n": args.max_n, "cap": args.cap, "jobs": args.jobs}
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
    teams = iter_bits(pt_eval(parse_formula(args.expr), args.k).bits)
    alg = algebra(args.k)  # after pt_eval, which refuses a k outside 0..MAX_K
    _emit({"k": args.k, "denotation": [alg.format_denotation(t) for t in teams]})
    return EXIT_OK


def _cmd_pt_entail(args) -> int:
    premises, conclusion = parse_entailment_query(args.query)
    entailed, counter_team = pt_entails(premises, conclusion, args.k)
    verdict: dict = {"status": "entailed" if entailed else "countermodel", "k": args.k}
    if not entailed:
        verdict["counter_team"] = algebra(args.k).format_denotation(counter_team)
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
    alg = algebra(n)
    entries = fields.get("assignment", ())
    if not isinstance(entries, tuple):
        raise LTError("assignment in homomorphism file must be a JSON object")
    return _homomorphism(alg, entries, f"homomorphism file {path}")


def _cmd_bridge_verify_f(args) -> int:
    hom = _load_hom_file(args.hfile)
    valuations = f_map(hom, args.k)
    ok = verify_f_representation(hom, args.k, depth=args.depth, valuations=valuations)
    names = algebra(args.k).names
    _emit(
        {
            "status": "ok" if ok else "mismatch",
            "n": hom.algebra.n,
            "k": args.k,
            "depth": args.depth,
            "atom_valuations": {
                hom.algebra.format_element(1 << s): names[v]
                for s, v in enumerate(valuations)
            },
        }
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_classes_principal_check(args) -> int:
    alg = algebra(args.n)
    texts = load_json(args.denotation, "denotation")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise LTError('denotation must be a JSON array of element strings, like ["01","10"]')
    bits = alg.parse_denotation(texts)
    principal = alg.is_principal_ideal(bits)
    obj = {
        "n": args.n,
        "denotation": alg.format_denotation(bits),
        "is_principal_ideal": principal,
    }
    if principal:
        obj["max_element"] = alg.format_element(alg.join_of(bits))
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


def _arg(*flags: str, **options) -> tuple:
    """The arguments of one `add_argument` call."""
    return flags, options


# Every command, in the order its group's help lists them: its path of
# names after `lt`, its help in that list, its handler and its arguments.
_COMMANDS = {
    ("parse",): ("parse a formula and dump its tree", _cmd_parse, [_arg("expr")]),
    ("expand",): ("expand derived connectives to core syntax", _cmd_expand, [_arg("expr")]),
    ("eval",): ("evaluate a formula under an assignment", _cmd_eval, [
        _arg("--n", type=int, required=True, help="number of algebra atoms"),
        _arg("--assign", action="append", default=[],
             help="variable assignment, e.g. P0=[01,10]; repeatable; '' for none"),
        _arg("expr"),
    ]),
    ("entail",): ("countermodel search for 'premises |- conclusion'", _cmd_entail, [
        _arg("--max-n", type=int, dest="max_n", default=DEFAULT_MAX_N),
        _arg("--class", dest="class_restriction", choices=["all", "principal_variables"],
             default="all"),
        _arg("--cap", type=_positive_int, default=DEFAULT_CAP),
        _arg("--jobs", type=_positive_int, default=1, help=JOBS_HELP),
        _arg("--timing", action="store_true"),
        _arg("--premises-file", dest="premises_file", default=None),
        _arg("query", help="'phi1, phi2 |- psi', or just psi with --premises-file"),
    ]),
    ("lentail",): ("labelled countermodel search", _cmd_lentail, [
        _arg("--max-n", type=int, dest="max_n", default=DEFAULT_MAX_N),
        _arg("--cap", type=_positive_int, default=DEFAULT_CAP),
        _arg("--jobs", type=_positive_int, default=1, help=JOBS_HELP),
        _arg("--timing", action="store_true"),
        _arg("query", help="'a1:phi1, a2:phi2 |- b:psi'"),
    ]),
    ("check-proof",): ("check a derivation file", _cmd_check_proof, [
        _arg("file"),
        _arg("--assumptions", default=None, help="file with one labelled formula per line"),
    ]),
    ("pt", "eval"): ("evaluate a PT+ formula over teams", _cmd_pt_eval, [
        _arg("--k", type=int, required=True, help="number of variables"),
        _arg("expr"),
    ]),
    ("pt", "entail"): ("PT+ entailment check", _cmd_pt_entail, [
        _arg("--k", type=int, required=True),
        _arg("query"),
    ]),
    ("bridge", "verify-f"): ("check the representation map for a homomorphism file",
                             _cmd_bridge_verify_f, [
        _arg("hfile", help="JSON {n, assignment: {P0: [bits,...], ...}}"),
        _arg("--k", type=int, required=True),
        _arg("--depth", type=int, default=3),
    ]),
    ("classes", "principal-check"): ("is a denotation a principal ideal?",
                                     _cmd_classes_principal_check, [
        _arg("--n", type=int, required=True),
        _arg("denotation", help='JSON list of element bit-strings, e.g. ["00","01"]'),
    ]),
}
_GROUPS = {"pt": "valuational team semantics", "bridge": "bridges between the two semantics",
           "classes": "homomorphism class tools"}


def _with_command(parser: argparse.ArgumentParser, path: tuple[str, ...]) -> argparse.ArgumentParser:
    """`parser` with the arguments and the handler of the command at `path`."""
    _, handler, arguments = _COMMANDS[path]
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the whole command tree, built from `_COMMANDS`."""
    top = argparse.ArgumentParser(prog="lt", description="Workbench for the logic of teams.")
    subparsers = {(): top.add_subparsers(dest="command", required=True)}
    for path, (text, _, _) in _COMMANDS.items():
        group = path[:-1]
        if group not in subparsers:  # the group's parser, before its first command's
            parser = subparsers[()].add_parser(group[0], help=_GROUPS[group[0]])
            subparsers[group] = parser.add_subparsers(dest=group[0] + "_command", required=True)
        _with_command(subparsers[group].add_parser(path[-1], help=text), path)
    return top


@functools.cache
def _command_parser(path: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of the command at `path`, built on its first use and
    reused for the rest of the process: parsing leaves it unchanged
    (`--assign` appends to a copy of its default, and the handler is bound
    by `set_defaults`).  Its prog, and so its usage, help and errors, are
    those of the same command's parser in `build_parser`'s tree."""
    return _with_command(argparse.ArgumentParser(prog="lt " + " ".join(path)), path)


def main(argv: list[str] | None = None) -> int:
    """Run one command: the arguments after its name, or after a group's
    name and its command's, go straight to that command's own parser.  The
    whole tree is built, and reads argv, only to report on it: no or an
    unknown command, `-h` first, or arguments the command's parser left."""
    argv = sys.argv[1:] if argv is None else argv
    path = tuple(argv[:1]) if tuple(argv[:1]) in _COMMANDS else tuple(argv[:2])
    try:
        command = _command_parser(path) if path in _COMMANDS else None
        args, rest = command.parse_known_args(argv[len(path):]) if command else (None, ())
        if args is None or rest:
            args = build_parser().parse_args(argv)
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
