"""Seeded command streams for the four benchmark workloads.

Formulas and labels are tuple trees, rendered to the workbench's text
syntax; `ref.py` evaluates the same trees to check the verdicts.  Every
command knows its expected exit status when it is generated: valid
queries are valid by construction, refuted ones are built from schemas
that fail first on a non-chain algebra, and malformed inputs must be
rejected with exit status 2.

Each workload is a cycle of command kinds in fixed proportions.  Command
i draws from its own random stream, seeded by (workload, seed, i), so
the stream for a seed is the same whatever its length.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field

from ref import is_principal_ideal, members, pt_denote

WORKLOADS = ("search-vars-n3", "search-unary-n4", "quick-mixed")  # gated, in BENCHMARK.json
# Runnable and traced like the others, but not gated: its verdict times are
# a few dozen Taut checks of 0.05-2 s each, too few to be steady run to run.
EXTRA_WORKLOADS = ("taut-and-teams",)
CORPUS = (
    "and_comm", "and_comm_pair", "ex_falso", "fig1", "fig1_pair", "freshness_violation",
    "iand_comm", "inot_roundtrip", "inot_roundtrip_pair", "ior_comm", "ior_intro",
    "or_comm", "or_comm_pair", "raa_double_negation", "sub_basic", "taut_excluded_middle",
)
INVALID_CORPUS = {"freshness_violation": "freshness"}
K_AXIOM = "box (P0 -> P1) -> (box P0 -> box P1)"


@dataclass
class Command:
    name: str
    kind: str                      # subcommand (or library call) being timed
    argv: list[str] | None         # lt.cli.main argv; None for a library call
    exit: int                      # expected exit status
    check: dict = field(default_factory=dict)  # what the verifier needs
    files: dict[str, str] = field(default_factory=dict)  # temp files to write


# -- rendering


UNARY = ("!", "i!", "~", "box", "dia", "down", "up")
BINARY = ("&", "|", "i&", "i|", "->", "o*")


def render(f: tuple) -> str:
    op = f[0]
    if op in ("P", "p"):
        return f"{op}{f[1]}"
    if len(f) == 1:
        return op
    if len(f) == 2:
        return f"{op} {render(f[1])}"
    return f"({render(f[1])} {op} {render(f[2])})"


def render_query(premises, concl) -> str:
    return ", ".join(render(p) for p in premises) + (" " if premises else "") + "|- " + render(concl)


def render_lquery(gamma, concl) -> str:
    lf = lambda a, f: f"{render(a)} : {render(f)}"
    return ", ".join(lf(a, f) for a, f in gamma) + (" " if gamma else "") + "|- " + lf(*concl)


def element_str(e: int, n: int) -> str:
    return format(e, f"0{n}b") if n else ""


def den_arg(bits: int, n: int) -> str:
    return "[" + ",".join(element_str(e, n) for e in range(1 << n) if bits >> e & 1) + "]"


# -- random trees


def rand_formula(rng, vs, size, ops=("&", "|", "i&", "i|", "!", "down", "up", "~")):
    """A tree with exactly `size` connectives over the variables vs."""
    if size == 0:
        return ("P", rng.choice(vs))
    op = rng.choice(ops)
    if op in UNARY:
        return (op, rand_formula(rng, vs, size - 1, ops))
    left = rng.randrange(size)
    return (op, rand_formula(rng, vs, left, ops), rand_formula(rng, vs, size - 1 - left, ops))


def disguise(rng, v: tuple, other: tuple) -> tuple:
    """A formula equal to v in every algebra."""
    return rng.choice((
        v,
        ("&", v, ("top",)),
        ("|", v, ("bot",)),
        ("!", ("!", v)),
        ("&", v, ("|", v, other)),
        ("|", v, ("&", v, other)),
    ))


def pick_vars(rng, k):
    return sorted(rng.sample(range(10), k))


EXPANSION_EXTRA = {"top": 1, "nb": 1, "itop": 1, "down": 2, "up": 2, "dia": 5, "box": 7,
                   "~": 9, "->": 1, "o*": 6}


def expanded_size(f: tuple) -> int:
    """Node count of the formula after `lt expand` rewrites the derived
    connectives (top = !bot, dia x = (x i& top) i| top, ...)."""
    return 1 + EXPANSION_EXTRA.get(f[0], 0) + sum(
        expanded_size(c) for c in f[1:] if isinstance(c, tuple))


# -- entailment kinds


def entail(name, premises, concl, exit, max_n, klass="all"):
    argv = ["entail"]
    if max_n is not None:
        argv += ["--max-n", str(max_n)]
    if klass != "all":
        argv += ["--class", klass]
    argv.append(render_query(premises, concl))
    return Command(name, "entail", argv, exit, {
        "premises": premises, "concl": concl, "max_n": 3 if max_n is None else max_n, "class": klass})


def lentail(name, gamma, concl, exit, max_n):
    argv = ["lentail", "--max-n", str(max_n), render_lquery(gamma, concl)]
    return Command(name, "lentail", argv, exit, {"gamma": gamma, "concl": concl, "max_n": max_n})


# Search queries are built on fixed skeletons so that every query of a
# kind costs about the same: the scan time is the number of homomorphisms
# times the size of the expanded formulas, plus one internal-operation
# cache miss per distinct argument pair.  Each skeleton has one internal
# operation whose two arguments range over all values of two variables,
# and its other slots are filled from classes of equal expanded size.
INTERNAL = ("i&", "i|")
EXTERNAL = ("&", "|")
CLOSURES = ("down", "up")


def _two(rng, vs):
    x, y = ("P", vs[0]), ("P", vs[1])
    return (x, y) if rng.random() < 0.5 else (y, x)


def _valid(name, lhs, rhs, max_n):
    # |- lhs -> rhs: without premises nothing short-circuits, so the cost
    # of a scan does not depend on which homomorphisms empty a premise
    return entail(name, [], ("->", lhs, rhs), 0, max_n)


def k_commute(rng, name, vs, max_n=3):
    x, y = _two(rng, vs[:2])
    a, b = (rng.choice(INTERNAL), x, y), (rng.choice(CLOSURES), ("P", vs[-1]))
    if rng.random() < 0.5:
        a, b = b, a
    op = rng.choice(EXTERNAL)
    return _valid(name, (op, a, b), (op, b, a), max_n)


def k_reassoc(rng, name, vs, max_n=3):
    x, y = _two(rng, vs[:2])
    a, b, c = x, (rng.choice(INTERNAL), x, y), (rng.choice(CLOSURES), ("P", vs[-1]))
    op = rng.choice(EXTERNAL)
    return _valid(name, (op, (op, a, b), c), (op, a, (op, b, c)), max_n)


def k_proj(rng, name, vs):
    x, y = _two(rng, vs)
    a, b, c = (rng.choice(INTERNAL), x, y), (rng.choice(CLOSURES), y), ("!", x)
    return _valid(name, ("&", ("&", a, b), c), ("&", a, c), 3)


def k_kaxiom(rng, name, vs):
    """An instance of K, box(A -> B) -> (box A -> box B)."""
    x, y = _two(rng, vs)
    a, b = (rng.choice(INTERNAL), x, y), (rng.choice(CLOSURES), rng.choice((x, y)))
    return _valid(name, ("box", ("->", a, b)), ("->", ("box", a), ("box", b)), 3)


def k_vars3(rng, name):
    vs = pick_vars(rng, 3)
    rng.shuffle(vs)
    return rng.choice((k_commute, k_reassoc))(rng, name, vs, max_n=2)


def chain_pair(rng, vs):
    x, y = ("P", vs[0]), ("P", vs[1])
    return disguise(rng, x, y), disguise(rng, y, x)


def k_chain(rng, name, max_n=3):
    """X i| Y |- X | Y (or i&): valid on every chain, so on the algebras
    with at most two elements; refuted first at n = 2."""
    x, y = chain_pair(rng, pick_vars(rng, 2))
    return entail(name, [(rng.choice(("i|", "i&")), x, y)], ("|", x, y), 1, max_n)


def k_inot(rng, name):
    """X |- i! X: refuted first at n = 1."""
    v = ("P", rng.randrange(10))
    x = disguise(rng, v, ("P", rng.randrange(10)))
    return entail(name, [x], ("i!", x), 1, None)


def k_lvalid(rng, name):
    """Internal introduction: a : X, b : Y |- a & b : X i& Y (or |, i|)."""
    (v,) = pick_vars(rng, 1)
    p, q = rng.sample(range(6), 2)
    a, b = ("p", p), ("p", q)
    x, y = ("!", ("P", v)), (rng.choice(CLOSURES), ("P", v))
    if rng.random() < 0.5:
        x, y = y, x
    if rng.random() < 0.5:
        return lentail(name, [(a, x), (b, y)], (("&", a, b), ("i&", x, y)), 0, 3)
    return lentail(name, [(a, x), (b, y)], (("|", a, b), ("i|", x, y)), 0, 3)


def k_lchain(rng, name):
    x, y = chain_pair(rng, pick_vars(rng, 2))
    a = ("p", rng.randrange(6))
    return lentail(name, [(a, (rng.choice(("i|", "i&")), x, y))], (a, ("|", x, y)), 1, 2)


def k_lneg(rng, name):
    """a : X |- !a : X: refuted first at n = 1."""
    v = ("P", rng.randrange(10))
    x = disguise(rng, v, ("P", rng.randrange(10)))
    a = ("p", rng.randrange(6))
    return lentail(name, [(a, x)], (("!", a), x), 1, 2)


# one-variable validities, each read as  |- x -> S(x)
UNARY_SCHEMAS = (
    lambda x: (x, ("up", x)),
    lambda x: (x, ("dia", x)),
    lambda x: (("box", x), x),
    lambda x: (x, ("~", ("~", x))),
    lambda x: (("~", ("~", ("~", x))), ("~", x)),
    lambda x: (("down", x), ("down", ("down", x))),
    lambda x: (("box", x), ("dia", x)),
    lambda x: (("~", x), ("~", ("down", x))),
    lambda x: (("dia", ("box", x)), ("dia", x)),
    lambda x: (x, ("down", x)),
)


UNARY_NODES = (36, 44)  # expanded size window: every query costs about the same


def k_unary(rng, name):
    """Valid one-variable query, |- lhs -> rhs.  The variable only occurs
    under a first down/dia/box/~, so the scan at n = 4 does one full-range
    internal meet per denotation and every later operation sees a
    down-set.  Always an implication: on a 2-vCPU Xeon guest these took
    3.5-4.0 s, while `lhs |- rhs` took 2.9-4.0 s with the connectives
    drawn, and a run of seven queries moved with the seed."""
    v = ("P", rng.randrange(10))
    while True:
        base = rng.choice((v, ("!", v)))
        x = (rng.choice(("down", "up", "dia", "box", "~", "!")),
             (rng.choice(("down", "dia", "box", "~")), base))
        lhs, rhs = rng.choice(UNARY_SCHEMAS)(x)
        if UNARY_NODES[0] <= expanded_size(lhs) + expanded_size(rhs) <= UNARY_NODES[1]:
            break
    return entail(name, [], ("->", lhs, rhs), 0, 4)


# -- the other subcommands


def k_principal(rng, name):
    """|- X i| ~X over principal ideals (valid), or |- X (refuted at n = 1)."""
    vs = pick_vars(rng, 2)
    x = disguise(rng, ("P", vs[0]), ("P", vs[1]))
    klass = "principal_variables"
    if rng.random() < 0.25:
        return entail(name, [], x, 1, None, klass=klass)
    axiom = ("i|", x, ("~", x))
    if rng.random() < 0.5:
        y = ("P", vs[1])
        axiom = ("&", axiom, ("i|", y, ("~", y)))
    return entail(name, [], axiom, 0, None, klass=klass)


def k_cap(rng, name):
    """A valid 3-variable query: scanned to n = 2, refused by the cap at 3."""
    vs = pick_vars(rng, 3)
    rng.shuffle(vs)
    c = k_commute(rng, name, vs, max_n=3)
    c.exit = 3
    c.check["completed_n"] = 2
    return c


def k_eval(rng, name, n):
    vs = pick_vars(rng, 2)
    f = rand_formula(rng, vs, 3, ops=("&", "|", "i&", "i|", "!", "i!", "down", "up", "~", "->"))
    env = {v: rng.getrandbits(1 << n) for v in vs}
    argv = ["eval", "--n", str(n)]
    for v in vs:
        argv += ["--assign", f"P{v}={den_arg(env[v], n)}"]
    argv.append(render(f))
    return Command(name, "eval", argv, 0, {"n": n, "env": env, "f": f})


def k_parse(rng, name):
    f = rand_formula(rng, pick_vars(rng, 2), 4, ops=UNARY + BINARY)
    return Command(name, "parse", ["parse", render(f)], 0, {})


def k_expand(rng, name):
    f = rand_formula(rng, pick_vars(rng, 2), 3, ops=UNARY + BINARY)
    return Command(name, "expand", ["expand", render(f)], 0, {"f": f})


PT_OPS = ("i|", "&", "|", "o*")


def rand_pt(rng, k, size):
    if size == 0:
        leaf = rng.randrange(4)
        if leaf == 0:
            return ("ibot",)
        if leaf == 1:
            return ("nb",)
        v = ("P", rng.randrange(k))
        return ("~", v) if leaf == 2 else v
    op = rng.choice(PT_OPS)
    left = rng.randrange(size)
    return (op, rand_pt(rng, k, left), rand_pt(rng, k, size - 1 - left))


def k_pt_eval(rng, name):
    k = rng.choice((1, 2))
    f = rand_pt(rng, k, 3)
    return Command(name, "pt-eval", ["pt", "eval", "--k", str(k), render(f)], 0, {"k": k, "f": f})


def k_pt_entail(rng, name):
    k = rng.choice((1, 2))
    premises = [rand_pt(rng, k, 2) for _ in range(rng.randrange(3))]
    concl = rand_pt(rng, k, 2)
    inter = frozenset(range(1 << (1 << k)))
    for p in premises:
        inter &= pt_denote(p, k)
    exit = 0 if inter <= pt_denote(concl, k) else 1
    argv = ["pt", "entail", "--k", str(k), render_query(premises, concl)]
    return Command(name, "pt-entail", argv, exit, {"k": k, "premises": premises, "concl": concl})


def k_bridge(rng, name, tmp, n=None, k=None, depth=2):
    n = n or rng.choice((1, 2, 3, 4))
    k = k or rng.choice((1, 2, 3))
    ideals = [rng.randrange(1 << n) for _ in range(k)]
    hom = {"n": n, "assignment": {
        f"P{i}": [element_str(e, n) for e in range(1 << n) if e & a == e]
        for i, a in enumerate(ideals)}}
    path = os.path.join(tmp, f"{name}.hom.json")
    argv = ["bridge", "verify-f", path, "--k", str(k), "--depth", str(depth)]
    return Command(name, "bridge-verify-f", argv, 0, {"n": n, "k": k, "ideals": ideals},
                   {path: json.dumps(hom)})


def k_classes(rng, name):
    n = rng.choice((1, 2, 3, 4))
    if rng.random() < 0.5:
        a = rng.randrange(1 << n)
        bits = sum(1 << e for e in range(1 << n) if e & a == e)
    else:
        bits = rng.getrandbits(1 << n)
    exit = 0 if is_principal_ideal(members(bits)) else 1
    texts = json.dumps([element_str(e, n) for e in range(1 << n) if bits >> e & 1])
    return Command(name, "classes-principal-check",
                   ["classes", "principal-check", "--n", str(n), texts], exit, {"n": n, "bits": bits})


_ATOM_RE = re.compile(r"(?<![A-Za-z])([pP])(\d+)")


def rename(text: str, atoms: dict, variables: dict) -> str:
    return _ATOM_RE.sub(
        lambda m: m.group(1) + str((atoms if m.group(1) == "p" else variables)[int(m.group(2))]), text)


def k_corpus(rng, name, tmp, corpus_dir, stem):
    """A corpus derivation with its label atoms, variables and ids renamed."""
    with open(os.path.join(corpus_dir, stem + ".json"), encoding="utf-8") as fh:
        text = fh.read()
    with open(os.path.join(corpus_dir, stem + ".assumptions"), encoding="utf-8") as fh:
        assumptions = fh.read()
    found = {kind: sorted({int(i) for k, i in _ATOM_RE.findall(text + assumptions) if k == kind})
             for kind in "pP"}
    atoms = dict(zip(found["p"], rng.sample(range(40), len(found["p"]))))
    variables = dict(zip(found["P"], rng.sample(range(20), len(found["P"]))))
    tag = f"r{rng.randrange(10**6)}"
    doc = json.loads(text)

    def walk(node):
        if isinstance(node, dict):
            out = {}
            for key, val in node.items():
                if key in ("assume", "conclusion"):
                    out[key] = rename(val, atoms, variables)
                elif key == "fresh":
                    out[key] = [rename(a, atoms, variables) for a in val]
                elif key == "id":
                    out[key] = f"{val}.{tag}"
                elif key == "discharges":
                    out[key] = [[f"{i}.{tag}" for i in ids] for ids in val]
                else:
                    out[key] = walk(val)
            return out
        if isinstance(node, list):
            return [walk(x) for x in node]
        return node

    proof = os.path.join(tmp, f"{name}.json")
    gamma = os.path.join(tmp, f"{name}.assumptions")
    reason = INVALID_CORPUS.get(stem)
    return Command(name, "check-proof", ["check-proof", proof, "--assumptions", gamma],
                   1 if reason else 0, {"reason": reason},
                   {proof: json.dumps(walk(doc), indent=1), gamma: rename(assumptions, atoms, variables)})


def taut_chain(rng, m, valid):
    """Labels over m atoms x1..xm: hypotheses x_j -> x_(j+1) and the target
    x1 -> xm (valid) or !(x1 & xm) (falsified only when every atom is
    true, the last row of the truth table)."""
    xs = [("p", a) for a in rng.sample(range(100), m)]
    hyps = [("|", ("!", xs[j]), xs[j + 1]) for j in range(m - 1)]
    target = ("|", ("!", xs[0]), xs[-1]) if valid else ("|", ("!", xs[0]), ("!", xs[-1]))
    return hyps, target


def k_taut(rng, name, tmp, m, valid):
    hyps, target = taut_chain(rng, m, valid)
    lf = lambda a: f"{render(a)} : i!ibot"
    proof = {"rule": "Taut", "conclusion": lf(target),
             "premises": [{"assume": lf(h), "id": f"h{j}"} for j, h in enumerate(hyps)]}
    ppath = os.path.join(tmp, f"{name}.json")
    gpath = os.path.join(tmp, f"{name}.assumptions")
    return Command(name, "check-proof", ["check-proof", ppath, "--assumptions", gpath],
                   0 if valid else 1, {"reason": None if valid else "taut", "m": m},
                   {ppath: json.dumps(proof), gpath: "\n".join(lf(h) for h in hyps) + "\n"})


# -- malformed input (expected exit 2)


def k_malformed(rng, name, tmp):
    f = render(rand_formula(rng, pick_vars(rng, 2), 3))
    v = rng.randrange(10)
    choice = rng.randrange(10)
    if choice == 0:
        argv = ["entail", f + " |- (P" + str(v)]            # unbalanced parenthesis
    elif choice == 1:
        argv = ["parse", f"P{v} & P{v + 1} i& {f}"]          # mixed operators
    elif choice == 2:
        argv = ["eval", "--n", "2", "--assign", f"P{v}=01", f]  # bad assignment value
    elif choice == 3:
        argv = ["eval", "--n", str(9 + rng.randrange(5)), f]   # algebra too large
    elif choice == 4:
        argv = ["classes", "principal-check", "--n", "2", "[\"00\", \"1\"]"]
    elif choice == 5:
        argv = ["pt", "eval", "--k", "2", f"i! P{v % 2}"]    # outside PT+
    elif choice == 6:
        argv = ["entail", "--max-n", str(5 + rng.randrange(5)), f"|- {f}"]
    elif choice == 7:
        argv = ["check-proof", os.path.join(tmp, "missing.json")]
    elif choice == 8:
        argv = ["lentail", f"{f} |- p0 : P{v}"]               # unlabelled premise
    else:
        argv = ["entail", "--class", "bogus", f"|- {f}"]     # usage error
    return Command(name, "malformed", argv, 2, {})


def k_crash(rng, name, tmp, which):
    """The inputs that the roadmap's input-boundary item measured to raise
    instead of failing cleanly.  Each is malformed, so exit 2 is right."""
    v = rng.randrange(10)
    files = {}
    if which == 0:    # 3,000-conjunct chain with an unbound variable
        argv = ["eval", "--n", "1", " & ".join([f"P{v}"] * (3000 + rng.randrange(200)))]
    elif which == 1:  # 5,000 nested !
        argv = ["eval", "--n", "1", "!" * (5000 + rng.randrange(200)) + f"P{v}"]
    elif which == 2:  # 600 nested ~ under entail, with an absurd --jobs
        argv = ["entail", "--jobs", "0", "|- " + "~ " * (600 + rng.randrange(50)) + f"P{v}"]
    elif which == 3:  # 3,000 nested parentheses
        d = 3000 + rng.randrange(200)
        argv = ["eval", "--n", "1", "(" * d + f"P{v}" + ")" * d]
    elif which <= 8:  # malformed proof files
        path = os.path.join(tmp, f"{name}.json")
        concl = f"p{rng.randrange(40)} : {render(rand_formula(rng, pick_vars(rng, 2), 2))}"
        if which == 4:
            d = 2000 + rng.randrange(200)
            text = '{"rule": "AndE_L", "premises": [' * d + "{}" + "]}" * d
        else:
            node = {"rule": "AndI", "conclusion": concl, "premises": []}
            if which == 5:
                node = {"rule": rng.choice(("AndE_L", "OrI_L", "BotE")),
                        "premises": [{"assume": concl, "id": f"u{v}"}]}
            elif which == 6:
                node["premises"] = rng.randrange(1, 100)
            elif which == 7:
                node = {"rule": "IAndE", "conclusion": concl, "premises": [],
                        "fresh": rng.sample(range(100), 2)}
            else:
                node = {"assume": rng.randrange(1000), "id": f"u{v}"}
            text = json.dumps(node)
        files[path] = text
        argv = ["check-proof", path]
    else:             # malformed homomorphism files
        path = os.path.join(tmp, f"{name}.hom.json")
        n = rng.randrange(1, 4)
        bits = [element_str(e, n) for e in range(1 << n) if rng.random() < 0.5]
        files[path] = json.dumps({"assignment": {f"P{v}": bits}} if which == 9 else [n, bits])
        argv = ["bridge", "verify-f", path, "--k", "1"]
    return Command(name, "malformed", argv, 2, {"crash": which}, files)


N_CRASH = 11


# -- workloads

# Per cycle: four cheap kinds (refuted, lentail, 3-variable at n = 2), six
# commute/reassoc/proj and four K instances.  The median falls in the middle
# of the commute/reassoc/proj group and the 90th percentile in the middle of
# the K group.  Query costs within a group differ by up to 2x with the
# connectives drawn, so a percentile at the edge of a group would move with
# the seed.
SEARCH_VARS_CYCLE = ("commute", "kaxiom", "reassoc", "chain", "proj", "lvalid", "kaxiom",
                     "commute", "reassoc", "kaxiom", "vars3", "proj", "lchain", "kaxiom")
QUICK_CYCLE = ("chain", "parse", "eval", "lneg", "pt-eval", "classes", "principal", "expand",
               "malformed", "eval", "pt-entail", "inot", "bridge", "lchain", "check-proof", "eval",
               "principal", "crash", "classes", "pt-eval", "chain", "malformed", "expand", "lneg",
               "eval", "pt-entail", "parse", "bridge", "crash", "cap")
# Every size valid and invalid.  m = 14 comes three times and m = 18 twice,
# so that the median falls inside the m = 14 checks and the 90th
# percentile inside the m = 18 checks, not on the edge between two sizes.
TAUT_SIZES = (12, 13, 14, 14, 14, 15, 16, 17, 18, 18)
TAUT_CYCLE = tuple((m, (i + r) % 2 == 0) for r in (0, 1) for i, m in enumerate(TAUT_SIZES))
BRIDGE_EVERY = 3  # a bridge verify-f after every third Taut check

# Seconds per cycle, measured once on a 2-vCPU machine with Python 3.11 so
# that a run lasts about --seconds.  They fix the amount of work per run;
# they are not re-measured.
CYCLE_SECONDS = {
    "search-vars-n3": 11.5,
    "search-unary-n4": 3.8,
    "quick-mixed": 0.17,
    "taut-and-teams": 9.0,
}


def cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def build(workload: str, seed: int, seconds: float, tmp: str, corpus_dir: str) -> list[Command]:
    """The command stream of one run.  Command i uses its own seeded
    random stream; a regenerated duplicate keeps every command distinct."""
    seen: set[tuple] = set()
    out: list[Command] = []
    n_cycles = cycles(workload, seconds)

    def add(i, kind, make):
        rng = random.Random(f"{workload}/{seed}/{i}")
        for _ in range(1000):
            cmd = make(rng, f"{i:05d}.{kind}")
            key = tuple(cmd.files.get(a, a) for a in cmd.argv)  # a temp file by its content
            if key not in seen:
                seen.add(key)
                out.append(cmd)
                return
        raise ValueError(f"{workload}: no new distinct {kind} command at {i}; run shorter")

    if workload == "search-vars-n3":
        makers = {
            "commute": lambda r, nm: k_commute(r, nm, pick_vars(r, 2)),
            "reassoc": lambda r, nm: k_reassoc(r, nm, pick_vars(r, 2)),
            "proj": lambda r, nm: k_proj(r, nm, pick_vars(r, 2)),
            "kaxiom": lambda r, nm: k_kaxiom(r, nm, pick_vars(r, 2)),
            "vars3": k_vars3,
            "chain": k_chain,
            "lvalid": k_lvalid,
            "lchain": k_lchain,
        }
        for c in range(n_cycles):
            for j, kind in enumerate(SEARCH_VARS_CYCLE):
                add(c * len(SEARCH_VARS_CYCLE) + j, kind, makers[kind])
    elif workload == "search-unary-n4":
        for i in range(n_cycles):
            add(i, "unary", k_unary)
    elif workload == "quick-mixed":
        makers = {
            "chain": lambda r, nm: k_chain(r, nm, max_n=2),
            "lneg": k_lneg,
            "lchain": k_lchain,
            "inot": k_inot,
            "principal": k_principal,
            "cap": k_cap,
            "parse": k_parse,
            "expand": k_expand,
            "pt-eval": k_pt_eval,
            "pt-entail": k_pt_entail,
            "classes": k_classes,
            "bridge": lambda r, nm: k_bridge(r, nm, tmp),
            "malformed": lambda r, nm: k_malformed(r, nm, tmp),
        }
        per_cycle = {kind: QUICK_CYCLE.count(kind) for kind in ("eval", "crash")}
        i = 0
        for c in range(n_cycles):
            seen_kinds = {"eval": 0, "crash": 0}
            for kind in QUICK_CYCLE:
                if kind in seen_kinds:
                    # rotate through algebra sizes and crash inputs evenly
                    slot = c * per_cycle[kind] + seen_kinds[kind]
                    seen_kinds[kind] += 1
                    if kind == "eval":
                        make = lambda r, nm, n=1 + slot % 8: k_eval(r, nm, n)
                    else:
                        make = lambda r, nm, w=slot % N_CRASH: k_crash(r, nm, tmp, w)
                elif kind == "check-proof":
                    make = lambda r, nm, s=CORPUS[c % len(CORPUS)]: k_corpus(r, nm, tmp, corpus_dir, s)
                else:
                    make = makers[kind]
                add(i, kind, make)
                i += 1
    elif workload == "taut-and-teams":
        out.append(Command("00000.sweep", "pt-sweep", None, 0, {"k": 2, "seed": seed}))
        i = 1
        for c in range(n_cycles):
            for j, (m, valid) in enumerate(TAUT_CYCLE):
                add(i, f"taut-m{m}", lambda r, nm, m=m, v=valid: k_taut(r, nm, tmp, m, v))
                i += 1
                if j % BRIDGE_EVERY == 0:
                    add(i, "bridge", lambda r, nm: k_bridge(r, nm, tmp, n=3, k=2, depth=3))
                    i += 1
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
