"""Reference semantics used to check the workbench's verdicts.

Nothing here imports `lt`.  Formulas and labels are the benchmark's own
tuple trees (see `gen.py`); denotations are frozensets of element
integers and every operator is computed from its defining comprehension,
the derived connectives through their documented expansions.  The PT+
team semantics is likewise written out directly over frozensets of
valuations.
"""

from __future__ import annotations

from itertools import product

# -- the powerset algebra on n atoms


def elements(n: int) -> frozenset[int]:
    return frozenset(range(1 << n))


def members(bits: int) -> frozenset[int]:
    out, i = [], 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return frozenset(out)


def to_bits(xs) -> int:
    bits = 0
    for a in xs:
        bits |= 1 << a
    return bits


def int_or(x, y):
    return frozenset(a | b for a in x for b in y)


def int_and(x, y):
    return frozenset(a & b for a in x for b in y)


def denote(f: tuple, n: int, env) -> frozenset[int]:
    """Denotation of a formula tree at algebra size n; env maps variable
    indices to frozensets of elements."""
    full = elements(n)
    top = (1 << n) - 1
    op = f[0]
    if op == "P":
        return env[f[1]]
    if op == "bot":
        return frozenset()
    if op == "ibot":
        return frozenset({0})
    if op == "top":
        return full
    if op == "itop":
        return frozenset({top})
    if op == "nb":
        return full - {0}
    if op in ("!", "i!", "down", "up", "dia", "box", "~"):
        x = denote(f[1], n, env)
        if op == "!":
            return full - x
        if op == "i!":
            return frozenset(top ^ a for a in x)
        if op == "down":
            return int_and(x, full)
        if op == "up":
            return int_or(x, full)
        if op == "dia":
            return int_or(int_and(x, full), full)
        if op == "box":
            return full - int_or(int_and(full - x, full), full)
        return full - int_or(int_and(x, full) & (full - {0}), full)
    x = denote(f[1], n, env)
    y = denote(f[2], n, env)
    if op == "&":
        return x & y
    if op == "|":
        return x | y
    if op == "i&":
        return int_and(x, y)
    if op == "i|":
        return int_or(x, y)
    if op == "->":
        return (full - x) | y
    if op == "o*":
        nb = full - {0}
        return int_or(x & nb, y & nb)
    raise ValueError(f"unknown connective {op!r}")


def label_value(a: tuple, n: int, lenv) -> int:
    """Classical value of a label tree: an element of the algebra."""
    op = a[0]
    if op == "p":
        return lenv[a[1]]
    if op == "F":
        return 0
    if op == "!":
        return ((1 << n) - 1) ^ label_value(a[1], n, lenv)
    x, y = label_value(a[1], n, lenv), label_value(a[2], n, lenv)
    return x & y if op == "&" else x | y


def variables(*formulas) -> list[int]:
    out: set[int] = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if f[0] in ("P", "p"):
            out.add(f[1])
        else:
            stack.extend(c for c in f[1:] if isinstance(c, tuple))
    return sorted(out)


def is_principal_ideal(x: frozenset[int]) -> bool:
    j = 0
    for a in x:
        j |= a
    return bool(x) and x == frozenset(b for b in range(j + 1) if b & j == b)


def principal_ideal(a: int) -> frozenset[int]:
    return frozenset(b for b in range(a + 1) if b & a == b)


def domain(n: int, klass: str) -> list[int]:
    """Variable values at size n in canonical order, as bitsets."""
    if klass == "principal_variables":
        return sorted(to_bits(principal_ideal(a)) for a in range(1 << n))
    return list(range(1 << (1 << n)))


# -- countermodels


def entail_violation(premises, concl, n, env) -> int | None:
    """Least witness element violating premises |- concl under env."""
    inter = elements(n)
    for p in premises:
        inter &= denote(p, n, env)
        if not inter:
            return None
    bad = inter - denote(concl, n, env)
    return min(bad) if bad else None


def lentail_violation(gamma, concl, n, env, lenv) -> int | None:
    for label, f in gamma:
        if label_value(label, n, lenv) not in denote(f, n, env):
            return None
    label, f = concl
    e = label_value(label, n, lenv)
    return None if e in denote(f, n, env) else e


def least_entail_countermodel(premises, concl, n, klass="all"):
    """(index, values, witness) of the least countermodel at size n in
    canonical order (first variable most significant), or None."""
    vs = variables(*premises, concl)
    dom = domain(n, klass)
    for idx, values in enumerate(product(dom, repeat=len(vs))):
        env = {v: members(b) for v, b in zip(vs, values)}
        w = entail_violation(premises, concl, n, env)
        if w is not None:
            return idx, values, w
    return None


def least_lentail_countermodel(gamma, concl, n):
    formulas = [f for _, f in gamma] + [concl[1]]
    labels = [a for a, _ in gamma] + [concl[0]]
    vs, atoms = variables(*formulas), variables(*labels)
    doms = [range(1 << (1 << n))] * len(vs) + [range(1 << n)] * len(atoms)
    for idx, values in enumerate(product(*doms)):
        env = {v: members(b) for v, b in zip(vs, values)}
        lenv = dict(zip(atoms, values[len(vs):]))
        w = lentail_violation(gamma, concl, n, env, lenv)
        if w is not None:
            return idx, values, w
    return None


# -- PT+ team semantics over k variables (teams are bitsets of valuations)


def pt_denote(f: tuple, k: int) -> frozenset[int]:
    teams = range(1 << (1 << k))
    op = f[0]
    if op == "P":
        return frozenset(t for t in teams if all(s >> f[1] & 1 for s in members(t)))
    if op == "~":
        i = f[1][1]
        return frozenset(t for t in teams if not any(s >> i & 1 for s in members(t)))
    if op == "ibot":
        return frozenset({0})
    if op == "nb":
        return frozenset(teams) - {0}
    x, y = pt_denote(f[1], k), pt_denote(f[2], k)
    if op == "&":
        return x & y
    if op == "|":
        return x | y
    if op == "i|":
        return int_or(x, y)
    if op == "o*":
        return int_or(x - {0}, y - {0})
    raise ValueError(f"{op!r} is outside the PT+ fragment")


# -- a parser for printed formulas (checks `lt expand` and the PT+ sweep
# without lt's parser)

_NAMES = ("ibot", "bot", "nb")


def parse_ref(text: str) -> tuple:
    """Parse bot, ibot, nb, P<d>, !, i!, ~, &, i&, |, i| and parentheses,
    with the workbench's precedence (unary > conjunctions > disjunctions,
    chains of one operator associating to the left)."""
    tokens, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith(("i!", "i&", "i|"), i):
            tokens.append(text[i:i + 2])
            i += 2
        elif c in "!~&|()":
            tokens.append(c)
            i += 1
        elif c == "P":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("P", int(text[i + 1:j])))
            i = j
        elif any(text.startswith(w, i) for w in _NAMES):
            word = next(w for w in _NAMES if text.startswith(w, i))
            tokens.append((word,))
            i += len(word)
        else:
            raise ValueError(f"not core syntax at {i}: {text[i:i + 10]!r}")
    tokens.append(None)
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def level(ops, sub):
        left = sub()
        while peek() in ops:
            op = take()
            left = (op, left, sub())
        return left

    def unary():
        t = take()
        if t in ("!", "i!", "~"):
            return (t, unary())
        if t == "(":
            inner = level(("|", "i|"), lambda: level(("&", "i&"), unary))
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        if isinstance(t, tuple):
            return t
        raise ValueError(f"unexpected token {t!r}")

    out = level(("|", "i|"), lambda: level(("&", "i&"), unary))
    if peek() is not None:
        raise ValueError("trailing input")
    return out
