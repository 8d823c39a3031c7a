"""The compiled scan against a brute-force scan on the frozenset oracle.

Each query is decided both ways and compared as (entailed, least
countermodel as JSON), so the verdict, the assignment and the witness
must all agree.  The oracle enumerates plainly in canonical order:
variables ascending, then label atoms, the first most significant.
"""

import collections
import concurrent.futures
import functools
import gc
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import pytest

import reference as ref
from lt import entailment
from lt.algebra import Algebra, algebra
from lt.cli import main
from lt.entailment import (
    algebra_entails,
    find_countermodel,
    find_labelled_countermodel,
    labelled_entails,
)
from lt.errors import ReplayError
from lt.syntax import (
    Derived,
    DerivedTag,
    IntAnd,
    IntOr,
    LabelledFormula,
    LAtom,
    parse_entailment_query,
    parse_formula,
    parse_labelled,
    parse_labelled_query,
    postorder,
)

from helpers import boxed, random_formula, random_label, sizes_scanned, verify_box_internalisation

SRC = Path(__file__).resolve().parent.parent / "src"


def _json(result):
    entailed, cm = result
    return entailed, None if cm is None else cm.to_json_obj()


def _query(text):
    premises, conclusion = parse_entailment_query(text)
    return list(premises), conclusion


# Fixed queries: premises that empty the intersection at once, at an outer
# variable, or only at the innermost one; shared subterms; constants only.
FIXED = [
    "ibot |- i! ibot",
    "bot |- P0",
    "P0 & !P0 |- P1",
    "P0, !P0 |- P1 i& P2",
    "ibot & P1, P0 |- P0 i& P1",
    "P0, P1 |- P0 & P1",
    "P0 i& P1 |- P0 & P1",
    "P0 i| P1 |- P0 | P1",
    "P2, P0 i| P1 |- (P0 | P1) & P2",
    "|- box (P0 -> P1) -> (box P0 -> box P1)",
    "|- (P0 i& P1) & down P1 -> down P1 & (P1 i& P0)",
    "|- P0 -> ~ ~ P0",
    "|- ~ ~ P0 -> P0",
    "dia P0 |- box dia P0",
    "P0 o* P1 |- P1 o* P0",
    "nb, itop |- top",
]


@pytest.mark.parametrize("text", FIXED)
def test_fixed_queries_exhaustive(text):
    premises, conclusion = _query(text)
    for n in (0, 1, 2):
        for klass in ("all", "principal_variables"):
            got = _json(algebra_entails(n, premises, conclusion, klass))
            assert got == ref.brute(n, premises, conclusion, klass), (text, n, klass)


@pytest.mark.parametrize(
    "text, sizes",
    [
        ("|- ~ ~ P0 -> P0", (3, 4)),
        ("up P0 |- down P0", (3, 4)),
        ("dia P0 |- box dia P0", (3,)),
        ("|- down P0 -> up P0", (3,)),
    ],
)
def test_full_operands_compile_to_closures(text, sizes):
    # expand spells down, up, dia, box and ~ with x i& top and x i| top;
    # they run as closure opcodes, except that dia and box spell up(down
    # x), which runs as _ANY x, and the down it was spelled over is read
    # by nothing, so the plan drops it
    premises, conclusion = _query(text)
    program = entailment._compile_entailment(premises, conclusion)
    full = program.constants + entailment._FULL
    internal = (entailment._IAND, entailment._IOR)
    assert not [(op, a, b) for op, a, b in program.code if op in internal and full in (a, b)]
    closures = {entailment._DOWN, entailment._UP}
    ran = {op for level in program.plan(0) for block, _ in level for op, *_ in block}
    if "dia" in text:
        assert entailment._ANY in ran and not ran & closures
        assert entailment._DOWN in {op for op, _, _ in program.code}
    else:
        assert closures <= ran
    for n in sizes:
        assert _json(algebra_entails(n, premises, conclusion)) == ref.brute(n, premises, conclusion)


@pytest.mark.parametrize("n", range(4))
def test_any_is_a_closure_over_the_other(n):
    # up(down x) and down(up x) compile to _ANY x, which equals both on
    # every denotation; a closure over itself is kept, since down(down x)
    # is down x, which is not _ANY x
    alg = algebra(n)
    down, up = alg.down_closure, alg.up_closure
    cases = {"up down P0": (lambda x: up(down(x)), entailment._ANY),
             "down up P0": (lambda x: down(up(x)), entailment._ANY),
             "down down P0": (down, entailment._DOWN), "up up P0": (up, entailment._UP)}
    for text, (f, op) in cases.items():
        nodes = postorder(parse_formula(text))
        program = entailment.Program([nodes], labelled=False)
        slot = program.term(nodes)
        assert program.code[slot - program.base][0] == op, text
        for x in range(alg.full + 1):
            assert program.run(alg, {0: x})[slot] == f(x), (text, x)
            if op == entailment._ANY:
                assert f(x) == (alg.full if x else 0), (text, x)


def test_random_queries_exhaustive(seed):
    rng = random.Random(seed + 61)
    for i in range(150):
        n, n_vars = (0, 1, 2)[i % 3], rng.choice((1, 2, 2, 3))
        premises = [random_formula(rng, 2, n_vars) for _ in range(rng.randrange(3))]
        conclusion = random_formula(rng, 3, n_vars)
        klass = rng.choice(("all", "principal_variables"))
        got = _json(algebra_entails(n, premises, conclusion, klass))
        assert got == ref.brute(n, premises, conclusion, klass), (premises, conclusion, n, klass)


def test_random_queries_n3(seed):
    rng = random.Random(seed + 62)
    for i in range(12):
        if i % 2:  # principal ideals: 8 values per variable
            n_vars, klass = rng.choice((2, 3)), "principal_variables"
        else:
            n_vars, klass = 1, "all"
        premises = [random_formula(rng, 2, n_vars) for _ in range(rng.randrange(3))]
        conclusion = random_formula(rng, 3, n_vars)
        got = _json(algebra_entails(3, premises, conclusion, klass))
        assert got == ref.brute(3, premises, conclusion, klass), (premises, conclusion, klass)


def test_labelled_exhaustive(seed):
    rng = random.Random(seed + 63)
    cases = [parse_labelled_query(t) for t in (
        "p0 : P0 i& P1 |- p0 : P0 & P1",
        "p0 : P0, p1 : P1 |- p0 & p1 : P0 i& P1",
        "p0 : P0, p1 : P1 |- p0 | p1 : P0 i| P1",
        "p0 : P0 |- !p0 : P0",
        "F : P0 |- F : P1",
    )]
    for _ in range(25):
        n_vars, n_atoms = rng.choice((1, 2)), rng.choice((1, 2))
        gamma = [
            LabelledFormula(random_label(rng, 2, n_atoms), random_formula(rng, 2, n_vars))
            for _ in range(rng.randrange(3))
        ]
        conclusion = LabelledFormula(random_label(rng, 2, n_atoms), random_formula(rng, 2, n_vars))
        cases.append((gamma, conclusion))
    for gamma, conclusion in cases:
        for n in (0, 1, 2):
            got = _json(labelled_entails(n, gamma, conclusion))
            assert got == ref.brute_labelled(n, gamma, conclusion), (gamma, conclusion, n)


def test_box_internalisation_restricted_side(seed):
    rng = random.Random(seed + 64)
    for _ in range(40):
        n = rng.choice((0, 1, 2))
        pi = [random_formula(rng, 2, 2) for _ in range(rng.randrange(1, 3))]
        premises = [random_formula(rng, 2, 2) for _ in range(rng.randrange(2))]
        conclusion = random_formula(rng, 2, 2)
        # the scan with box pi as premises, and the oracle both ways, decide
        # as the oracle restricted to the homomorphisms that validate pi
        restricted = ref.brute(n, premises, conclusion, filters=pi)
        assert _json(algebra_entails(n, boxed(pi) + premises, conclusion)) == restricted
        assert ref.brute(n, boxed(pi) + premises, conclusion) == restricted
        assert verify_box_internalisation(n, pi, premises, conclusion)


# -- symmetry: the scan visits only the lex-leader assignments, in which
# each value is the least of its orbit under the atom permutations that
# fix every value before it


def _atom_perms(n: int) -> list[tuple[int, ...]]:
    """Each permutation of the atoms, as the map it induces on elements."""
    return [
        tuple(sum(1 << p[i] for i in range(n) if a >> i & 1) for a in range(1 << n))
        for p in itertools.permutations(range(n))
    ]


def _image(perm, x: frozenset[int]) -> frozenset[int]:
    return frozenset(perm[a] for a in x)


def _needs_stabiliser(cm: dict) -> bool:
    """Whether a value after the first is not the least of its orbit under
    every atom permutation, so that only a stabiliser admits it."""
    n = cm["n"]
    parse = lambda texts: frozenset(int(t, 2) if t else 0 for t in texts)
    values = [parse(d) for d in cm["assignment"].values()]
    values += [parse([e]) for e in cm.get("label_assignment", {}).values()]
    perms = _atom_perms(n)
    return any(
        min(ref.to_bits(_image(p, x)) for p in perms) < ref.to_bits(x) for x in values[1:]
    )


def _refuted(rng, draw, want: int) -> list:
    """Draw queries until `want` are refuted by the oracle within its limit,
    at least half of them by a countermodel that needs a stabiliser."""
    cases, deep = [], 0
    while len(cases) < want:
        query, expected = draw()
        if expected is None or expected[0]:
            continue
        needs = _needs_stabiliser(expected[1])
        if needs or 2 * deep >= want:
            cases.append((query, expected))
            deep += needs
    return cases


def _pins(rng, n_vars: int) -> list:
    """Premises that give two or more variables nonzero members, each
    meeting the next one's only at bottom, so that no value of the least
    countermodel after the first is invariant; or none, half the time."""
    if n_vars < 2 or rng.random() < 0.5:
        return []
    chosen = rng.sample(range(n_vars), rng.randrange(2, n_vars + 1))
    pins = [parse_formula(f"dia (P{i} & nb)") for i in chosen]
    return pins + [parse_formula(f"box (P{i} i& P{j} -> ibot)") for i, j in zip(chosen, chosen[1:])]


def test_refuted_multi_variable(seed):
    rng = random.Random(seed + 66)
    shapes = [(2, 2, "all"), (2, 3, "all"), (3, 2, "all"),
              (2, 3, "principal_variables"), (3, 3, "principal_variables")]

    def draw():
        n, n_vars, klass = rng.choice(shapes)
        premises = _pins(rng, n_vars) + [random_formula(rng, 2, n_vars) for _ in range(rng.randrange(2))]
        rng.shuffle(premises)
        query = (n, premises, random_formula(rng, 3, n_vars), klass)
        return query, ref.brute(*query, limit=3000)

    for (n, premises, conclusion, klass), expected in _refuted(rng, draw, 24):
        got = _json(algebra_entails(n, premises, conclusion, klass))
        assert got == expected, (premises, conclusion, n, klass)


def test_refuted_labelled(seed):
    rng = random.Random(seed + 67)

    def draw():
        n, n_vars, n_atoms = rng.choice(((2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 1, 2)))
        gamma = [
            LabelledFormula(random_label(rng, 2, n_atoms), random_formula(rng, 2, n_vars))
            for _ in range(rng.randrange(2))
        ]
        if n_atoms == 2 and rng.random() < 0.5:  # two distinct atoms of the algebra
            gamma += [parse_labelled(t) for t in ("p0 : nb", "p1 : nb", "p0 & p1 : ibot")]
        else:
            gamma += [LabelledFormula(LAtom(0), f) for f in _pins(rng, n_vars)]
        rng.shuffle(gamma)
        conclusion = LabelledFormula(random_label(rng, 2, n_atoms), random_formula(rng, 2, n_vars))
        return (n, gamma, conclusion), ref.brute_labelled(n, gamma, conclusion, limit=300)

    for (n, gamma, conclusion), expected in _refuted(rng, draw, 16):
        assert _json(labelled_entails(n, gamma, conclusion)) == expected, (gamma, conclusion, n)


def test_refuted_box_internalisation_filters(seed):
    rng = random.Random(seed + 68)

    def draw():
        n, n_vars = rng.choice(((2, 2), (2, 3), (3, 2)))
        # a filter admits the homomorphisms under which it is the full
        # carrier, so a pin, which is full or empty, serves as one
        pi = _pins(rng, n_vars) + [random_formula(rng, 2, n_vars) for _ in range(rng.randrange(2))]
        premises = [random_formula(rng, 2, n_vars) for _ in range(rng.randrange(2))]
        query = (n, pi, premises, random_formula(rng, 2, n_vars))
        return query, ref.brute(n, premises, query[3], filters=pi, limit=3000)

    for (n, pi, premises, conclusion), expected in _refuted(rng, draw, 12):
        got = _json(algebra_entails(n, boxed(pi) + premises, conclusion))
        assert got == expected, (pi, premises, conclusion, n)


def _kinds(n: int) -> dict[str, list[int]]:
    every = list(range(1 << (1 << n)))
    return {
        "all": every,
        "principal_variables": [ref.to_bits(x) for x in ref.domain(n, "principal_variables")],
        "atoms": [1 << e for e in range(1 << n)],
        # a variable with degree d < 2^n: the denotations of at most d elements
        **{f"deg{d}": [x for x in every if x.bit_count() <= d] for d in range(1 << n)},
    }


@pytest.mark.parametrize(
    "n, text, klass",
    [
        (2, "|- (P0 & P1 & P2) | !(P0 & P1 & P2)", "all"),
        (3, "|- (P0 & P1) | !(P0 & P1)", "all"),
        (3, "|- ((P0 i& P0) & P1) | !((P0 i& P0) & P1)", "all"),
        (3, "|- box (P0 & P1) | !box (P0 & P1)", "all"),
        (3, "|- (P0 & P1 & P2) | !(P0 & P1 & P2)", "principal_variables"),
        (2, "|- p0 & p1 & p2 : P0 | !P0", None),
        (3, "|- p0 & p1 : P0 | !P0", None),
    ],
)
def test_each_digit_takes_one_least_value_per_orbit(monkeypatch, n, text, klass):
    # an entailed query without premises, so the scan visits every
    # lex-leader; at each digit the group is the atom permutations fixing
    # the digits before it, computed here, and every orbit of the digit's
    # domain under it gives exactly one value, the orbit's least.  The
    # scan takes digit p's values from `minima`, packed, under a group
    # that `minima` gave as the stabiliser of a minimum of the digit before
    # p (all n! permutations at digit 0), so the spy records, per group
    # given, values of the digits before it that give it.  The column's
    # lanes are built once per process, so each scan starts from new
    # symmetry memos
    perms, kinds, seen = _atom_perms(n), _kinds(n), []
    prefixes = {}  # per group given: the values of the digits it fixes
    minima = entailment._Symmetry.minima

    def fixing(prefix):
        return [g for g in perms if all(_image(g, x) == x for x in prefix)]

    def minima_spy(self, kind, domain, group, inner=False):
        found = minima(self, kind, domain, group, inner)
        values = minima(self, kind, domain, group)
        fixes = fixing([] if group is self.group else prefixes[group])
        assert len(group) == len(fixes), (group, prefixes.get(group))
        orbits = {
            frozenset(ref.to_bits(_image(g, ref.from_bits(x, n))) for g in fixes)
            for x in kinds[kind]
        }
        assert type(values) is bytes
        assert _unpacked(self, values) == sorted(map(min, orbits)), prefixes.get(group)
        seen.append(len(fixes))
        for value, stabiliser in found if inner else ():
            prefix = [] if group is self.group else prefixes[group]
            prefixes[stabiliser] = prefix + [ref.from_bits(value, n)]
            assert len(stabiliser) == len(fixing(prefixes[stabiliser]))
        return found

    monkeypatch.setattr(entailment._Symmetry, "minima", minima_spy)
    entailment._symmetry.cache_clear()
    if klass is None:
        assert labelled_entails(n, *parse_labelled_query(text))[0]
    else:
        assert algebra_entails(n, *_query(text), klass)[0]
    assert max(seen) == len(perms)
    if klass == "all":
        # the same query over all denotations, as if no position had a
        # degree: a deg1 digit pins one element, so two of them at n = 3
        # leave a group of two
        seen.clear()
        _full_domains(monkeypatch)
        entailment._symmetry.cache_clear()
        assert algebra_entails(n, *_query(text), klass)[0]
    assert 1 in seen and max(seen) == len(perms)  # the chain reaches the trivial group


def test_orbit_counts_by_burnside():
    # the number of orbits is the mean number of points a permutation
    # fixes: 2^c denotations for c cycles on the elements, and as many
    # principal ideals, or singletons, as elements
    def cycles(perm):
        seen, count = set(), 0
        for a in range(len(perm)):
            count += a not in seen
            while a not in seen:
                seen.add(a)
                a = perm[a]
        return count

    def burnside(n, kinds):
        fixed = lambda p, kind: 2 ** cycles(p) if kind == "all" else sum(p[a] == a for a in range(len(p)))
        perms = _atom_perms(n)
        total = sum(math.prod(fixed(p, kind) for kind in kinds) for p in perms)
        assert total % len(perms) == 0
        return total // len(perms)

    for n, orbits in ((2, 12), (3, 80), (4, 3984)):
        assert burnside(n, ["all"]) == orbits
        sym = entailment._symmetry(n)
        assert len(sym.minima("all", range(1 << (1 << n)), sym.group)) == orbits * sym.width
    # the walk of the stabiliser chain visits one lex-leader per orbit of
    # pairs: 160 and 13,056 pairs of denotations at n = 2 and 3
    for n in (2, 3):
        sym = entailment._symmetry(n)
        domains = _kinds(n)
        for first, second in (("all", "all"), ("principal_variables", "atoms")):
            walked = sum(
                len(sym.minima(second, domains[second], inner)) // sym.width
                for _, inner in sym.minima(first, domains[first], sym.group, True)
            )
            assert walked == burnside(n, [first, second])
    assert burnside(2, ["all", "all"]) == 160 and burnside(3, ["all", "all"]) == 13056


@functools.cache
def _images(n: int) -> list[list[int]]:
    """Per atom permutation, in the order of `_atom_perms`, the image of
    every denotation, built from the permutation's map on elements by
    doubling over them: v | 1 << e, for v below 1 << e, goes to v's
    image with perm[e] added."""
    out = []
    for perm in _atom_perms(n):
        image = [0]
        for moved in perm:
            image += [t | 1 << moved for t in image]
        out.append(image)
    return out


def _least_in_orbit(images: list[list[int]], group, domain) -> list[int]:
    """By definition: the values v of the domain with v <= g(v) for every
    member g of the group, ascending."""
    return sorted(v for v in domain if all(v <= images[g][v] for g in group))


def _fixing(n: int, group, value: int) -> tuple[int, ...]:
    """By definition: the members of the group whose image of the value
    is the value, ascending."""
    images = _images(n)
    return tuple(g for g in group if images[g][value] == value)


def _unpacked(sym, packed: bytes) -> list[int]:
    """Values packed little-endian, `sym.width` bytes each, as integers."""
    w = sym.width
    return [int.from_bytes(packed[i : i + w], "little") for i in range(0, len(packed), w)]


@pytest.mark.parametrize("n", range(5))
def test_minima_of_the_full_group_by_definition(n):
    sym, images = entailment._Symmetry(n), _images(n)
    domain = range(1 << (1 << n))
    least = [True] * len(domain)
    for image in images:
        least = list(map(operator.and_, least, map(operator.le, domain, image)))
    assert _unpacked(sym, sym.minima("all", domain, sym.group)) == list(itertools.compress(domain, least))


@pytest.mark.parametrize("n", range(4))
def test_minima_and_stabilisers_of_every_group_reached(n):
    # under the full group and each group that fixes a value of it, and
    # so on: the minima of every kind and their stabilisers are the
    # definitional ones, the stabilisers read from the compare's masks
    # once, and the ones that a fresh _Symmetry reads
    sym, images, kinds = entailment._symmetry(n), _images(n), _kinds(n)
    groups, todo = {sym.group}, [sym.group]
    while todo:
        group = todo.pop()
        for kind, domain in kinds.items():
            got = _unpacked(sym, sym.minima(kind, domain, group))
            assert got == _least_in_orbit(images, group, domain), (kind, group)
            found = sym.minima(kind, domain, group, True)
            assert found == [(v, _fixing(n, group, v)) for v in got], (kind, group)
            assert sym.minima(kind, domain, group, True) is found
            assert entailment._Symmetry(n).minima(kind, domain, group, True) == found
        for inner in {_fixing(n, group, v) for v in kinds["all"]} - groups:
            groups.add(inner)
            todo.append(inner)
    assert len(groups) == {0: 1, 1: 1, 2: 2, 3: 5}[n]  # S3 and its three transpositions


@pytest.mark.parametrize("n", range(4))
def test_the_last_digit_reads_no_stabilisers(monkeypatch, n):
    # a unary query's one digit is the column's last: its minima are
    # compared, and no stabiliser is read from the compare's masks
    read = []
    minima = entailment._Symmetry.minima

    def spy(self, kind, domain, group, inner=False):
        found = minima(self, kind, domain, group, inner)
        read.extend(found if inner else ())
        return found

    monkeypatch.setattr(entailment._Symmetry, "minima", spy)
    entailment._symmetry.cache_clear()
    query = _query("|- box dia P0 -> dia box dia P0")
    assert _json(algebra_entails(n, *query)) == ref.brute(n, *query)
    assert read == []
    entailment._symmetry.cache_clear()


def test_n4_minima_compare_only_the_moved_elements(monkeypatch):
    # every permutation fixes the bottom and the top element, so the
    # orbits are compared over the 2^14 denotations without either of
    # them; lane j holds 2j, so their planes are lane-index masks, and
    # nothing is transposed
    transposed = []
    planes = entailment._Symmetry._planes

    def spy(self, values):
        transposed.append(values)
        return planes(self, values)

    monkeypatch.setattr(entailment._Symmetry, "_planes", spy)
    sym = entailment._Symmetry(4)
    found = sym.minima("all", range(1 << 16), sym.group)
    assert type(found) is bytes and len(found) == 3984 * sym.width
    assert transposed == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quarter_planes_are_the_transposed_quarter(n):
    # the closed-form planes of the compared quarter are the planes that
    # transposing its values, every even denotation below the top bit,
    # packed here one at a time, gives; and with every lane of the quarter
    # kept, its values and their three companions are every denotation
    sym = entailment._Symmetry(n)
    packed = b"".join(v.to_bytes(sym.width, "little") for v in range(0, sym.top, 2))
    assert tuple(sym._quarter()) == sym._planes(packed)
    assert sym._all(0) == b"".join(v.to_bytes(sym.width, "little") for v in range(sym.top << 1))


def test_n4_all_minima_under_subgroups_by_definition():
    # a permutation's fixed elements are skipped in the compare, most of
    # them in a small group: under the stabilisers of the ideal of atoms
    # 0 and 1 and of the three atoms 0, 1 and 2, and two steps down from
    # each, pinning atom 0, the minima are still the definitional ones
    sym, images = entailment._Symmetry(4), _images(4)
    ideal, atoms = _fixing(4, sym.group, 0b1111), _fixing(4, sym.group, 0b10110)
    groups = (ideal, atoms, _fixing(4, ideal, 0b10), _fixing(4, atoms, 0b10))
    assert [len(group) for group in groups] == [4, 6, 2, 2]
    domains = {"all": range(1 << 16), "deg2": _small(4, 2)}
    for group in groups:
        for kind, domain in domains.items():
            got = _unpacked(sym, sym.minima(kind, domain, group))
            assert got == _least_in_orbit(images, group, domain)
            assert sym.minima(kind, domain, group, True) == [(v, _fixing(4, group, v)) for v in got]


def _small(n: int, d: int) -> list[int]:
    """The denotations of at most d elements at size n, ascending."""
    return sorted(sum(1 << e for e in c) for i in range(d + 1)
                  for c in itertools.combinations(range(1 << n), i))


@pytest.mark.parametrize("n", [5, 6])
def test_symmetry_past_n4_by_definition(n):
    # a permutation acts on element indices, so nothing in _Symmetry is
    # tied to a width: past n = 4 its minima and their stabilisers, under
    # the full group and under the stabiliser of the ideal of atoms 0 and
    # 1, are still the definitional ones, each image computed from the
    # element map
    sym, perms = entailment._Symmetry(n), _atom_perms(n)

    def image(g, v):
        return sum(1 << perms[g][e] for e in range(1 << n) if v >> e & 1)

    pinned = tuple(g for g in sym.group if image(g, 0b1111) == 0b1111)
    assert len(pinned) == 2 * math.factorial(n - 2)
    kinds = {"deg1": _small(n, 1), "atoms": [1 << e for e in range(1 << n)],
             "principal_variables": [ref.to_bits(x) for x in ref.domain(n, "principal_variables")]}
    if n == 5:
        kinds["deg2"] = _small(n, 2)
    for group in (sym.group, pinned):
        for kind, domain in kinds.items():
            least = [v for v in domain if all(v <= image(g, v) for g in group)]
            assert _unpacked(sym, sym.minima(kind, domain, group)) == least, (kind, group)
            assert sym.minima(kind, domain, group, True) == [
                (v, tuple(g for g in group if image(g, v) == v)) for v in least], (kind, group)
    assert (0b1111, pinned) in sym.minima("principal_variables", kinds["principal_variables"], sym.group, True)


def test_conclusion_skipped_under_empty_intersection(monkeypatch):
    # the premises are intersected in order, before the conclusion, at the
    # innermost level too; here it is empty for every assignment
    def refuse(*args):
        raise AssertionError("conclusion evaluated")

    monkeypatch.setattr(Algebra, "int_or", refuse)
    for text in ("P0 & !P0 |- P0 i| P1", "P1, !P1 |- P0 i| P1"):
        assert algebra_entails(2, *_query(text))[0]


# -- the column: a last digit that ranges over all denotations runs once
# for all its values, at every n, each instruction over one integer with a
# lane per value

# The least countermodel's last value is at the first, a middle (41 of
# 80) or the last index of its column, the orbit minima under the group
# fixing the values before it.
COLUMN_HITS = [
    ("|- P0", "first"),
    ("box (P0 -> ibot | itop), box (ibot | itop -> P0) |- bot", "middle"),
    ("box P0 |- ibot", "last"),
    ("|- P0 | P1", "first"),
    ("box (P0 -> ibot), box (ibot -> P0) |- P1", "first"),
    ("box (P0 -> ibot), box (ibot -> P0), box (P1 -> ibot | itop), box (ibot | itop -> P1) |- bot",
     "middle"),
    ("box P1 |- P0 & !P0", "last"),
]


def _lanes(planes, count: int) -> list[int]:
    """The denotations in the lanes of a column, lowest first: lane j
    holds element e when bit j of plane e is set."""
    return [sum((plane >> j & 1) << e for e, plane in enumerate(planes)) for j in range(count)]


def _column_spy(monkeypatch, record) -> list[list]:
    """Wrap every kernel of _COLUMN_KERNELS and return, per run of a
    column, the list of record(column, instruction, y, out, count) over
    the instructions it ran, each kernel call paired in order with the
    next instruction of the column's segments: the instruction, its
    second operand, its result and the column's count of lanes."""
    kernels, runs, pending = entailment._COLUMN_KERNELS, [], []

    def spy(op):
        def kernel(x, y):
            out = kernels[op](x, y)
            column, instructions, count = pending[-1]
            instruction = next(instructions)
            assert instruction[0] == op
            runs[-1].append(record(column, instruction, y, out, count))
            return out

        return kernel

    class Spy(entailment._Column):
        def run(self, group, *args):
            ones, _ = self.sym.suffix(self.kinds, self.domains, group)
            runs.append([])
            instructions = iter([i for block, _ in self.segments for i in block])
            pending.append((self, instructions, ones.bit_length()))
            return super().run(group, *args)

    monkeypatch.setattr(entailment, "_COLUMN_KERNELS", tuple(map(spy, range(len(kernels)))))
    monkeypatch.setattr(entailment, "_Column", Spy)
    return runs


def _column_calls(monkeypatch) -> list[list[tuple[int, int, list[int], list[int]]]]:
    """Record every column instruction run, per run of the column: its
    opcode, its slot, and the lanes of its second operand and of its
    result."""
    return _column_spy(monkeypatch, lambda _, instruction, y, out, count: (
        instruction[0], instruction[2], _lanes(y, count), _lanes(out, count)))


def _guards_hold(runs, premises, conclusion) -> bool:
    """Whether, in every run of the column, a lane that a guard of the
    column empties is empty in `bad`; and whether some such lane is
    outside the conclusion there, so that without the guard it would hit."""
    program = entailment._compile_entailment(premises, conclusion)
    _, _, outside = program.code[program.bad - program.base]  # bad = inter & (full ^ conclusion)
    needed = False
    for run in runs:
        slots = {dst: out for _, dst, _, out in run}
        for guard in program.guards & slots.keys():
            for i, lane in enumerate(slots[guard]):
                if lane == 0 and program.bad in slots:
                    assert slots[program.bad][i] == 0
                    needed = needed or slots[outside][i] != 0
    return needed


@pytest.mark.parametrize("text, where", COLUMN_HITS)
def test_column_least_hit(monkeypatch, text, where):
    premises, conclusion = _query(text)
    for n in (2, 3):
        calls = _column_calls(monkeypatch)
        got = _json(algebra_entails(n, premises, conclusion))
        assert got == ref.brute(n, premises, conclusion), n
        assert calls  # a last digit over all denotations is a column at every n
    assert _column_place(got[1]) == where


def _column_place(cm: dict) -> str:
    """Where the last value of a countermodel lies in its column, the
    orbit minima under the group that fixes the values before it."""
    n = cm["n"]
    values = [ref.to_bits(frozenset(int(e or "0", 2) for e in d))
              for d in cm["assignment"].values()]
    sym, group = entailment._symmetry(n), entailment._symmetry(n).group
    for value in values[:-1]:
        group = _fixing(n, group, value)
    column = _unpacked(sym, sym.minima("all", range(1 << (1 << n)), group))
    index = column.index(values[-1])
    return "first" if index == 0 else "last" if index == len(column) - 1 else "middle"


# Up to n = 2 a column has 2, 4 or 12 values for one variable (the
# groups at n <= 1 are trivial); every place of the least hit is reached
# with one, two and three variables, and the entailed queries run every
# lane of every column.
SMALL_COLUMNS = [
    "|- P0",
    "box P0 |- ibot",
    "box (P0 -> ibot), box (ibot -> P0) |- bot",
    "dia P0 |- P0",
    "|- P0 | P1",
    "box P1 |- P0 & !P0",
    "box (P1 -> ibot), box (ibot -> P1) |- P0",
    "dia P1 |- (P1 i& P0) | (P1 i| P0)",
    "|- P0 | P1 | P2",
    "box P2 |- P0 | P1",
    "box (P2 -> ibot), box (ibot -> P2) |- P0 | P1",
    "P0 i| P1 |- P1 i| P0 i| P2",
    "|- P0 | !P0",
    "P0, P1 |- P0 & P1",
    "P0 i& P1 |- P1 i& P0",
    "dia (P1 & nb), P0 i& P1 |- (P0 i| P1) i| top",
    "P0 & P1, P2 |- (P0 & P2) & P1",
]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_small_columns_against_brute_force(monkeypatch, n):
    places = {}
    for text in SMALL_COLUMNS:
        premises, conclusion = _query(text)
        calls = _column_calls(monkeypatch)
        got = _json(algebra_entails(n, premises, conclusion))
        assert got == ref.brute(n, premises, conclusion), (text, n)
        assert calls, text
        if got[1] is not None:
            places.setdefault(_column_place(got[1]), set()).add(len(got[1]["assignment"]))
    # n = 0 has two denotations, so no middle
    reached = ("first", "last") if n == 0 else ("first", "middle", "last")
    assert places == {place: {1, 2, 3} for place in reached}


def _column_kinds(monkeypatch) -> list[tuple[str, ...]]:
    """Record the kinds of the digits of every column built."""
    kinds = []
    init = entailment._Column.__init__

    def spy(self, *args):
        init(self, *args)
        kinds.append(self.kinds)

    monkeypatch.setattr(entailment._Column, "__init__", spy)
    return kinds


@pytest.mark.parametrize("n", range(4))
def test_principal_and_label_atom_digits_are_column_lanes(monkeypatch, n):
    kinds = _column_kinds(monkeypatch)
    query = _query("P0 i| P1 |- P1 i& P0")
    assert _json(algebra_entails(n, *query, "principal_variables")) == ref.brute(
        n, *query, "principal_variables"
    )
    assert kinds.pop() == ("principal_variables",) * 2  # both digits, one column
    # a guard at any level of the run, p0's here, ends no column: both
    # variables and both atoms are lanes
    labelled = parse_labelled_query("p0 : P0, p1 : P0 i| P1 |- p0 & p1 : P1")
    assert _json(labelled_entails(n, *labelled)) == ref.brute_labelled(n, *labelled)
    column = kinds.pop()
    assert len(column) == 4 and column[2:] == ("atoms", "atoms")
    # every guard at the last level: the variable and both atoms are lanes
    for text in ("p1 : !P0, p0 : up P0 |- p1 & p0 : !P0 i& up P0",
                 "p1 : !P0, p0 : up P0 |- p1 | p0 : !P0 i& up P0"):
        labelled = parse_labelled_query(text)
        assert _json(labelled_entails(n, *labelled)) == ref.brute_labelled(n, *labelled)
        assert kinds.pop() == ("all", "atoms", "atoms")
    # with no label atom the last digit of a labelled query is a variable
    labelled = parse_labelled_query("F : P0 |- F : P1")
    assert _json(labelled_entails(n, *labelled)) == ref.brute_labelled(n, *labelled)
    assert "atoms" not in kinds.pop()


def test_column_guards_cut_the_column(monkeypatch):
    runs = _column_calls(monkeypatch)
    # the guard dia P1 empties the lane of the empty set, the first
    # value, where the conclusion fails: that lane never produces the hit
    premises, conclusion = _query("dia P1 |- (P1 i& P0) | (P1 i| P0)")
    got = _json(algebra_entails(3, premises, conclusion))
    assert got == ref.brute(3, premises, conclusion) and got[1]["assignment"]["P1"] != []
    assert any(0 in ys for run in runs for op, _, ys, _ in run if op == entailment._ANY)
    assert _guards_hold(runs, premises, conclusion)
    # dia (P1 & nb) empties the first two lanes, so the least hit is in
    # the third lane, the third value of the column
    runs.clear()
    premises, conclusion = _query("dia (P1 & nb), P0 i& P1 |- P0 & P1")
    got = _json(algebra_entails(3, premises, conclusion))
    assert got == ref.brute(3, premises, conclusion) and got[1]["assignment"]["P1"] == ["001"]
    assert _guards_hold(runs, premises, conclusion)
    # P1 & !P1 empties every lane: each run of the column stops at that
    # guard, before the conclusion's instructions run
    runs.clear()
    premises, conclusion = _query("P1, !P1 |- P0 i| P1")
    assert algebra_entails(3, premises, conclusion)[0]
    guards = entailment._compile_entailment(premises, conclusion).guards
    assert runs and all(run[-1][1] in guards and not any(run[-1][3]) for run in runs)
    assert entailment._IOR not in {op for run in runs for op, *_ in run}


def test_a_bare_first_premise_is_a_guard(monkeypatch):
    # a first premise that is a position or a constant has no instruction
    # of its own, so it is guarded as its meet with itself: P1 empties the
    # lane of the empty set, where the conclusion's i| fails ...
    runs = _column_calls(monkeypatch)
    premises, conclusion = _query("P1 |- (P1 i& P0) | (P1 i| P0)")
    got = _json(algebra_entails(3, premises, conclusion))
    assert got == ref.brute(3, premises, conclusion, limit=300)
    program = entailment._compile_entailment(premises, conclusion)
    assert program.slots[entailment._AND, 1, 1] in program.guards
    assert _guards_hold(runs, premises, conclusion)
    # ... and bot empties the intersection before any digit turns
    scanned = []
    monkeypatch.setattr(entailment, "_odometer", lambda *args: scanned.append(args))
    for n in (2, 3):
        assert algebra_entails(n, *_query("bot |- (P0 i& P1) | (P1 i| P0)"))[0]
    assert not scanned


@pytest.mark.parametrize("text", [
    "P1 |- (P1 i& P0) | (P1 i| P0)",
    "P0 |- P0 i& P1",
    "P0, P1 |- P0 i& P1",
    "ibot |- P0 | !(P0 i| P1)",
    "top |- P0 i| P1",
    "bot, P0 |- P0 i| P1",
])
def test_bare_first_premise_verdicts(text):
    premises, conclusion = _query(text)
    for n in (0, 1, 2):
        assert _json(algebra_entails(n, premises, conclusion)) == ref.brute(n, premises, conclusion), n


def test_one_variable_column_at_n3(seed):
    # one variable at n = 3 is a single column over the 80 orbit minima
    rng = random.Random(seed + 69)
    queries = [_query("box P0 |- ibot"), _query(COLUMN_HITS[1][0])]
    queries += [([random_formula(rng, 2, 1)], random_formula(rng, 3, 1)) for _ in range(6)]
    for premises, conclusion in queries:
        got = _json(algebra_entails(3, premises, conclusion))
        assert got == ref.brute(3, premises, conclusion), (premises, conclusion)


def test_scan_frees_what_it_builds(monkeypatch):
    # what a query builds, its Program and its columns, must go when the
    # search returns, not at the next cyclic collection, or peak memory
    # grows with every query; only the algebra of each size is kept for
    # the process, built once, and the suffix memo of each size, which
    # holds ints only (see test_lanes_hold_only_ints); a column binds no
    # kernel, so it keeps none
    made = []

    def track(obj):
        made.append((type(obj), weakref.ref(obj)))
        return obj

    class Program(entailment.Program):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            track(self)

    class Column(entailment._Column):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            track(self)

    monkeypatch.setattr(entailment, "Program", Program)
    monkeypatch.setattr(entailment, "_Column", Column)
    algebra.cache_clear()
    gc.disable()
    try:
        # the pinned premise keeps P0 on the odometer, so its levels run
        # the algebra's operations on single values
        sizes = []
        for text in ("P0 & P1 |- P0 i& P1", "P0 i& P1 |- P1 i& P0",
                     "box (P0 -> ibot), box (ibot -> P0) |- P1 i| ~P1"):
            sizes += sizes_scanned(monkeypatch, lambda: find_countermodel(*_query(text), max_n=3))[0]
        assert {Program, Column} <= {kind for kind, _ in made}
        assert all(ref() is None for _, ref in made)
        # the entailed queries lift and scan n = 1 and 3; the third holds
        # ibot and is refuted at n = 0; each size's algebra is built once
        assert sizes == [1, 3, 1, 3, 0]
        assert algebra.cache_info().misses == len(set(sizes))
    finally:
        gc.enable()


def _start(program, n: int) -> int:
    """The first digit of the program's column at n, over all denotations."""
    domains = entailment._domains(program, algebra(n), "all")
    return entailment._suffix_start(domains) if domains else 0


def test_lanes_hold_only_ints():
    # what the suffix memo keeps for the process: per suffix, `ones`, 1 in
    # every lane, and per digit a tuple of 2^n int planes, each within the
    # lanes; no other table, no function, algebra or value of a query
    entailment._symmetry.cache_clear()
    assert algebra_entails(3, *_query("P0 i& P1 |- P1 i& P0"))[0]  # a two-digit column
    algebra_entails(4, *_query("|- (P0 i& i! P0) i| up P0 -> P0"))
    sizes = set()
    for n in range(5):
        for found in entailment._symmetry(n).columns.values():
            assert type(found) is tuple and len(found) == 2
            ones, columns = found
            assert type(ones) is int and ones > 0 and ones & ones + 1 == 0
            assert type(columns) is tuple and columns
            for planes in columns:
                assert type(planes) is tuple and len(planes) == 1 << n
                assert all(type(plane) is int and plane & ones == plane for plane in planes)
            sizes.add(n)
    assert sizes == {3, 4}
    entailment._symmetry.cache_clear()  # no memo keeps this test's planes


def test_the_column_path_packs_its_lanes(monkeypatch):
    # each digit of every suffix reaches _planes as packed bytes, under
    # every kind; and building the two-variable suffix at n = 3, 13,056
    # lanes, from cold memos never holds as much as one list of 8-byte
    # pointers per digit with an entry per lane would
    given = []
    planes = entailment._Symmetry._planes

    def spy(self, values):
        given.append(type(values))
        return planes(self, values)

    monkeypatch.setattr(entailment._Symmetry, "_planes", spy)
    entailment._symmetry.cache_clear()
    for text in ("|- box dia dia ! P0 -> dia dia dia ! P0", "P0 i& P1 |- P1 i& P0"):
        assert algebra_entails(4 if "dia" in text else 3, *_query(text))[0], text
    for text, klass in (("|- (P0 i| ~P0) & (P1 i| ~P1)", "principal_variables"),
                        ("|- P0 i& P0 -> P0", "all")):
        query = _query(text)
        assert _json(algebra_entails(3, *query, klass)) == ref.brute(3, *query, klass), text
    labelled = parse_labelled_query("p1 : P0, p0 : P0 |- p0 & p1 : P0 i& !P0")
    assert _json(labelled_entails(3, *labelled)) == ref.brute_labelled(3, *labelled)
    assert len(given) > 5 and set(given) == {bytes}
    sym = entailment._Symmetry(3)
    tracemalloc.start()
    try:
        ones, columns = sym.suffix(("all", "all"), [("all", range(256))] * 2, sym.group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ones.bit_length() == 13056 and peak < 8 * 13056 * len(columns)
    entailment._symmetry.cache_clear()


def test_column_lanes_built_on_first_use(monkeypatch):
    # a column's planes are transposed when a scan first needs its
    # suffix, once for the process per kinds and group: over every
    # denotation three variables at n = 3 make 2^24 assignments, so digit 0
    # turns on the odometer, where the premise i! i! P0 runs the algebra
    # on single values, and P0 i& P1 takes P0 as a value by the column of
    # P1 and P2, broadcast to every lane; a second scan builds nothing
    built = []
    planes = entailment._Symmetry._planes

    def spy(self, values):
        built.append((len(values), self.size))
        return planes(self, values)

    monkeypatch.setattr(entailment._Symmetry, "_planes", spy)
    entailment._symmetry.cache_clear()
    query = _query("i! i! P0, P0 i& P1 |- P1 | P2")
    with monkeypatch.context() as m:
        _full_domains(m)
        program = entailment._compile_entailment(*query)
        assert _start(program, 3) == 1
        assert any(op == entailment._IAND and not pair and program.levels[a] == 0
                   for block, _ in program.plan(1)[-1] for op, pair, _, a, _ in block)
        expected = ref.brute(3, *query, limit=1 << 17)
        assert _json(algebra_entails(3, *query, cap=1 << 24)) == expected
        first = list(built)
        assert first and all(size == 8 for _, size in first)
        assert _json(algebra_entails(3, *query, cap=1 << 24)) == expected
        assert built == first
    # i& and i| on single values and by columns, over both classes
    for text, klass, n in (("|- (P0 i& i! P0) i| up P0 -> P0", "all", 4),
                           ("|- (P0 i| ~P0) & (P1 i| ~P1)", "principal_variables", 3),
                           ("P0 |- (P0 i| ~P0) & (P1 i| ~P1)", "principal_variables", 3),
                           ("P0, P0 i& P1 |- P1", "all", 3)):
        assert _json(algebra_entails(n, *_query(text), klass)) == ref.brute(n, *_query(text), klass)
    entailment._symmetry.cache_clear()  # no memo keeps this test's planes


# -- degree-bounded positions: a variable whose degree d is below the
# 2^n elements ranges over the denotations of at most d elements, and
# every verdict, least countermodel and witness is the full scan's


def _full_domains(monkeypatch) -> None:
    """Give no variable a degree, so that each ranges over every denotation."""
    monkeypatch.setattr(entailment.Program, "degrees",
                        property(lambda self: (None,) * len(self.variables)))


def _against_full_domains(monkeypatch, decide):
    """decide() with the degrees, then over the full domains."""
    reduced = decide()
    with monkeypatch.context() as m:
        _full_domains(m)
        return reduced, decide()


def _has_small_domain(degrees, n: int) -> bool:
    return any(d is not None and d < 1 << n for d in degrees)


def test_degree_battery_against_the_full_scan(monkeypatch, seed):
    # n <= 2 for three variables, n <= 3 for two and n <= 4 for one
    rng = random.Random(seed + 72)
    reduced = 0
    for _ in range(600):
        n_vars = rng.choice((1, 2, 3))
        formula = lambda depths: random_formula(rng, rng.choice(depths), n_vars)
        premises = [formula((2, 3)) for _ in range(rng.randrange(3))]
        conclusion = formula((2, 3, 4))
        degrees = entailment._compile_entailment(premises, conclusion).degrees
        reduced += _has_small_domain(degrees, 2)
        for n in range(6 - n_vars):
            got, full = _against_full_domains(
                monkeypatch, lambda: _json(algebra_entails(n, premises, conclusion)))
            assert got == full, (premises, conclusion, n, degrees)
    assert reduced > 200


def test_degree_battery_labelled(monkeypatch, seed):
    # a premise a : phi meets phi with a's singleton under _ANY, so phi's
    # degrees hold; label atoms come after the variables and keep theirs
    rng = random.Random(seed + 73)
    reduced = 0
    for _ in range(300):
        n_vars, n_atoms = rng.choice((1, 2)), rng.choice((1, 2))
        formula = lambda: random_formula(rng, rng.choice((2, 3)), n_vars)
        gamma = [LabelledFormula(random_label(rng, 2, n_atoms), formula())
                 for _ in range(rng.randrange(3))]
        conclusion = LabelledFormula(random_label(rng, 2, n_atoms), formula())
        reduced += _has_small_domain(entailment._compile_labelled(gamma, conclusion).degrees, 2)
        for n in range(4 if n_vars + n_atoms < 4 else 3):
            got, full = _against_full_domains(
                monkeypatch, lambda: _json(labelled_entails(n, gamma, conclusion)))
            assert got == full, (gamma, conclusion, n)
    assert reduced > 100


def test_degree_battery_against_the_reference(seed):
    rng = random.Random(seed + 74)
    cases = 0
    while cases < 40:
        n_vars = rng.choice((1, 2))
        premises = [random_formula(rng, 2, n_vars) for _ in range(rng.randrange(3))]
        conclusion = random_formula(rng, 3, n_vars)
        if not _has_small_domain(entailment._compile_entailment(premises, conclusion).degrees, 2):
            continue
        cases += 1
        for n in (0, 1, 2):
            got = _json(algebra_entails(n, premises, conclusion))
            assert got == ref.brute(n, premises, conclusion), (premises, conclusion, n)


@pytest.mark.parametrize(
    "text, degrees, n, elements",
    [
        # 01 i& 10 is 00, outside P0: the least countermodel has two members
        ("|- P0 i& P0 -> P0", (2,), 2, 2),
        ("|- (P0 i| P0) i& P0 -> P0", (3,), 2, 2),
        # a premise and the conclusion add: 0011 is the meet of 0111 and
        # 1011 and the join of 0001 and 0010, and no smaller algebra has
        # such an element outside P0
        ("(P0 i& P0) & !P0 |- !(P0 i| P0)", (4,), 4, 4),
        ("|- i! i! ((P0 i& P0) & (P0 i| P0)) -> P0", (4,), 4, 4),  # & within a factor adds
    ],
)
def test_degree_least_countermodel_needs_its_elements(monkeypatch, text, degrees, n, elements):
    premises, conclusion = _query(text)
    assert entailment._compile_entailment(premises, conclusion).degrees == degrees
    report = lambda: (lambda r: (r.status, r.completed_n, r.countermodel.to_json_obj()))(
        find_countermodel(premises, conclusion, max_n=4))
    got, full = _against_full_domains(monkeypatch, report)
    assert got == full and got[:2] == ("countermodel", n)
    assert len(got[2]["assignment"]["P0"]) == elements


@pytest.mark.parametrize(
    "text, degrees",
    [
        ("box P0 |- ibot", (None,)),  # a complement over an antitone part
        ("P0 i& !P0 |- bot", (None,)),  # mixed polarity
        ("|- P0 & !P0", (None,)),  # a complement over P0 itself
        ("|- !(P0 i& P1) i| box P1", (None, None)),
        ("|- P0 | P1", (0, 0)),  # every factor antitone: only the empty set
        ("!P0, P1 |- P0 i& P1", (0, 1)),
        ("P0 |- P0", (1,)),  # the guard P0 & P0 is one factor
        ("P0 i& P0 |- !(P0 i& P0)", (2,)),  # one slot, so one factor
        ("|- !P0 | P1", (1, 0)),  # | splits under a negation
        ("P0 i& P1, up P1 |- !(dia P0 i| P1)", (2, 3)),  # the factors add
        ("|- !((P0 i& P0) | P0) | !(P1 i| P0)", (3, 1)),  # | within a factor takes the larger
    ],
)
def test_degree_domains(text, degrees):
    program = entailment._compile_entailment(*_query(text))
    assert program.degrees == degrees
    for n in range(5):
        alg = algebra(n)
        domains = entailment._domains(program, alg, "all")
        for d, (kind, values) in zip(degrees, domains):
            small = d is not None and d < alg.size
            assert kind == (f"deg{d}" if small else "all")
            expected = [x for x in range(alg.full + 1) if not small or x.bit_count() <= d]
            assert list(values) == expected
        principal = entailment._domains(program, alg, "principal_variables")
        assert {kind for kind, _ in principal} <= {"principal_variables"}


def test_labelled_degrees():
    gamma, conclusion = parse_labelled_query("p0 : P0 i& P0, p1 : box P1 |- p0 | p1 : P0")
    program = entailment._compile_labelled(gamma, conclusion)
    assert program.degrees == (2, None)
    kinds = [kind for kind, _ in entailment._domains(program, algebra(2), "all")]
    assert kinds == ["deg2", "all", "atoms", "atoms"]


def test_degrees_leave_the_cap_counting_full_domains(capsys):
    # distributivity has degree 1 in each variable, so 9 of the 256
    # denotations at n = 3 each; the cap still counts all 2^24 homomorphisms
    text = "|- (P0 i| P1) i& P2 -> (P0 i& P2) i| (P1 i& P2)"
    premises, conclusion = _query(text)
    assert entailment._compile_entailment(premises, conclusion).degrees == (1, 1, 1)
    assert main(["entail", "--max-n", "3", text]) == 3
    assert capsys.readouterr().out == (
        '{\n  "status": "budget_exceeded",\n  "n": 2,\n  "max_n": 3,\n  "class": "all",\n'
        '  "cap": 4194304,\n  "jobs": 1,\n'
        '  "note": "16777216 homomorphisms to scan at n=3 exceeds the cap of 4194304"\n}\n'
    )
    # forced through the cap, it is decided over the small domains
    report = find_countermodel(premises, conclusion, max_n=3, cap=1 << 48)
    assert (report.status, report.completed_n) == ("exhausted", 3)
    report = find_countermodel(*_query("|- P0 i& P1 -> P1 i& P0"), max_n=4, cap=1 << 48)
    assert (report.status, report.completed_n) == ("exhausted", 4)


# Baseline queries of the roadmap with the cap lifted, and their verdicts
# as the lane-word column gave them: two K instances, the 6-variable
# commutation and distributivity at n = 3, and at n = 4 a query whose
# least countermodel sits in a column of two digits.
LIFTED = [
    ("|- box ((P2 i| P0) -> down P0) -> (box (P2 i| P0) -> box down P0)", 3, (True, None)),
    ("|- box ((P0 i& P1) -> up P1) -> (box (P0 i& P1) -> box up P1)", 3, (True, None)),
    ("|- ((P0 i& P1) i| (P2 i& P3)) i| (P4 i& P5) -> ((P5 i& P4) i| (P3 i& P2)) i| (P1 i& P0)",
     3, (True, None)),
    ("|- (P0 i| P1) i& P2 -> (P0 i& P2) i| (P1 i& P2)", 3, (True, None)),
    ("|- ((P0 i| P0) i& (P1 i| P1)) -> (P1 i& P0) i| (P0 i& P1)", 4, (False, {
        "n": 4, "assignment": {"P0": ["0011", "0100"], "P1": ["0010", "0101"]},
        "witness": "0111"})),
]


@pytest.mark.parametrize("text, n, verdict", LIFTED)
def test_baseline_queries_with_the_cap_lifted(text, n, verdict):
    assert _json(algebra_entails(n, *_query(text), cap=1 << 200)) == verdict


def _decoded(found) -> list[tuple[int, ...]]:
    """The assignments of a suffix's lanes, in lane order."""
    ones, columns = found
    return list(zip(*(_lanes(planes, ones.bit_length()) for planes in columns)))


def test_column_lanes_are_kept_per_kind():
    # at n = 2 the one digit of box P0 |- ibot ranges over all 16
    # denotations, and that of |- P0 i& P0 -> P0 over the 11 of at most
    # two elements, both under every permutation: each packs its own
    # lanes, kept by the suffix's kinds and group
    queries = [_query("box P0 |- ibot"), _query("|- P0 i& P0 -> P0")]
    for order in (queries, queries[::-1]):
        entailment._symmetry.cache_clear()
        for premises, conclusion in order:
            assert _json(algebra_entails(2, premises, conclusion)) == ref.brute(2, premises, conclusion)
        sym = entailment._symmetry(2)
        assert set(sym.columns) == {(("all",), sym.group), (("deg2",), sym.group)}
        for kind, domain in (("all", range(16)), ("deg2", entailment._small_sets(2, 2))):
            lanes = _decoded(sym.columns[(kind,), sym.group])
            assert lanes == [(v,) for v in _unpacked(sym, sym.minima(kind, domain, sym.group))]
        assert sym.columns[("all",), sym.group] != sym.columns[("deg2",), sym.group]


# -- the suffix column: the trailing digits of every kind as the lanes of
# bit planes, their lex-leader assignments in canonical order


def _leaders(n: int, kinds, prefix=()) -> list[tuple[int, ...]]:
    """By definition: the assignments of the digits, ascending in
    canonical order, least in their orbit under the atom permutations
    that fix the values of the prefix."""
    image = lambda g, x: ref.to_bits(_image(g, ref.from_bits(x, n)))
    group = [g for g in _atom_perms(n) if all(image(g, v) == v for v in prefix)]
    return [t for t in itertools.product(*(_kinds(n)[kind] for kind in kinds))
            if all(tuple(image(g, v) for v in t) >= t for g in group)]


@pytest.mark.parametrize("n, kinds, prefix", [
    (0, ("all", "all", "atoms"), ()),
    (1, ("all", "all", "all"), ()),
    (2, ("all", "all"), ()),
    (2, ("all", "all", "all"), ()),
    (2, ("principal_variables", "atoms"), ()),
    (2, ("deg1", "all", "atoms"), ()),
    (3, ("all", "all"), ()),
    (3, ("all", "atoms", "atoms"), ()),
    (3, ("atoms", "atoms", "atoms"), (0b110,)),  # under a transposition
    (3, ("principal_variables",) * 3, ()),
    (4, ("deg1", "deg1"), ()),
    (4, ("deg1", "deg1"), (0b10,)),
])
def test_suffix_lanes_are_the_lex_leaders(n, kinds, prefix):
    sym = entailment._Symmetry(n)
    domains = [(kind, _kinds(n)[kind]) for kind in kinds]
    group = sym.group
    for value in prefix:
        group = _fixing(n, group, value)
    lanes = _decoded(sym.suffix(kinds, domains, group))
    assert lanes == _leaders(n, kinds, prefix)
    if (n, kinds, prefix) == (3, ("all", "all"), ()):
        assert len(lanes) == 13056  # two variables at n = 3 with no degree


def test_suffix_memo_is_bounded(monkeypatch):
    # emptied when it would keep more lanes than the bound, and rebuilt
    # the same; each size keeps its own
    monkeypatch.setattr(entailment, "_LANES_MAX", 100)
    sym = entailment._Symmetry(2)
    cases = [(("all", "atoms"), None), (("atoms", "atoms"), None), (("all",), 0b0110),
             (("principal_variables", "atoms"), None), (("all", "atoms"), None)]
    for kinds, pinned in cases:
        group = sym.group if pinned is None else _fixing(2, sym.group, pinned)
        domains = [(kind, _kinds(2)[kind]) for kind in kinds]
        found = _decoded(sym.suffix(kinds, domains, group))
        assert found == _leaders(2, kinds, () if pinned is None else (pinned,))
        assert sym.kept == sum(len(_decoded(f)) for f in sym.columns.values()) <= 100
    assert len(sym.columns) < len(cases)


def test_suffix_lanes_are_kept_per_size():
    # n = 0 and n = 1 share the trivial group (0,), and box P0 |- ibot the
    # kind `all`: the lanes of n = 0, the empty set and the full one, are
    # no lanes of n = 1, whose least countermodel sets P0 to 11
    entailment._symmetry.cache_clear()
    report = find_countermodel(*_query("box P0 |- ibot"), max_n=1)
    assert report.status == "countermodel"
    assert report.countermodel.to_json_obj()["assignment"] == {"P0": ["0", "1"]}
    assert entailment._symmetry(0).group == entailment._symmetry(1).group == (0,)
    assert _decoded(entailment._symmetry(0).columns[("all",), (0,)]) == [(0,), (1,)]


def _suffix_place(text: str, n: int) -> tuple[str, int]:
    """Where the least countermodel's suffix assignment lies in its
    column at n, and how many digits the suffix has."""
    labelled = ":" in text
    query = parse_labelled_query(text) if labelled else _query(text)
    program = (entailment._compile_labelled if labelled else entailment._compile_entailment)(*query)
    cm = (labelled_entails if labelled else algebra_entails)(n, *query)[1]
    values = [cm.hom.assignment[v].bits for v in program.variables]
    values += [1 << cm.labels.assignment[a] for a in program.atoms] if labelled else []
    domains = entailment._domains(program, algebra(n), "all")
    start, sym = entailment._suffix_start(domains), entailment._symmetry(n)
    group = sym.group
    for value in values[:start]:
        group = _fixing(n, group, value)
    kinds = tuple(kind for kind, _ in domains[start:])
    lanes = _decoded(sym.suffix(kinds, domains[start:], group))
    index = lanes.index(tuple(values[start:]))
    return "first" if index == 0 else "last" if index == len(lanes) - 1 else "middle", len(kinds)


SUFFIX_HITS = [
    ("|- p0 : P0", 3, "first", 2),
    ("box (P0 | P1) |- ibot", 2, "middle", 2),
    ("box (P0 & P1) |- ibot", 2, "last", 2),
    ("|- p0 & p1 : P0", 3, "first", 3),
    ("p1 : P0, p0 : P0 |- p0 & p1 : P0 i& !P0", 3, "middle", 3),
    ("dia (P0 & P1 & P2) |- bot", 2, "middle", 3),
    ("box (P0 & P1 & P2) |- ibot", 2, "last", 3),
    # a guard before the column's last digit, at p0's and at P0's level
    ("p0 : P0, p1 : P0 i| P1 |- p0 & p1 : P1", 3, "middle", 4),
    ("box (P0 -> ibot), box (ibot -> P0) |- P1 i| ~P1", 3, "middle", 2),
]


@pytest.mark.parametrize("text, n, where, digits", SUFFIX_HITS)
def test_suffix_least_hit(text, n, where, digits):
    if ":" in text:
        query = parse_labelled_query(text)
        assert _json(labelled_entails(n, *query)) == ref.brute_labelled(n, *query)
    else:
        assert _json(algebra_entails(n, *_query(text))) == ref.brute(n, *_query(text))
    assert _suffix_place(text, n) == (where, digits)


def test_pinned_premise_guards_lanes_inside_the_column(monkeypatch):
    # the premises read P0 alone, so their guards sit at P0's level, the
    # first of the column: they empty the lanes of every other value of P0
    kinds = _column_kinds(monkeypatch)
    premises, conclusion = _query("box (P0 -> ibot), box (ibot -> P0) |- P1 i| ~P1")
    program = entailment._compile_entailment(premises, conclusion)
    assert {program.levels[g] for g in program.guards} == {0}
    for n in (2, 3):
        assert _json(algebra_entails(n, premises, conclusion)) == ref.brute(
            n, premises, conclusion, limit=300)
        assert _start(program, n) == 0 and kinds.pop() == ("all", "all")


def test_guard_on_the_odometer_skips_its_digit(monkeypatch):
    # P0 has degree 1, 9 values at n = 3, and P1 and P2 fill a column of
    # 2^16 lanes, so P0 turns on the odometer with its premise's guard:
    # P0 = 0, its first value, empties the guard, and only P0 = 1 runs the
    # column
    premises, conclusion = _query("P0 |- (P1 i| ~P1) & (P2 i| ~P2)")
    program = entailment._compile_entailment(premises, conclusion)
    assert {program.levels[g] for g in program.guards} == {0}
    assert _start(program, 3) == 1
    runs = []
    run = entailment._Column.run

    def spy(self, group, vals, bad):
        runs.append(vals[0])
        return run(self, group, vals, bad)

    monkeypatch.setattr(entailment._Column, "run", spy)
    got = _json(algebra_entails(3, premises, conclusion, cap=1 << 24))
    assert got == ref.brute(3, premises, conclusion, limit=(1 << 16) + 1)
    assert got[1]["assignment"]["P0"] == ["000"] and runs == [1]


@pytest.mark.parametrize("gamma", ["p1 : down P2, p4 : !P2", "p4 : !P2, p1 : down P2"])
def test_premise_order_gives_one_column(monkeypatch, gamma):
    # p1's premise first puts a guard at p1's level, inside the run: the
    # column is still every digit, and the verdict is that of the other order
    kinds = _column_kinds(monkeypatch)
    query = parse_labelled_query(gamma + " |- p1 | p4 : down P2 i| !P2")
    for n in range(4):
        assert _json(labelled_entails(n, *query)) == ref.brute_labelled(n, *query) == (True, None)
        assert kinds.pop() == ("all", "atoms", "atoms")


def test_guards_inside_the_column_battery(seed):
    # premise guards at any level of a column: plain and box premises, and
    # labelled ones in both orders, each reading a prefix of the variables
    # or of the atoms, so that many guards sit before the column's last
    # digit; every verdict, least countermodel and witness is the oracle's
    rng = random.Random(seed + 76)
    inside = 0
    for i in range(150):
        n_vars = rng.choice((1, 2, 2, 3))
        formula = lambda: random_formula(rng, 2, rng.randrange(1, n_vars + 1))
        sizes = (0, 1, 2) if n_vars < 3 else (0, 1)
        if i % 3 == 2:
            n_atoms = rng.choice((1, 2, 2))
            gamma = [LabelledFormula(random_label(rng, 2, rng.randrange(1, n_atoms + 1)), formula())
                     for _ in range(2)]
            conclusion = LabelledFormula(random_label(rng, 2, n_atoms), formula())
            sizes = sizes[: 4 - n_vars - n_atoms + 1] if n_vars + n_atoms > 3 else sizes
            cases = [(entailment._compile_labelled(g, conclusion),
                      lambda n, g=g: _json(labelled_entails(n, g, conclusion)),
                      lambda n, g=g: ref.brute_labelled(n, g, conclusion))
                     for g in (gamma, gamma[::-1])]
        else:
            pi = [formula() for _ in range(rng.randrange(1, 3))] if i % 3 else []
            premises = [formula() for _ in range(rng.randrange(1 if pi else 2, 3))]
            conclusion = random_formula(rng, 3, n_vars)
            cases = [(entailment._compile_entailment(boxed(pi) + premises, conclusion),
                      lambda n: _json(algebra_entails(n, boxed(pi) + premises, conclusion)),
                      lambda n: ref.brute(n, premises, conclusion, filters=pi))]
        for program, decide, oracle in cases:
            last = len(program.positions) - 1
            levels = {program.levels[g] for g in program.guards}
            for n in sizes:
                inside += any(_start(program, n) <= level < last for level in levels)
                assert decide(n) == oracle(n), (program.query, n)
    assert inside > 40  # (query, size) pairs with a guard before the column's last digit


def test_three_variables_at_n3_keep_digit_0_on_the_odometer(monkeypatch):
    # 2^24 assignments over all denotations: the column is the last two
    # digits, 2^16, and P0 turns on the odometer
    kinds = _column_kinds(monkeypatch)
    _full_domains(monkeypatch)
    for text in ("P0 i& P2 |- P1 i& (P0 | P2)", "box (P0 & P1 & P2) |- ibot"):
        premises, conclusion = _query(text)
        program = entailment._compile_entailment(premises, conclusion)
        assert _start(program, 3) == 1
        got, single = _against_one_digit(monkeypatch, lambda: _json(
            algebra_entails(3, premises, conclusion, cap=1 << 24)))
        assert got == single
        assert kinds[0] == ("all", "all")
        kinds.clear()
    full = ["000", "001", "010", "011", "100", "101", "110", "111"]
    assert got[1]["assignment"] == {"P0": full, "P1": full, "P2": full}


def test_query_without_positions(monkeypatch):
    kinds = _column_kinds(monkeypatch)
    for text in ("ibot |- i! ibot", "nb, itop |- top", "bot |- ibot", "|- !bot"):
        premises, conclusion = _query(text)
        for n in range(4):
            assert _json(algebra_entails(n, premises, conclusion)) == ref.brute(n, premises, conclusion)
    assert kinds == []


def _against_one_digit(monkeypatch, decide):
    """decide() with the suffix column, then with `_COLUMN_MAX` at 1: a
    column of the last digit alone, bar digits of a single value."""
    got = decide()
    with monkeypatch.context() as m:
        m.setattr(entailment, "_COLUMN_MAX", 1)
        return got, decide()


def _one_degree(rng, n_vars: int):
    """|- X -> Y with each variable read once by X, under internal
    connectives only, and Y drawn until each variable has degree 1."""
    parts = [parse_formula(rng.choice(("P{}", "down P{}", "up P{}", "i! i! P{}")).format(v))
             for v in range(n_vars)]
    x = parts[0]
    for part in parts[1:]:
        x = (IntAnd if rng.random() < 0.5 else IntOr)(x, part)
    for _ in range(1000):
        conclusion = Derived(DerivedTag.IMPLIES, (x, random_formula(rng, 2, n_vars)))
        if entailment._compile_entailment([], conclusion).degrees == (1,) * n_vars:
            return [], conclusion
    raise AssertionError("no conclusion kept every degree at 1")


def _broadcasts(monkeypatch) -> collections.Counter:
    """Count, per opcode, the column instructions run on a value that a
    digit before the column gives, broadcast to every lane: the
    odometer meeting the column.  A constant operand is not counted."""
    calls = collections.Counter()

    def count(column, instruction, *_):
        op, pair, _, a, _ = instruction
        k = column.start + len(column.domains)  # the positions; the constants follow
        calls[op] += not pair and not k <= a < k + 3

    _column_spy(monkeypatch, count)
    return calls


def _draws(least: int, met, most: int):
    """0, 1, ...: at least `least` draws, then more until met() holds;
    an error past `most`."""
    for i in itertools.count():
        if i >= least and met():
            return
        assert i < most, "drew too often without meeting the bar"
        yield i


def test_suffix_battery(monkeypatch, seed):
    # every verdict, least countermodel and witness with the suffix column
    # is that of a column of the last digit alone and the oracle's:
    # n <= 2 for every shape, seeded at n = 3, and n = 4 for two
    # variables of degree 1; at n <= 3 and at n = 4 the battery must
    # broadcast an earlier digit's value into i&, i| and | of a column
    broadcasts = _broadcasts(monkeypatch)
    reached = (entailment._IAND, entailment._IOR, entailment._OR)
    rng = random.Random(seed + 75)
    formula = lambda depth, n_vars: random_formula(rng, depth, n_vars)
    suffixes = checks = 0
    for i in _draws(120, lambda: checks > 300 and suffixes > 60, 480):
        shape, n_vars = i % 4, rng.choice((1, 2, 2, 2, 3))
        sizes = (0, 1, 2) if n_vars < 3 else (0, 1)
        if shape == 2:  # label atoms, one or two
            n_atoms = rng.choice((1, 2))
            gamma = [LabelledFormula(random_label(rng, 2, n_atoms), formula(2, n_vars))
                     for _ in range(rng.randrange(3))]
            conclusion = LabelledFormula(random_label(rng, 2, n_atoms), formula(2, n_vars))
            decide = lambda n: _json(labelled_entails(n, gamma, conclusion))
            oracle = lambda n: ref.brute_labelled(n, gamma, conclusion)
            program = entailment._compile_labelled(gamma, conclusion)
            sizes = sizes[: 4 - n_vars - n_atoms + 1] if n_vars + n_atoms > 3 else sizes
        else:
            premises = [formula(2, n_vars) for _ in range(rng.randrange(3))]
            conclusion = formula(3, n_vars)
            pi = [formula(2, n_vars) for _ in range(rng.randrange(1, 3))] if shape == 3 else []
            klass = "principal_variables" if shape == 1 else "all"
            program = entailment._compile_entailment(boxed(pi) + premises, conclusion)
            decide = lambda n: _json((lambda cm: (cm is None, cm))(
                entailment._decide(program, n, klass, entailment.DEFAULT_CAP)))
            oracle = lambda n: ref.brute(n, premises, conclusion, klass, filters=pi)
        for n in sizes:
            suffixes += len(program.positions) - _start(program, n) > 1
            got, single = _against_one_digit(monkeypatch, lambda: decide(n))
            assert got == single == oracle(n), (program.query, n)
            checks += 1
    assert checks > 300 and suffixes > 60  # columns of two or more digits
    # n = 3: one variable and label atoms, and principal ideals
    for i in _draws(16, lambda: all(broadcasts[op] for op in reached), 64):
        if i % 2:
            n_vars, n_atoms = 1, rng.choice((1, 2))
            gamma = [LabelledFormula(random_label(rng, 2, n_atoms), formula(2, n_vars))
                     for _ in range(rng.randrange(1, 3))]
            conclusion = LabelledFormula(random_label(rng, 2, n_atoms), formula(2, n_vars))
            decide = lambda: _json(labelled_entails(3, gamma, conclusion))
            expected = ref.brute_labelled(3, gamma, conclusion, limit=40)
        else:
            n_vars = rng.choice((2, 3))
            premises = [formula(2, n_vars) for _ in range(rng.randrange(3))]
            conclusion = formula(3, n_vars)
            decide = lambda: _json(algebra_entails(3, premises, conclusion, "principal_variables"))
            expected = ref.brute(3, premises, conclusion, "principal_variables", limit=64)
        got, single = _against_one_digit(monkeypatch, decide)
        assert got == single, i
        assert expected is None or got == expected, i
    assert all(broadcasts[op] for op in reached), broadcasts
    broadcasts.clear()
    # n = 4: two variables of degree 1, 17 values each
    for _ in _draws(8, lambda: all(broadcasts[op] for op in reached), 32):
        premises, conclusion = _one_degree(rng, 2)
        assert entailment._compile_entailment(premises, conclusion).degrees == (1, 1)
        got, single = _against_one_digit(monkeypatch, lambda: _json(
            algebra_entails(4, premises, conclusion, cap=1 << 32)))
        assert got == single, conclusion
    assert all(broadcasts[op] for op in reached), broadcasts


def test_jobs_two_matches_one_at_n3():
    # the least countermodel sets P0 to the full set, the last orbit minimum
    premises, conclusion = _query("box P0 |- P1")
    one = algebra_entails(3, premises, conclusion, jobs=1)
    two = algebra_entails(3, premises, conclusion, jobs=2)
    assert not one[0] and _json(one) == _json(two)
    assert one[1].hom.assignment[0].bits == one[1].algebra.full


def test_jobs_two_matches_one_cli(capsys):
    argv = ["entail", "--max-n", "3", "P0 & P1 |- P0 i& P1"]
    assert main(argv + ["--jobs", "1"]) == 0
    sequential = json.loads(capsys.readouterr().out)
    assert main(argv + ["--jobs", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert sequential["n"] == 3 and {**sequential, "jobs": 2} == parallel


def test_jobs_open_no_pool(monkeypatch, capsys):
    # --jobs is validated and echoed, and nothing else: the scan starts no
    # process and reads no CPU count, and the verdict is the same for any
    # value; the entailed queries scan 2^16 or more homomorphisms at n = 3
    def refuse(*args, **kwargs):
        raise AssertionError("the scan must run in the calling process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "cpu_count", refuse)
    for argv in (
        ["entail", "--max-n", "3", "P0, P1 |- P0 & P1"],
        ["entail", "--max-n", "3", "box P0 |- P1"],
        ["lentail", "--max-n", "3", "p0 : P0 & P1 |- p0 : P1 & P0"],
        ["lentail", "--max-n", "3", "p0 : P0, p1 : P1 |- p0 : P1"],
    ):
        verdicts = []
        for jobs in ("1", "2", "64"):
            assert main(argv[:1] + ["--jobs", jobs] + argv[1:]) in (0, 1), (argv, jobs)
            verdicts.append(json.loads(capsys.readouterr().out))
        assert [v.pop("jobs") for v in verdicts] == [1, 2, 64], argv
        assert verdicts[0] == verdicts[1] == verdicts[2], argv


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_jobs_below_one_rejected(value, capsys):
    for command in ("entail", "lentail"):
        query = "P0 |- P0" if command == "entail" else "p0 : P0 |- p0 : P0"
        assert main([command, "--jobs", value, query]) == 2
        assert "--jobs" in capsys.readouterr().err


def _wrong_hit(program, alg, domains):
    # a countermodel that cannot replay: every value 0, or the singleton of
    # element 0 for a label atom, and witness element 0
    return (0,) * len(program.variables) + (1,) * len(program.atoms), 0


def test_wrong_countermodel_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(entailment, "_scan", _wrong_hit)
    # every entry point returns only what _decide has replayed, against
    # the premises it compiled even when they came as an iterator
    labelled = parse_labelled_query("p0 : P0 |- p0 : P0")
    for search in (
        lambda: find_countermodel(*_query("P0 |- P0")),
        lambda: find_labelled_countermodel(*labelled),
        lambda: algebra_entails(2, *_query("P0 |- P0")),
        lambda: algebra_entails(2, iter(_query("P0 |- P0")[0]), parse_formula("P0")),
        lambda: labelled_entails(2, *labelled),
        lambda: labelled_entails(2, iter(labelled[0]), labelled[1]),
    ):
        with pytest.raises(ReplayError):
            search()
    assert main(["entail", "P0 |- P0"]) == 2
    assert main(["lentail", "p0 : P0 |- p0 : P0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("does not replay") == 2


def test_python_dash_o_module_entry():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = lambda *args: subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env, timeout=60
    )
    refuted = run("-m", "lt", "entail", "ibot |- i! ibot")
    assert refuted.returncode == 1
    assert json.loads(refuted.stdout)["countermodel"] == {"n": 1, "assignment": {}, "witness": "0"}
    # with replay forced to fail, the countermodel is refused even under -O
    patched = run(
        "-c",
        "import runpy, sys, lt.entailment as e; e.replay = lambda *a: False; "
        "sys.argv = ['lt', 'entail', 'ibot |- i! ibot']; "
        "runpy.run_module('lt', run_name='__main__')",
    )
    assert patched.returncode == 2 and patched.stdout == ""
    assert "does not replay" in patched.stderr
    parsed = run("-m", "lt", "parse", "P0")
    assert parsed.returncode == 0 and parsed.stdout == "Var(index=0)\n"
