"""The front end against its oracles: the lexer, and the offset of each
of its tokens, against the `finditer` lexer (tests/reference.py), which
reads a run of '(', ')' or '!' one character at a time; the parsers on
inputs with long runs against the trees and errors pinned from the
parser that lexed one token per character; and `expand` and
`substitute`, which keep every unchanged subtree, against an expansion
that builds every node anew."""

import hashlib
import json
import random
import sys
import time
from pathlib import Path

import pytest

import reference as ref
from helpers import random_formula, random_label
from lt.cli import main
from lt.errors import ParseError
from lt.syntax import (
    Derived,
    DerivedTag,
    ExtAnd,
    Var,
    _lex,
    _offset,
    expand,
    format_formula,
    format_label,
    formula_repr,
    parse_entailment_query,
    parse_formula,
    parse_label,
    parse_labelled,
    parse_labelled_query,
    postorder,
    substitute,
)

# Pieces that lexers get wrong: Unicode digits and spaces, words that
# run into each other, two-character symbols and their halves.
_PIECES = (
    "P", "p", "P1", "p0", "P12", "1", "0", "9", "x", "i", "o", "*", "!", "&", "|", "-", ">",
    "~", "(", ")", ",", ":", "=", "#", " ", "  ", "\t", "\n", "\x0b", " ", " ",
    "　", "١", "１", "²", "é", "P1x", "PP1", "Px", "o*", "i!", "i&",
    "i|", "|-", "->", "bot", "ibot", "itop", "top", "nb", "box", "dia", "down", "up", "F",
    "Fx", "F1", "botP0", "P١",
)


def _new(text):
    """The tokens of the lexer under test as (text, offset), a run of
    '(', ')' or '!' split into one token per character at offsets
    start + j, the start of token i as `_offset(text, i)` finds it again; a
    second `eof` after trailing whitespace is not read.  Or its error as
    (type, message, offset, expected)."""
    try:
        texts = _lex(text)
    except Exception as exc:
        return type(exc), str(exc), exc.offset, exc.expected
    tokens = []
    for i, word in enumerate(texts):
        start = _offset(text, i)
        chars = word if word[:1] in ("(", ")", "!") else [word]
        tokens += [(char, start + j) for j, char in enumerate(chars)]
        if word == "":
            return tokens


def _old(text):
    """The texts and offsets of the `finditer` lexer's tokens, or its error."""
    try:
        return [(word, offset) for _, word, offset in ref.tokenize(text)]
    except Exception as exc:
        return type(exc), str(exc), exc.offset, exc.expected


def test_lexer_agrees_on_seeded_strings(seed):
    rng = random.Random(seed + 81)
    assert _new("") == _old("") == [("", 0)]
    for _ in range(100_000):
        text = "".join(rng.choices(_PIECES, k=rng.randrange(9)))
        assert _new(text) == _old(text), text


@pytest.mark.parametrize("tail", [" ", "\n", "\t \r\n", "　"])
def test_trailing_whitespace_lexes_in_linear_time(tail):
    """100,000 trailing whitespace characters lex in well under a second
    (tried from each of their positions, they took minutes), with the
    tokens and offsets of the old lexer, and the end of input is where
    the text ends."""
    space = tail * (100_000 // len(tail))
    for text in (space, "P0 & P1" + space, "P0 &" + space):
        start = time.perf_counter()
        new = _new(text)
        assert time.perf_counter() - start < 1.0
        assert new == _old(text)
    assert new[-1] == ("", len(text))
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.offset == len(text)


def _mutations(rng, text):
    """The text with one token deleted, doubled, swapped with the next or
    replaced by a piece, the tokens joined by seeded whitespace."""
    tokens = [t for _, t, _ in ref.tokenize(text)][:-1]
    for _ in range(4):
        words = list(tokens)
        if words:
            i = rng.randrange(len(words))
            how = rng.randrange(4)
            if how == 0:
                del words[i]
            elif how == 1:
                words.insert(i, words[i])
            elif how == 2 and i + 1 < len(words):
                words[i], words[i + 1] = words[i + 1], words[i]
            else:
                words[i] = rng.choice(_PIECES)
        yield "".join(w + rng.choice(("", " ", "  ", "\t", " ")) for w in words)


def _texts(rng):
    """Seeded formulas, labels, labelled formulas and both kinds of query,
    each with the parser that reads it."""
    formula = lambda: format_formula(random_formula(rng, 4, 4))
    label = lambda: format_label(random_label(rng, 3, 3))
    labelled = lambda: f"{label()} : {formula()}"
    yield parse_formula, formula()
    yield parse_label, label()
    yield parse_labelled, labelled()
    yield parse_entailment_query, f"{formula()}, {formula()} |- {formula()}"
    yield parse_labelled_query, f"{labelled()} |- {labelled()}"


def test_lexer_and_parser_errors_agree_on_mutated_inputs(seed):
    """Each mutation lexes as the old lexer lexed it; and where it does not
    parse, the error is at the offset of an old token, and the token it
    quotes is that token's text."""
    rng = random.Random(seed + 82)
    for _ in range(400):
        for parse, text in _texts(rng):
            for mutated in (text, *_mutations(rng, text)):
                old = _old(mutated)
                assert _new(mutated) == old, mutated
                try:
                    parse(mutated)
                except ParseError as exc:
                    if type(old) is tuple:
                        assert (type(exc), str(exc), exc.offset, exc.expected) == old
                        continue
                    at = {offset: word for word, offset in old}
                    assert exc.offset in at, mutated
                    message = str(exc).split(": ", 1)[1]
                    if message.startswith(("got ", "trailing input ", "mixing ")):
                        assert repr(at[exc.offset]) in message, mutated
                    else:
                        assert at[exc.offset] == "", mutated
                else:
                    assert type(old) is list, mutated


_OPERATORS = ("&", "i&", "|", "i|", "o*", "->")
_LEAVES = ("bot", "ibot", "top", "itop", "nb", "F")


def _with_runs(rng, text):
    """The text's tokens with one to three runs of '(', ')' or '!' of 1 to
    3,000 characters: balanced ones, around an atom or before it, which
    keep the text well formed, or one at a random place; in one text of
    three an operator swapped for a random one, which may mix a level.
    The tokens are joined by spaces, or where one is a run by nothing or
    a space, so runs meet or not."""
    words = [t for _, t, _ in ref.tokenize(text)][:-1]
    for _ in range(rng.randint(1, 3)):
        width = rng.choice((1, 2, 3, rng.randint(1, 3000)))
        atoms = [k for k, w in enumerate(words) if w[:1] in ("P", "p") or w in _LEAVES]
        if atoms and rng.random() < 0.7:
            k = rng.choice(atoms)
            words[k] = ("(" * width + words[k] + ")" * width if rng.random() < 0.5
                        else "!" * width + words[k])
        else:
            words.insert(rng.randrange(len(words) + 1), rng.choice("()!") * width)
    operators = [k for k, w in enumerate(words) if w in _OPERATORS]
    if operators and rng.random() < 1 / 3:
        words[rng.choice(operators)] = rng.choice(_OPERATORS)
    text = words[0] if words else ""
    for before, word in zip(words, words[1:]):
        run = before[-1] in "()!" or word[0] in "()!"
        text += rng.choice(("", " ")) + word if run else " " + word
    return text


def _runs_battery(seed: int, rounds: int):
    """Seeded texts for each of the five parsers, and chains of three or
    four operands whose operators may mix a level, with runs
    (`_with_runs`)."""
    rng = random.Random(seed)
    for _ in range(rounds):
        for parse, text in _texts(rng):
            yield parse, _with_runs(rng, text)
        level = rng.choice((("&", "i&"), ("|", "i|", "o*"), ("&", "|")))
        chain = [f"P{rng.randrange(3)}"]
        for _ in range(rng.randint(2, 3)):
            chain += rng.choice(level), f"P{rng.randrange(3)}"
        yield parse_formula, _with_runs(rng, " ".join(chain))


def _outcome(parse, text):
    """What a parse gives: a digest of the tree's repr, or the error as
    [message, offset, expected]."""
    try:
        value = parse(text)
    except ParseError as exc:
        return [str(exc), exc.offset, list(exc.expected)]
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


_RUNS_FIXTURE = Path(__file__).with_name("frontend_runs.json")
_RUNS_SEED, _RUNS_ROUNDS = 4545, 120


def _case(parse, text):
    return [parse.__name__, hashlib.sha256(text.encode()).hexdigest()[:12]]


def _record_runs_fixture():
    """Write `_RUNS_FIXTURE` from the `lt` on the path, one case a line."""
    rows = ",\n".join(json.dumps(_case(parse, text) + [_outcome(parse, text)])
                      for parse, text in _runs_battery(_RUNS_SEED, _RUNS_ROUNDS))
    _RUNS_FIXTURE.write_text(
        f'{{"seed": {_RUNS_SEED}, "rounds": {_RUNS_ROUNDS}, "cases": [\n{rows}]}}\n')


def test_runs_parse_as_pinned():
    """Formulas, labels, labelled formulas and queries with runs of 1 to
    3,000 '(', ')' or '!' at random places, balanced and not, each give
    the tree, or the error message, offset and `expected`, pinned in
    tests/frontend_runs.json.  The pins were recorded from the parser
    that lexed one token per character, run from the repository root as

        PYTHONPATH=<that commit's tree>/src python tests/test_frontend.py --record-runs

    but for the `expected` of a mixing error, which named the token two
    before the operator, one per character of a run, and now names the
    open chain's operator: those entries were recorded again from this
    tree."""
    pinned = json.loads(_RUNS_FIXTURE.read_text())
    battery = list(_runs_battery(pinned["seed"], pinned["rounds"]))
    assert len(battery) == len(pinned["cases"])
    outcomes = {"tree": 0, "error": 0}
    for (parse, text), (*case, want) in zip(battery, pinned["cases"]):
        assert _case(parse, text) == case
        assert _outcome(parse, text) == want, text
        outcomes["error" if type(want) is list else "tree"] += 1
    assert min(outcomes.values()) > len(battery) // 5, outcomes
    mixing = [want for *_, want in pinned["cases"] if type(want) is list and "mixing" in want[0]]
    assert len(mixing) > 20
    for message, _, (chain_op,) in mixing:  # another operator of the chain's level
        level = ("&", "i&") if "conjunction-level" in message else ("|", "i|", "o*")
        assert chain_op in level and f"mixing {chain_op!r} " not in message, message


def test_an_error_offset_is_summed_only_on_error(monkeypatch):
    summed = []
    real = _offset
    monkeypatch.setattr("lt.syntax._offset", lambda *a: summed.append(a[1:]) or real(*a))
    parse_formula("(" * 3000 + "P0" + ")" * 3000)
    assert summed == []
    with pytest.raises(ParseError) as err:  # at character 0 of token 3, the run of ')'
        parse_formula("(" * 3000 + "P0 &" + ")" * 3000)
    assert summed == [(3, 0)] and err.value.offset == 3004
    with pytest.raises(ParseError) as err:  # at character 2 of the run, token 2
        parse_formula("((P0)))")
    assert summed[1:] == [(2, 2)] and err.value.offset == 6


@pytest.mark.parametrize("text", [
    " & ".join(["P4"] * 30_000), "!" * 50_000 + "P4", "(" * 30_000 + "P4" + ")" * 30_000,
], ids=["chain", "bang", "parens"])
def test_crash_shapes_at_ten_times_the_bench_size_exit_2_within_a_second(capsys, text):
    """The benchmark's three deep crash inputs (bench/gen.py `k_crash` 0,
    1 and 3), ten times as large: each parses, and `lt eval` then stops
    at the unbound variable."""
    start = time.perf_counter()
    code = main(["eval", "--n", "1", text])
    assert time.perf_counter() - start < 1.0
    assert (code, *capsys.readouterr()) == (2, "", "error: unbound variable P4\n")


def _core(rng, depth=5):
    return random_formula(rng, depth, 4, derived=False)


def test_core_formulas_expand_to_themselves(seed):
    rng = random.Random(seed + 83)
    for _ in range(300):
        f = _core(rng)
        assert expand(f) is f
        assert substitute(f, {}) is f
        assert substitute(f, {9: Var(0)}) is f
    chain = parse_formula(" & ".join(["P3"] * 3100))
    assert expand(chain) is chain and substitute(chain, {}) is chain


def _children(node):
    return list(node.args) if type(node) is Derived else [
        getattr(node, name) for name in ("left", "right", "child") if hasattr(node, name)]


def _replace(node, path, make):
    """The node with the subtree at `path` (child indices) replaced by
    make(subtree), every node off the path the identical object."""
    if not path:
        return make(node)
    kids = _children(node)
    kids[path[0]] = _replace(kids[path[0]], path[1:], make)
    return Derived(node.tag, tuple(kids)) if type(node) is Derived else type(node)(*kids)


def test_one_derived_node_rebuilds_only_its_path(seed):
    rng = random.Random(seed + 84)
    for _ in range(300):
        core = _core(rng)
        path, node = [], core
        while _children(node) and rng.random() < 0.8:
            path.append(rng.randrange(len(_children(node))))
            node = _children(node)[path[-1]]
        tag = rng.choice((DerivedTag.DOWN, DerivedTag.UP, DerivedTag.BOX, DerivedTag.STRICT_NOT))
        f = _replace(core, path, lambda sub: Derived(tag, (sub,)))
        e = expand(f)
        assert formula_repr(e) == formula_repr(ref.expand_rebuilt(f))
        for step in path:  # above the derived node: new nodes, every sibling shared
            assert e is not f
            for i, (fk, ek) in enumerate(zip(_children(f), _children(e))):
                assert (ek is fk) == (i != step)
            f, e = _children(f)[step], _children(e)[step]
        arg = f.args[0]  # the derived node's argument is core, so it is kept
        assert any(sub is arg for sub in postorder(e))


def test_expansion_matches_the_full_rebuild(seed):
    rng = random.Random(seed + 85)
    for _ in range(500):
        f = random_formula(rng, 5, 4)
        once = expand(f)
        assert formula_repr(once) == formula_repr(ref.expand_rebuilt(f))
        assert expand(once) is once
        sigma = {v: random_formula(rng, 2, 4) for v in rng.sample(range(4), 2)}
        assert formula_repr(expand(substitute(f, sigma))) == formula_repr(
            ref.expand_rebuilt(substitute(ref.expand_rebuilt(f), sigma)))


def test_equal_atoms_are_parsed_once():
    f = parse_formula("P3 & P3 & bot & bot")
    assert f.left.left.left is f.left.left.right and f.left.right is f.right
    assert f == ExtAnd(ExtAnd(ExtAnd(Var(3), Var(3)), f.right), f.right)


if __name__ == "__main__" and sys.argv[1:] == ["--record-runs"]:
    _record_runs_fixture()
