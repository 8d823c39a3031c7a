"""The front end against its oracles: the lexer against the `finditer`
lexer it replaced (tests/reference.py), and `expand` and `substitute`,
which keep every unchanged subtree, against an expansion that builds
every node anew."""

import random
import time

import pytest

import reference as ref
from helpers import random_formula, random_label
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
    """The tokens of the lexer under test as (kind, text, offset), or its
    error as (type, message, offset, expected)."""
    try:
        kinds, texts, lexemes = _lex(text)
    except Exception as exc:
        return type(exc), str(exc), exc.offset, exc.expected
    return [(k, t, _offset(text, lexemes, i)) for i, (k, t) in enumerate(zip(kinds, texts))]


def _old(text):
    try:
        return ref.tokenize(text)
    except Exception as exc:
        return type(exc), str(exc), exc.offset, exc.expected


def test_lexer_agrees_on_seeded_strings(seed):
    rng = random.Random(seed + 81)
    assert _new("") == _old("") == [("eof", "", 0)]
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
    assert new[-1] == ("eof", "", len(text))
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
                    at = {offset: word for _, word, offset in old}
                    assert exc.offset in at, mutated
                    message = str(exc).split(": ", 1)[1]
                    if message.startswith(("got ", "trailing input ", "mixing ")):
                        assert repr(at[exc.offset]) in message, mutated
                    else:
                        assert at[exc.offset] == "", mutated
                else:
                    assert type(old) is list, mutated


def test_an_error_offset_is_summed_only_on_error(monkeypatch):
    summed = []
    real = _offset
    monkeypatch.setattr("lt.syntax._offset", lambda *a: summed.append(a[2]) or real(*a))
    parse_formula("(" * 3000 + "P0" + ")" * 3000)
    assert summed == []
    with pytest.raises(ParseError) as err:
        parse_formula("(" * 3000 + "P0 &" + ")" * 3000)
    assert summed == [3002] and err.value.offset == 3004


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
