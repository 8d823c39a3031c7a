import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lt.errors import ParseError
from lt.syntax import (
    Derived,
    DerivedTag,
    ExtAnd,
    ExtBot,
    ExtNot,
    ExtOr,
    IntAnd,
    IntBot,
    IntNot,
    IntOr,
    ITOP_CORE,
    LabelledFormula,
    LAnd,
    LAtom,
    LBot,
    LNot,
    LOr,
    Node,
    Var,
    _binary_init,
    _index_init,
    _nullary_init,
    _unary_init,
    equality_label,
    expand,
    format_formula,
    formula_repr,
    format_label,
    format_labelled,
    free_vars,
    is_core,
    label_atoms,
    parse_entailment_query,
    parse_formula,
    parse_label,
    parse_labelled,
    parse_labelled_query,
    substitute,
)

from helpers import random_formula, random_label


class TestParseExamples:
    def test_ibot(self):
        assert parse_formula("ibot") == IntBot()

    def test_int_or_strict(self):
        assert parse_formula("P0 i| ~P0") == IntOr(
            Var(0), Derived(DerivedTag.STRICT_NOT, (Var(0),))
        )

    def test_nested_unary(self):
        assert parse_formula("!up(down P1 & nb)") == ExtNot(
            Derived(
                DerivedTag.UP,
                (ExtAnd(Derived(DerivedTag.DOWN, (Var(1),)), Derived(DerivedTag.NB)),),
            )
        )

    def test_precedence(self):
        assert parse_formula("P0 & P1 -> P2") == Derived(
            DerivedTag.IMPLIES, (ExtAnd(Var(0), Var(1)), Var(2))
        )
        assert parse_formula("P0 -> P1 -> P2") == Derived(
            DerivedTag.IMPLIES, (Var(0), Derived(DerivedTag.IMPLIES, (Var(1), Var(2))))
        )
        assert parse_formula("P0 | P1 | P2") == ExtOr(ExtOr(Var(0), Var(1)), Var(2))
        assert parse_formula("P0 o* P1") == Derived(DerivedTag.CIRCLE_STAR, (Var(0), Var(1)))

    def test_no_spaces_needed(self):
        assert parse_formula("P0i&P1") == IntAnd(Var(0), Var(1))
        assert parse_formula("i!ibot") == IntNot(IntBot())

    def test_mixing_requires_parens(self):
        with pytest.raises(ParseError):
            parse_formula("P0 & P1 i& P2")
        with pytest.raises(ParseError):
            parse_formula("P0 | P1 i| P2")
        with pytest.raises(ParseError):
            parse_formula("P0 o* P1 | P2")
        assert parse_formula("(P0 & P1) i& P2") == IntAnd(ExtAnd(Var(0), Var(1)), Var(2))

    def test_error_offset_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse_formula("P0 & | P1")
        assert err.value.offset == 5
        assert any("bot" in e for e in err.value.expected)

    def test_unknown_word(self):
        with pytest.raises(ParseError) as err:
            parse_formula("botP0")
        assert err.value.offset == 0

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("P0 P1")

    @pytest.mark.parametrize(
        "parse, prefix, suffix",
        [
            (parse_formula, "P0 & ", ""),
            (parse_formula, "(", " | P1)"),
            (parse_label, "p0 | ", ""),
            (parse_labelled, "", " : P0"),
            (parse_labelled, "p0 : ! ", ""),
        ],
    )
    def test_oversized_index(self, parse, prefix, suffix):
        # past the digits that int() reads, an index is a syntax error at
        # its token, with the letter and the digit count, not a ValueError
        letter = "p" if parse is parse_label or not prefix else "P"
        text = prefix + letter + "1" * 5000 + suffix
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == len(prefix)
        assert str(err.value) == (
            f"syntax error at offset {len(prefix)}: index of {letter}<5000 digits> is too large"
        )
        assert parse(prefix + letter + "1" * 4000 + suffix)  # within the limit

    # The error of each path through the lexer and the parser, as the
    # recursive-descent parser reported it: message, offset and expected set.
    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_formula, "P0 & | P1", "syntax error at offset 5: got '|' (expected: bot, ibot, top, itop, nb, P<digits>, '(')"),
            (parse_formula, "P0 & P1 i& P2", "syntax error at offset 8: mixing 'i&' with a different conjunction-level operator requires parentheses (expected: &)"),
            (parse_formula, "(P0) & (P1) i& P2", "syntax error at offset 12: mixing 'i&' with a different conjunction-level operator requires parentheses (expected: &)"),
            (parse_formula, "P0 i| P1 | P2", "syntax error at offset 9: mixing '|' with a different disjunction-level operator requires parentheses (expected: i|)"),
            (parse_formula, "P0 | P1 o* P2", "syntax error at offset 8: mixing 'o*' with a different disjunction-level operator requires parentheses (expected: |)"),
            # a mixing error expects the open chain's operator, whatever operand precedes it
            (parse_formula, "(P0) | ((P1)) i| P2", "syntax error at offset 14: mixing 'i|' with a different disjunction-level operator requires parentheses (expected: |)"),
            (parse_formula, "!!!P0 &!!P0 i& P2", "syntax error at offset 12: mixing 'i&' with a different conjunction-level operator requires parentheses (expected: &)"),
            (parse_formula, "box P0 i& box P1 & P2", "syntax error at offset 17: mixing '&' with a different conjunction-level operator requires parentheses (expected: i&)"),
            (parse_formula, "P0 | P1 & P2 i| P3", "syntax error at offset 13: mixing 'i|' with a different disjunction-level operator requires parentheses (expected: |)"),
            (parse_formula, "P0 o* P1 i& P2 | P3", "syntax error at offset 15: mixing '|' with a different disjunction-level operator requires parentheses (expected: o*)"),
            (parse_formula, "!(P0 -> P1", "syntax error at offset 10: unexpected end of input (expected: ')')"),
            (parse_formula, "((P0)", "syntax error at offset 5: unexpected end of input (expected: ')')"),
            (parse_formula, "P0 )", "syntax error at offset 3: trailing input ')' (expected: end of input)"),
            (parse_formula, "P0 ->", "syntax error at offset 5: unexpected end of input (expected: bot, ibot, top, itop, nb, P<digits>, '(')"),
            (parse_formula, "box", "syntax error at offset 3: unexpected end of input (expected: bot, ibot, top, itop, nb, P<digits>, '(')"),
            (parse_formula, "", "syntax error at offset 0: unexpected end of input (expected: bot, ibot, top, itop, nb, P<digits>, '(')"),
            (parse_formula, "P0 # P1", "syntax error at offset 3: unexpected character '#'"),
            (parse_formula, "P0 & Q1", "syntax error at offset 5: unknown word 'Q1'"),
            (parse_formula, "p0", "syntax error at offset 0: got 'p0' (expected: bot, ibot, top, itop, nb, P<digits>, '(')"),
            (parse_label, "p0 & (p1 | F", "syntax error at offset 12: unexpected end of input (expected: ')')"),
            (parse_label, "!!", "syntax error at offset 2: unexpected end of input (expected: F, p<digits>, '(')"),
            (parse_label, "p0 i& p1", "syntax error at offset 3: trailing input 'i&' (expected: end of input)"),
            (parse_label, "P0", "syntax error at offset 0: got 'P0' (expected: F, p<digits>, '(')"),
            (parse_labelled, "p0 P0", "syntax error at offset 3: got 'P0' (expected: ':', '=')"),
            (parse_labelled, "p0 : P0 &", "syntax error at offset 9: unexpected end of input (expected: bot, ibot, top, itop, nb, P<digits>, '(')"),
            (parse_entailment_query, "P0, P1", "syntax error at offset 6: unexpected end of input (expected: '|-')"),
            (parse_entailment_query, "P0 |- P1 , P2", "syntax error at offset 9: trailing input ',' (expected: end of input)"),
            (parse_labelled_query, "p0 : P0 |- p1", "syntax error at offset 13: unexpected end of input (expected: ':', '=')"),
            (parse_labelled_query, "p0 = |- p0 : P0", "syntax error at offset 5: got '|-' (expected: F, p<digits>, '(')"),
        ],
    )
    def test_error_messages(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_trailing_whitespace_and_adjacent_words(self):
        assert parse_formula(" P0 &\tP1 \n") == ExtAnd(Var(0), Var(1))
        with pytest.raises(ParseError) as err:
            parse_formula("P1x")  # a variable, then the unknown word 'x'
        assert (err.value.offset, str(err.value)) == (2, "syntax error at offset 2: unknown word 'x'")


def _spine(node, step, depth):
    """Follow `step` from node `depth` times, without recursion."""
    for _ in range(depth):
        node = step(node)
    return node


class TestDeepInput:
    """Nesting depth costs the parser no Python frames."""

    def test_prefix_runs(self):
        f = parse_formula("!" * 5000 + "P3")
        assert _spine(f, lambda g: g.child, 5000) == Var(3)
        ops = ["!", "i!", "~", "box", "dia", "down", "up"] * 800
        f = parse_formula(" ".join(ops) + " P0")
        node = f
        for op in ops:
            expected = {"!": ExtNot, "i!": IntNot}.get(op, Derived)
            assert type(node) is expected
            node = node.child if expected is not Derived else node.args[0]
        assert node == Var(0)

    def test_parentheses(self):
        assert parse_formula("(" * 3000 + "P0" + ")" * 3000) == Var(0)
        f = parse_formula("!(" * 2000 + "P0 & P1" + ")" * 2000)
        assert _spine(f, lambda g: g.child, 2000) == ExtAnd(Var(0), Var(1))
        with pytest.raises(ParseError) as err:
            parse_formula("(" * 3000 + "P0" + ")" * 2999)
        assert err.value.offset == 3000 + 2 + 2999 and err.value.expected == ("')'",)

    def test_chains(self):
        f = parse_formula(" -> ".join(f"P{i}" for i in range(3000)))  # right-associative
        assert _spine(f, lambda g: g.args[1], 2999) == Var(2999)
        assert f.args[0] == Var(0)
        f = parse_formula(" i| ".join(f"P{i}" for i in range(3000)))  # left-associative
        assert _spine(f, lambda g: g.left, 2999) == Var(0)
        assert f.right == Var(2999)

    def test_labels(self):
        a = parse_label("!" * 5000 + "(" * 3000 + "p1" + ")" * 3000)
        assert _spine(a, lambda b: b.child, 5000) == LAtom(1)
        lf = parse_labelled("(" * 3000 + "p0 & p1" + ")" * 3000 + " : " + "~ " * 3000 + "P0")
        assert lf.label == LAnd(LAtom(0), LAtom(1))
        assert _spine(lf.formula, lambda g: g.args[0], 3000) == Var(0)


class TestLabels:
    def test_parse(self):
        assert parse_label("F") == LBot()
        assert parse_label("!p0 & p1 | p2") == LOr(LAnd(LNot(LAtom(0)), LAtom(1)), LAtom(2))

    def test_labelled(self):
        lf = parse_labelled("p0 : P0")
        assert lf == LabelledFormula(LAtom(0), Var(0))

    def test_equality_sugar(self):
        lf = parse_labelled("p0 = p1 & p1")
        assert lf.formula == ITOP_CORE
        assert lf.label == equality_label(LAtom(0), LAnd(LAtom(1), LAtom(1)))

    def test_atoms(self):
        assert label_atoms(parse_label("p0 & (p3 | !p0)")) == frozenset({0, 3})


class TestQueries:
    def test_entailment_query(self):
        premises, conclusion = parse_entailment_query("P0, P1 |- P0 & P1")
        assert premises == (Var(0), Var(1))
        assert conclusion == ExtAnd(Var(0), Var(1))

    def test_empty_premises(self):
        premises, conclusion = parse_entailment_query("|- ibot")
        assert premises == ()
        assert conclusion == IntBot()

    def test_labelled_query(self):
        gamma, concl = parse_labelled_query("p0 : P0, p1 : P1 |- p0 & p1 : P0 i& P1")
        assert len(gamma) == 2
        assert concl.label == LAnd(LAtom(0), LAtom(1))


class TestExpand:
    def test_strict_not_unfolding(self):
        # ~P0 unfolds to !(((P0 i& !bot) & !ibot) i| !bot)
        top = ExtNot(ExtBot())
        nb = ExtNot(IntBot())
        want = ExtNot(IntOr(ExtAnd(IntAnd(Var(0), top), nb), top))
        assert expand(Derived(DerivedTag.STRICT_NOT, (Var(0),))) == want

    def test_itop(self):
        assert expand(Derived(DerivedTag.INT_TOP)) == IntNot(IntBot())

    def test_dia(self):
        assert format_formula(expand(parse_formula("dia P0"))) == "(P0 i& !bot) i| !bot"

    def test_box(self):
        top = ExtNot(ExtBot())
        want = ExtNot(IntOr(IntAnd(ExtNot(Var(0)), top), top))
        assert expand(parse_formula("box P0")) == want

    def test_circle_star(self):
        nb = ExtNot(IntBot())
        assert expand(parse_formula("P0 o* P1")) == IntOr(
            ExtAnd(Var(0), nb), ExtAnd(Var(1), nb)
        )

    def test_core_fixed_point(self):
        f = parse_formula("!(P0 i& P1) | i!ibot")
        assert expand(f) == f

    def test_idempotent_and_variable_preserving(self, seed):
        rng = random.Random(seed + 11)
        for _ in range(300):
            f = random_formula(rng, 4, 3)
            once = expand(f)
            assert is_core(once)
            assert expand(once) == once
            assert free_vars(once) == free_vars(f)


class TestSubstitute:
    def test_examples(self):
        assert substitute(Var(0), {0: IntBot()}) == IntBot()
        assert substitute(IntOr(Var(0), Var(0)), {0: Var(1)}) == IntOr(Var(1), Var(1))
        assert substitute(ExtNot(Var(2)), {0: IntBot()}) == ExtNot(Var(2))

    def test_distributes_over_constructors(self):
        sigma = {0: IntBot(), 1: ExtNot(Var(2))}
        for build in (ExtOr, ExtAnd, IntOr, IntAnd):
            assert substitute(build(Var(0), Var(1)), sigma) == build(
                substitute(Var(0), sigma), substitute(Var(1), sigma)
            )
        assert substitute(Derived(DerivedTag.BOX, (Var(0),)), sigma) == Derived(
            DerivedTag.BOX, (IntBot(),)
        )

    def test_deep_chain(self):
        # a 3,000-node chain is rebuilt by a loop, not by recursion
        deep, image = Var(0), Var(2)
        for _ in range(3000):
            deep, image = IntOr(deep, Var(1)), IntOr(image, Var(1))
        assert format_formula(substitute(deep, {0: Var(2)})) == format_formula(image)
        assert format_formula(substitute(deep, {})) == format_formula(deep)

    def test_random_homomorphism_law(self, seed):
        rng = random.Random(seed + 12)
        for _ in range(200):
            f = random_formula(rng, 3, 3)
            g = random_formula(rng, 2, 3)
            sigma = {rng.randrange(3): g}
            assert free_vars(substitute(f, sigma)) == frozenset().union(
                *(
                    free_vars(sigma.get(v, Var(v)))
                    for v in free_vars(f)
                ),
                frozenset(),
            )


class TestRoundTrip:
    def test_formulas(self, seed):
        rng = random.Random(seed + 13)
        for _ in range(500):
            f = random_formula(rng, 5, 4)
            assert parse_formula(format_formula(f)) == f

    def test_labels(self, seed):
        rng = random.Random(seed + 14)
        for _ in range(500):
            a = random_label(rng, 5, 4)
            assert parse_label(format_label(a)) == a

    def test_labelled(self, seed):
        rng = random.Random(seed + 15)
        for _ in range(100):
            lf = LabelledFormula(random_label(rng, 3, 3), random_formula(rng, 3, 3))
            assert parse_labelled(format_labelled(lf)) == lf

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("P0 -> P1 -> P2", "P0 -> P1 -> P2"),
            ("(P0 -> P1) -> P2", "(P0 -> P1) -> P2"),
            ("P0 & (P1 & P2)", "P0 & (P1 & P2)"),
            ("!(P0 | P1) i| i!P2", "!(P0 | P1) i| i!P2"),
            ("~ (P0 i& P1) o* box P2", "~(P0 i& P1) o* box P2"),
            ("dia (P0 -> P1) & up ~P0", "dia (P0 -> P1) & up ~P0"),
            ("top -> itop i& nb", "top -> (itop i& nb)"),
        ],
    )
    def test_formula_text(self, text, printed):
        assert format_formula(parse_formula(text)) == printed

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("!(p0 & p1)", "!(p0 & p1)"),
            ("(p0 | p1) & p2", "(p0 | p1) & p2"),
            ("p0 | p1 & p2", "p0 | (p1 & p2)"),
            ("(p0 & p1) | !F", "(p0 & p1) | !F"),
            ("p0 & (p1 & p2)", "p0 & (p1 & p2)"),
        ],
    )
    def test_label_text(self, text, printed):
        assert format_label(parse_label(text)) == printed

    def test_repr_without_recursion_matches_repr(self, seed):
        rng = random.Random(seed + 16)
        for _ in range(300):
            f, a = random_formula(rng, 4, 3), random_label(rng, 4, 3)
            lf = LabelledFormula(a, f)
            for node in (f, a, lf):
                assert formula_repr(node) == repr(node) == _dataclass_repr(node)


def _dataclass_repr(node) -> str:
    """The repr a frozen dataclass gives a node, written recursively."""
    def text(value):
        if isinstance(value, tuple) and value and isinstance(value[0], Node):
            return "(" + ", ".join(map(text, value)) + ("," if len(value) == 1 else "") + ")"
        return _dataclass_repr(value) if isinstance(value, Node) else repr(value)
    fields = ", ".join(f"{name}={text(getattr(node, name))}" for name in type(node).__slots__)
    return f"{type(node).__name__}({fields})"


def _deep(depth: int, leaf=Var(0)):
    f = leaf
    for i in range(depth):
        f = ExtNot(f) if i % 3 else IntOr(Var(i % 4), Derived(DerivedTag.STRICT_NOT, (f,)))
    return f


class TestNodes:
    """Every node stores a hash of its kind, its plain fields and its
    children's hashes on first use; hashing, equality and repr walk
    without recursion."""

    def test_kinds_hash_apart_over_the_same_children(self):
        # a node hashes its class: the same fields under two classes, a
        # formula's and a label's included, give unequal nodes and hashes
        a, b = Var(0), Var(1)
        for group in ([IntOr(a, b), IntAnd(a, b), ExtAnd(a, b), ExtOr(a, b), LOr(a, b), LAnd(a, b)],
                      [ExtBot(), IntBot(), LBot()],
                      [ExtNot(a), IntNot(a), LNot(a)],
                      [LOr(LAtom(0), LAtom(1)), LAnd(LAtom(0), LAtom(1))],
                      [Var(3), LAtom(3)]):
            assert len({hash(x) for x in group}) == len(group), group
            for i, x in enumerate(group):
                assert [x == y for y in group] == [j == i for j in range(len(group))]

    def test_equal_nodes_built_apart(self):
        f = parse_formula("~P0 -> (P1 i& top) o* ibot")
        g = parse_formula("~ P0 -> (P1 i& top) o* ibot")
        assert f is not g and f == g and hash(f) == hash(g) and not f != g
        assert f != parse_formula("~P0 -> (P1 i& top) o* bot")
        assert Derived(DerivedTag.UP, (Var(0),)) != Derived(DerivedTag.DOWN, (Var(0),))
        assert Var(0) != LAtom(0) and Var(0) != 0 and len({Var(0), Var(0), Var(1)}) == 2

    def test_deep_hash_equality_and_repr(self):
        f, g, other = _deep(1500), _deep(1500), _deep(1500, Var(1))
        assert hash(f) == hash(g) and f == g and f != other and hash(f) != hash(other)
        lf = LabelledFormula(LNot(LAtom(0)), f)
        assert lf == LabelledFormula(LNot(LAtom(0)), g) and hash(lf) == hash(LabelledFormula(LNot(LAtom(0)), g))
        text = repr(lf)
        assert text.startswith("LabelledFormula(label=LNot(child=LAtom(index=0)), formula=")
        assert text.count("ExtNot(child=") == 1000 and text.count("IntOr(left=Var(index=") == 500
        assert repr(_deep(4)) == _dataclass_repr(_deep(4))

    def test_every_node_class_has_its_own_kind(self):
        import lt.proofcheck  # noqa: F401 -- Assume and Rule are nodes too

        classes, todo = [], [Node]
        while todo:
            classes.append(cls := todo.pop())
            todo += cls.__subclasses__()
        concrete = [cls for cls in classes if "__init__" in vars(cls)]
        assert len(concrete) == len(set(concrete)) == 18
        # a node's kind is its class: classes that share a constructor
        # still hash apart over the same fields
        fields = {_nullary_init: (), _index_init: (3,), _unary_init: (Var(0),),
                  _binary_init: (Var(0), Var(1))}
        shared = {}
        for cls in concrete:
            shared.setdefault(vars(cls)["__init__"], []).append(cls)
        assert set(fields) <= set(shared)
        for init, group in shared.items():
            nodes = [cls(*fields[init]) for cls in group] if init in fields else []
            assert len({hash(x) for x in nodes}) == len(nodes), group

    def test_hashes_are_stored_on_first_use_by_each_class_formula(self, seed):
        """No constructor hashes; the first hash of a root stores every
        hash below it, each that of the class, the plain fields and the
        children's hashes (a tuple of children hashed as the tuple)."""
        from lt.proofcheck import Assume, Rule, derivation_from_json

        rng = random.Random(seed + 17)
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        roots = [derivation_from_json(json.loads(path.read_text()))
                 for path in sorted(corpus.glob("*.json"))]
        for _ in range(300):
            f, a = random_formula(rng, 5, 3), random_label(rng, 4, 3)
            roots += [f, a, LabelledFormula(a, f)]
        below = []
        for root in roots:
            nodes, todo = [], [root]
            while todo:
                nodes.append(node := todo.pop())
                for name in type(node).__slots__:
                    value = getattr(node, name)
                    todo += value if type(value) is tuple and value and isinstance(
                        value[0], Node) else [value] if isinstance(value, Node) else []
            below.append(nodes)
        assert all(node._hash is None for nodes in below for node in nodes)
        for root, nodes in zip(roots, below):
            hash(root)
            assert all(node._hash is not None for node in nodes)
            for node in nodes:
                kind = type(node)
                if kind is Rule:  # the formulas of each constructor before hashes were lazy
                    want = hash((kind, node.name, node.conclusion._hash, node.premises,
                                 node.discharges, node.fresh))
                elif kind is Assume:
                    want = hash((kind, node.id, node.formula._hash))
                elif kind is LabelledFormula:
                    want = hash((kind, node.label._hash, node.formula._hash))
                elif kind is Derived:
                    want = hash((kind, node.tag, node.args))
                elif kind in (Var, LAtom):
                    want = hash((kind, node.index))
                elif kind in (ExtNot, IntNot, LNot):
                    want = hash((kind, node.child._hash))
                elif kind in (ExtBot, IntBot, LBot):
                    want = hash((kind,))
                else:
                    want = hash((kind, node.left._hash, node.right._hash))
                assert node._hash == want == hash(node), node

    @pytest.mark.parametrize("make", [ExtNot, lambda f: ExtAnd(f, Var(1))], ids=["bang", "amp"])
    def test_a_deep_chain_hashes_without_recursion(self, make):
        f, g = Var(0), Var(0)
        for _ in range(100_000):
            f, g = make(f), make(g)
        assert hash(f) == hash(g) and f == g

    def test_a_shared_subtree_is_hashed_once(self):
        # 200 levels of x & x: 2**200 paths, 201 nodes
        f = Var(0)
        for _ in range(200):
            f = ExtAnd(f, f)
        g = ExtAnd(f, Var(1))
        assert hash(g) == hash((ExtAnd, hash(f), hash(Var(1))))
        assert g == ExtAnd(f, Var(1)) and g != ExtAnd(f, Var(2))

    def test_derived_keeps_its_arity_check(self):
        with pytest.raises(ValueError, match="takes 1 argument"):
            Derived(DerivedTag.BOX, ())
        with pytest.raises(ValueError, match="takes 0 argument"):
            Derived(DerivedTag.NB, (Var(0),))


# Derandomised property suites: the same examples on every run, and no
# check that reads the clock (a deadline or the too-slow health check).
_CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                   suppress_health_check=[HealthCheck.too_slow])
_TAGS1 = (DerivedTag.DOWN, DerivedTag.UP, DerivedTag.DIAMOND, DerivedTag.BOX, DerivedTag.STRICT_NOT)
_UNARY = [ExtNot, IntNot] + [lambda x, t=t: Derived(t, (x,)) for t in _TAGS1]
_BINARY = [ExtOr, ExtAnd, IntOr, IntAnd] + [
    lambda x, y, t=t: Derived(t, (x, y)) for t in (DerivedTag.IMPLIES, DerivedTag.CIRCLE_STAR)]
_FORMULAS = st.recursive(
    st.one_of(st.builds(Var, st.integers(0, 12)),
              st.sampled_from([ExtBot(), IntBot()] + [Derived(t) for t in (
                  DerivedTag.EXT_TOP, DerivedTag.INT_TOP, DerivedTag.NB)])),
    lambda kids: st.one_of(
        st.builds(lambda op, x: op(x), st.sampled_from(_UNARY), kids),
        st.builds(lambda op, x, y: op(x, y), st.sampled_from(_BINARY), kids, kids)),
    max_leaves=24)
_LABELS = st.recursive(
    st.one_of(st.just(LBot()), st.builds(LAtom, st.integers(0, 12))),
    lambda kids: st.one_of(st.builds(LNot, kids),
                           st.builds(LOr, kids, kids), st.builds(LAnd, kids, kids)),
    max_leaves=24)


def _spine_of(base, ops, depth, unary, binary):
    """`base` under `depth` operators, taken from `ops` in turn: a unary
    one, or a binary one with `base` on the side that alternates."""
    f = base
    for i in range(depth):
        kind, op = ops[i % len(ops)]
        f = unary[op](f) if kind == "unary" else (
            binary[op](f, base) if i % 2 else binary[op](base, f))
    return f


def _ops(unary, binary):
    return st.lists(st.one_of(st.tuples(st.just("unary"), st.integers(0, len(unary) - 1)),
                              st.tuples(st.just("binary"), st.integers(0, len(binary) - 1))),
                    min_size=1, max_size=4)


_DEEP_FORMULAS = st.builds(lambda b, ops, n: _spine_of(b, ops, n, _UNARY, _BINARY),
                           _FORMULAS, _ops(_UNARY, _BINARY), st.integers(1000, 1600))
_DEEP_LABELS = st.builds(lambda b, ops, n: _spine_of(b, ops, n, [LNot], [LOr, LAnd]),
                         _LABELS, _ops([LNot], [LOr, LAnd]), st.integers(1000, 1600))


class TestRoundTripProperties:
    @_CHECKS
    @given(st.one_of(_FORMULAS, _DEEP_FORMULAS))
    def test_formulas(self, f):
        back = parse_formula(format_formula(f))
        assert back == f and hash(back) == hash(f)

    @_CHECKS
    @given(st.one_of(_LABELS, _DEEP_LABELS))
    def test_labels(self, a):
        back = parse_label(format_label(a))
        assert back == a and hash(back) == hash(a)

    @_CHECKS
    @given(_LABELS, st.one_of(_FORMULAS, _DEEP_FORMULAS))
    def test_labelled(self, a, f):
        lf = LabelledFormula(a, f)
        back = parse_labelled(format_labelled(lf))
        assert back == lf and hash(back) == hash(lf)
