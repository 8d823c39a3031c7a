import copy
import random
import tracemalloc

import pytest

import reference as ref
from lt.algebra import MAX_ATOMS, Algebra, Denotation, algebra
from lt.entailment import (_AND, _ANY, _COLUMN_KERNELS, _DOWN, _INOT, _OR, _UP, _XOR, MAX_N,
                           _operations)
from lt.errors import AlgebraMismatchError
from lt.semantics import Homomorphism


def D(*elements):
    bits = 0
    for e in elements:
        bits |= 1 << e
    return bits


def _external(n):
    """The external connectives as a scan runs them on values, from
    `_operations(n)`: the complement, an _XOR with the full carrier, then
    the union and the intersection."""
    ops, full = _operations(n), algebra(n).full
    return (lambda x: ops[_XOR](full, x)), ops[_OR], ops[_AND]


class TestExternalOps:
    def test_complement_of_empty(self):
        ext_not, _, _ = _external(2)
        assert ext_not(0) == Algebra(2).full == ref.to_bits(ref.ext_not(frozenset(), 2))

    def test_meet_with_complement(self):
        ext_not, _, ext_and = _external(2)
        d = D(1, 3)
        assert ext_and(d, ext_not(d)) == 0

    def test_union(self):
        _, ext_or, _ = _external(1)
        assert ext_or(D(0), D(1)) == D(0, 1)

    def test_mismatch(self):
        # a homomorphism combines the denotations of its variables
        with pytest.raises(AlgebraMismatchError):
            Homomorphism(Algebra(1), {0: Denotation(Algebra(1), D(0)), 1: Denotation(Algebra(2), D(0))})


class TestInternalOps:
    def test_int_or_bot_top(self):
        alg = Algebra(1)
        assert alg.int_or(alg.int_bot(), D(1)) == D(1)

    def test_empty_operand(self):
        alg = Algebra(2)
        x = D(1, 2)
        assert alg.int_and(x, 0) == 0
        assert alg.int_or(x, 0) == 0
        assert alg.int_not(0) == 0

    def test_int_or_pairs(self):
        # all four pairs over {01, 10}: 01|01=01, 01|10=11, 10|01=11, 10|10=10
        x = D(0b01, 0b10)
        assert Algebra(2).int_or(x, x) == D(0b01, 0b10, 0b11)

    def test_int_not_involution(self, seed):
        rng = random.Random(seed + 21)
        alg = Algebra(3)
        for _ in range(100):
            d = rng.randrange(alg.full + 1)
            assert alg.int_not(alg.int_not(d)) == d


class TestClosures:
    def test_empty(self):
        alg = Algebra(2)
        assert alg.down_closure(0) == 0
        assert alg.up_closure(0) == 0

    def test_down_of_top(self):
        alg = Algebra(2)
        assert alg.down_closure(D(0b11)) == alg.full

    def test_up_of_bot(self):
        alg = Algebra(2)
        assert alg.up_closure(D(0b00)) == alg.full

    def test_monotone_idempotent_extensive(self, seed):
        rng = random.Random(seed + 22)
        alg = Algebra(3)
        for _ in range(150):
            x = rng.randrange(alg.full + 1)
            y = x | rng.randrange(alg.full + 1)
            for close in (alg.down_closure, alg.up_closure):
                cx = close(x)
                cy = close(y)
                assert cx & x == x  # extensive
                assert close(cx) == cx  # idempotent
                assert cx & cy == cx  # monotone


class TestStrictNeg:
    def test_empty_gives_everything(self):
        alg = Algebra(2)
        assert alg.strict_neg(0) == alg.full

    def test_n1_top(self):
        assert Algebra(1).strict_neg(D(1)) == D(0)

    def test_n2_single(self):
        # elements b with b & 01 == 00: {00, 10}
        assert Algebra(2).strict_neg(D(0b01)) == D(0b00, 0b10)

    def test_triple_equals_single(self):
        # exhaustive over every denotation at n <= 2
        for n in (0, 1, 2):
            alg = Algebra(n)
            for bits in range(alg.full + 1):
                once = alg.strict_neg(bits)
                assert alg.strict_neg(alg.strict_neg(once)) == once

    def test_negated_principal_ideal(self):
        # strict negation of a principal ideal is the principal ideal of the
        # complement of its maximal element; exhaustive at n <= 3
        for n in (0, 1, 2, 3):
            alg = Algebra(n)
            for a in alg.elements():
                ideal = alg.principal_ideal(a)
                assert alg.strict_neg(ideal) == alg.principal_ideal(alg.top ^ a)


class TestPrincipalIdeals:
    def test_examples(self):
        alg = Algebra(2)
        assert alg.is_principal_ideal(D(0b00, 0b01))  # max 01
        assert not alg.is_principal_ideal(D(0b01, 0b10))  # 00 missing
        assert not alg.is_principal_ideal(0)
        assert Denotation(alg, alg.principal_ideal(0b11)) == Denotation(alg, alg.full)

    def test_join_of(self):
        assert Algebra(2).join_of(D(0b01, 0b10)) == 0b11
        assert Algebra(2).join_of(0) == 0

    def test_against_oracle(self):
        for n in (0, 1, 2):
            alg = Algebra(n)
            for bits in range(alg.full + 1):
                members = ref.from_bits(bits, n)
                assert alg.is_principal_ideal(bits) == ref.is_principal_ideal(members, n)


class TestAgainstSetOracle:
    """Every shift-and-mask kernel against the comprehension-based oracle:
    exhaustively at n <= 3, on seeded operands up to n = 8 that include
    the empty set, singletons, principal ideals and the full set."""

    SAMPLES = {4: 300, 5: 200, 6: 100, 7: 60, 8: 40}

    def _values(self, n, rng):
        alg = Algebra(n)
        if n <= 3:
            return list(range(alg.full + 1))
        edges = [0, alg.full, 1, 1 << alg.top, 1 << rng.randrange(alg.size)]
        ideals = [ref.to_bits(ref.principal_ideal(rng.randrange(alg.size), n)) for _ in range(5)]
        dense = [rng.getrandbits(alg.size) for _ in range(self.SAMPLES[n])]
        sparse = [rng.getrandbits(alg.size) & rng.getrandbits(alg.size) for _ in range(10)]
        return edges + ideals + dense + sparse

    def _pairs(self, n, rng):
        values = self._values(n, rng)
        if n <= 3:
            return [(x, y) for x in values for y in values]
        edges, full = values[:10], values[1]
        return (
            [(x, y) for x in edges for y in edges]
            + [(x, full) for x in values[10:30]]  # x i& top, x i| top: the closure opcodes
            + [(rng.choice(values), rng.choice(values)) for _ in range(self.SAMPLES[n])]
        )

    @pytest.mark.parametrize("n", range(9))
    def test_unary(self, n):
        alg, (ext_not, _, _) = Algebra(n), _external(n)
        for x in self._values(n, random.Random(23 + n)):
            sx = ref.from_bits(x, n)
            assert ext_not(x) == ref.to_bits(ref.ext_not(sx, n))
            assert alg.int_not(x) == ref.to_bits(ref.int_not(sx, n))
            assert alg.down_closure(x) == ref.to_bits(ref.down_closure(sx, n))
            assert alg.up_closure(x) == ref.to_bits(ref.up_closure(sx, n))
            assert alg.strict_neg(x) == ref.to_bits(ref.strict_neg(sx, n))
            assert alg.join_of(x) == ref.join_of(sx)
            assert alg.is_principal_ideal(x) == ref.is_principal_ideal(sx, n)

    @pytest.mark.parametrize("n", range(9))
    def test_binary(self, n):
        alg = Algebra(n)
        sets = {}
        for x, y in self._pairs(n, random.Random(23 + n)):
            sx = sets.setdefault(x, ref.from_bits(x, n))
            sy = sets.setdefault(y, ref.from_bits(y, n))
            assert alg.int_or(x, y) == ref.to_bits(ref.int_or(sx, sy))
            assert alg.int_and(x, y) == ref.to_bits(ref.int_and(sx, sy))

    def test_state_fixed_at_construction(self, seed):
        rng = random.Random(seed + 26)
        alg = Algebra(4)
        before = copy.deepcopy(vars(alg))
        for _ in range(2_000):  # 12,000 kernel calls
            x, y = rng.getrandbits(alg.size), rng.getrandbits(alg.size)
            alg.int_or(x, y)
            alg.int_and(x, y)
            alg.int_not(x)
            alg.strict_neg(x)
            alg.down_closure(x)
            alg.up_closure(y)
        assert vars(alg) == before


class TestScanTables:
    """The column's plane kernels for the unary opcodes, on one column
    that holds every denotation up to n = 3, read back lane by lane: the
    Algebra method and the oracle.  Plane e of a column has bit j set
    when element e lies in lane j.  An algebra is a column of one lane,
    whose planes are the bits of its one value."""

    UNARY = {  # per opcode, its Algebra method and its oracle
        _INOT: (lambda alg: alg.int_not, ref.int_not),
        _DOWN: (lambda alg: alg.down_closure, ref.down_closure),
        _UP: (lambda alg: alg.up_closure, ref.up_closure),
        _ANY: (lambda alg: lambda x: alg.full if x else 0,
               lambda x, n: ref.all_elements(n) if x else frozenset()),
    }

    @staticmethod
    def _column(n: int, op: int) -> list[int]:
        """The lanes of the kernel's column of every denotation."""
        count = 1 << (1 << n)
        planes = [sum(1 << x for x in range(count) if x >> e & 1) for e in range(1 << n)]
        out = _COLUMN_KERNELS[op](planes, planes)
        assert len(out) == 1 << n and all(plane >> count == 0 for plane in out)
        return [sum((plane >> j & 1) << e for e, plane in enumerate(out)) for j in range(count)]

    @pytest.mark.parametrize("n", range(4))
    def test_against_kernels(self, n):
        alg = Algebra(n)
        for op, (method, _) in self.UNARY.items():
            assert self._column(n, op) == list(map(method(alg), range(alg.full + 1))), op

    @pytest.mark.parametrize("n", range(4))
    def test_against_oracle(self, n):
        sets = [ref.from_bits(x, n) for x in range(1 << (1 << n))]
        for op, (_, oracle) in self.UNARY.items():
            assert self._column(n, op) == [ref.to_bits(oracle(x, n)) for x in sets], op

    @pytest.mark.parametrize("n", range(MAX_ATOMS + 1))
    def test_an_algebra_is_one_lane(self, n):
        # each unary method takes a value alone and agrees with the oracle
        # at every n; up to the largest size a scan reaches, its kernel on
        # the one-lane column of that value, planes its bits, agrees too
        alg = algebra(n)
        rng = random.Random(n + 88)
        values = [0, 1, alg.full] + [rng.randrange(alg.full + 1) for _ in range(20)]
        for op, (method, oracle) in self.UNARY.items():
            for x in values:
                want = method(alg)(x)
                assert want == ref.to_bits(oracle(ref.from_bits(x, n), n)), (op, x)
                if n <= MAX_N:
                    planes = [x >> e & 1 for e in range(alg.size)]
                    got = _COLUMN_KERNELS[op](planes, planes)
                    assert sum(bit << e for e, bit in enumerate(got)) == want, (op, x)


class TestBooleanIdentities:
    def test_laws(self, seed):
        rng = random.Random(seed + 24)
        alg, (ext_not, ext_or, ext_and) = Algebra(3), _external(3)
        for _ in range(200):
            x = rng.randrange(alg.full + 1)
            y = rng.randrange(alg.full + 1)
            z = rng.randrange(alg.full + 1)
            assert ext_or(x, y) == ext_or(y, x)
            assert ext_and(x, ext_or(y, z)) == ext_or(ext_and(x, y), ext_and(x, z))
            assert ext_or(x, ext_not(x)) == alg.full
            assert ext_not(ext_not(x)) == x
            assert ext_and(x, x) == x


class TestTextForm:
    def test_element_strings(self):
        alg = Algebra(2)
        assert alg.format_element(0b10) == "10"
        assert alg.parse_element("10") == 0b10
        assert Algebra(0).format_element(0) == ""
        assert Algebra(0).parse_element("") == 0

    def test_denotation_round_trip(self, seed):
        alg = Algebra(3)
        rng = random.Random(seed + 25)
        for _ in range(50):
            bits = rng.randrange(alg.full + 1)
            assert alg.parse_denotation(alg.format_denotation(bits)) == bits

    def test_bad_width(self):
        with pytest.raises(ValueError):
            Algebra(2).parse_element("101")

    @pytest.mark.parametrize("n", range(MAX_ATOMS + 1))
    def test_names_are_the_bit_strings(self, n):
        alg = algebra(n)
        texts = [format(a, f"0{n}b") if n else "" for a in alg.elements()]
        assert alg.names == texts
        assert [alg.format_element(a) for a in alg.elements()] == texts
        assert [alg.parse_element(t) for t in texts] == [int(t, 2) if t else 0 for t in texts]
        assert alg.format_denotation(alg.full) == texts
        assert alg.parse_denotation(texts) == alg.full

    @pytest.mark.parametrize("n", [0, 2, 8])
    def test_index_outside_the_algebra_is_refused(self, n):
        alg = algebra(n)
        for a in (-1, -alg.size, alg.size):
            with pytest.raises(IndexError, match=f"no element {a} in a {n}-atom algebra"):
                alg.format_element(a)

    @pytest.mark.parametrize("n, text", [
        (2, "101"), (2, "1"), (2, "0b"), (2, "12"), (2, " 1"), (2, "\uff10\uff11"), (2, ""),
        (1, "\uff11"), (8, "0000000"), (0, "0"),
    ])
    def test_bad_element_message(self, n, text):
        message = f"element of a {n}-atom algebra needs {n} bits, got {text!r}"
        for parse in (algebra(n).parse_element, lambda t: algebra(n).parse_denotation(["0" * n, t])):
            with pytest.raises(ValueError) as info:
                parse(text)
            assert str(info.value) == message


class TestOneAlgebraPerSize:
    def test_built_once(self):
        assert all(algebra(n) is algebra(n) == Algebra(n) for n in range(MAX_ATOMS + 1))
        assert algebra(3) is not Algebra(3)  # the constructor still builds anew

    @pytest.mark.parametrize("n", [-1, MAX_ATOMS + 1])
    def test_size_out_of_range_is_not_cached(self, n):
        size = algebra.cache_info().currsize
        for make in (algebra, algebra, Algebra):
            with pytest.raises(ValueError) as info:
                make(n)
            assert str(info.value) == f"n_atoms must be in 0..{MAX_ATOMS}, got {n}"
        assert algebra.cache_info().currsize == size

    def test_all_sizes_with_names_are_small(self):
        # the per-process state that one algebra per size adds
        algebra.cache_clear()
        tracemalloc.start()
        try:
            for n in range(MAX_ATOMS + 1):
                alg = algebra(n)
                alg.names, alg.elements_by_name
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size < 300_000
