"""The column's lane kernels against the Algebra methods.

The scan's last digit runs as one integer with a lane of max(8, 2^n)
bits per value.  Every column opcode is checked here lane by lane
against the Algebra method it stands for, applied to one value: up to
n = 3 on every denotation and, for the forms with a value operand,
every value, and at n = 4 on every denotation for the unary opcodes and
on seeded operands for the rest.  A value operand is broadcast to
every lane as `_Column.run` broadcasts it, and up to n = 3 every opcode
also runs through `_Column.run` itself, as an instruction tuple of the
plan.  Below n = 3 a lane of 8 bits holds a denotation of 1, 2 or 4
bits, and the complement that an _XOR with the broadcast full carrier
takes must leave the bits above it clear.
The reference reads none of the scan's tables.
"""

import operator
import random
import sys
import types

import pytest

from lt import entailment
from lt.algebra import Algebra, algebra
from lt.entailment import _AND, _ANY, _DOWN, _IAND, _INOT, _IOR, _OR, _UP, _XOR, _Lanes
from lt.syntax import parse_entailment_query

UNARY = (_INOT, _ANY, _DOWN, _UP)
EXTERNAL = (_OR, _AND, _XOR)
INTERNAL = (_IAND, _IOR)


def _decode(x: int, count: int, w: int) -> list[int]:
    """The lanes of x, from its little-endian bytes: lane i is bytes
    w/8*i up, low byte first."""
    data, step = x.to_bytes(count * w // 8, "little"), w // 8
    return [int.from_bytes(data[i : i + step], "little") for i in range(0, len(data), step)]


def _scalar(alg: Algebra) -> list:
    """Per opcode, the function f(x, y) on one value, from the Algebra
    methods; a unary opcode ignores y."""
    full = alg.full
    return [operator.or_, operator.and_, operator.xor, alg.int_or, alg.int_and,
            alg.int_not, lambda x, _: full if x else 0, alg.down_closure, alg.up_closure]


def _run(op, pair, x, y, lanes, count):
    """The lanes of the column instruction op(x, y) through the opcode's
    column kernel; with pair false, x is a value broadcast to every lane,
    as `_Column.run` broadcasts it."""
    kernel = entailment._COLUMN_KERNELS[op]
    return _decode(kernel(lanes, x if pair else x * lanes.ones, y), count, lanes.w)


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("count", [1, 255, 256, 3984, 65536])
def test_pack_round_trip(w, count):
    # lane i of a packed column holds value i, whatever the host's byte
    # order: the decoding reads the integer's little-endian bytes
    rng = random.Random(count * w)
    values = [rng.randrange(1 << w) for _ in range(count)]
    values[0], values[-1] = (1 << w) - 1, 1  # the first and the last lane are set
    lanes = _Lanes(count, algebra(w.bit_length() - 1))  # 2^n = w: n = 3 or 4
    x = lanes.pack(values)
    assert _decode(x, count, w) == values
    assert x & (1 << w) - 1 == values[0] and x >> w * (count - 1) == values[-1]
    assert _decode(lanes.ones, count, w) == [1] * count


@pytest.mark.parametrize("w", [8, 16])
def test_pack_swaps_on_a_big_endian_host(monkeypatch, w):
    # an array holds its items in the host's byte order: on a big-endian
    # host pack swaps the bytes of each item before reading them as
    # little-endian, so here, on the other order, each lane comes out swapped
    values = [0x0102, 0xFF00, 1] if w == 16 else [1, 2, 255]
    lanes = _Lanes(3, algebra(w.bit_length() - 1))
    assert _decode(lanes.pack(values), 3, w) == values
    if sys.byteorder == "little":
        monkeypatch.setattr(entailment, "sys", types.SimpleNamespace(byteorder="big"))
        swap = (lambda v: (v & 255) << 8 | v >> 8) if w == 16 else (lambda v: v)
        assert _decode(lanes.pack(values), 3, w) == [swap(v) for v in values]


def _every_opcode_on_every_denotation(n, pair):
    """With pair false, the binary forms on a value and a column, for
    every value; with pair true, the unary forms on one column and the
    binary forms on two columns, over every pair."""
    alg = Algebra(n)
    scalar = _scalar(alg)
    domain = range(alg.full + 1)
    count, w = len(domain), max(8, alg.size)
    lanes = _Lanes(count, alg)
    assert lanes.w == w and _decode(alg.full * lanes.ones, count, w) == [alg.full] * count
    column = lanes.pack(domain)
    for op in UNARY if pair else ():
        got = _run(op, True, column, column, lanes, count)
        assert got == [scalar[op](y, y) for y in domain], op
    for op in EXTERNAL + INTERNAL:
        if not pair:
            for x in domain:
                got = _run(op, False, x, column, lanes, count)
                assert got == [scalar[op](x, y) for y in domain], (op, x)
            continue
        # lane i pairs (i + k) % count with i
        for k in domain:
            xs = [(y + k) % count for y in domain]
            got = _run(op, True, lanes.pack(xs), column, lanes, count)
            assert got == list(map(scalar[op], xs, domain)), (op, k)


@pytest.mark.parametrize("pair", [False, True])
def test_n3_every_opcode_on_every_denotation(pair):
    _every_opcode_on_every_denotation(3, pair)


@pytest.mark.parametrize("pair", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_small_lanes_every_opcode_on_every_denotation(n, pair):
    _every_opcode_on_every_denotation(n, pair)


def test_n4_unary_opcodes_on_every_denotation():
    alg = Algebra(4)
    scalar = _scalar(alg)
    domain = range(1 << 16)
    lanes = _Lanes(len(domain), alg)
    column = lanes.pack(domain)
    for op in UNARY:
        got = _run(op, True, column, column, lanes, len(domain))
        assert got == [scalar[op](y, y) for y in domain], op


def test_n4_pairs_on_seeded_operands(seed):
    alg = Algebra(4)
    scalar = _scalar(alg)
    rng = random.Random(seed + 94)
    count = 3000
    ys = [0, alg.full, alg.int_bot()] + [rng.randrange(1 << 16) for _ in range(count - 3)]
    xs = [alg.full, 0, alg.int_bot()] + [rng.randrange(1 << 16) for _ in range(count - 3)]
    # sparse and dense operands too, where the kernels take other branches
    for i in range(3, count, 7):
        xs[i] = 1 << rng.randrange(16)
        ys[i] = alg.full ^ 1 << rng.randrange(16)
    lanes = _Lanes(count, alg)
    x, y = lanes.pack(xs), lanes.pack(ys)
    for op in EXTERNAL + INTERNAL:
        got = _run(op, True, x, y, lanes, count)
        assert got == list(map(scalar[op], xs, ys)), op
        for value in [0, alg.full, alg.int_bot()] + [rng.randrange(1 << 16) for _ in range(5)]:
            got = _run(op, False, value, y, lanes, count)
            assert got == [scalar[op](value, v) for v in ys], (op, value)


def test_the_plan_is_what_runs(monkeypatch):
    # a column runs the plan's own column entry, bound to nothing: one
    # kernel per opcode in _COLUMN_KERNELS, found by the opcode itself
    built = []

    class Column(entailment._Column):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(entailment, "_Column", Column)
    for text in ("P0 i& P1 |- P1 i& P0", "i! P0, P0 i& P1 |- P1", "|- P0 | i! P0"):
        program = entailment._compile_entailment(*parse_entailment_query(text))
        for n in range(4):
            entailment._decide(program, n, "all", 1 << 16)
        assert len(built) == 4 and all(c.segments is program.plan(c.start)[-1] for c in built)
        built.clear()
    assert sorted(UNARY + EXTERNAL + INTERNAL) == list(range(len(entailment._COLUMN_KERNELS)))


@pytest.mark.parametrize("n", range(4))
def test_every_opcode_through_the_column_run(n):
    # each instruction (op, pair, slot, a, b) of a column, run by
    # _Column.run over the column of every denotation in slot 0: lane by
    # lane the Algebra method, with a value in slot 1 broadcast to every
    # lane when pair is false, and a column there when it is true; slot 2
    # is the zero constant, a `bad` that never hits, so the run leaves
    # the whole column of its instruction in slot 3
    alg = Algebra(n)
    scalar = _scalar(alg)
    domain = range(alg.full + 1)
    column = entailment._Column(entailment._symmetry(n), None, 0, [("all", domain)])
    lanes, _ = column.sym.suffix(column.kinds, column.domains, (0,))

    def run(instruction, x):
        column.segments = [([instruction], None)]
        vals = [None, x, 0, None]
        assert not column.run((0,), vals, 2)
        return _decode(vals[3], len(domain), lanes.w)

    for op in UNARY:
        assert run((op, True, 3, 0, 0), None) == [scalar[op](y, y) for y in domain], op
    for op in EXTERNAL + INTERNAL:
        for x in domain:
            assert run((op, False, 3, 1, 0), x) == [scalar[op](x, y) for y in domain], (op, x)
        for k in range(1, len(domain), max(1, len(domain) // 16)):  # lane i pairs i + k with i
            xs = [(y + k) % len(domain) for y in domain]
            got = run((op, True, 3, 1, 0), lanes.pack(xs))
            assert got == list(map(scalar[op], xs, domain)), (op, k)
