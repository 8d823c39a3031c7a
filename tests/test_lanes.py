"""The column's lane kernels against the Algebra methods.

The scan's last digit runs as one integer with a lane of max(8, 2^n)
bits per value.  Every column opcode is checked here lane by lane
against the Algebra method it stands for, applied to one value: up to
n = 3 on every denotation and, for the forms with a value operand,
every value, and at n = 4 on every denotation for the unary opcodes and
on seeded operands for the rest.  Below n = 3 a lane of 8 bits holds a
denotation of 1, 2 or 4 bits, and the complement that an _XOR with
the full carrier takes must leave the bits above it clear.
The reference reads none of the scan's tables.
"""

import operator
import random
import sys
import types

import pytest

from lt import entailment
from lt.algebra import Algebra
from lt.entailment import _AND, _ANY, _DOWN, _IAND, _INOT, _IOR, _OR, _UP, _XOR, _Lanes

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
            lambda x, _: alg.int_not(x), lambda x, _: full if x else 0,
            lambda x, _: alg.down_closure(x), lambda x, _: alg.up_closure(x)]


def _run(op, pair, alg, x, y, lanes, count):
    kernel = entailment._column_kernel(alg, op, pair)
    return _decode(kernel(x, y, lanes), count, lanes.w)


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("count", [1, 255, 256, 3984, 65536])
def test_pack_round_trip(w, count):
    # lane i of a packed column holds value i, whatever the host's byte
    # order: the decoding reads the integer's little-endian bytes
    rng = random.Random(count * w)
    values = [rng.randrange(1 << w) for _ in range(count)]
    values[0], values[-1] = (1 << w) - 1, 1  # the first and the last lane are set
    lanes = _Lanes(count, w)
    x = lanes.pack(values)
    assert _decode(x, count, w) == values
    assert x & (1 << w) - 1 == values[0] and x >> w * (count - 1) == values[-1]
    assert lanes.full == (1 << w * count) - 1
    assert _decode(lanes.ones, count, w) == [1] * count


@pytest.mark.parametrize("w", [8, 16])
def test_pack_swaps_on_a_big_endian_host(monkeypatch, w):
    # an array holds its items in the host's byte order: on a big-endian
    # host pack swaps the bytes of each item before reading them as
    # little-endian, so here, on the other order, each lane comes out swapped
    values = [0x0102, 0xFF00, 1] if w == 16 else [1, 2, 255]
    assert _decode(_Lanes(3, w).pack(values), 3, w) == values
    if sys.byteorder == "little":
        monkeypatch.setattr(entailment, "sys", types.SimpleNamespace(byteorder="big"))
        swap = (lambda v: (v & 255) << 8 | v >> 8) if w == 16 else (lambda v: v)
        assert _decode(_Lanes(3, w).pack(values), 3, w) == [swap(v) for v in values]


def _every_opcode_on_every_denotation(n, pair):
    """With pair false, the forms on a value and a column, for every
    value; with pair true, the forms on two columns, over every pair.  A
    unary opcode reads one column under either flag."""
    alg = Algebra(n)
    scalar = _scalar(alg)
    domain = range(alg.full + 1)
    count, w = len(domain), max(8, alg.size)
    lanes = _Lanes(count, alg.size)
    assert lanes.w == w and _decode(lanes.full, count, w) == [alg.full] * count
    column = lanes.pack(domain)
    for op in UNARY:
        got = _run(op, pair, alg, column, column, lanes, count)
        assert got == [scalar[op](y, y) for y in domain], op
    for op in EXTERNAL + INTERNAL:
        if not pair:
            for x in domain:
                got = _run(op, False, alg, x, column, lanes, count)
                assert got == [scalar[op](x, y) for y in domain], (op, x)
            continue
        # lane i pairs (i + k) % count with i
        for k in domain:
            xs = [(y + k) % count for y in domain]
            got = _run(op, True, alg, lanes.pack(xs), column, lanes, count)
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
    lanes = _Lanes(len(domain), 16)
    column = lanes.pack(domain)
    for op in UNARY:
        got = _run(op, True, alg, column, column, lanes, len(domain))
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
    lanes = _Lanes(count, 16)
    x, y = lanes.pack(xs), lanes.pack(ys)
    for op in EXTERNAL + INTERNAL:
        got = _run(op, True, alg, x, y, lanes, count)
        assert got == list(map(scalar[op], xs, ys)), op
        for value in [0, alg.full, alg.int_bot()] + [rng.randrange(1 << 16) for _ in range(5)]:
            got = _run(op, False, alg, value, y, lanes, count)
            assert got == [scalar[op](value, v) for v in ys], (op, value)
