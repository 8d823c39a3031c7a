"""The column's plane kernels against the Algebra methods.

The scan's trailing digits run as one column: a slot holds one integer,
a plane, per element e of 2^n, whose bit j is set when e lies in the
denotation of lane j.  Every column opcode is checked here lane by lane
against the Algebra method it stands for, applied to one value: up to
n = 3 on every denotation and, for the forms with a value operand,
every value, and at n = 4 on every denotation for the unary opcodes and
on seeded operands for the rest.  A value operand is broadcast to every
lane as `_Column.run` broadcasts it, its planes 1 in every lane for its
elements and 0 for the others, and up to n = 3 every opcode also runs
through `_Column.run` itself, as an instruction tuple of the plan.
The reference reads none of the scan's tables: it writes and reads
the planes through bit strings, one lane at a time.
"""

import operator
import random

import pytest

from lt import entailment
from lt.algebra import Algebra
from lt.entailment import _AND, _ANY, _DOWN, _IAND, _INOT, _IOR, _OR, _UP, _XOR
from lt.syntax import parse_entailment_query

UNARY = (_INOT, _ANY, _DOWN, _UP)
EXTERNAL = (_OR, _AND, _XOR)
INTERNAL = (_IAND, _IOR)


def _planes(values, n: int) -> list[int]:
    """The planes of a column whose lane j holds values[j]."""
    lanes = [format(v, f"0{1 << n}b")[::-1] for v in values]  # element e at index e
    return [int("".join(bits)[::-1], 2) for bits in zip(*lanes)]


def _decode(planes: list[int], count: int) -> list[int]:
    """The denotation in each of the first `count` lanes of a column."""
    rows = [format(plane, f"0{count}b")[::-1] for plane in planes]  # lane j at index j
    assert all(len(row) == count for row in rows)  # nothing past the last lane
    return [int("".join(bits)[::-1], 2) for bits in zip(*rows)]


def _broadcast(x: int, n: int, count: int) -> list[int]:
    """The column of `count` lanes that each hold the value x."""
    return _planes([x] * count, n)


def _scalar(alg: Algebra) -> list:
    """Per opcode, the function f(x, y) on one value, from the Algebra
    methods; a unary opcode ignores y."""
    full = alg.full
    return [operator.or_, operator.and_, operator.xor, alg.int_or, alg.int_and,
            lambda x, _: alg.int_not(x), lambda x, _: full if x else 0,
            lambda x, _: alg.down_closure(x), lambda x, _: alg.up_closure(x)]


def _run(op, x, y, count):
    """The lanes of the column instruction op(x, y) through the opcode's
    column kernel."""
    out = entailment._COLUMN_KERNELS[op](x, y)
    assert len(out) == len(y)  # one plane per element
    return _decode(out, count)


def _packed(values, width: int) -> bytes:
    """The values little-endian, `width` bytes each, one at a time."""
    return b"".join(v.to_bytes(width, "little") for v in values)


@pytest.mark.parametrize("w", [1, 2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("count", [1, 255, 256, 3984, 65536])
def test_pack_round_trip(w, count):
    # the values of a suffix's digit, packed in the algebra's width and
    # transposed into planes by the scan, come back lane by lane; w is the
    # bits of a denotation, 2^n: n = 0 to 6
    n = w.bit_length() - 1
    rng = random.Random(count * w)
    values = [rng.randrange(1 << w) for _ in range(count)]
    values[0], values[-1] = (1 << w) - 1, 1  # the first and the last lane are set
    sym = entailment._Symmetry(n)
    planes = sym._planes(_packed(values, sym.width))
    assert type(planes) is tuple and len(planes) == w
    assert planes == tuple(_planes(values, n))
    assert _decode(list(planes), count) == values
    for e, plane in enumerate(planes):  # lane 0 is the lowest bit, the last lane the highest
        assert plane & 1 == values[0] >> e & 1 and plane >> count - 1 == values[-1] >> e & 1


@pytest.fixture(scope="module")
def symmetries():
    return {n: entailment._Symmetry(n) for n in range(3, 8)}


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("count", [1, 7, 8, 9, 13056])
def test_planes_transpose_packed_bytes(symmetries, n, count):
    # the delta swaps transpose 8 x 8 bit blocks of 8 lanes, so the lane
    # counts on either side of a block, and a width of 1, 2, 4, 8 and 16
    # bytes (n = 3 to 7), give the planes that a lane-by-lane reference
    # writes; lanes past the last, padding a block, are in no plane
    sym, rng = symmetries[n], random.Random(count << n)
    values = [rng.getrandbits(1 << n) for _ in range(count)]
    values[-1] |= 1 << (1 << n) - 1  # the last lane holds the top element
    packed = _packed(values, sym.width)
    assert sym.width == max(1, (1 << n) // 8) and len(packed) == count * sym.width
    planes = sym._planes(packed)
    assert planes == tuple(_planes(values, n))
    assert all(plane >> count == 0 for plane in planes)


def _every_opcode_on_every_denotation(n, pair):
    """With pair false, the binary forms on a value and a column, for
    every value; with pair true, the unary forms on one column and the
    binary forms on two columns, over every pair."""
    alg = Algebra(n)
    scalar = _scalar(alg)
    domain = range(alg.full + 1)
    count = len(domain)
    column = _planes(domain, n)
    assert _decode(_broadcast(alg.full, n, count), count) == [alg.full] * count
    for op in UNARY if pair else ():
        got = _run(op, column, column, count)
        assert got == [scalar[op](y, y) for y in domain], op
    for op in EXTERNAL + INTERNAL:
        if not pair:
            for x in domain:
                got = _run(op, _broadcast(x, n, count), column, count)
                assert got == [scalar[op](x, y) for y in domain], (op, x)
            continue
        # lane i pairs (i + k) % count with i
        for k in domain:
            xs = [(y + k) % count for y in domain]
            got = _run(op, _planes(xs, n), column, count)
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
    column = _planes(domain, 4)
    for op in UNARY:
        got = _run(op, column, column, len(domain))
        assert got == [scalar[op](y, y) for y in domain], op


def test_n4_pairs_on_seeded_operands(seed):
    alg = Algebra(4)
    scalar = _scalar(alg)
    rng = random.Random(seed + 94)
    count = 3000
    ys = [0, alg.full, alg.int_bot()] + [rng.randrange(1 << 16) for _ in range(count - 3)]
    xs = [alg.full, 0, alg.int_bot()] + [rng.randrange(1 << 16) for _ in range(count - 3)]
    # sparse and dense operands too
    for i in range(3, count, 7):
        xs[i] = 1 << rng.randrange(16)
        ys[i] = alg.full ^ 1 << rng.randrange(16)
    x, y = _planes(xs, 4), _planes(ys, 4)
    for op in EXTERNAL + INTERNAL:
        got = _run(op, x, y, count)
        assert got == list(map(scalar[op], xs, ys)), op
        for value in [0, alg.full, alg.int_bot()] + [rng.randrange(1 << 16) for _ in range(5)]:
            got = _run(op, _broadcast(value, 4, count), y, count)
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
    # holds the empty column, a `bad` that never hits, so the run leaves
    # the whole column of its instruction in slot 3
    alg = Algebra(n)
    scalar = _scalar(alg)
    domain = range(alg.full + 1)
    count = len(domain)
    column = entailment._Column(entailment._symmetry(n), None, 0, [("all", domain)])
    ones, (planes,) = column.sym.suffix(column.kinds, column.domains, (0,))
    assert ones == (1 << count) - 1 and _decode(list(planes), count) == list(domain)

    def run(instruction, x):
        column.segments = [([instruction], None)]
        vals = [None, x, [0] * alg.size, None]
        assert not column.run((0,), vals, 2)
        return _decode(vals[3], count)

    for op in UNARY:
        assert run((op, True, 3, 0, 0), None) == [scalar[op](y, y) for y in domain], op
    for op in EXTERNAL + INTERNAL:
        for x in domain:
            assert run((op, False, 3, 1, 0), x) == [scalar[op](x, y) for y in domain], (op, x)
        for k in range(1, count, max(1, count // 16)):  # lane i pairs i + k with i
            xs = [(y + k) % count for y in domain]
            got = run((op, True, 3, 1, 0), _planes(xs, n))
            assert got == list(map(scalar[op], xs, domain)), (op, k)
