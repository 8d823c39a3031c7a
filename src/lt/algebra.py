"""Finite powerset Boolean algebras 2^n and operations on their subsets.

An algebra with n atoms has 2^n elements; an element is an n-bit integer
(bit i = atom i) and elements are indexed 0 .. 2^n - 1 by their bit
pattern.  A denotation -- a subset of the algebra -- is an integer bitset
over those element indices.  External operators are the set-theoretic
ones on denotations, the integer operators |, & and ^ full; internal
operators apply the element operations pointwise across denotations.

Every operator works on whole denotations by shifts and masks (Knuth,
TAOCP 4A, 7.1.3): the order closures and int_not take n steps, one per
atom in `Algebra.steps`, and a binary internal operator one image per
member of its smaller operand.
A process keeps one algebra per size, built on first use by `algebra(n)`
with its element names (at most nine, about 220 KB in all); nothing else
is cached here.  A shortcut is allowed only when it is proven equal
to the brute-force oracle in tests/reference.py, exhaustively at n <= 3
and on seeded pairs up to n = 8.
"""

from __future__ import annotations

import functools
from typing import Iterator

MAX_ATOMS = 8


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def same_fields(a, b) -> bool:
    """The `__eq__` of a value class: true for another instance of the
    class whose fields, named in `__slots__`, are equal."""
    if type(b) is not type(a):
        return NotImplemented
    return all(getattr(a, name) == getattr(b, name) for name in a.__slots__)


@functools.cache
def algebra(n_atoms: int) -> "Algebra":
    """The algebra on n atoms, built once per process; an n out of range
    raises as Algebra(n) does, and is not cached."""
    return Algebra(n_atoms)


class Algebra:
    """The powerset Boolean algebra on n atoms, with denotation operators.
    Its state, O(n * 2^n) words, is fixed at construction; the element
    names are built on first use."""

    def __init__(self, n_atoms: int):
        if not 0 <= n_atoms <= MAX_ATOMS:
            raise ValueError(f"n_atoms must be in 0..{MAX_ATOMS}, got {n_atoms}")
        self.n = n_atoms
        self.size = 1 << n_atoms          # number of elements
        self.top = self.size - 1          # top element (all atoms)
        self.full = (1 << self.size) - 1  # denotation containing every element
        # Per atom i, its step (M_i, full ^ M_i, 2^i): M_i holds the elements
        # that contain i (2^i clear bits, then 2^i set, repeated), and shifting
        # by 2^i moves an element to the one that differs from it in atom i.
        # Per element a, built by doubling over the atoms: its principal
        # ideal and filter, and the steps that int_or (a's atoms, low masks)
        # and int_and (the other atoms, high masks) apply for a member a.
        steps, ideals, filters, self._or_steps, high = [], [1], [self.full], [()], [()]
        for s in (1 << i for i in range(n_atoms)):
            mask = self.full // ((1 << 2 * s) - 1) * (((1 << s) - 1) << s)
            steps.append((mask, self.full ^ mask, s))
            ideals += [d | d << s for d in ideals]
            filters += [u & mask for u in filters]
            self._or_steps += [t + ((self.full ^ mask, s),) for t in self._or_steps]
            high += [t + ((mask, s),) for t in high]
        self.steps, self.ideals, self.filters = tuple(steps), tuple(ideals), tuple(filters)
        self._and_steps = high[::-1]

    def __repr__(self):
        return f"Algebra(n_atoms={self.n})"

    def __eq__(self, other):
        return isinstance(other, Algebra) and other.n == self.n

    def __hash__(self):
        return hash((Algebra, self.n))

    # -- element operations

    def elements(self) -> range:
        return range(self.size)

    # -- internal (pointwise) operators.  A step moves a bit by 2^i < 2^n,
    # from an element to the one that differs from it in atom i.

    def int_not(self, x: int) -> int:
        """The complement of each element: per atom, swap the halves with and
        without it."""
        for high, low, s in self.steps:
            x = (x & high) >> s | (x & low) << s
        return x

    def down_closure(self, x: int) -> int:
        for high, _, s in self.steps:
            x |= (x & high) >> s
        return x

    def up_closure(self, x: int) -> int:
        for _, low, s in self.steps:
            x |= (x & low) << s
        return x

    def int_bot(self) -> int:
        return 1  # {bottom element}

    def int_or(self, x: int, y: int) -> int:
        """For each member a of the smaller operand, each step offers one
        atom of a to every member b of the other; cut to the filter of a,
        what is left is {a | b}."""
        if x.bit_count() > y.bit_count():
            x, y = y, x
        if y == self.full:
            return self.up_closure(x)
        out, up, steps = 0, self.filters, self._or_steps
        while x:
            low = x & -x
            a = low.bit_length() - 1
            z = y
            for mask, s in steps[a]:
                z |= (z & mask) << s
            out |= z & up[a]
            x ^= low
        return out

    def int_and(self, x: int, y: int) -> int:
        """The dual of int_or: the steps offer to drop each atom outside a,
        and the cut is to the ideal of a."""
        if x.bit_count() > y.bit_count():
            x, y = y, x
        if y == self.full:
            return self.down_closure(x)
        out, down, steps = 0, self.ideals, self._and_steps
        while x:
            low = x & -x
            a = low.bit_length() - 1
            z = y
            for mask, s in steps[a]:
                z |= (z & mask) >> s
            out |= z & down[a]
            x ^= low
        return out

    def strict_neg(self, x: int) -> int:
        """Elements meeting every member of x at bottom; full set when x is empty."""
        return self.ideals[self.top ^ self.join_of(x)]

    # -- principal ideals

    def principal_ideal(self, a: int) -> int:
        return self.ideals[a]

    def join_of(self, x: int) -> int:
        """Join of the members; by convention 0 (bottom) for the empty set."""
        out = 0
        for mask, _, s in self.steps:
            if x & mask:
                out |= s
        return out

    def is_principal_ideal(self, x: int) -> bool:
        if x == 0:
            return False
        j = self.join_of(x)
        return x >> j & 1 == 1 and self.down_closure(x) == x

    # -- text form: element bit-strings, most significant atom first

    @functools.cached_property
    def names(self) -> list[str]:
        """The bit-string of each element, by index."""
        return [format(a, f"0{self.n}b") for a in range(self.size)] if self.n else [""]

    @functools.cached_property
    def elements_by_name(self) -> dict[str, int]:
        return {name: a for a, name in enumerate(self.names)}

    def format_element(self, a: int) -> str:
        if not 0 <= a < self.size:
            raise IndexError(f"no element {a} in a {self.n}-atom algebra")
        return self.names[a]

    def parse_element(self, text: str) -> int:
        a = self.elements_by_name.get(text)
        if a is None:
            raise ValueError(f"element of a {self.n}-atom algebra needs {self.n} bits, got {text!r}")
        return a

    def format_denotation(self, bits: int) -> list[str]:
        names = self.names
        return [names[a] for a in iter_bits(bits)]

    def parse_denotation(self, texts: list[str]) -> int:
        bits = 0
        for t in texts:
            bits |= 1 << self.parse_element(t)
        return bits


class Denotation:
    """A member of the powerset of the algebra, as an immutable value; the
    algebra names, parses and tests its bits."""

    __slots__ = ("algebra", "bits")

    def __init__(self, algebra: Algebra, bits: int):
        if not 0 <= bits <= algebra.full:
            raise ValueError("denotation bits out of range for the algebra")
        self.algebra = algebra
        self.bits = bits

    __eq__ = same_fields

    def __contains__(self, element: int) -> bool:
        return self.bits >> element & 1 == 1

