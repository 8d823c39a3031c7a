"""Finite powerset Boolean algebras 2^n and operations on their subsets.

An algebra with n atoms has 2^n elements; an element is an n-bit integer
(bit i = atom i) and elements are indexed 0 .. 2^n - 1 by their bit
pattern.  A denotation -- a subset of the algebra -- is an integer bitset
over those element indices.  External operators are the set-theoretic
ones on denotations; internal operators apply the element operations
pointwise across denotations.

Every operator works on whole denotations by shifts and masks (Knuth,
TAOCP 4A, 7.1.3): the order closures and int_not take n steps, and a
binary internal operator one image per member of its smaller operand.
Nothing is cached.  A shortcut is allowed only when it is proven equal
to the brute-force oracle in tests/reference.py, exhaustively at n <= 3
and on seeded pairs up to n = 8.
"""

from __future__ import annotations

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


class Algebra:
    """The powerset Boolean algebra on n atoms, with denotation operators.
    Its state, O(n * 2^n) words, is fixed at construction."""

    def __init__(self, n_atoms: int):
        if not 0 <= n_atoms <= MAX_ATOMS:
            raise ValueError(f"n_atoms must be in 0..{MAX_ATOMS}, got {n_atoms}")
        self.n = n_atoms
        self.size = 1 << n_atoms          # number of elements
        self.top = self.size - 1          # top element (all atoms)
        self.full = (1 << self.size) - 1  # denotation containing every element
        # (M_i, 2^i) per atom i: M_i holds the elements that contain i (2^i
        # clear bits, then 2^i set, repeated), and shifting by 2^i moves an
        # element to the one that differs from it in atom i
        self._atoms = [
            (self.full // ((1 << 2 * s) - 1) * (((1 << s) - 1) << s), s)
            for s in (1 << i for i in range(n_atoms))
        ]
        # Per element a, built by doubling over the atoms: its principal
        # ideal and filter, and the steps that int_or (a's atoms, low masks)
        # and int_and (the other atoms, high masks) apply for a member a.
        self._down, self._up, self._or_steps, high = [1], [self.full], [()], [()]
        for mask, s in self._atoms:
            self._down += [d | d << s for d in self._down]
            self._up += [u & mask for u in self._up]
            self._or_steps += [t + ((self.full ^ mask, s),) for t in self._or_steps]
            high += [t + ((mask, s),) for t in high]
        self._and_steps = high[::-1]

    def __repr__(self):
        return f"Algebra(n_atoms={self.n})"

    def __eq__(self, other):
        return isinstance(other, Algebra) and other.n == self.n

    def __hash__(self):
        return hash((Algebra, self.n))

    # -- element operations

    def complement(self, a: int) -> int:
        return self.top ^ a

    def elements(self) -> range:
        return range(self.size)

    # -- external (set-theoretic) operators on denotation bitsets

    def ext_not(self, x: int) -> int:
        return self.full ^ x

    def ext_or(self, x: int, y: int) -> int:
        return x | y

    def ext_and(self, x: int, y: int) -> int:
        return x & y

    # -- internal (pointwise) operators

    def int_bot(self) -> int:
        return 1  # {bottom element}

    def int_top(self) -> int:
        return 1 << self.top

    def int_not(self, x: int) -> int:
        for mask, s in self._atoms:  # swap the halves with and without atom i
            x = (x & mask) >> s | (x & ~mask) << s
        return x

    def int_or(self, x: int, y: int) -> int:
        """For each member a of the smaller operand, each step offers one
        atom of a to every member b of the other; cut to the filter of a,
        what is left is {a | b}."""
        if x.bit_count() > y.bit_count():
            x, y = y, x
        if y == self.full:
            return self.up_closure(x)
        out, up, steps = 0, self._up, self._or_steps
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
        out, down, steps = 0, self._down, self._and_steps
        while x:
            low = x & -x
            a = low.bit_length() - 1
            z = y
            for mask, s in steps[a]:
                z |= (z & mask) >> s
            out |= z & down[a]
            x ^= low
        return out

    # -- order closures and strict negation

    def down_closure(self, x: int) -> int:
        for mask, s in self._atoms:
            x |= (x & mask) >> s
        return x

    def up_closure(self, x: int) -> int:
        for mask, s in self._or_steps[self.top]:  # every atom, low masks
            x |= (x & mask) << s
        return x

    def strict_neg(self, x: int) -> int:
        """Elements meeting every member of x at bottom; full set when x is empty."""
        return self._down[self.top ^ self.join_of(x)]

    # -- principal ideals

    def principal_ideal(self, a: int) -> int:
        return self._down[a]

    def join_of(self, x: int) -> int:
        """Join of the members; by convention 0 (bottom) for the empty set."""
        out = 0
        for mask, s in self._atoms:
            if x & mask:
                out |= s
        return out

    def is_principal_ideal(self, x: int) -> bool:
        if x == 0:
            return False
        j = self.join_of(x)
        return x >> j & 1 == 1 and self.down_closure(x) == x

    # -- text form: element bit-strings, most significant atom first

    def format_element(self, a: int) -> str:
        return format(a, f"0{self.n}b") if self.n else ""

    def parse_element(self, text: str) -> int:
        if len(text) != self.n or (self.n and not set(text) <= {"0", "1"}):
            raise ValueError(f"element of a {self.n}-atom algebra needs {self.n} bits, got {text!r}")
        return int(text, 2) if text else 0

    def format_denotation(self, bits: int) -> list[str]:
        return [self.format_element(a) for a in iter_bits(bits)]

    def parse_denotation(self, texts: list[str]) -> int:
        bits = 0
        for t in texts:
            bits |= 1 << self.parse_element(t)
        return bits


class Denotation:
    """A member of the powerset of the algebra, as an immutable value."""

    __slots__ = ("algebra", "bits")

    def __init__(self, algebra: Algebra, bits: int):
        if not 0 <= bits <= algebra.full:
            raise ValueError("denotation bits out of range for the algebra")
        self.algebra = algebra
        self.bits = bits

    __eq__ = same_fields

    def __contains__(self, element: int) -> bool:
        return self.bits >> element & 1 == 1

    def is_principal_ideal(self) -> bool:
        return self.algebra.is_principal_ideal(self.bits)

    def join_of(self) -> int:
        return self.algebra.join_of(self.bits)

    def to_strings(self) -> list[str]:
        return self.algebra.format_denotation(self.bits)

    @classmethod
    def from_strings(cls, algebra: Algebra, texts: list[str]) -> "Denotation":
        return cls(algebra, algebra.parse_denotation(texts))


def ext_bot(algebra: Algebra) -> Denotation:
    return Denotation(algebra, 0)


def int_bot(algebra: Algebra) -> Denotation:
    return Denotation(algebra, algebra.int_bot())


def full_set(algebra: Algebra) -> Denotation:
    return Denotation(algebra, algebra.full)


def principal_ideal(algebra: Algebra, element: int) -> Denotation:
    return Denotation(algebra, algebra.principal_ideal(element))
