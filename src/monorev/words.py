"""Signed words over alphabets mixing finite and integer-indexed generator families.

A generator is a (family, index) pair such as s3 or t(-1), a letter a
generator with a sign, and a word the tuple of its letters.  All three are
immutable tuples, and each hashes, compares and orders as its plain tuple.
So is every other immutable value record of the package, a named tuple
like Generator: relation instances and schemas, reversal outcomes and
traces, cube verdicts, derivation steps, grid parts, scan reports.  The
alphabet is a named tuple too, but its finite field is a dict, so it
compares equal as its plain tuple and cannot be hashed.  Only
completeness.Certificate stays a dataclass, because it is
copied with dataclasses.replace; presentation.Presentation, which holds
mutable caches, is a plain class with __slots__.

The token grammar, used by both the parser and the formatter:

    word   := (letter SP)* letter | ""
    letter := atom ("^-1")?
    atom   := family "(" int ")" | family digit
    family := [A-Za-z]+

A presentation file reads its generators, families and relation letters
with this grammar too (see presentation.load_presentation).
"""

from __future__ import annotations

import re
from typing import NamedTuple

# Families that conventionally range over all integers are always written in
# the parenthesized form, even for single-digit indices.
PAREN_FAMILIES = frozenset({"t"})


class WordSyntaxError(ValueError):
    """Raised for tokens that do not match the letter grammar."""


class UnknownGeneratorError(ValueError):
    """Raised for letters whose generator is not in the alphabet."""


class Generator(NamedTuple):
    family: str
    index: int

    def __str__(self) -> str:
        if self.family not in PAREN_FAMILIES and 0 <= self.index <= 9:
            return f"{self.family}{self.index}"
        return f"{self.family}({self.index})"


class _LetterFields(NamedTuple):
    gen: Generator
    sign: int = 1


class Letter(_LetterFields):
    """A generator with a sign, +1 or -1.

    Generators and letters are named tuples: reversing hashes and compares
    them at every step, and for tuples that runs in C.  Each hashes as its
    field tuple and orders field by field.
    """

    __slots__ = ()

    def __new__(cls, gen: Generator, sign: int = 1) -> "Letter":
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        return tuple.__new__(cls, (gen, sign))

    @classmethod
    def _make(cls, iterable) -> "Letter":  # _replace goes through here too
        return cls(*iterable)

    def inverse(self) -> Letter:
        return tuple.__new__(Letter, (self.gen, -self.sign))

    def __str__(self) -> str:
        return str(self.gen) + ("^-1" if self.sign < 0 else "")


class Word(tuple):
    """The tuple of a word's letters; it equals, hashes and orders as that tuple.

    Only `*` and the methods below build words.  A slice, like tuple `+`,
    gives a plain tuple, which the reversing kernel reads like any letter
    sequence; wrap it in Word to print or invert it.  Indexing, slicing and
    reversed() run tuple's own C code.
    """

    __slots__ = ()

    def __mul__(self, other: "Word") -> "Word":
        return Word(self + other)

    def __repr__(self) -> str:
        return f"Word({tuple.__repr__(self)})"

    def __str__(self) -> str:
        return " ".join(map(str, self))

    def is_positive(self) -> bool:
        return all(l.sign > 0 for l in self)

    def inverse(self) -> "Word":
        return Word(map(Letter.inverse, self[::-1]))

    def reversed(self) -> "Word":
        """Letters in the opposite order, signs untouched (the mirror word)."""
        return Word(self[::-1])


EPSILON = Word()


class Alphabet(NamedTuple):
    """Generator inventory of a presentation.

    finite maps a family name to the tuple of admissible indices;
    integer_families names the families indexed over all of Z.
    """

    finite: dict[str, tuple[int, ...]]
    integer_families: frozenset[str] = frozenset()

    def __contains__(self, gen: Generator) -> bool:
        if gen.family in self.integer_families:
            return True
        return gen.index in self.finite.get(gen.family, ())

    def finite_generators(self) -> list[Generator]:
        return [
            Generator(fam, i)
            for fam in sorted(self.finite)
            for i in sorted(self.finite[fam])
        ]

    def require(self, gen: Generator) -> None:
        if gen.family not in self.finite and gen.family not in self.integer_families:
            raise UnknownGeneratorError(f"unknown generator family {gen.family!r}")
        if gen not in self:
            raise UnknownGeneratorError(
                f"index {gen.index} outside the range of family {gen.family!r}"
            )


_FAMILY = r"[A-Za-z]+"
_LETTER_RE = re.compile(rf"({_FAMILY})(?:\((-?\d+)\)|(\d))(\^-1)?\Z")


def parse_letter(token: str, alphabet: Alphabet) -> Letter:
    m = _LETTER_RE.match(token)
    if m is None:
        raise WordSyntaxError(f"malformed letter token {token!r}")
    family, paren_index, digit_index, inv = m.groups()
    index = int(paren_index if paren_index is not None else digit_index)
    gen = Generator(family, index)
    alphabet.require(gen)
    return Letter(gen, -1 if inv else 1)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    return Word([parse_letter(tok, alphabet) for tok in text.split()])


def free_reduce(w: Word) -> Word:
    """Delete adjacent mutually inverse letters until none remain.

    Single left-to-right stack scan; the result is independent of deletion
    order, so this is the canonical free reduction.
    """
    stack: list[Letter] = []
    for letter in w:
        if stack and stack[-1].gen == letter.gen and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return Word(stack)


def shift_word(w: Word, k: int, families: frozenset[str]) -> Word:
    """Translate every index of the given families by k, fixing other letters."""
    return Word(
        Letter(Generator(l.gen.family, l.gen.index + k), l.sign)
        if l.gen.family in families
        else l
        for l in w
    )
