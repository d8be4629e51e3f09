"""Brute-force ground truth for finite presentations.

Everything here works by exhaustive rewriting, so it is bounded and
independent of the reversing machinery; the point is to have a second
opinion that cannot share bugs with it.  Nothing here calls reversing or
reads the complement cache: the only input is the list of relations that
materialize_relations enumerates.  Presentations with Z-indexed families
must be windowed (see instantiate_window) before use: a window keeps its
schemas, with finite domains.  A word with a letter outside the window is
refused with UnknownGeneratorError instead of being treated as a word no
relation touches.

The rewriting runs on small integers.  Each generator is coded as its
position in the sorted list of finite generators, so coded words sort like
the letter tuples they stand for.  A rewrite table maps every coded relation
side to the sides it may be replaced by, so the neighbours of a word come
from one dictionary lookup per position and side length.  The table is
built once per presentation, on the first oracle call, and kept on it.
Words are decoded back to Word and Letter values only in what the public
functions return.

The cancellation scan goes one step further and numbers its words: a word
of length L is the base-n number of its codes, and each length has its own
union-find list, since a homogeneous relation never joins two lengths.  Its
unions are generated from the relations, in the order a scan over the
words in turn would meet them, so every class gets the root that scan
gives it.  Witnesses are found by comparing distinct classes with distinct
rest classes: x ~ y gives a x ~ a y and x a ~ y a by the same rewrites
shifted one position, so the class of a word is a function of the class of
its rest, and every side and edge letter has as many (class, class of the
rest) pairs as the words one letter shorter have classes.  Only a side and
edge letter with fewer classes than that is walked.
"""

from __future__ import annotations

import json
from collections import deque
from typing import NamedTuple

from .presentation import CapError, Presentation, materialize_relations
from .words import Generator, Letter, Word

Coded = tuple[int, ...]


class OracleCapError(CapError):
    """The exploration budget ran out before an answer was reached."""


def _require_finite(p: Presentation) -> None:
    if p.alphabet.integer_families:
        raise ValueError(
            f"oracle needs a finite presentation; window {p.name} first"
        )


class _Rewriter:
    """The relations of a finite presentation as a table over coded words.

    Every relation is used in both orientations, numbered in the order of
    materialize_relations: lhs -> rhs, then rhs -> lhs.  neighbours lists
    the rewrites of a word by orientation number first and position second.
    """

    def __init__(self, p: Presentation) -> None:
        self.alphabet = p.alphabet
        gens = p.alphabet.finite_generators()
        self.letters = [Letter(g) for g in gens]
        self.codes = {g: i for i, g in enumerate(gens)}
        self.table: dict[Coded, list[tuple[int, Coded]]] = {}
        order = 0
        for inst in materialize_relations(p):
            lhs, rhs = self.encode(inst.lhs), self.encode(inst.rhs)
            for a, b in ((lhs, rhs), (rhs, lhs)):
                self.table.setdefault(a, []).append((order, b))
                order += 1
        self.lengths = sorted({len(side) for side in self.table})

    def encode(self, word: Word) -> Coded:
        codes = self.codes
        out = []
        for letter in word:
            code = codes.get(letter.gen)
            if code is None:
                self.alphabet.require(letter.gen)
            out.append(code)
        return tuple(out)

    def decode(self, coded: Coded) -> Word:
        return Word(map(self.letters.__getitem__, coded))

    def neighbours(self, w: Coded) -> list[Coded]:
        table, size = self.table, len(w)
        hits = []
        for span in self.lengths:
            for i in range(size - span + 1):
                for order, rhs in table.get(w[i:i + span], ()):
                    hits.append((order, i, span, rhs))
        if len(hits) > 1:
            hits.sort()
        return [w[:i] + rhs + w[i + span:] for _, i, span, rhs in hits]


def _closure(rw: _Rewriter, word: Word, cap: int,
             target: Coded | None = None) -> set[Coded]:
    """Breadth-first closure of a word under the relations, as coded words.

    Stops as soon as target is reached, and then includes it.  Raises
    OracleCapError when a new word would push the closure past cap.
    """
    seen = {rw.encode(word)}
    queue = deque(seen)
    while queue:
        for nxt in rw.neighbours(queue.popleft()):
            if nxt == target:
                seen.add(nxt)
                return seen
            if nxt not in seen:
                if len(seen) >= cap:
                    raise OracleCapError(f"class of {word} exceeded cap {cap}")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _table(p: Presentation) -> _Rewriter:
    """The presentation's rewrite table, built on first use and kept on p."""
    if p._rewriter is None:
        p._rewriter = _Rewriter(p)
    return p._rewriter


def equivalence_class(p: Presentation, word: Word, cap: int = 1_000_000) -> frozenset[Word]:
    """All positive words equal to the given one, by closure under rewriting."""
    _require_finite(p)
    if not word.is_positive():
        raise ValueError("oracle handles positive words only")
    rw = _table(p)
    return frozenset(rw.decode(w) for w in _closure(rw, word, cap))


def monoid_equal(p: Presentation, u: Word, v: Word, cap: int = 1_000_000) -> bool:
    """Exhaustive equality test, with a length gate for homogeneous input."""
    _require_finite(p)
    if not (u.is_positive() and v.is_positive()):
        raise ValueError("oracle handles positive words only")
    rw = _table(p)
    start, target = rw.encode(u), rw.encode(v)  # refuses letters outside the window
    if start == target:
        return True
    if p.homogeneous and len(start) != len(target):
        return False
    return target in _closure(rw, u, cap, target)


class ScanWitness(NamedTuple):
    side: str  # "left" | "right"
    letter: Generator
    first: Word
    second: Word


class ScanReport(NamedTuple):
    presentation: str
    window: int | None
    max_len: int
    words_checked: int
    witnesses: tuple[ScanWitness, ...]

    @property
    def cancellative(self) -> bool:
        return not self.witnesses

    def to_json(self) -> str:
        data = {
            "presentation": self.presentation,
            "window": self.window,
            "max_len": self.max_len,
            "words_checked": self.words_checked,
            "verdict": "cancellative-within-bound" if self.cancellative else "violation",
            "counterexamples": [
                {"side": w.side, "letter": str(w.letter),
                 "first": str(w.first), "second": str(w.second)}
                for w in self.witnesses
            ],
        }
        return json.dumps(data, indent=2)


def cancellation_scan(p: Presentation, max_len: int = 3, cap: int = 500_000) -> ScanReport:
    """Search for cancellativity violations among short words.

    Partitions all words of length up to max_len + 1 into equivalence
    classes, then looks inside each class for two members with the same
    first (resp. last) letter whose remainders are inequivalent; such a pair
    witnesses a x = a y with x != y.  One witness is reported per class and
    letter, classes in the order of their union-find roots.  Homogeneity is
    required so classes stay within one length.

    The scan runs one length at a time on numbered words: a word of length
    L is the base-n number of its letter codes, so numbers sort like the
    words.  Its unions are generated rather than searched for.  A relation
    orientation whose target side numbers above its source joins every word
    holding the source to the word with the target in its place; the reverse
    orientation's union would always find the two joined already.  Each
    union is packed into one integer (word, orientation, position) and the
    integers are sorted, so the unions run in the order a scan over the
    words in turn meets them, and every class gets the root that scan gives
    it.  The class of a word is a function of the class of its rest, so a
    side and edge letter has as many distinct (class, class of the rest)
    pairs as the shorter words have classes.  A class has a witness there
    only where the distinct classes are fewer, and only there are the rests
    walked in increasing order: the first rest seen is the witness's first
    word, the first rest seen in another class its second.
    """
    _require_finite(p)
    if not p.homogeneous:
        raise ValueError("cancellation scan requires a homogeneous presentation")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = len(p.alphabet.finite_generators())
    total = 0  # words of length 1 to max_len + 1; the scan checks all but the n letters
    for L in range(1, max_len + 2):
        total += n ** L
        if total > cap:  # stops before the powers grow past what a cap could be
            raise OracleCapError(f"words of length up to {L} exceed cap {cap}")
    rw = _table(p)
    joins = sorted((order, _number(src, n), _number(tgt, n), len(src))
                   for src, targets in rw.table.items()
                   for order, tgt in targets if tgt > src)
    witnesses: list[ScanWitness] = []
    rests: list[int] = []  # class roots of the words one letter shorter
    for L in range(1, max_len + 2):
        roots = _class_roots(joins, n, L)
        if L >= 2:
            witnesses.extend(_scan_witnesses(rw, roots, rests, n, L))
        rests = roots
    return ScanReport(p.name, p.window, max_len, total - n, tuple(witnesses))


def _number(coded: Coded, n: int) -> int:
    value = 0
    for c in coded:
        value = value * n + c
    return value


def _digits(number: int, n: int, length: int) -> Coded:
    out = [0] * length
    for i in range(length - 1, -1, -1):
        number, out[i] = divmod(number, n)
    return tuple(out)


def _class_roots(joins: list[tuple[int, int, int, int]], n: int, L: int) -> list[int]:
    """The union-find root of every word of length L, by word number.

    joins lists (orientation number, source number, target number, span)
    for the orientations whose target numbers above their source.  A union
    is packed as (word * orientations + orientation) * L + position, so the
    sorted keys run word by word, and within a word by orientation, then by
    position.
    """
    radix = len(joins) * L  # (orientation, position) pairs per word
    shift = [0] * radix  # what a union adds to its word's number
    keys: list[int] = []
    for k, (_, src, tgt, span) in enumerate(joins):
        for i in range(L - span + 1):
            place = n ** (L - i - span)  # place value of the side's last letter
            j = k * L + i
            shift[j] = (tgt - src) * place
            step = n ** (L - i) * radix  # one more in the prefix
            start = src * place * radix + j
            suffixes = range(0, place * radix, radix)
            keys.extend([head + tail for head in range(start, start + n ** i * step, step)
                         for tail in suffixes])
    keys.sort()
    parent = list(range(n ** L))
    for key in keys:
        a, j = divmod(key, radix)
        b = a + shift[j]
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]  # path halving
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        if a != b:
            parent[a] = b
    del keys
    for w in range(len(parent)):
        a = w
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        parent[w] = a
    return parent


def _scan_witnesses(rw: _Rewriter, roots: list[int], rests: list[int],
                    n: int, L: int) -> list[ScanWitness]:
    """The witnesses among words of length L, by class root, side and edge letter."""
    width = len(rests)
    distinct = len(set(rests))  # (class, class of the rest) pairs at every side and edge
    found = []
    for side in (0, 1):
        for edge in range(n):
            classes = roots[edge * width:(edge + 1) * width] if side == 0 else roots[edge::n]
            if len(set(classes)) == distinct:
                continue  # every class has one class of rests at this edge
            first: dict[int, tuple[int, int]] = {}
            second: dict[int, int] = {}
            for rest, (c, rc) in enumerate(zip(classes, rests)):
                seen = first.get(c)
                if seen is None:
                    first[c] = (rest, rc)
                elif seen[1] != rc and c not in second:
                    second[c] = rest
            found.extend((c, side, edge, first[c][0], other) for c, other in second.items())
    found.sort()
    return [ScanWitness(("left", "right")[side], rw.letters[edge].gen,
                        rw.decode(_digits(a, n, L - 1)), rw.decode(_digits(b, n, L - 1)))
            for _, side, edge, a, b in found]
