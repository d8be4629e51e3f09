"""Brute-force ground truth for finite presentations.

Everything here works by exhaustive rewriting, so it is bounded and
independent of the reversing machinery; the point is to have a second
opinion that cannot share bugs with it.  Nothing here calls reversing or
reads the complement cache: the only input is the list of relations.
Presentations with Z-indexed families must be windowed (see
instantiate_window) before use, and a word with a letter outside the window
is refused with UnknownGeneratorError instead of being treated as a word no
relation touches.

The rewriting runs on small integers.  Each generator is coded as its
position in the sorted list of finite generators, so coded words sort like
the letter tuples they stand for.  A rewrite table maps every coded relation
side to the sides it may be replaced by, so the neighbours of a word come
from one dictionary lookup per position and side length.  Words are decoded
back to Word and Letter values only in what the public functions return.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass

from .presentation import Presentation, materialize_relations
from .words import Generator, Letter, Word

Coded = tuple[int, ...]


class OracleCapError(RuntimeError):
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
        for letter in word.letters:
            code = codes.get(letter.gen)
            if code is None:
                self.alphabet.require(letter.gen)
            out.append(code)
        return tuple(out)

    def decode(self, coded: Coded) -> Word:
        letters = self.letters
        return Word(tuple(letters[c] for c in coded))

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


def equivalence_class(p: Presentation, word: Word, cap: int = 1_000_000) -> frozenset[Word]:
    """All positive words equal to the given one, by closure under rewriting."""
    _require_finite(p)
    if not word.is_positive():
        raise ValueError("oracle handles positive words only")
    rw = _Rewriter(p)
    return frozenset(rw.decode(w) for w in _closure(rw, word, cap))


def monoid_equal(p: Presentation, u: Word, v: Word, cap: int = 1_000_000) -> bool:
    """Exhaustive equality test, with a length gate for homogeneous input."""
    _require_finite(p)
    if not (u.is_positive() and v.is_positive()):
        raise ValueError("oracle handles positive words only")
    rw = _Rewriter(p)
    start, target = rw.encode(u), rw.encode(v)  # refuses letters outside the window
    if start == target:
        return True
    if p.homogeneous and len(start) != len(target):
        return False
    return target in _closure(rw, u, cap, target)


@dataclass(frozen=True)
class ScanWitness:
    side: str  # "left" | "right"
    letter: Generator
    first: Word
    second: Word


@dataclass(frozen=True)
class ScanReport:
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
    letter.  Homogeneity is required so classes stay within one length.
    """
    _require_finite(p)
    if not p.homogeneous:
        raise ValueError("cancellation scan requires a homogeneous presentation")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = len(p.alphabet.finite_generators())
    total = sum(n ** L for L in range(1, max_len + 2))
    if total > cap:
        raise OracleCapError(f"{total} words exceed cap {cap}")
    rw = _Rewriter(p)
    universe: list[Coded] = [
        combo
        for L in range(1, max_len + 2)
        for combo in itertools.product(range(n), repeat=L)
    ]
    parent = {w: w for w in universe}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for w in universe:
        for nxt in rw.neighbours(w):
            ra, rb = find(w), find(nxt)
            if ra != rb:
                parent[ra] = rb
    by_class: dict[Coded, list[Coded]] = {}
    witnesses: list[ScanWitness] = []
    for w in universe:
        if len(w) >= 2:
            by_class.setdefault(find(w), []).append(w)
    for root in sorted(by_class, key=lambda r: (len(r), r)):
        if len(by_class[root]) < 2:
            continue  # one member has one remainder per edge letter
        members = sorted(by_class[root])
        for side in ("left", "right"):
            groups: dict[int, list[Coded]] = {}
            for w in members:
                edge = w[0] if side == "left" else w[-1]
                rest = w[1:] if side == "left" else w[:-1]
                groups.setdefault(edge, []).append(rest)
            for edge in sorted(groups):
                roots_seen: dict[Coded, Coded] = {}
                for rest in sorted(groups[edge]):
                    roots_seen.setdefault(find(rest), rest)
                if len(roots_seen) > 1:
                    reps = sorted(roots_seen.values())
                    witnesses.append(ScanWitness(side, rw.letters[edge].gen,
                                                 rw.decode(reps[0]), rw.decode(reps[1])))
    words_checked = sum(n ** L for L in range(2, max_len + 2))
    return ScanReport(p.name, p.window, max_len, words_checked, tuple(witnesses))
