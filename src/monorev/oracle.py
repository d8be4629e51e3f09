"""Brute-force ground truth for finite presentations.

Everything here works by exhaustive rewriting, so it is slow, bounded and
independent of the reversing machinery; the point is to have a second
opinion that cannot share bugs with it.  Presentations with Z-indexed
families must be windowed (see instantiate_window) before use.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass

from .presentation import Presentation, materialize_relations
from .words import Generator, Letter, Word


class OracleCapError(RuntimeError):
    """The exploration budget ran out before an answer was reached."""


def _require_finite(p: Presentation) -> None:
    if p.alphabet.integer_families:
        raise ValueError(
            f"oracle needs a finite presentation; window {p.name} first"
        )


def _oriented(p: Presentation):
    out = []
    for inst in materialize_relations(p):
        out.append((inst.lhs.letters, inst.rhs.letters))
        out.append((inst.rhs.letters, inst.lhs.letters))
    return out


def _rewrites(letters, oriented):
    for lhs, rhs in oriented:
        span = len(lhs)
        for i in range(len(letters) - span + 1):
            if letters[i:i + span] == lhs:
                yield letters[:i] + rhs + letters[i + span:]


def _closure(p: Presentation, word: Word, cap: int,
             target: tuple[Letter, ...] | None = None) -> set[tuple[Letter, ...]]:
    """Breadth-first closure of a word under the relations, as letter tuples.

    Stops as soon as target is reached, and then includes it.  Raises
    OracleCapError when a new word would push the closure past cap.
    """
    oriented = _oriented(p)
    seen = {word.letters}
    queue = deque(seen)
    while queue:
        for nxt in _rewrites(queue.popleft(), oriented):
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
    return frozenset(Word(l) for l in _closure(p, word, cap))


def monoid_equal(p: Presentation, u: Word, v: Word, cap: int = 1_000_000) -> bool:
    """Exhaustive equality test, with a length gate for homogeneous input."""
    _require_finite(p)
    if not (u.is_positive() and v.is_positive()):
        raise ValueError("oracle handles positive words only")
    if u == v:
        return True
    if p.homogeneous and len(u) != len(v):
        return False
    return v.letters in _closure(p, u, cap, v.letters)


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
    gens = p.alphabet.finite_generators()
    total = sum(len(gens) ** L for L in range(1, max_len + 2))
    if total > cap:
        raise OracleCapError(f"{total} words exceed cap {cap}")
    universe: list[tuple[Letter, ...]] = [
        tuple(Letter(g) for g in combo)
        for L in range(1, max_len + 2)
        for combo in itertools.product(gens, repeat=L)
    ]
    parent = {w: w for w in universe}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    oriented = _oriented(p)
    for w in universe:
        for nxt in _rewrites(w, oriented):
            union(w, nxt)
    by_class: dict[tuple[Letter, ...], list[tuple[Letter, ...]]] = {}
    witnesses: list[ScanWitness] = []
    for w in universe:
        if len(w) >= 2:
            by_class.setdefault(find(w), []).append(w)
    for root in sorted(by_class, key=lambda r: (len(r), r)):
        members = sorted(by_class[root])
        for side in ("left", "right"):
            groups: dict = {}
            for w in members:
                edge = w[0] if side == "left" else w[-1]
                rest = w[1:] if side == "left" else w[:-1]
                groups.setdefault(edge, []).append(rest)
            for edge in sorted(groups, key=lambda l: l.gen):
                rests = sorted(groups[edge])
                roots_seen: dict[tuple, tuple] = {}
                for rest in rests:
                    roots_seen.setdefault(find(rest), rest)
                if len(roots_seen) > 1:
                    reps = sorted(roots_seen.values())
                    witnesses.append(ScanWitness(side, edge.gen,
                                                 Word(reps[0]), Word(reps[1])))
    words_checked = sum(len(gens) ** L for L in range(2, max_len + 2))
    return ScanReport(p.name, p.window, max_len, words_checked, tuple(witnesses))
