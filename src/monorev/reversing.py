"""Dehornoy-style word reversing.

Right reversing rewrites x^-1 y (x, y generators) into v' u'^-1 where
x v' = y u' is a relation, and deletes x^-1 x outright.  Left reversing is
the mirror image: x y^-1 becomes v'^-1 u' where v' x = u' y, and x x^-1 is
deleted.  One kernel serves both sides: the side fixes, once per call, the
sign pair that makes a redex and the complement lookup.  The kernel deletes
a redex on one generator itself and looks up only pairs x != y, for the
relation and the letters to push (presentation.ComplementPair).  It always
rewrites the leftmost redex, so traces are deterministic and reproduce the
usual reversing diagrams cell by cell.  A single step is a call with fuel=1.

The kernel is a zipper over two stacks: the redex-free prefix read so far,
and the unread rest with its next letter on top.  The leftmost redex, when
there is one, is always made of the two tops.  A step pops both and pushes
the relation's replacement letters onto the unread stack; otherwise the
unread top moves across.  Each step therefore reads only the two tops.

A reversal ends in one of five ways: the word becomes empty, it reaches
the sorted terminal shape, it gets stuck on a pair with no complement, it
is proved to cycle, or the step budget (fuel) runs out first.

The cycle proof.  The kernel saves both stacks after steps 1, 2, 4, 8 and
so on.  From a checkpoint on it tracks how deep into each stack the run
has read; the letters below those low-water marks have not influenced it.
If the prefix stack was seen empty, its exact length mattered as well.
Suppose that after a later step each stack holds at least as many letters
as were read from it since the checkpoint, and that its top letters equal
the letters read, translated by one shift k of the integer-family indices.
Then the run repeats the same moves from there on, translated by k each
time, and never ends: the kernel is deterministic, and the complements of
translated pairs are the translated complements.  That second fact needs
translation invariance, so a cycle with k != 0 is only accepted when every
integer-family letter of every schema carries a parameter ranging over Z
(Presentation.translation_invariant).  Detection does not depend on fuel;
fuel only ends reversals the proof has not caught.  Most comparisons fail
on their first letters, so the kernel compares those before it slices the
two regions for `_translation`: the saved letter at the prefix's
low-water mark (at the unread stack's, when no saved prefix letter is in
the region) and the letter in its place now.  Unless the two are equal,
or have one sign and one integer family, no shift turns one into the
other, and the regions are not sliced.

The kernel keeps the lengths it compares in locals rather than asking the
lists each step: the saved stacks' lengths (kept_done, kept_todo), set at
a checkpoint, the prefix length once the redex is popped (pos, also the
redex's position) and the unread length once its replacement is pushed
(rest).  The moves between rewrites change both stacks, so the lengths
are taken once per rewrite, after the pops.

The zipper loop is `_run`, which returns only the outcome and both stacks;
the cube condition runs it so.  `_reverse` has it record a small step
record per rewrite and builds the trace.  Intermediate words are replayed
on demand by words(): diverging reversals produce words that grow without
bound, so materializing every intermediate would cost quadratic memory.

Reversing grids, the geometric view of a trace, live in `monorev.grid`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence, Union

from .presentation import (
    DEFAULT_FUEL,
    Presentation,
    RelationInstance,
    left_complement,
    right_complement,
    splice,
)
from .words import Generator, Letter, Word


class ReversalStep(NamedTuple):
    """One rewrite at position: a relation step, or a cancellation when rule is None."""

    position: int
    rule: RelationInstance | None


class Empty(NamedTuple):
    """The word reversed to epsilon."""


class Terminal(NamedTuple):
    """Reversal finished on a non-empty sorted word.

    Right: final word is v_prime * u_prime^-1.
    Left:  final word is u_prime^-1 * v_prime.
    """

    v_prime: Word
    u_prime: Word


class Stuck(NamedTuple):
    position: int
    pair: tuple[Generator, Generator]


class Cycles(NamedTuple):
    """The reversal runs forever, proved after `step` steps.

    The last `period` steps repeat forever, each round translated by `shift`
    on the integer-family indices.
    """

    step: int
    period: int
    shift: int


class Diverged(NamedTuple):
    fuel: int


Outcome = Union[Empty, Terminal, Stuck, Cycles, Diverged]


class ReversalTrace(NamedTuple):
    side: str
    start: Word
    steps: tuple[ReversalStep, ...]
    outcome: Outcome
    final: Word

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def reached_terminal(self) -> bool:
        return isinstance(self.outcome, (Empty, Terminal))

    def words(self) -> Iterator[Word]:
        """Replay the trace, yielding the start and every intermediate."""
        letters = list(self.start)
        yield self.start
        for s in self.steps:
            if s.rule is None:
                del letters[s.position:s.position + 2]
            else:
                letters[s.position:s.position + 2] = reversed(splice(s.rule, self.side))
            yield Word(letters)

    def touched_indices(self, family: str) -> tuple[int, int] | None:
        """Range of family indices appearing anywhere along the trace.

        Every intermediate letter comes from the start word or from a side
        of an applied relation, so scanning those is enough.
        """
        lo: int | None = None
        hi: int | None = None

        def visit(letters) -> None:
            nonlocal lo, hi
            for letter in letters:
                if letter.gen.family == family:
                    i = letter.gen.index
                    lo = i if lo is None else min(lo, i)
                    hi = i if hi is None else max(hi, i)

        visit(self.start)
        for s in self.steps:
            if s.rule is not None:
                visit(s.rule.lhs)
                visit(s.rule.rhs)
        if lo is None or hi is None:
            return None
        return lo, hi


def _classify(word: Word, side: str) -> Outcome:
    """Empty, or the Terminal split of a word without redex on the given side."""
    if not word:
        return Empty()
    lead = 1 if side == "right" else -1
    split = next((i for i, l in enumerate(word) if l.sign != lead), len(word))
    head, tail = Word(word[:split]), Word(word[split:])
    if side == "right":
        return Terminal(head, tail.inverse())
    return Terminal(tail, head.inverse())


def _translation(now: list[Letter], then: list[Letter], families: frozenset[str]) -> int | None:
    """The shift k of the integer-family indices that turns `then` into `now`, or None."""
    k = None
    for a, b in zip(now, then):
        ga, gb = a.gen, b.gen
        if a.sign != b.sign or ga.family != gb.family:
            return None
        d = ga.index - gb.index
        if ga.family in families:
            if k is None:
                k = d
            elif d != k:
                return None
        elif d:
            return None
    return k or 0


def _run(p: Presentation, word: Sequence[Letter], fuel: int, side: str,
         steps: list[ReversalStep] | None) -> tuple[Outcome | None, list[Letter], list[Letter]]:
    """The reversing kernel for both sides; see the module docstring.

    `word` is any sequence of letters, such as a Word or the plain tuple
    that the cube condition builds with `+`.  Returns the outcome (None
    when no redex is left), the redex-free prefix `done` and the unread
    rest `todo`, first letter on top.  Appends to `steps` unless it is
    None.  Complements are looked up through the module attributes
    right_complement and left_complement, once per call, so a wrapper
    installed there sees every lookup; a pair x == y cancels without one.
    """
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    if side == "right":
        first, second, complement = -1, 1, right_complement
    else:
        first, second, complement = 1, -1, left_complement
    families = p.alphabet.integer_families
    new = tuple.__new__
    done: list[Letter] = []
    todo = list(word)
    todo.reverse()
    n = 0
    # The last checkpoint (step `since`, 0 before the first), its stacks and
    # their lengths; below low_done and low_todo nothing has been read since.
    # exact records that `done` was seen empty.
    since, mark = 0, 1
    saved_done: list[Letter] = []
    saved_todo: list[Letter] = []
    kept_done = kept_todo = low_done = low_todo = 0
    exact = False
    while True:
        while todo:
            if todo[-1].sign == second and done and done[-1].sign == first:
                break
            done.append(todo.pop())
        else:
            return None, done, todo
        if n >= fuel:
            return Diverged(fuel), done, todo
        a, b = done.pop(), todo.pop()
        x, y = a.gen, b.gen
        # the redex's position, which is the prefix length from here on, and
        # the unread length, first without the redex and then after the push
        pos, rest = len(done), len(todo)
        if rest < low_todo:
            low_todo = rest
        if x != y:
            comp = complement(p, x, y)
            if comp is None:
                done.append(a)
                todo.append(b)
                return Stuck(pos, (x, y)), done, todo
            todo.extend(comp.push)
            rest = len(todo)
            if steps is not None:
                steps.append(new(ReversalStep, (pos, comp.rule)))
        elif steps is not None:  # x^-1 x (right) or x x^-1 (left) cancels with no lookup
            steps.append(new(ReversalStep, (pos, None)))
        n += 1
        # lengths first, then first letters: the slices below are only worth
        # building when the stacks have regrown over everything read since
        # the checkpoint and the regions' first letters could be translates
        if (since and rest >= kept_todo and pos >= kept_done
                and not (exact and pos != kept_done)):
            if low_done < kept_done:
                now, then = done[pos - kept_done + low_done], saved_done[low_done]
            else:  # the unread region, never empty: each step popped below its mark
                now, then = todo[rest - kept_todo + low_todo], saved_todo[low_todo]
            if now == then or (
                    now.sign == then.sign and now.gen.family == then.gen.family
                    and now.gen.family in families):
                k = _translation(
                    done[pos - kept_done + low_done:] + todo[rest - kept_todo + low_todo:],
                    saved_done[low_done:] + saved_todo[low_todo:], families)
                if k is not None and (k == 0 or p.translation_invariant()):
                    return Cycles(n, n - since, k), done, todo
        if n == mark:
            since, mark = n, 2 * n
            saved_done, saved_todo = done[:], todo[:]
            kept_done, kept_todo = pos, rest
            low_done, low_todo, exact = pos - 1 if pos else 0, rest, not pos
        elif pos <= low_done:
            # the next move reads the new top of done, or sees it empty
            low_done = pos - 1 if pos else 0
            exact = exact or not pos


def _reverse(p: Presentation, word: Word, fuel: int, side: str) -> ReversalTrace:
    """A full trace of the kernel's run: step records, outcome and final word."""
    steps: list[ReversalStep] = []
    outcome, done, todo = _run(p, word, fuel, side, steps)
    final = Word(done + todo[::-1])
    if outcome is None:
        outcome = _classify(final, side)
    return ReversalTrace(side, word, tuple(steps), outcome, final)


def right_reverse(p: Presentation, word: Word, fuel: int = DEFAULT_FUEL) -> ReversalTrace:
    """Right-reverse until terminal shape, stuck pair, proved cycle, or fuel exhaustion.

    fuel=1 performs a single step.  May raise AmbiguousComplementError when
    the leftmost redex pair is related by more than one relation.
    """
    return _reverse(p, word, fuel, "right")


def left_reverse(p: Presentation, word: Word, fuel: int = DEFAULT_FUEL) -> ReversalTrace:
    """Mirror of right_reverse: rewrites x y^-1 and deletes x x^-1."""
    return _reverse(p, word, fuel, "left")


def reverse_quotient(p: Presentation, u: Word, v: Word, side: str = "right",
                     fuel: int = DEFAULT_FUEL) -> ReversalTrace:
    """Reverse u^-1 v (right) or u v^-1 (left) for positive words u, v.

    An Empty outcome certifies that u and v represent the same element.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if not (u.is_positive() and v.is_positive()):
        raise ValueError("quotient reversal expects positive words")
    if side == "right":
        return right_reverse(p, u.inverse() * v, fuel)
    return left_reverse(p, u * v.inverse(), fuel)
