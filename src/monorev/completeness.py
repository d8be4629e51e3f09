"""Cube conditions and cancellativity certificates.

The right cube condition for a triple (u, v, w) reverses u^-1 w w^-1 v; on a
terminal outcome (v', u') it then reverses (u v')^-1 (v u') and passes only
if that second word vanishes.  The left condition mirrors this:
v w^-1 w u^-1 first, then (u' v)(v' u)^-1.

For a homogeneous presentation that is complemented on a side, the cube
condition on all generator triples makes reversing on that side a complete
equality test and yields cancellativity on the matching side.  With a
Z-indexed family the triple set is infinite, so certificates are bounded:
when the relations are translation-invariant in the family index (checked,
and refused otherwise), every triple can be normalised to smallest family
index 0, and a bound B covers all normalised triples with indices up to 2B.

A triple that gets stuck in the first reversal counts as a failure (the
hypothesis word itself has no common multiple witness).  A second reversal
that is proved to cycle fails too, since it can never reach the empty word.
A first reversal that cycles, and fuel exhaustion anywhere, make the
certificate undetermined rather than falsified.  The check keeps only its
verdict, a CubeResult that holds no presentation; cube_traces runs the
two reversals again with their step records, for a reader of the traces.
A plain cube_condition call computes its verdict afresh and keeps none;
the repeated-letter, commuting-letter and equal-complements lemmas below
settle many of those verdicts with a few complement lookups, with or
without a sweep.  These three only ever pass a check: a check that none
of them passes runs the kernel, so every other verdict comes from a
kernel run, or from a sweep's copy of one.
certify's sweep applies the two mirror lemmas and the locality lemma as
well, within one call: it hands cube_condition a _Sweep, the side's set
of passed triples with its local-type tables and the verdicts filed
under them, and drops it when it returns, so no verdict outlives the
call.

The repeated-letter lemma.  Take a generator triple (u, v, w) in which
two of the letters are equal.  If all three are, the check passes.
Otherwise let (x, y) be its two distinct letters in the order the first
reversal meets them: (u, w) when u = v, and when w = u or w = v, (u, v)
on the right and (v, u) on the left.  The check passes when (x, y) has a
complement on the side and the fuel covers both reversals.  On the right,
with the kernel's leftmost redex first, and push = v' u'^-1 the letters
of x v' = y u' that a step pushes:
- w = u: u^-1 u u^-1 v cancels u^-1 u at step 1 and meets u^-1 v at
  step 2, ending on v' u'^-1 in 2 steps.  The second word
  v'^-1 u^-1 v u' meets u^-1 v again, becomes v'^-1 v' u'^-1 u' and
  cancels to the empty word: 1 + len(push) steps.
- w = v: u^-1 v v^-1 v meets u^-1 v at step 1 and cancels v^-1 v at
  step 2; it ends on the same v' u'^-1, so the second word is the same.
- u = v: u^-1 w w^-1 u meets u^-1 w at step 1, giving v' u'^-1 w^-1 u.
  The complement of (w, u) is the swapped complement of (u, w),
  w u' = u v': read from its other side, an instance that leads with
  (u, w) leads with (w, u), and conversely.  So step 2 gives
  v' u'^-1 u' v'^-1, which cancels u'^-1 u' and ends on v' v'^-1 after
  2 + |u'| steps; the second word v'^-1 u^-1 u v' cancels to the empty
  word in 1 + |v'| steps.
- all three equal: the first reversal cancels twice, the second once.
The left side mirrors each case: its first word v w^-1 w u^-1 cancels
v v^-1 first when w = v, and meets v u^-1 first when w = u.  Each of
these reversals ends, so none is proved to cycle (the cycle proof of
reversing is sound).  The lemma answers only at fuel >= 2 and passes at
fuel >= 2 + len(push), which covers both reversals of every case.  It
reads (x, y) through _complement_word, which on the left for u = v looks
up the transpose (w, u), related by the same instances swapped: it has a
complement exactly when (u, w) has one, with a push as long.  A pair
with no complement, or that leads more than one relation, leaves the
check to the kernel, as does any other check, longer words included.
cube_traces always runs the kernel.

The distinct-letter lemmas.  Take a generator triple (u, v, w) of three
distinct letters, on the right, and write the complement x A = y B of a
pair (x, y) as A B^-1, the word that x^-1 y reverses to.  Two lemmas read
the complements of (u, w), (w, v) and (u, v); each answers only pass, at
fuel >= the larger of its two step counts, and any other check runs the
kernel.
- Equal complements: u a = w b, w c = v d and u e = v f, one letter a
  side, with b = c, e = a and f = d.  The first word becomes
  a b^-1 w^-1 v, then a b^-1 b d^-1, and cancels to a d^-1: 3 steps.
  The second word a^-1 u^-1 v d becomes a^-1 a d^-1 d and cancels to the
  empty word: 3 steps.
- Commuting letter: one letter c of the triple whose complement against
  each other letter, and against each letter of the complement x V = y U
  of those two, is the commutation c l = l c (in the order the kernel
  meets the pair), and which is no letter of that complement.
  - c = w, over u V = v U.  u^-1 w w^-1 v becomes w u^-1 w^-1 v, then
    w u^-1 v w^-1, then w V U^-1 w^-1: 3 steps.  The second word
    V^-1 w^-1 u^-1 v w U meets u^-1 v, carries w^-1 across V and w across
    U^-1, and cancels V^-1 V, w^-1 w and U^-1 U: 2 + 2|V| + 2|U| steps.
  - c = u, over w V = v U.  The first word becomes w u^-1 w^-1 v, then
    w u^-1 V U^-1, and carries u^-1 across V: 2 + |V| steps, ending on
    w V u^-1 U^-1.  The second word V^-1 w^-1 u^-1 v U u meets u^-1 v and
    w^-1 v, cancels V^-1 V, carries u^-1 across U and cancels U^-1 U and
    u^-1 u: 3 + |V| + 2|U| steps.
  - c = v, over u V = w U.  The first word becomes V U^-1 w^-1 v, then
    V U^-1 v w^-1, and carries v across U^-1: 2 + |U| steps, ending on
    V v U^-1 w^-1.  The second word v^-1 V^-1 u^-1 v w U meets u^-1 v,
    carries v across V^-1, cancels v^-1 v, meets u^-1 w and cancels
    V^-1 V and U^-1 U: 3 + 2|V| + |U| steps.
The runs above do not take the kernel's order, but the counts hold for
it: two redexes x^-1 y never share a letter, so rewriting one leaves the
other in place, and every run of a word that ends makes the same steps,
the cells of one reversing diagram, and ends on the same word.  These
runs end, so none is proved to cycle.  The left side is the mirror.  The
left check of (u, v, w) is the right check of (u, v, w) read backwards,
in the presentation read backwards, at the same fuel and in as many
steps: reading backwards, signs kept, turns v w^-1 w u^-1 into
u^-1 w w^-1 v, a left redex x y^-1 into the right redex y^-1 x, and a
relation into the relation read backwards.  There the lookup of (x, y) is
left_complement(p, y, x), with its push read backwards: x A = y B there
is A' x = B' y in p, A' and B' being A and B read backwards, and the
push, which lists the letters of B'^-1 A' last first, reads A B^-1.
A lemma looks up (u, w) and (w, v), which the kernel meets first, and
stops at the first lookup that rules it out, but it may look up a pair
the kernel does not reach, such as (u, v) when the first reversal sticks.
So an AmbiguousComplementError from a lemma's lookup hands the check to
the kernel, which raises its own error or gives its verdict as without
the lemma.

The mirror lemma.  The first word of (v, u, w) is the formal inverse of
the first word of (u, v, w) on either side, and once both first
reversals end, the same holds for the second words.  A reversal that
ends empty or terminal on W ends so on W^-1 too, in as many steps and on
the inverse final word: it follows the transposed reversing diagram,
because the pair (y, x) is related by the swapped instances of (x, y).
So a pass of (u, v, w) is a pass of (v, u, w) at the same fuel, and
cube_condition adds (v, u, w) to the sweep's set with a pass, so the
sweep checks no mirror of a pass.  Only a pass is mirrored: a reversal
of W that sticks or cycles can end otherwise on W^-1, whose leftmost
redex is another one.  (On the square-chain example (c1, a1, b1) is
proved to cycle within 8 steps and (a1, c1, b1) only later.)

The side-mirror lemma.  On a mirror-symmetric presentation
(Presentation.mirror_symmetric) the flip that reads a word backwards,
signs kept, and sends each integer-family index i to c - i, with c the
triple's largest family index, takes relations onto relations, and a
left check of (u, v, w) passes exactly when the right check of its
flipped image passes at the same fuel.  (The kernel rewrites the
leftmost redex and the flip makes that the rightmost, but redexes never
overlap and a complemented presentation has one reversing diagram per
word, so a reversal that ends does so in any order of rewriting.)  The
image of an index-normalised triple is one again, so when every right
check of the sweep passed, every left check passes.  certify therefore
runs the right sweep first and keeps it for the left side only when the
presentation is mirror-symmetric and the right sweep found no failure
and no open check; otherwise the left side gets a sweep of its own.
Every left triple is then in the kept sweep's set, so no left check
reads a key filed on the right.  Only a sweep that passed everywhere
crosses: a reversal that sticks or cycles stops at its leftmost blocked
redex, and the flipped run can meet another one first.

The locality lemma.  A cube check's verdict depends only on the local type
of its letters.  Call F the finite letters of a generator triple, T the
letters of the integer families, and write the complement x A = y B of a
pair on a side as the word A B^-1, as above.  A sweep serves one side at
one fuel, so the key of the triple has a fixed layout of one slot per
position and one per two positions.  A position's slot holds a family
letter as it is, and a finite letter f's role in its place: f's family,
and the words of (f, t(0)) and of (t(0), f) for each integer family t,
with f written as a placeholder.  The slot of two positions that hold
finite letters f and g holds their pair type: `same` when f = g,
otherwise the words of (f, g) and of (g, f) with f and g written as the
placeholders 0 and 1; it is empty unless both letters are finite, which
the position slots already say.  A side gets keys only under a guard:
the presentation is translation-invariant, and every finite pattern
letter of every schema is one of that schema's two boundary letters on
the side, its first letters on the right and its last on the left.  Two
triples with equal keys on a side have the same verdict there at every
fuel.
- Under the guard, every finite letter of a relation instance leading (or
  trailing) with a pair is a letter of that pair.  So a complement of a
  pair in (F u T)^2 holds no finite letter outside F, and a run on a word
  over F u T stays over F u T.  The first word is over F u T, and the
  second is built from u, v and the first run's final word, so it is too.
- Translation invariance makes the instances of (f, t(i)) the shifts by i
  of those of (f, t(0)), and those of (t(i), f) of those of (t(0), f).
- Equal keys therefore give a bijection phi from F u T onto F' u T that
  fixes T, sends the letter at each position of the one triple to the
  letter at that position of the other, and preserves families.  `same`
  makes it well defined and one to one.  For every pair (x, y) of distinct
  letters of F u T, the complement of (phi x, phi y) is phi of the
  complement of (x, y), a missing one included: between two family
  letters it is the same lookup, between f and t(i) the roles fix it, and
  between f and g their pair type does.
- The kernel compares letters only by equality, by sign, by family and
  whether it is an integer family, and, within one family, by index
  differences, which for finite letters are 0 exactly when the letters
  are equal.  phi preserves all of these, so by induction on the steps
  the run of phi(W) is phi of the run of W: the same steps, the same
  stuck pair, the same cycle proof and the same fuel-out.  The lemmas
  above read only lookups and letter equalities, and answer as the kernel
  does.  So the two verdicts are equal.
No lookup of a side's tables meets an ambiguous pair, since certify
sweeps only a side that check_complemented found complemented, and that
scan covers every pair.  Without the guard the lemma fails: with
t(i) s3 t(i) = t(i+1) s3 t(i), s1, s2 and s3 commuting with each t(i), s1
with s2 and with s3, and s2 braiding with s3, the complement of
(t(0), t(1)) brings in s3.  There (t(0), t(1), s1) and (t(0), t(1), s2)
have one key without the guard, but on the right the first passes and
the second fails not-trivial.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import __version__, reversing
from .presentation import (
    DEFAULT_FUEL,
    AmbiguousComplementError,
    CapError,
    Presentation,
    check_complemented,
)
from .reversing import (
    Cycles,
    Diverged,
    ReversalTrace,
    Stuck,
    _run,
    left_reverse,
    right_reverse,
)
from .words import Generator, Letter, Word

# the largest triple set a sweep enumerates; e8:new's word triples up to
# length 2 at t_bound 0 are 729,000
MAX_TRIPLES = 1_000_000


class SweepCapError(CapError):
    """The index-normalised triples of a sweep number more than MAX_TRIPLES."""


# the inverses of the few words a sweep draws its triples from
_word_inverse = functools.lru_cache(maxsize=1024)(Word.inverse)


def _first_word(u: Word, v: Word, w: Word, side: str) -> tuple[Letter, ...]:
    """u^-1 w w^-1 v (right) or v w^-1 w u^-1 (left), as the plain tuple `+` gives."""
    if side == "right":
        return _word_inverse(u) + w + _word_inverse(w) + v
    return v + _word_inverse(w) + w + _word_inverse(u)


def _second_word(u: Word, v: Word, done: Sequence[Letter], side: str) -> tuple[Letter, ...]:
    """(u v')^-1 (v u') (right) or (u' v)(v' u)^-1 (left), where the first
    reversal ended on done = v' u'^-1 (right) or u'^-1 v' (left)."""
    lead = 1 if side == "right" else -1
    cut = len(done) - next((i for i, l in enumerate(done) if l.sign != lead), len(done))
    new = tuple.__new__
    # u' v'^-1 (right) or v'^-1 u' (left)
    inverse = tuple([new(Letter, (gen, -sign)) for gen, sign in done[::-1]])
    head, tail = inverse[cut:], inverse[:cut]
    if side == "right":
        return head + _word_inverse(u) + v + tail
    return head + v + _word_inverse(u) + tail


# (status, reason) of a first or second reversal that ends with a redex left;
# a second reversal that ends without one passes when it is empty
_FIRST = {Cycles: ("inconclusive", "first reversal cycles"),
          Diverged: ("inconclusive", "first reversal ran out of fuel"),
          Stuck: ("fail", "stuck-hypothesis")}
_SECOND = {Cycles: ("fail", "second reversal cycles"),
           Diverged: ("inconclusive", "second reversal ran out of fuel"),
           Stuck: ("fail", "stuck")}
_PASS = ("pass", "ok")


def _complement_word(p: Presentation, x: Generator, y: Generator,
                     side: str) -> tuple[Letter, ...] | None:
    """The letters of A B^-1, where x A = y B is the right complement of (x, y),
    or None when the pair has none.

    On the left it is the right complement in the presentation read
    backwards: left_complement(p, y, x), with its push read backwards.
    """
    if side == "right":
        comp = reversing.right_complement(p, x, y)
        return None if comp is None else comp.push[::-1]
    comp = reversing.left_complement(p, y, x)
    return None if comp is None else comp.push


def _lemma_passes(p: Presentation, u: Generator, v: Generator, w: Generator,
                  side: str, fuel: int) -> bool:
    """Whether a lemma of the module docstring passes the check of the
    generators (u, v, w) at fuel >= 2: the repeated-letter lemma when a
    letter repeats, else the commuting-letter or the equal-complements lemma.

    False leaves the verdict to the kernel.  The distinct-letter lemmas look
    up (u, w) and (w, v), the pairs the first reversal meets first, then
    (u, v) and the commuting letter's pairs, and stop at the first answer
    that rules both lemmas out.
    """
    if u == v == w:
        return True
    if u == v or w == u or w == v:
        # the pair the first reversal meets, or on the left for u = v its transpose
        word = _complement_word(p, u, w if u == v else v, side)
        return word is not None and fuel >= 2 + len(word)
    uw = _complement_word(p, u, w, side)
    if uw is None:
        return False
    wv = _complement_word(p, w, v, side)
    if wv is None:
        return False
    uv = None
    uw_commute, wv_commute = uw == ((w, 1), (u, -1)), wv == ((v, 1), (w, -1))
    if uw_commute or wv_commute:
        uv = _complement_word(p, u, v, side)
        if uv is None:
            return False
        if uw_commute and wv_commute:
            c, over = w, uv
        elif uv == ((v, 1), (u, -1)):
            c, over = (u, wv) if uw_commute else (v, uw)
        else:
            c = None
        if c is not None:
            # c meets each letter l of `over` as c^-1 l or l^-1 c, and
            # commutes with it when the complement of that pair is c l = l c
            for l in over:
                x, y = (c, l.gen) if c == u or (c == w and l.sign > 0) else (l.gen, c)
                if l.gen == c or _complement_word(p, x, y, side) != ((y, 1), (x, -1)):
                    return False
            len_v = sum(l.sign > 0 for l in over)
            len_u = len(over) - len_v
            if c == w:
                return fuel >= max(3, 2 + 2 * len_v + 2 * len_u)
            if c == u:
                return fuel >= max(2 + len_v, 3 + len_v + 2 * len_u)
            return fuel >= max(2 + len_u, 3 + 2 * len_v + len_u)
    # equal complements: u a = w b, w b = v d and u a = v d
    if (len(uw) == len(wv) == 2 and uw[0].sign == wv[0].sign == 1
            and uw[1].sign == wv[1].sign == -1 and uw[1].gen == wv[0].gen):
        if uv is None:
            uv = _complement_word(p, u, v, side)
        return uv == (uw[0], wv[1]) and fuel >= 3
    return False


def _verdict(p: Presentation, u: Word, v: Word, w: Word, side: str,
             fuel: int) -> tuple[str, str]:
    """(status, reason) of the cube check of positive (u, v, w) on one side.

    A generator triple that a lemma of the module docstring passes, at a
    fuel that covers the runs it stands for, is settled before the kernel
    (see _lemma_passes); any other check runs the kernel bare, which gives
    every verdict but a lemma's pass.
    """
    if fuel >= 2 and len(u) == len(v) == len(w) == 1:
        try:
            if _lemma_passes(p, u[0].gen, v[0].gen, w[0].gen, side, fuel):
                return _PASS
        except AmbiguousComplementError:
            pass  # the kernel meets the pair, or sticks first, and answers as it does
    out, done, _ = _run(p, _first_word(u, v, w, side), fuel, side, None)
    if out is not None:
        return _FIRST[type(out)]
    out, done, _ = _run(p, _second_word(u, v, done, side), fuel, side, None)
    return _SECOND.get(type(out), ("fail", "not-trivial") if done else _PASS)


class CubeResult(NamedTuple):
    """The verdict of one cube check; cube_traces gives its two reversal traces."""

    triple: tuple[Word, Word, Word]
    side: str
    status: str
    reason: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def cube_traces(p: Presentation, u: Word, v: Word, w: Word, side: str = "right",
                fuel: int = DEFAULT_FUEL) -> tuple[ReversalTrace, ReversalTrace | None]:
    """The traces of the cube check's first and second reversals of (u, v, w) on one side.

    The second is None when the first did not reach the terminal shape;
    otherwise its word is built from the first trace's final word.  Each
    reversal runs once, through right_reverse or left_reverse.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if any(l.sign < 0 for word in (u, v, w) for l in word):
        raise ValueError("cube condition expects positive words")
    reverse = right_reverse if side == "right" else left_reverse
    first = reverse(p, Word(_first_word(u, v, w, side)), fuel)
    if not first.reached_terminal:
        return first, None
    return first, reverse(p, Word(_second_word(u, v, first.final, side)), fuel)


def _placed(word: tuple[Letter, ...] | None, letters: tuple[Generator, ...]) -> tuple | None:
    """A complement word with each of `letters` written as its position there."""
    if word is None:
        return None
    return tuple([(letters.index(l.gen), l.sign) if l.gen in letters else l for l in word])


def _side_types(p: Presentation, side: str) -> tuple[dict, dict] | None:
    """The (roles, pairs) tables of a side (see _Sweep), or None off the guard
    of the locality lemma of the module docstring: p is translation-invariant,
    and every finite pattern letter of every schema is one of that schema's
    two boundary letters on the side.  AmbiguousComplementError when a
    lookup meets one, which a complemented side never does."""
    end = 0 if side == "right" else -1
    fams = p.alphabet.integer_families
    if not p.translation_invariant() or any(
            pl != s.lhs[end] and pl != s.rhs[end]
            for s in p.schemas for pl in s.lhs + s.rhs if pl.family not in fams):
        return None
    # numbers each role and pair type, so that a key hashes as a few small ints and letters
    ids: dict = {}
    zeros = [Generator(fam, 0) for fam in sorted(fams)]
    finite = p.alphabet.finite_generators()
    roles = {g: ids.setdefault((g.family, *[
        _placed(_complement_word(p, *pair, side), (g,))
        for zero in zeros for pair in ((g, zero), (zero, g))]), len(ids)) for g in finite}
    pairs = {(f, g): "same" if f == g else ids.setdefault(tuple(
        _placed(_complement_word(p, *pair, side), (f, g)) for pair in ((f, g), (g, f))), len(ids))
        for f in finite for g in finite}
    return roles, pairs


class _Sweep(set):
    """One side's sweep at one fuel: the set of its passed triples, the
    side's local-type tables and the verdicts filed under their keys.

    tables is (roles, pairs), built when the sweep starts, or None where
    the locality lemma's guard fails (see _side_types): roles maps each
    finite generator to the id of its role, and pairs each ordered pair of
    finite generators to the id of its pair type, "same" for one letter.
    A key names neither side nor fuel.  certify keeps the right sweep for
    the left side only when the side-mirror lemma makes every left check a
    pass; each left triple is then in the set, so no left check reads a key.
    """

    __slots__ = ("tables", "verdicts")

    def __init__(self, p: Presentation, side: str) -> None:
        super().__init__()
        self.tables = _side_types(p, side)
        self.verdicts: dict = {}

    def key(self, u: Word, v: Word, w: Word) -> tuple | None:
        """The key of the locality lemma of the module docstring for a triple,
        (r_u, r_v, r_w, p_uv, p_uw, p_vw), or None off the guard, for longer
        words and for a triple of family letters alone.

        Each r is its letter's role, or the letter itself when it is a family
        letter, and each p is the type of the pair at those two positions,
        None unless both hold finite letters.  The role slots say which
        positions are finite, so the fixed width loses nothing.  A triple of
        family letters alone would name only itself, and a sweep checks it once.
        """
        if self.tables is None or not len(u) == len(v) == len(w) == 1:
            return None
        roles, pairs = self.tables
        gens = u, v, w = u[0].gen, v[0].gen, w[0].gen
        types = (roles.get(u, u), roles.get(v, v), roles.get(w, w))
        if types == gens:
            return None
        return (*types, pairs.get((u, v)), pairs.get((u, w)), pairs.get((v, w)))


def cube_condition(p: Presentation, u: Word, v: Word, w: Word,
                   side: str = "right", fuel: int = DEFAULT_FUEL,
                   sweep: _Sweep | None = None) -> CubeResult:
    """Check the cube condition for (u, v, w) on one side, without step records.

    Without a sweep each call checks that the words are positive and
    computes its verdict afresh, by the lemmas of the module docstring or
    by the kernel, and keeps none.  certify hands its sweep of this side at
    this fuel (see _Sweep), whose triples enumerate_word_triples builds
    from positive letters only: a triple in the sweep's set passes, a
    generator triple whose key was filed takes the verdict filed under it,
    and any other check computes its verdict and files it under its key.
    A pass that was not in the set adds the triple and (v, u, w) to it (the
    mirror lemma of the module docstring).

    certify calls this function through the module attribute once per
    (side, triple), a settled check included, and bench/tracing.py counts
    those calls against the certificates' triple counts.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    triple = (u, v, w)
    if sweep is None:
        if any(l.sign < 0 for word in triple for l in word):
            raise ValueError("cube condition expects positive words")
        return tuple.__new__(CubeResult, (triple, side, *_verdict(p, u, v, w, side, fuel)))
    if triple in sweep:
        return tuple.__new__(CubeResult, (triple, side, "pass", "ok"))
    key = sweep.key(u, v, w)
    verdict = None if key is None else sweep.verdicts.get(key)
    if verdict is None:
        verdict = _verdict(p, u, v, w, side, fuel)
        if key is not None:
            sweep.verdicts[key] = verdict
    if verdict == _PASS:
        sweep.add(triple)
        sweep.add((v, u, w))
    return tuple.__new__(CubeResult, (triple, side, *verdict))


def enumerate_word_triples(p: Presentation, max_len: int,
                           t_bound: int = 3) -> list[tuple[Word, Word, Word]]:
    """Ordered triples of positive words up to max_len, index-normalised.

    The cube condition quantifies over word triples; for homogeneous
    presentations generator triples (max_len 1) suffice, longer words are
    the exhaustive fallback.  Integer-family indices run over
    [0, 2*t_bound] and any triple that mentions the family must attain
    index 0, so each class of triples under index translation is
    enumerated exactly once.  The triples are counted before any word is
    built, and more than MAX_TRIPLES raise SweepCapError.

    The triples are built, not filtered from the full cube.  Each word
    has a low, its smallest family index, or `free` (past every index)
    when it mentions no family.  For a pair (u, v) with smaller low m the
    third word w is every word when m is 0, a word of low 0 or `free`
    when m is `free`, and a word of low 0 otherwise.  The triples come in
    the order of itertools.product over the words.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if t_bound < 0:
        raise ValueError("t_bound must be >= 0")
    _require_sweep_size(p, max_len, t_bound)
    gens = list(p.alphabet.finite_generators())
    for fam in sorted(p.alphabet.integer_families):
        gens.extend(Generator(fam, d) for d in range(0, 2 * t_bound + 1))
    gens.sort()
    fams = p.alphabet.integer_families
    words = [Word([Letter(g) for g in combo])
             for length in range(1, max_len + 1)
             for combo in itertools.product(gens, repeat=length)]
    # each word's smallest family index, or `free`, above every index, for a
    # word without one: a triple's smallest is then 0, or `free` when it has none
    free = 2 * t_bound + 1
    lows = [min((l.gen.index for l in w if l.gen.family in fams), default=free) for w in words]
    # the third words that complete a pair whose smaller low is the key
    # (any other low above 0 takes those of low 0)
    zero = [w for w, c in zip(words, lows) if c == 0]
    thirds = {0: words, free: [w for w, c in zip(words, lows) if c in (0, free)]}
    word_lows = list(zip(words, lows))
    return [(u, v, w) for u, a in word_lows for v, b in word_lows
            for w in thirds.get(min(a, b), zero)]


def _require_sweep_size(p: Presentation, max_len: int, t_bound: int) -> None:
    """Raise SweepCapError when enumerate_word_triples would pass MAX_TRIPLES.

    A kept triple has no family letter or smallest index 0: all triples,
    less those whose every letter is finite or has an index above 0, plus
    the family-free ones.  The count grows with the length and stops once
    it passes the cap, before the powers grow past what a cap could be.
    """
    finite = len(p.alphabet.finite_generators())
    above = finite + 2 * t_bound * len(p.alphabet.integer_families)  # letters not of index 0
    letters = above + len(p.alphabet.integer_families)
    words = no_zero = free = 0
    for length in range(1, max_len + 1):
        words += letters ** length
        no_zero += above ** length
        free += finite ** length
        if words ** 3 - no_zero ** 3 + free ** 3 > MAX_TRIPLES:
            raise SweepCapError(f"word triples up to length {length} at t_bound {t_bound} "
                                f"exceed the sweep cap of {MAX_TRIPLES} triples")


@dataclass(frozen=True)
class Certificate:
    presentation: str
    claim: str  # "cancellative-up-to" | "complete-up-to" | "falsified" | "refused" | "undetermined"
    t_bound: int
    fuel: int
    triples_checked: int
    failures: tuple[tuple[str, tuple[str, str, str], str], ...]
    refusal: str | None
    tool_version: str

    @property
    def established(self) -> bool:
        return self.claim in ("cancellative-up-to", "complete-up-to",
                              "right-complete-up-to", "left-complete-up-to")

    def to_json(self) -> str:
        data = {
            "presentation": self.presentation,
            "claim": self.claim,
            "t_bound": self.t_bound,
            "fuel": self.fuel,
            "triples_checked": self.triples_checked,
            "failures": [
                {"side": side, "triple": list(triple), "reason": reason}
                for side, triple, reason in self.failures
            ],
            "refusal": self.refusal,
            "tool_version": self.tool_version,
        }
        return json.dumps(data, indent=2)


def certify(p: Presentation, t_bound: int = 3, fuel: int = DEFAULT_FUEL,
            goal: str = "cancellative", word_len: int | None = None) -> Certificate:
    """Run the bounded cube check and package the outcome.

    The goal picks the claim when everything passes on both sides:
    "cancellative" yields cancellative-up-to, "complete" stops at
    complete-up-to.  With only one complemented side the claim is the
    side-qualified right-/left-complete-up-to either way.  Any cube failure
    falsifies, a check that does not terminate (a first reversal proved to
    cycle, or fuel exhaustion) without failure is undetermined, and a
    missing precondition refuses the check outright: an integer-family
    letter whose index is pinned (the sweep normalises indices, which needs
    translation invariance), inhomogeneity, or a complement conflict on
    both sides.

    word_len switches from generator triples to all word triples up to
    that length.  That is the only mode accepted for non-homogeneous
    presentations (the generator reduction needs homogeneity), and there
    the claim tops out at complete-up-to: without homogeneity,
    completeness alone does not buy cancellation.
    A sweep of more than MAX_TRIPLES triples raises SweepCapError.

    The sweep calls cube_condition once per side and triple, with that
    side's _Sweep.  The left side keeps the right side's sweep only when the
    side-mirror lemma of the module docstring makes every left check a
    pass: every left triple is then in its set, so no left check reads a
    key, which is why a key names no side.  Each sweep is dropped when the
    call returns.
    """
    if goal not in ("cancellative", "complete"):
        raise ValueError(f"goal must be 'cancellative' or 'complete', got {goal!r}")
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    if t_bound < 0 or (word_len is not None and word_len < 1):
        raise ValueError("t_bound must be >= 0" if t_bound < 0 else "word_len must be >= 1")

    def refused(reason: str) -> Certificate:
        return Certificate(p.name, "refused", t_bound, fuel, 0, (), reason, __version__)

    pinned = p.pinned_letter()
    if pinned is not None:
        schema, letter = pinned
        return refused(f"schema {schema.name} pins the index of {letter.render()}, so the "
                       "relations are not translation-invariant and the index-normalised "
                       "sweep does not cover them")
    if not p.homogeneous and word_len is None:
        return refused("presentation is not homogeneous, the generator-triple "
                       "reduction does not apply; rerun with a word length")
    right, left = check_complemented(p)
    sides = [side for side, conflicts in (("right", right), ("left", left)) if not conflicts]
    if not sides:
        (x, y), insts = right[0]
        if x == y:  # one relation conflicts with itself: both sides start with x
            return refused(f"not complemented on either side; e.g. both sides of relation "
                           f"{insts[0].label()} ({insts[0]}) start with {x}")
        return refused(
            f"not complemented on either side; e.g. generators ({x}, {y}) "
            "head more than one relation"
        )
    triples = enumerate_word_triples(p, 1 if word_len is None else word_len, t_bound)
    failures = []
    cycling = fuel_outs = 0
    # each side's sweep, dropped when certify returns; the left side keeps the
    # right one when the side-mirror lemma makes every left check a pass
    sweep = None
    for side in sides:
        if sweep is None or failures or cycling or fuel_outs or not p.mirror_symmetric():
            sweep = _Sweep(p, side)
        for u, v, w in triples:
            res = cube_condition(p, u, v, w, side=side, fuel=fuel, sweep=sweep)
            if res.status == "fail":
                failures.append((side, (str(u), str(v), str(w)), res.reason))
            elif res.status == "inconclusive":
                if res.reason == "first reversal cycles":
                    cycling += 1
                else:
                    fuel_outs += 1
    refusal = None
    if failures:
        claim = "falsified"
    elif cycling or fuel_outs:
        claim = "undetermined"
        refusal = (f"{cycling + fuel_outs} cube checks did not terminate "
                   f"({cycling} proved to cycle, {fuel_outs} ran out of fuel)")
    elif not p.homogeneous:
        claim = "complete-up-to" if len(sides) == 2 else f"{sides[0]}-complete-up-to"
        refusal = "not homogeneous, completeness does not imply cancellativity here"
    elif len(sides) == 2:
        claim = "cancellative-up-to" if goal == "cancellative" else "complete-up-to"
    else:
        claim = f"{sides[0]}-complete-up-to"
        missing = "left" if "right" in sides else "right"
        refusal = f"{missing} side not complemented, claim restricted to {sides[0]} reversing"
    return Certificate(p.name, claim, t_bound, fuel, len(triples), tuple(failures),
                       refusal, __version__)
