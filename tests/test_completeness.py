"""Cube conditions and the certificate state machine."""

import dataclasses
import hashlib
import itertools
import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from monorev import catalog, completeness, presentation, reversing
from monorev.completeness import (
    SweepCapError,
    certify,
    cube_condition,
    cube_traces,
    enumerate_word_triples,
)
from monorev.presentation import (
    AmbiguousComplementError,
    PatternLetter,
    Presentation,
    Schema,
    check_complemented,
    load_presentation,
    pair_scan_generators,
)
from monorev.words import EPSILON, Alphabet, Generator, Letter, Word, WordSyntaxError
from monorev.reversing import (
    DEFAULT_FUEL,
    Cycles,
    Diverged,
    Empty,
    Stuck,
    left_reverse,
    right_reverse,
)
from conftest import (
    BOUNDARY_GUARD,
    FIXTURES,
    GLUE,
    NONHOM,
    ONE_SIDED,
    PINNED_T,
    SKEWED,
    SQUARE_CHAIN,
    TWO_COMMUTES,
    TWO_FAMILIES,
    WIDE_OFFSET,
    fresh,
    reference_reverse,
    reference_word_triples,
)

D4_CERT_JSON = """\
{
  "presentation": "d4:new",
  "claim": "cancellative-up-to",
  "t_bound": 3,
  "fuel": 10000,
  "triples_checked": 395,
  "failures": [],
  "refusal": null,
  "tool_version": "0.1.0"
}"""


def test_cube_anchor_triple(e8):
    u, v, w = e8.parse("s7"), e8.parse("t(2)"), e8.parse("s8")
    for side, first_steps, second_steps in (("right", 4, 9), ("left", 4, 9)):
        res = cube_condition(e8, u, v, w, side=side)
        assert res.passed and res.reason == "ok"
        first, second = cube_traces(e8, u, v, w, side=side)
        assert first.step_count == first_steps
        assert second.step_count == second_steps
        assert isinstance(second.outcome, Empty)
    out = cube_traces(e8, u, v, w)[0].outcome
    assert str(out.v_prime) == "s8 s7 t(2)" and str(out.u_prime) == "s8 s7 s8"


def test_cube_pass_trivially(d4):
    res = cube_condition(d4, d4.parse("s1"), d4.parse("s2"), d4.parse("s3"))
    assert res.passed
    assert res.triple == (d4.parse("s1"), d4.parse("s2"), d4.parse("s3"))


def test_cube_stuck_hypothesis(two_commutes):
    p = two_commutes
    b1, a1, c1 = p.parse("b1"), p.parse("a1"), p.parse("c1")
    res = cube_condition(p, b1, a1, c1)
    assert res.status == "fail" and res.reason == "stuck-hypothesis"
    assert cube_traces(p, b1, a1, c1)[1] is None


def test_cube_not_trivial(skewed):
    triple = skewed.parse("a1"), skewed.parse("b1"), skewed.parse("c1")
    res = cube_condition(skewed, *triple)
    assert res.status == "fail" and res.reason == "not-trivial"
    out = cube_traces(skewed, *triple)[1].outcome
    assert str(out.v_prime) == "a1" and str(out.u_prime) == "a1"


def test_cube_fuel_exhaustion():
    p = catalog.load("affine-a:classical:3")
    r1, r2, r3 = p.parse("r1"), p.parse("r2"), p.parse("r3")
    ok = cube_condition(p, r1, r2, r1, fuel=2000)
    assert ok.passed
    res = cube_condition(p, r1, r2, r3, fuel=8)
    assert res.status == "inconclusive"
    assert res.reason == "first reversal ran out of fuel"
    first, second = cube_traces(p, r1, r2, r3, fuel=8)
    assert first.outcome == Diverged(8) and first.step_count == 8 and second is None
    # with fuel to spare the same reversal is proved to run forever
    res = cube_condition(p, r1, r2, r3, fuel=2000)
    assert res.status == "inconclusive"
    assert res.reason == "first reversal cycles"
    first, second = cube_traces(p, r1, r2, r3, fuel=2000)
    assert first.outcome == Cycles(14, 6, 0) and first.step_count == 14
    assert second is None


def test_cube_second_reversal_cycles():
    # the first reversal terminates, then (u v')^-1 (v u') runs forever:
    # it can never reach epsilon, so the cube fails outright
    p = load_presentation(SQUARE_CHAIN, name="square-chain")
    triple = p.parse("a1"), p.parse("b1"), p.parse("c1")
    res = cube_condition(p, *triple)
    first, second = cube_traces(p, *triple)
    assert first.reached_terminal
    assert res.status == "fail" and res.reason == "second reversal cycles"
    assert second.outcome == Cycles(12, 4, 0)
    _, outcome, _ = reference_reverse(p, second.start, 2000, "right")
    assert outcome == Diverged(2000)


# a cycling affine key, a not-trivial and a stuck-hypothesis presentation, and
# one whose second reversal cycles; the replay law adds the catalog keys
C3 = catalog.load("affine-a:classical:3")
SMALL = [C3, load_presentation(SKEWED, name="skewed"),
         load_presentation(TWO_COMMUTES, name="two-commutes"),
         load_presentation(SQUARE_CHAIN, name="square-chain")]
REPLAY_PRESENTATIONS = [catalog.load(k) for k in catalog.FIXED_NAMES] + SMALL


def _letters(p):
    gens = p.alphabet.finite_generators()
    gens += [Generator(fam, i) for fam in sorted(p.alphabet.integer_families) for i in range(4)]
    return [Letter(g) for g in gens]


def _verdict(first, second):
    """(status, reason) as the cube condition defines them, from full traces."""
    out = first.outcome
    if isinstance(out, Cycles):
        return "inconclusive", "first reversal cycles"
    if isinstance(out, Diverged):
        return "inconclusive", "first reversal ran out of fuel"
    if isinstance(out, Stuck):
        return "fail", "stuck-hypothesis"
    out = second.outcome
    if isinstance(out, Empty):
        return "pass", "ok"
    if isinstance(out, Cycles):
        return "fail", "second reversal cycles"
    if isinstance(out, Diverged):
        return "inconclusive", "second reversal ran out of fuel"
    if isinstance(out, Stuck):
        return "fail", "stuck"
    return "fail", "not-trivial"


def _second_start(u, v, first, side):
    """(u v')^-1 (v u') or (u' v)(v' u)^-1, from the first reversal's outcome."""
    out = first.outcome
    vp, up = (EPSILON, EPSILON) if isinstance(out, Empty) else (out.v_prime, out.u_prime)
    if side == "right":
        return (u * vp).inverse() * (v * up)
    return (up * v) * (vp * u).inverse()


def _check_replay(p, u, v, w, side, fuel=2000):
    start = u.inverse() * w * w.inverse() * v if side == "right" else v * w.inverse() * w * u.inverse()
    try:
        res = cube_condition(p, u, v, w, side=side, fuel=fuel)
    except AmbiguousComplementError as exc:
        # the traced reversals meet the same ambiguous pair
        with pytest.raises(AmbiguousComplementError) as traced:
            cube_traces(p, u, v, w, side=side, fuel=fuel)
        assert str(traced.value) == str(exc)
        return "ambiguous"
    first, second = cube_traces(p, u, v, w, side=side, fuel=fuel)
    assert (res.triple, res.side) == ((u, v, w), side)
    assert first.side == side and first.start == start
    if first.reached_terminal:
        assert second.start == _second_start(u, v, first, side)
    else:
        assert second is None
    assert (res.status, res.reason) == _verdict(first, second)
    assert res.passed == (res.status == "pass")
    return res.reason


@settings(max_examples=200, deadline=None)
@given(data=st.data(), side=st.sampled_from(("right", "left")))
def test_cube_verdict_matches_replayed_traces(data, side):
    """The verdict, found without step records, is the one the replayed traces give."""
    p = data.draw(st.sampled_from(REPLAY_PRESENTATIONS))
    word = st.lists(st.sampled_from(_letters(p)), min_size=1, max_size=2).map(
        lambda ls: Word(tuple(ls)))
    _check_replay(p, data.draw(word), data.draw(word), data.draw(word), side)


def test_cube_replay_covers_every_reason():
    seen = set()
    for p in SMALL:
        words = [Word((l,)) for l in _letters(p)]
        for (u, v, w), side in itertools.product(itertools.product(words, repeat=3),
                                                 ("right", "left")):
            seen.add(_check_replay(p, u, v, w, side))
    r1, r2, r3 = C3.parse("r1"), C3.parse("r2"), C3.parse("r3")
    seen.add(_check_replay(C3, r1, r2, r3, "right", fuel=8))
    yamada = catalog.load("d4:yamada")
    s1, t1 = yamada.parse("s1"), yamada.parse("t(1)")
    seen.add(_check_replay(yamada, s1, t1, t1, "right"))
    assert seen == {"ok", "not-trivial", "stuck-hypothesis", "first reversal cycles",
                    "second reversal cycles", "first reversal ran out of fuel", "ambiguous"}


# the catalog keys and the hand presentations of conftest
LEMMA_PRESENTATIONS = [catalog.load(k) for k in catalog.FIXED_NAMES] + [
    load_presentation(text, name=name) for name, text in (
        ("two-commutes", TWO_COMMUTES), ("skewed", SKEWED), ("glue", GLUE),
        ("one-sided", ONE_SIDED), ("nonhom", NONHOM), ("wide-offset", WIDE_OFFSET),
        ("pinned-t", PINNED_T), ("square-chain", SQUARE_CHAIN))]


def _lemma_agreement(monkeypatch, distinct):
    """(settled, checks) over the generator triples of LEMMA_PRESENTATIONS at
    t_bound 2 whose three letters are distinct, or not, on both sides and at
    fuel 0 to 8, each check replayed against the kernel's traces; a check is
    settled when cube_condition made no kernel run for it.  A lemma only
    passes, so a check that fails, is inconclusive or raises made a run."""
    runs = _count_runs(monkeypatch)
    settled = checks = 0
    for p in LEMMA_PRESENTATIONS:
        p = fresh(p)
        for u, v, w in enumerate_word_triples(p, 1, 2):
            if (len({u, v, w}) == 3) != distinct:
                continue
            for side, fuel in itertools.product(("right", "left"), range(9)):
                before = len(runs)
                reason = _check_replay(p, u, v, w, side, fuel)
                assert reason == "ok" or len(runs) > before, (p.name, u, v, w, side, fuel)
                settled += len(runs) == before
                checks += 1
    return settled, checks


def test_repeated_letter_lemma_agrees_with_the_kernel(monkeypatch):
    """Every generator triple with a repeated letter: cube_condition gives the
    kernel's verdict, and the lemma settles the pinned number of them: the
    passes it covers, while stuck and ambiguous checks run the kernel."""
    assert _lemma_agreement(monkeypatch, distinct=False) == (13498, 29682)


def test_distinct_letter_lemmas_agree_with_the_kernel(monkeypatch):
    """Every generator triple of three distinct letters: cube_condition gives
    the kernel's verdict, or the message of its AmbiguousComplementError, and
    the commuting-letter and equal-complements lemmas settle the pinned
    number of them."""
    assert _lemma_agreement(monkeypatch, distinct=True) == (9144, 66744)


# one triple of each distinct-letter case and the step count of its longer
# reversal: equal complements (pure t), then the commuting letter as w, as u
# and as v, each over a braid complement of two letters a side
LEMMA_GATES = [("d4:new", "t(0) t(2) t(1)", 3), ("e8:new", "s2 s4 s1", 10),
               ("e8:new", "s1 s2 s4", 9), ("e8:new", "s2 s1 s4", 9)]


@pytest.mark.parametrize("key,triple,bound", LEMMA_GATES)
@pytest.mark.parametrize("side", ["right", "left"])
def test_distinct_letter_lemmas_keep_the_fuel_gates(key, triple, bound, side, monkeypatch):
    """One step below the longer reversal, the check gets the kernel's "ran
    out of fuel" verdict; at the bound it passes without a kernel run."""
    p = fresh(catalog.load(key))
    u, v, w = (Word((letter,)) for letter in p.parse(triple))
    first, second = cube_traces(p, u, v, w, side=side)
    assert max(first.step_count, second.step_count) == bound
    runs = _count_runs(monkeypatch)
    res = cube_condition(p, u, v, w, side=side, fuel=bound - 1)
    reversal = "first" if first.step_count == bound else "second"
    assert (res.status, res.reason) == ("inconclusive", f"{reversal} reversal ran out of fuel")
    assert runs
    runs.clear()
    assert cube_condition(p, u, v, w, side=side, fuel=bound).passed and runs == []


def test_repeated_letter_lemma_keeps_the_fuel_gates(two_commutes, d4):
    """Below the steps its reversals take, a repeated-letter check gets the
    kernel's verdict: (b1, b1, b1) cancels at step 2, (b1, c1) sticks at
    step 2, and the second reversal of (s1, t(0), s1) takes 5 steps."""
    b1, c1 = two_commutes.parse("b1"), two_commutes.parse("c1")
    res = cube_condition(two_commutes, b1, b1, b1, fuel=1)
    assert (res.status, res.reason) == ("inconclusive", "first reversal ran out of fuel")
    assert cube_condition(two_commutes, b1, b1, b1, fuel=2).passed
    res = cube_condition(two_commutes, b1, c1, b1, fuel=1)
    assert (res.status, res.reason) == ("inconclusive", "first reversal ran out of fuel")
    assert cube_condition(two_commutes, b1, c1, b1, fuel=2).reason == "stuck-hypothesis"
    s1, t0 = d4.parse("s1"), d4.parse("t(0)")
    for side in ("right", "left"):
        res = cube_condition(d4, s1, t0, s1, side=side, fuel=2)
        assert (res.status, res.reason) == ("inconclusive", "second reversal ran out of fuel")
        assert cube_condition(d4, s1, t0, s1, side=side, fuel=5).passed


def test_two_commutes_keeps_its_stuck_hypotheses(two_commutes):
    """No relation leads with (b1, c1): 24 checks stick in their first
    reversal, 12 of them on triples with a repeated letter.  The lemma only
    passes, so the kernel finds all 24, the 12 repeated-letter ones too."""
    cert = certify(fresh(two_commutes))
    assert cert.claim == "falsified" and len(cert.failures) == 24
    assert {reason for _, _, reason in cert.failures} == {"stuck-hypothesis"}
    assert sum(len(set(triple)) < 3 for _, triple, _ in cert.failures) == 12
    assert ("right", ("b1", "c1", "b1"), "stuck-hypothesis") in cert.failures


@st.composite
def _small_presentation(draw):
    """a1 b1 and the family t with 1 to 5 relations, complemented or not,
    homogeneous or not: fixed ones on a1, b1, t(0), t(1), and schemas over
    Z that open their left side and close their right one with t(i),
    t(i+1) or t(i-1), so two schema instances can lead with one pair."""
    fixed = ["a1", "b1", "t(0)", "t(1)"]
    bound = ["t(i)", "t(i+1)", "t(i-1)"]
    side = st.lists(st.sampled_from(fixed + bound), min_size=0, max_size=2)
    lines = ["generators: a1 b1 ; families: t"]
    for number in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            lhs, rhs = (draw(st.lists(st.sampled_from(fixed), min_size=1, max_size=3))
                        for _ in range(2))
            lines.append(f"{' '.join(lhs)} = {' '.join(rhs)}")
        else:
            lhs = [draw(st.sampled_from(bound))] + draw(side)
            rhs = draw(side) + [draw(st.sampled_from(bound))]
            lines.append(f"schema r{number}: {' '.join(lhs)} = {' '.join(rhs)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=_small_presentation(), data=st.data())
def test_repeated_letter_lemma_law(text, data):
    """On random presentations the lemma gives the kernel's verdict at every
    fuel from 0 to 8, and an ambiguous pair raises from both."""
    p = load_presentation(text, name="random")
    letter = st.sampled_from([p.parse(x) for x in ("a1", "b1", "t(0)", "t(1)")])
    x, y = data.draw(letter), data.draw(letter)
    triple = data.draw(st.sampled_from([(x, x, y), (x, y, x), (y, x, x)]))
    side = data.draw(st.sampled_from(("right", "left")))
    for fuel in range(9):
        _check_replay(p, *triple, side, fuel)


@st.composite
def _distinct_letter_presentation(draw):
    """a1 b1 c1 and the family t, drawn so that the distinct-letter lemmas
    fire and fail.  Each pair of a1, b1, c1 commutes, braids, has a random
    complement of one letter a side, or no relation; each of a1, b1, c1
    commutes with every t(i), with t(0) and t(1) only, braids with every
    t(i), or has no relation with t; t has a translation-shaped schema, or
    none; and a last relation of one letter a side may collide with
    another, so that some pair leads two relations."""
    letters = ["a1", "b1", "c1"]
    one = st.sampled_from(letters)
    lines = ["generators: a1 b1 c1 ; families: t"]
    for x, y in itertools.combinations(letters, 2):
        kind = draw(st.sampled_from(("commute", "braid", "one", "none")))
        if kind == "commute":
            lines.append(f"{x} {y} = {y} {x}")
        elif kind == "braid":
            lines.append(f"{x} {y} {x} = {y} {x} {y}")
        elif kind == "one":
            lines.append(f"{x} {draw(one)} = {y} {draw(one)}")
    for x in letters:
        kind = draw(st.sampled_from(("all", "some", "braid", "none")))
        if kind == "all":
            lines.append(f"schema commute_{x}: {x} t(i) = t(i) {x}")
        elif kind == "some":
            lines += [f"{x} t(0) = t(0) {x}", f"{x} t(1) = t(1) {x}"]
        elif kind == "braid":
            lines.append(f"schema braid_{x}: {x} t(i) {x} = t(i) {x} t(i)")
    shift = draw(st.sampled_from(("-1", "+1", None)))
    if shift:
        lines.append(f"schema translation: t(i) t(i{shift}) = t(j) t(j{shift})")
    if draw(st.booleans()):
        pick = st.sampled_from(letters + ["t(0)", "t(1)"])
        x = draw(pick)
        y = draw(pick.filter(lambda y: y != x))
        lines.append(f"{x} {draw(pick)} = {y} {draw(pick)}")
    return "\n".join(lines) + "\n"


# equal complements but for e = a: a1 c1 = b1 a1, b1 a1 = c1 b1 and
# a1 a1 = c1 b1, so (a1, c1, b1) ends its first reversal on c1 b1^-1 in 3
# steps, but its second word c1^-1 a1^-1 c1 b1 does not cancel
NEAR_EQUAL = ("generators: a1 b1 c1 ; families: t\n"
              "a1 c1 = b1 a1\nb1 a1 = c1 b1\na1 a1 = c1 b1\n")
# c1 commutes with t(0) and t(1), but not with t(-1) of their complement
NEAR_COMMUTING = ("generators: a1 b1 c1 ; families: t\nc1 t(0) = t(0) c1\n"
                  "c1 t(1) = t(1) c1\nschema translation: t(i) t(i-1) = t(j) t(j-1)\n")
LAW_LETTERS = ("a1", "b1", "c1", "t(0)", "t(1)", "t(2)")


@settings(max_examples=200, deadline=None)
@given(text=_distinct_letter_presentation(),
       triple=st.permutations(range(6)).map(lambda order: order[:3]),
       side=st.sampled_from(("right", "left")))
@example(text=NEAR_EQUAL, triple=[0, 2, 1], side="right")
@example(text=NEAR_COMMUTING, triple=[3, 4, 2], side="right")
def test_distinct_letter_lemmas_law(text, triple, side):
    """On random presentations the distinct-letter lemmas give the kernel's
    verdict at every fuel from 0 to 8, on both sides, and an ambiguous pair
    raises from both or from neither; the examples miss one condition of a
    lemma each."""
    p = load_presentation(text, name="random")
    u, v, w = (p.parse(LAW_LETTERS[i]) for i in triple)
    for fuel in range(9):
        _check_replay(p, u, v, w, side, fuel)


def _check_lemma(p, checked, side, target, target_side):
    """A pass of `checked` on `side` is a pass of `target` on `target_side`,
    each verdict computed by a fresh cube_condition.

    At the default fuel, at the step count of the first check's longer
    reversal, where a pass just passes, and at one step less.
    """
    try:
        traces = cube_traces(p, *checked, side=side)
    except AmbiguousComplementError:
        return
    longest = max(t.step_count for t in traces if t is not None)
    for fuel in {DEFAULT_FUEL, longest, max(longest - 1, 0)}:
        if cube_condition(p, *checked, side=side, fuel=fuel).passed:
            res = cube_condition(p, *target, side=target_side, fuel=fuel)
            assert res.passed, (checked, side, target, target_side, fuel)


def _check_mirror(p, u, v, w, side):
    _check_lemma(p, (u, v, w), side, (v, u, w), side)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), side=st.sampled_from(("right", "left")))
def test_mirror_lemma_on_fresh_checks(data, side):
    p = data.draw(st.sampled_from(REPLAY_PRESENTATIONS))
    word = st.lists(st.sampled_from(_letters(p)), min_size=1, max_size=2).map(
        lambda ls: Word(tuple(ls)))
    _check_mirror(p, data.draw(word), data.draw(word), data.draw(word), side)


def test_mirror_verdict_on_a_one_sided_cycle_proof():
    # the first reversal of (c1, a1, b1) is proved to cycle within 8 steps,
    # that of (a1, c1, b1) only later: a verdict other than a pass carried
    # over to the mirror would count the one as the other
    p = load_presentation(SQUARE_CHAIN, name="square-chain")
    a1, b1, c1 = p.parse("a1"), p.parse("b1"), p.parse("c1")
    assert cube_condition(p, c1, a1, b1, fuel=8).reason == "first reversal cycles"
    assert cube_condition(p, a1, c1, b1, fuel=8).reason == "first reversal ran out of fuel"
    _check_mirror(p, a1, c1, b1, "right")
    _check_mirror(p, c1, a1, b1, "right")
    assert certify(p, fuel=8) == _unmirrored_certificate(p, fuel=8)


# classical:3 and a letter in no relation.  A first word of two-letter
# words can stick at one end and cycle at the other, so a left check can
# stop otherwise than the right check of its side mirror.
LOOSE = load_presentation("""\
generators: d1 r1 r2 r3
r1 r2 r1 = r2 r1 r2
r3 r1 r3 = r1 r3 r1
r2 r3 r2 = r3 r2 r3
""", name="loose")

# mirror-symmetric presentations: two cycling or complemented catalog keys,
# one without a family, one with ambiguous pairs, and one with a free letter
SIDE_MIRROR = [catalog.load(k) for k in ("d4:new", "e8:new", "affine-a:classical:3",
                                         "affine-a:cll:4")] + [
    load_presentation(TWO_COMMUTES, name="two-commutes"),
    load_presentation(WIDE_OFFSET, name="wide-offset"), LOOSE]


def _flip(p, word, c):
    """The side mirror of a word: read backwards, each family index i sent to c - i."""
    fams = p.alphabet.integer_families
    return Word(tuple(Letter(Generator(l.gen.family, c - l.gen.index), l.sign)
                      if l.gen.family in fams else l for l in reversed(word)))


def _top_index(p, *words):
    fams = p.alphabet.integer_families
    return max((l.gen.index for w in words for l in w if l.gen.family in fams), default=0)


def _ends(reverse, p, word, fuel):
    """The trace when the reversal ends empty or terminal, else None."""
    try:
        trace = reverse(p, word, fuel)
    except AmbiguousComplementError:
        return None
    return trace if trace.reached_terminal else None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_side_mirror_kernel_law(data):
    """Left-reversing W ends iff right-reversing its flip does: same steps, flipped final word."""
    p = data.draw(st.sampled_from(SIDE_MIRROR))
    assert p.mirror_symmetric()
    letter = st.builds(Letter, st.sampled_from(pair_scan_generators(p)), st.sampled_from((1, -1)))
    word = data.draw(st.lists(letter, max_size=8).map(lambda ls: Word(tuple(ls))))
    c = _top_index(p, word)
    left = _ends(left_reverse, p, word, 500)
    right = _ends(right_reverse, p, _flip(p, word, c), 500)
    assert (left is None) == (right is None), word
    if left is not None:
        assert left.step_count == right.step_count
        assert _flip(p, left.final, c) == right.final


def _check_side_mirror(p, u, v, w, side):
    """A pass of the flipped triple on one side is a pass of (u, v, w) on the other."""
    c = _top_index(p, u, v, w)
    image = tuple(_flip(p, x, c) for x in (u, v, w))
    _check_lemma(p, image, side, (u, v, w), "left" if side == "right" else "right")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), side=st.sampled_from(("right", "left")))
def test_side_mirror_lemma_on_fresh_checks(data, side):
    p = data.draw(st.sampled_from(SIDE_MIRROR))
    word = st.lists(st.sampled_from(_letters(p)), min_size=1, max_size=2).map(
        lambda ls: Word(tuple(ls)))
    _check_side_mirror(p, data.draw(word), data.draw(word), data.draw(word), side)


def test_side_mirror_lemma_on_cycling_triples():
    # classical:3 has first reversals proved to cycle, on either side
    for u, v, w in itertools.permutations(C3.parse(x) for x in ("r1", "r2", "r3")):
        for side in ("right", "left"):
            _check_side_mirror(C3, u, v, w, side)


def _unmirrored_certificate(p, t_bound=3, fuel=DEFAULT_FUEL, word_len=None):
    """certify's certificate rebuilt from a fresh cube_condition on every
    (side, triple): no verdict settles another check.

    An established claim is taken from certify, whose goal and side rules
    this does not restate; it must then find no failure and no open check.
    """
    cert = certify(p, t_bound=t_bound, fuel=fuel, word_len=word_len)
    if cert.claim == "refused":
        return cert
    failures, stalls = [], []
    for side in [side for side, conflicts in zip(("right", "left"), check_complemented(p))
                 if not conflicts]:
        for triple in enumerate_word_triples(p, word_len or 1, t_bound):
            res = cube_condition(p, *triple, side=side, fuel=fuel)
            if res.status == "fail":
                failures.append((side, tuple(map(str, triple)), res.reason))
            elif res.status == "inconclusive":
                stalls.append(res.reason)
    if failures:
        return dataclasses.replace(cert, claim="falsified", failures=tuple(failures),
                                   refusal=None)
    if stalls:
        cycling = stalls.count("first reversal cycles")
        return dataclasses.replace(
            cert, claim="undetermined", failures=(),
            refusal=(f"{len(stalls)} cube checks did not terminate ({cycling} proved to "
                     f"cycle, {len(stalls) - cycling} ran out of fuel)"))
    assert cert.established
    return cert


# every presentation of the mirror laws, once
MIRROR_LAW = list({p.name: p for p in SIDE_MIRROR + REPLAY_PRESENTATIONS}.values())


@pytest.mark.parametrize("fuel", [8, DEFAULT_FUEL])
@pytest.mark.parametrize("p", MIRROR_LAW, ids=lambda p: p.name)
def test_certify_matches_the_unmirrored_certificate(p, fuel):
    """The sweep's u<->v and side mirrors settle checks without changing the certificate."""
    for t_bound in range(3):
        assert certify(p, t_bound=t_bound, fuel=fuel) == _unmirrored_certificate(p, t_bound, fuel)


@pytest.mark.parametrize("fuel", [8, DEFAULT_FUEL])
@pytest.mark.parametrize("p", [C3, LOOSE], ids=lambda p: p.name)
def test_word_sweep_matches_the_unmirrored_certificate(p, fuel):
    # on LOOSE a verdict other than a pass carried to the mirror, or to
    # the other side, changes the failure list
    cert = certify(p, t_bound=0, fuel=fuel, word_len=2)
    assert cert.triples_checked == len(enumerate_word_triples(p, 2, 0))
    assert cert == _unmirrored_certificate(p, 0, fuel, word_len=2)


def _count_runs(monkeypatch):
    """The side of every kernel run that completeness makes from now on."""
    sides = []
    run = completeness._run

    def counted(p, letters, fuel, side, steps):
        sides.append(side)
        return run(p, letters, fuel, side, steps)

    monkeypatch.setattr(completeness, "_run", counted)
    return sides


def test_left_sweep_makes_no_reversal(d4, monkeypatch):
    """Every right check of d4:new passes, so the left sweep reads every verdict."""
    sides = _count_runs(monkeypatch)
    cert = certify(fresh(d4), t_bound=2)
    assert cert.claim == "cancellative-up-to" and "right" in sides and "left" not in sides


@pytest.mark.parametrize("key", ["d4:new", "affine-a:classical:3", "d4:yamada"])
def test_certify_checks_each_triple_once_a_side(key, monkeypatch):
    """One cube_condition call per (side, triple), settled or not; none when refused.

    bench/tracing.py counts these calls, one per (side, triple), against
    the certificates' triple counts."""
    calls = []
    check = completeness.cube_condition

    def counted(p, u, v, w, side="right", **kwargs):
        calls.append((side, (u, v, w)))
        return check(p, u, v, w, side=side, **kwargs)

    monkeypatch.setattr(completeness, "cube_condition", counted)
    p = fresh(catalog.load(key))
    cert = certify(p, t_bound=1)
    triples = enumerate_word_triples(p, 1, 1) if cert.claim != "refused" else []
    assert calls == [(side, t) for side in ("right", "left") for t in triples]


def test_verdict_table_files_a_pass_and_its_mirror(d4, monkeypatch):
    p = fresh(d4)
    s1, s2, t0 = p.parse("s1"), p.parse("s2"), p.parse("t(0)")
    sweep = completeness._Sweep(p, "right")
    assert cube_condition(p, s1, t0, s2, sweep=sweep).passed
    assert sweep == {(s1, t0, s2), (t0, s1, s2)}
    sides = _count_runs(monkeypatch)
    res = cube_condition(p, t0, s1, s2, sweep=sweep)
    assert res.passed and res.triple == (t0, s1, s2) and sides == []
    assert cube_condition(p, t0, s1, s2).passed and sides == ["right", "right"]


def test_verdict_table_mirrors_no_other_verdict():
    # SQUARE_CHAIN is off the locality guard on the right, so its sweep keys nothing
    p = load_presentation(SQUARE_CHAIN, name="square-chain")
    a1, b1, c1 = p.parse("a1"), p.parse("b1"), p.parse("c1")
    sweep = completeness._Sweep(p, "right")
    assert sweep.tables is None
    assert cube_condition(p, c1, a1, b1, fuel=8, sweep=sweep).reason == "first reversal cycles"
    assert sweep == set() and sweep.verdicts == {}
    res = cube_condition(p, a1, c1, b1, fuel=8, sweep=sweep)
    assert res.reason == "first reversal ran out of fuel"


def test_left_sweep_computes_its_checks_after_a_right_non_pass(monkeypatch):
    """classical:3 is mirror-symmetric, but some right checks do not pass:
    the left side then gets a sweep of its own and runs the kernel on the
    left as often as a fresh left sweep does: once, for the one local type
    of three distinct letters that no lemma settles."""
    sides = _count_runs(monkeypatch)
    p = fresh(C3)
    assert p.mirror_symmetric()
    cert = certify(p)
    left_runs = sides.count("left")
    assert cert.claim == "undetermined"
    sides.clear()
    sweep = completeness._Sweep(p, "left")
    for u, v, w in enumerate_word_triples(p, 1, cert.t_bound):
        cube_condition(p, u, v, w, side="left", sweep=sweep)
    assert left_runs == len(sides) == 1
    assert cert == _unmirrored_certificate(p)


def test_left_side_mirror_sweep_reads_no_key(d4, monkeypatch):
    """On d4:new the left side keeps the right sweep, and every left triple
    is in its set: no left check reads a key, so a key needs no side slot."""
    reads, current = {"right": 0, "left": 0}, []
    check, key = completeness.cube_condition, completeness._Sweep.key

    def traced(p, u, v, w, side="right", **kwargs):
        current[:] = [side]
        return check(p, u, v, w, side=side, **kwargs)

    def counted(sweep, u, v, w):
        reads[current[0]] += 1
        return key(sweep, u, v, w)

    monkeypatch.setattr(completeness, "cube_condition", traced)
    monkeypatch.setattr(completeness._Sweep, "key", counted)
    assert certify(fresh(d4), t_bound=2).claim == "cancellative-up-to"
    assert reads["right"] > 0 and reads["left"] == 0


def test_sweep_needs_a_complemented_side():
    # certify sweeps only complemented sides; a sweep's tables meet the conflict
    p = load_presentation("generators: a1 b1\na1 b1 = b1 a1\na1 b1 a1 = b1 a1 b1\n",
                          name="two-relations")
    with pytest.raises(AmbiguousComplementError, match=r"pair \(a1, b1\)"):
        completeness._Sweep(p, "right")


# the lemma presentations and three affine keys, one of them cycling
LOCALITY_PRESENTATIONS = LEMMA_PRESENTATIONS + [catalog.load(k) for k in (
    "affine-a:cll:4", "affine-a:classical:3", "affine-a:classical:5")]


def _type_hits(monkeypatch):
    """(hits, calls) of the cube_condition calls made from now on, each as
    (p, triple, side, fuel, status, reason).  A hit is a check settled by
    its local type: a call whose triple is not in its sweep's set and which
    computes no verdict."""
    hits, calls, computed = [], [], []
    verdict, check = completeness._verdict, completeness.cube_condition

    def counted(*args):
        computed.append(args)
        return verdict(*args)

    def traced(p, u, v, w, side="right", fuel=DEFAULT_FUEL, sweep=None):
        found = sweep is not None and (u, v, w) in sweep
        before = len(computed)
        res = check(p, u, v, w, side=side, fuel=fuel, sweep=sweep)
        calls.append((p, (u, v, w), side, fuel, res.status, res.reason))
        if not found and len(computed) == before:
            hits.append(calls[-1])
        return res

    monkeypatch.setattr(completeness, "_verdict", counted)
    monkeypatch.setattr(completeness, "cube_condition", traced)
    return hits, calls


def test_local_types_agree_with_fresh_checks(monkeypatch):
    """Every check that certify settles by its local type, at t_bound 2, on
    both sides and at fuel 0 to 8, has the verdict of a fresh cube_condition
    without a table; the sweeps settle the pinned number of their checks so."""
    check = cube_condition
    hits, calls = _type_hits(monkeypatch)
    for p in LOCALITY_PRESENTATIONS:
        for fuel in range(9):
            certify(fresh(p), t_bound=2, fuel=fuel)
    for p, triple, side, fuel, status, reason in hits:
        res = check(p, *triple, side=side, fuel=fuel)
        assert (res.status, res.reason) == (status, reason), (p.name, triple, side, fuel)
    assert (len(hits), len(calls)) == (32200, 52335)


def test_local_types_keep_the_pinned_verdicts_of_a_pass(monkeypatch):
    """The eight :new certify calls of one certify-elliptic pass compute the
    pinned numbers of verdicts and kernel runs: a key that split a local
    type would compute more of them, one that merged two types fewer."""
    verdicts = []
    runs = _count_runs(monkeypatch)
    verdict = completeness._verdict

    def counted(*args):
        verdicts.append(args)
        return verdict(*args)

    monkeypatch.setattr(completeness, "_verdict", counted)
    for key in ("d4:new", "e6:new", "e7:new", "e8:new"):
        for t_bound in (3, 6):
            assert certify(catalog.load(key), t_bound=t_bound).claim == "cancellative-up-to"
    assert (len(verdicts), len(runs)) == (2012, 536)


def test_no_local_types_outside_the_guard(monkeypatch):
    """On the right of BOUNDARY_GUARD a complement brings in a finite letter
    outside its pair, so that side gets no keys, and the certificate is the
    one a sweep without the tables gives; the left is not complemented."""
    p = load_presentation(BOUNDARY_GUARD, name="boundary-guard")
    t0, t1, s1, s2 = (p.parse(x) for x in ("t(0)", "t(1)", "s1", "s2"))
    assert cube_condition(p, t0, t1, s1).passed
    assert cube_condition(p, t0, t1, s2).reason == "not-trivial"
    hits, calls = _type_hits(monkeypatch)
    cert = certify(p, t_bound=2)
    assert hits == [] and {side for _, _, side, _, _, _ in calls} == {"right"}
    assert cert.claim == "falsified"
    assert ("right", ("t(0)", "t(1)", "s2"), "not-trivial") in cert.failures
    assert cert == _unmirrored_certificate(p, 2)


@st.composite
def _local_type_presentation(draw):
    """s1 to s3 or s4 and the family t, drawn so that letters share roles:
    each s letter commutes or braids with every t(i), or has no relation
    with t, each kind through one schema whose finite parameter ranges over
    the letters of that kind; each pair of s letters commutes, braids or has
    no relation; t has a translation schema or none.  Now and then a second
    family u commutes with t and with some s letters, and now and then a
    schema puts a finite letter inside a complement of (t(i), t(i+1))."""
    letters = list(range(1, draw(st.integers(3, 4)) + 1))
    second = draw(st.booleans()) and draw(st.booleans())
    lines = ["generators: " + " ".join(f"s{k}" for k in letters)
             + (" ; families: t u" if second else " ; families: t")]
    kinds = {k: draw(st.sampled_from(("commute", "braid", "none"))) for k in letters}
    shapes = {"commute": "s(j) t(i) = t(i) s(j)", "braid": "s(j) t(i) s(j) = t(i) s(j) t(i)"}
    for kind, shape in shapes.items():
        domain = [k for k in letters if kinds[k] == kind]
        if domain:
            lines.append(f"schema {kind} [i in Z; j in {{{', '.join(map(str, domain))}}}]: {shape}")
    for x, y in itertools.combinations(letters, 2):
        kind = draw(st.sampled_from(("commute", "braid", "none")))
        if kind == "commute":
            lines.append(f"s{x} s{y} = s{y} s{x}")
        elif kind == "braid":
            lines.append(f"s{x} s{y} s{x} = s{y} s{x} s{y}")
    if draw(st.booleans()):
        lines.append("schema translation: t(i) t(i-1) = t(j) t(j-1)")
    elif draw(st.booleans()):
        lines.append(f"schema inside: t(i) s{draw(st.sampled_from(letters))} t(i) = "
                     f"t(i+1) s{letters[0]} t(i)")
    if second:
        lines.append("schema tu: t(i) u(j) = u(j) t(i)")
        for k in letters:
            if draw(st.booleans()):
                lines.append(f"schema u{k}: s{k} u(i) = u(i) s{k}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=_local_type_presentation(), t_bound=st.integers(0, 1),
       fuel=st.sampled_from((2, 5, DEFAULT_FUEL)))
@example(text=TWO_FAMILIES, t_bound=1, fuel=DEFAULT_FUEL)
@example(text=BOUNDARY_GUARD, t_bound=1, fuel=DEFAULT_FUEL)
def test_local_type_law(text, t_bound, fuel):
    """On random translation-invariant presentations whose letters share
    roles, certify gives the certificate of a sweep without the local-type
    tables; the examples need a role's second family, and the guard."""
    p = load_presentation(text, name="random")
    assert certify(p, t_bound=t_bound, fuel=fuel) == _unmirrored_certificate(
        fresh(p), t_bound, fuel)


@pytest.mark.parametrize("key", ["d4:new", "affine-a:classical:3"])
def test_no_verdict_outlives_a_certify_call(key, monkeypatch):
    """A second certify call on the same presentation runs every reversal again."""
    sides = _count_runs(monkeypatch)
    p = fresh(catalog.load(key))
    first = certify(p, t_bound=2, fuel=8)
    runs = len(sides)
    assert certify(p, t_bound=2, fuel=8) == first
    assert len(sides) == 2 * runs > 0
    assert not hasattr(p, "_cubes")


def test_certify_builds_no_trace(d4, monkeypatch):
    """The sweep reads outcomes only: with trace building broken, the certificate holds."""
    expected = certify(d4, t_bound=2).to_json()

    def no_trace(*args):
        raise AssertionError("certify built a reversal trace")

    monkeypatch.setattr(reversing, "_reverse", no_trace)
    assert certify(d4, t_bound=2).to_json() == expected
    with pytest.raises(AssertionError, match="built a reversal trace"):
        cube_traces(d4, d4.parse("s1"), d4.parse("s2"), d4.parse("s3"))


def test_cube_validation(d4):
    with pytest.raises(ValueError):
        cube_condition(d4, d4.parse("s1"), d4.parse("s2"), d4.parse("s3"), side="up")
    with pytest.raises(ValueError):
        cube_traces(d4, d4.parse("s1"), d4.parse("s2"), d4.parse("s3"), side="up")
    with pytest.raises(ValueError):
        cube_condition(d4, d4.parse("s1^-1"), d4.parse("s2"), d4.parse("s3"))


def test_cube_traces_refuses_non_positive_words(d4):
    # the check cube_condition refuses is not traced either
    s2, s3 = d4.parse("s2"), d4.parse("s3")
    for u in (d4.parse("s1^-1"), d4.parse("s1 s1^-1")):
        for side in ("right", "left"):
            for triple in ((u, s2, s3), (s2, s3, u)):
                with pytest.raises(ValueError, match="expects positive words"):
                    cube_traces(d4, *triple, side=side)


def test_positivity_is_checked_on_a_warm_cache(d4):
    # certify has filed every complement the lemmas look up; a bare call still checks
    p = fresh(d4)
    s1, s2, s3 = p.parse("s1"), p.parse("s2"), p.parse("s3")
    assert certify(p, t_bound=1).claim == "cancellative-up-to"
    assert cube_condition(p, s1, s2, s3).passed
    for u in (p.parse("s1^-1"), p.parse("s1 s1^-1")):
        for side in ("right", "left"):
            for triple in ((u, s2, s3), (s2, u, s3), (s2, s3, u)):
                with pytest.raises(ValueError, match="expects positive words"):
                    cube_condition(p, *triple, side=side)


@pytest.mark.parametrize("kwargs,message", [
    ({"t_bound": -1}, "t_bound must be >= 0"),
    ({"word_len": 0}, "word_len must be >= 1"),
    ({"word_len": -2, "t_bound": 1}, "word_len must be >= 1"),
])
def test_certify_validates_its_bounds(kwargs, message):
    # refusing presentations too: a refused certificate would carry the bad bound
    for p in (catalog.load("d4:yamada"), catalog.load("d4:new"),
              load_presentation(PINNED_T, name="pinned-t"),
              load_presentation(NONHOM, name="nonhom")):
        with pytest.raises(ValueError, match=message):
            certify(p, **kwargs)


def test_negative_fuel_is_refused(d4, yamada):
    s1, s2, s3 = d4.parse("s1"), d4.parse("s2"), d4.parse("s3")
    with pytest.raises(ValueError, match="fuel must be >= 0"):
        cube_condition(d4, s1, s2, s3, fuel=-5)
    for p in (d4, yamada, load_presentation(PINNED_T, name="pinned-t")):
        with pytest.raises(ValueError, match="fuel must be >= 0"):
            certify(p, fuel=-5)
    # fuel 0 is a budget of no steps: the first reversal has a redex left
    assert cube_condition(d4, s1, s2, s3, fuel=0).reason == "first reversal ran out of fuel"
    assert certify(d4, t_bound=0, fuel=0).claim == "undetermined"


def test_enumerate_generator_triples(d4):
    assert len(enumerate_word_triples(d4, 1, 0)) == 125
    triples = enumerate_word_triples(d4, 1, 3)
    assert len(triples) == 395
    for triple in triples:
        indices = [w[0].gen.index for w in triple if w[0].gen.family == "t"]
        assert not indices or min(indices) == 0
    c3 = catalog.load("affine-a:classical:3")
    assert len(enumerate_word_triples(c3, 1)) == 27
    with pytest.raises(ValueError):
        enumerate_word_triples(d4, 1, -1)


@pytest.mark.parametrize("key,max_len,t_bound", [
    ("d4:new", 1, 0), ("d4:new", 1, 3), ("d4:new", 2, 1),
    ("e8:new", 1, 6), ("e8:new", 2, 0),
    ("affine-a:classical:3", 1, 3), ("affine-a:classical:3", 2, 3),
])
def test_enumeration_order_matches_reference(key, max_len, t_bound):
    p = catalog.load(key)
    got = iter(enumerate_word_triples(p, max_len, t_bound))
    want = reference_word_triples(p, max_len, t_bound)
    while True:  # in slices: e8:new at max_len 2 has 729,000 triples
        chunk = list(itertools.islice(got, 10_000))
        assert chunk == list(itertools.islice(want, 10_000))
        if not chunk:
            break


def test_enumerate_word_triples():
    p = load_presentation(ONE_SIDED, name="one-sided")
    assert len(enumerate_word_triples(p, 2)) == 216  # (2 + 4)^3
    with pytest.raises(ValueError):
        enumerate_word_triples(p, 0)


@pytest.mark.parametrize("key,max_len,t_bound", [
    ("d4:new", 1, 0), ("d4:new", 2, 1), ("e8:new", 1, 6),
    ("d4:yamada", 2, 2), ("affine-a:classical:3", 2, 3),
])
def test_sweep_cap_is_the_exact_triple_count(monkeypatch, key, max_len, t_bound):
    # the guard counts the kept triples arithmetically: a cap at the count
    # enumerates them all, a cap one below refuses
    p = catalog.load(key)
    count = len(enumerate_word_triples(p, max_len, t_bound))
    monkeypatch.setattr(completeness, "MAX_TRIPLES", count)
    assert len(enumerate_word_triples(p, max_len, t_bound)) == count
    monkeypatch.setattr(completeness, "MAX_TRIPLES", count - 1)
    with pytest.raises(SweepCapError):
        enumerate_word_triples(p, max_len, t_bound)


def test_sweep_cap_refuses_before_building():
    # 200,002 generators: the cube product alone has about 8e15 entries
    p = load_presentation("generators: s1 ; families: t\n"
                          "schema tb: t(i) s1 t(i) = s1 t(i) s1\n", name="tb")
    start = time.perf_counter()
    with pytest.raises(SweepCapError, match=r"^word triples up to length 1 at t_bound 100000 "):
        certify(p, t_bound=100_000)
    with pytest.raises(SweepCapError, match=r"^word triples up to length 3 at t_bound 3 "):
        certify(p, word_len=10 ** 9)
    assert time.perf_counter() - start < 1
    assert certify(p, t_bound=1).triples_checked == len(enumerate_word_triples(p, 1, 1))


def test_certify_elliptic(d4):
    cert = certify(d4)
    assert cert.claim == "cancellative-up-to" and cert.established
    assert cert.triples_checked == 395 and not cert.failures
    assert cert.refusal is None
    assert cert.to_json() == D4_CERT_JSON


def test_certify_complete_goal(d4):
    cert = certify(d4, goal="complete")
    assert cert.claim == "complete-up-to" and cert.established
    with pytest.raises(ValueError):
        certify(d4, goal="bogus")


def test_certify_refuses_yamada(yamada):
    cert = certify(yamada)
    assert cert.claim == "refused" and not cert.established
    assert cert.triples_checked == 0
    assert "(s1, t(1))" in cert.refusal


@pytest.mark.parametrize("key,solves", [("d4:yamada", 11), ("e8:yamada", 19)])
def test_refused_certify_solves_up_to_each_first_conflict(key, solves, monkeypatch):
    """Each side's scan stops at its first conflict, the one witness that
    rules the side out, so a refused certify solves no pair after it; the
    full scan of both sides solves 50 and 116 pairs."""
    calls = []
    solve = presentation._solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(presentation, "_solve", counted)
    assert certify(catalog.load(key)).claim == "refused"
    assert len(calls) == solves


def test_certify_refuses_wide_offset_conflict():
    # both schemas lead and trail with a pair five indices apart
    p = load_presentation(WIDE_OFFSET, name="wide-offset")
    cert = certify(p)
    assert cert.claim == "refused"
    assert "(t(0), t(5))" in cert.refusal


def test_certify_names_the_relation_of_a_diagonal_conflict():
    # both sides of a1 b1 = a1 c1 start with a1, both of b1 a1 = c1 a1 end with
    # a1: each side has one conflict, and no pair heads two relations
    p = load_presentation(GLUE + "b1 a1 = c1 a1\n", name="diagonal")
    cert = certify(p)
    assert cert.claim == "refused" and cert.triples_checked == 0
    assert cert.refusal == ("not complemented on either side; e.g. both sides of relation "
                            "rel_1 (a1 b1 = a1 c1) start with a1")


@pytest.mark.parametrize("t_bound", [3, 5])
def test_certify_refuses_a_pinned_index(t_bound):
    # the normalised sweep would move t(10) and claim falsified at t_bound 3;
    # at t_bound 5 its triples reach (a1, t(10)) and hit two relations
    p = load_presentation(PINNED_T, name="pinned-t")
    assert not p.translation_invariant()
    for word_len in (None, 1):
        cert = certify(p, t_bound=t_bound, word_len=word_len)
        assert cert.claim == "refused" and cert.triples_checked == 0
        assert cert.refusal.startswith("schema rel_2 pins the index of t(10)")


def test_catalog_families_are_translation_invariant():
    # so the pinned-index refusal leaves every catalog verdict alone
    keys = list(catalog.FIXED_NAMES) + [
        f"affine-a:{family}:{n}" for family in ("classical", "shi", "cll") for n in (3, 4, 5)]
    for key in keys:
        p = catalog.load(key)
        assert p.pinned_letter() is None and p.translation_invariant(), key


def test_certify_refuses_inhomogeneous():
    p = load_presentation(NONHOM, name="nonhom")
    cert = certify(p)
    assert cert.claim == "refused"
    assert "rerun with a word length" in cert.refusal


def test_hand_built_presentation_does_not_claim_homogeneity():
    # homogeneity is computed from the schemas, not a flag that defaults to True
    alphabet = Alphabet({"a": (1,), "b": (1,)})
    rel = Schema("r", (), (PatternLetter("a", 1),), (PatternLetter("b", 1),) * 2)
    p = Presentation("hand", alphabet, (rel,))
    assert not p.homogeneous
    cert = certify(p)
    assert cert.claim == "refused" and "not homogeneous" in cert.refusal


def test_certify_word_mode():
    p = load_presentation(NONHOM, name="nonhom")
    cert = certify(p, word_len=2)
    assert cert.claim == "complete-up-to" and cert.established
    assert cert.triples_checked == 216 and not cert.failures
    assert "does not imply cancellativity" in cert.refusal


def test_certify_falsified(skewed):
    cert = certify(skewed)
    assert cert.claim == "falsified" and not cert.established
    assert cert.triples_checked == 27 and len(cert.failures) == 4
    assert cert.failures[0] == ("right", ("a1", "b1", "c1"), "not-trivial")
    data = json.loads(cert.to_json())
    assert data["failures"][0] == {
        "side": "right", "triple": ["a1", "b1", "c1"], "reason": "not-trivial"}


@pytest.mark.parametrize("text, refused", [
    (TWO_COMMUTES, False), (SKEWED, False), (GLUE, False),
    # a family name the letter grammar cannot read back is refused, not certified
    ("generators: a1 ; families: t(1)\n", True),
])
def test_falsified_witnesses_parse_back(text, refused):
    # a falsified certificate's witness is words the presentation reads back
    if refused:
        with pytest.raises(WordSyntaxError):
            load_presentation(text)
        return
    p = load_presentation(text)
    cert = certify(p, t_bound=0)
    assert cert.claim == "falsified" and cert.failures
    for _, triple, _ in cert.failures:
        assert [str(p.parse(word)) for word in triple] == list(triple)


def test_certify_one_sided_claim():
    p = load_presentation(ONE_SIDED, name="one-sided")
    cert = certify(p)
    assert cert.claim == "right-complete-up-to" and cert.established
    assert cert.triples_checked == 8 and not cert.failures
    assert cert.refusal == ("left side not complemented, "
                            "claim restricted to right reversing")
    word = certify(p, word_len=2)
    assert word.claim == "right-complete-up-to" and word.triples_checked == 216


def test_certify_undetermined_on_divergence():
    cert = certify(catalog.load("affine-a:classical:3"))
    assert cert.claim == "undetermined" and not cert.established
    assert not cert.failures
    assert cert.refusal == ("12 cube checks did not terminate "
                            "(12 proved to cycle, 0 ran out of fuel)")


# the small presentations whose certificates are pinned, under their certificate names
PINNED_SMALL = {"two-commutes": TWO_COMMUTES, "skewed": SKEWED, "glue": GLUE,
                "one-sided": ONE_SIDED, "wide-offset": WIDE_OFFSET, "pinned-t": PINNED_T,
                "square-chain": SQUARE_CHAIN}


def pinned_certificates():
    """(label, certificate JSON) for every certificate the sha256 fixture pins."""
    keys = list(catalog.FIXED_NAMES) + [
        f"affine-a:{family}:{n}" for family in ("classical", "shi", "cll") for n in (3, 4, 5)]
    for key in keys:
        for t_bound, fuel in itertools.product((0, 1, 3), (8, DEFAULT_FUEL)):
            cert = certify(catalog.load(key), t_bound=t_bound, fuel=fuel)
            yield f"{key} t_bound={t_bound} fuel={fuel}", cert.to_json()
    for name, text in PINNED_SMALL.items():
        for word_len in (None, 1, 2):
            cert = certify(load_presentation(text, name=name), word_len=word_len)
            yield f"{name} word_len={word_len}", cert.to_json()


def test_certificates_match_the_pinned_hashes():
    """Certificates, falsified and undetermined ones included, as they were
    before cube verdicts and transposed complements were cached."""
    with open(f"{FIXTURES}/certificates_sha256.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = {label: hashlib.sha256(text.encode()).hexdigest()
           for label, text in pinned_certificates()}
    assert got == pinned
