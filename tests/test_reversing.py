"""Reversing traces, single steps (fuel=1), quotients, grids, and DOT output.

The three-step reversal of t(2)^-1 s3 s3 in d4:new is used as the anchor
case throughout: its full trace, terminal split, grid shape, and DOT
rendering are frozen here letter for letter.
"""

import pytest
from hypothesis import given, settings, strategies as st

from monorev import catalog, load_presentation, save_presentation
from monorev.grid import build_grid, grid_to_dot
from monorev.presentation import (
    AmbiguousComplementError,
    Presentation,
    left_complement,
    pair_scan_generators,
    right_complement,
)
from monorev.reversing import (
    Cycles,
    Diverged,
    Empty,
    Stuck,
    Terminal,
    left_reverse,
    reverse_quotient,
    _translation,
    right_reverse,
)
from monorev.words import Generator, Letter, Word, shift_word

from conftest import GLUE, SKEWED, TWO_COMMUTES

ANCHOR = "t(2)^-1 s3 s3"
ANCHOR_WORDS = [
    "t(2)^-1 s3 s3",
    "s3 t(2) s3^-1 t(2)^-1 s3",
    "s3 t(2) s3^-1 s3 t(2) s3^-1 t(2)^-1",
    "s3 t(2) t(2) s3^-1 t(2)^-1",
]

ANCHOR_DOT = """\
digraph reversing_grid {
  node [shape=point];
  n0 -> n1 [label="s3"];
  n1 -> n2 [label="t(2)"];
  n3 -> n2 [label="s3"];
  n3 -> n5 [label="s3"];
  n4 -> n3 [label="t(2)"];
  n5 -> n6 [label="t(2)"];
  n7 -> n6 [label="s3"];
  n8 -> n7 [label="t(2)"];
  n2 -> n5 [style=dashed, dir=none];
}
"""


def test_anchor_trace(d4):
    trace = right_reverse(d4, d4.parse(ANCHOR))
    assert trace.side == "right" and trace.step_count == 3
    assert [(s.position, s.rule is None) for s in trace.steps] == [
        (0, False), (3, False), (2, True)]
    assert [s.rule.label() if s.rule else None for s in trace.steps] == [
        "t_braid(i=2, j=3)", "t_braid(i=2, j=3)", None]
    assert [str(w) for w in trace.words()] == ANCHOR_WORDS
    assert str(trace.final) == ANCHOR_WORDS[-1]
    out = trace.outcome
    assert isinstance(out, Terminal)
    assert str(out.v_prime) == "s3 t(2) t(2)" and str(out.u_prime) == "t(2) s3"
    assert trace.reached_terminal


def test_touched_indices(d4):
    trace = right_reverse(d4, d4.parse(ANCHOR))
    assert trace.touched_indices("t") == (2, 2)
    assert trace.touched_indices("s") == (3, 3)
    assert trace.touched_indices("r") is None


def test_single_cancellation(d4):
    trace = right_reverse(d4, d4.parse("s3^-1 s3"))
    assert isinstance(trace.outcome, Empty)
    assert trace.step_count == 1
    assert trace.steps[0].rule is None
    assert not trace.final


def test_already_terminal(d4):
    trace = right_reverse(d4, d4.parse("s3 t(2)^-1"))
    assert trace.step_count == 0
    out = trace.outcome
    assert str(out.v_prime) == "s3" and str(out.u_prime) == "t(2)"


def test_stuck(two_commutes):
    trace = right_reverse(two_commutes, two_commutes.parse("b1^-1 c1"))
    assert trace.outcome == Stuck(0, (Generator("b", 1), Generator("c", 1)))
    assert not trace.reached_terminal
    assert str(trace.final) == "b1^-1 c1"


def test_fuel(d4):
    word = d4.parse(ANCHOR)
    short = right_reverse(d4, word, fuel=2)
    assert short.outcome == Diverged(2) and short.step_count == 2
    assert [str(w) for w in short.words()] == ANCHOR_WORDS[:3]
    assert right_reverse(d4, word, fuel=3).reached_terminal
    assert right_reverse(d4, word, fuel=0).outcome == Diverged(0)
    assert right_reverse(d4, d4.parse("s3 t(2)^-1"), fuel=0).reached_terminal


def test_negative_fuel_is_refused(d4):
    word = d4.parse(ANCHOR)
    right_reverse(d4, word)  # its complements are cached now
    for reverse in (right_reverse, left_reverse):
        with pytest.raises(ValueError, match="fuel must be >= 0"):
            reverse(d4, word, fuel=-1)
    with pytest.raises(ValueError, match="fuel must be >= 0"):
        reverse_quotient(d4, d4.parse("s3"), d4.parse("s3"), fuel=-1)


def test_cycle_proof(d4):
    u, v = d4.parse("s3 t(-2) s1 t(-2)"), d4.parse("t(-2) s3 t(0)")
    trace = reverse_quotient(d4, u, v)
    assert trace.outcome == Cycles(28, 12, -2) and not trace.reached_terminal
    assert trace.step_count == 28
    assert [str(w) for w in trace.words()][-1] == str(trace.final)
    # detection does not depend on fuel, only fuel below the proof cuts it short
    assert reverse_quotient(d4, u, v, fuel=28).outcome == Cycles(28, 12, -2)
    short = reverse_quotient(d4, u, v, fuel=27)
    assert short.outcome == Diverged(27) and short.steps == trace.steps[:27]


def test_shifted_cycle_needs_translation_invariance(d4):
    # a relation at the fixed index t(100) breaks translation invariance, so
    # the shift -2 repetition is no proof there and fuel has the last word
    pinned = load_presentation(save_presentation(d4) + "t(100) s4 = s4 t(100)\n",
                               name="pinned")
    assert d4.translation_invariant() and not pinned.translation_invariant()
    u, v = pinned.parse("s3 t(-2) s1 t(-2)"), pinned.parse("t(-2) s3 t(0)")
    trace = reverse_quotient(pinned, u, v, fuel=2000)
    assert trace.outcome == Diverged(2000)
    proved = reverse_quotient(d4, d4.parse(str(u)), d4.parse(str(v)))
    assert [str(w) for w, _ in zip(trace.words(), range(29))] == \
        [str(w) for w in proved.words()]


# letters of two integer families, t and u, and of a finite one, s
SHIFTED = frozenset({"t", "u"})
MIXED_LETTER = st.builds(Letter, st.one_of(
    st.builds(Generator, st.sampled_from(sorted(SHIFTED)), st.integers(-3, 3)),
    st.builds(Generator, st.just("s"), st.integers(1, 3))), st.sampled_from((1, -1)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(-4, 4), d=st.integers(-3, 3).filter(bool))
def test_translation_recognises_shift_word(data, k, d):
    """The cycle proof's shift recogniser finds the shift that shift_word made,
    and no shift once a finite index, a sign or one family alone moves."""
    w = data.draw(st.lists(MIXED_LETTER, min_size=1, max_size=8))
    moved = list(shift_word(Word(w), k, SHIFTED))
    families = {l.gen.family for l in w}
    assert _translation(moved, w, SHIFTED) == (k if families & SHIFTED else 0)
    i = data.draw(st.integers(0, len(w) - 1))
    assert _translation(moved[:i] + [moved[i].inverse()] + moved[i + 1:], w, SHIFTED) is None
    if "s" in families:
        j = data.draw(st.sampled_from([j for j, l in enumerate(w) if l.gen.family == "s"]))
        nudged = Letter(Generator("s", moved[j].gen.index + d), moved[j].sign)
        assert _translation(moved[:j] + [nudged] + moved[j + 1:], w, SHIFTED) is None
    if families >= SHIFTED:
        apart = shift_word(shift_word(Word(w), k, frozenset({"t"})), k + d, frozenset({"u"}))
        assert _translation(list(apart), w, SHIFTED) is None


def test_left_anchor(d4):
    # the mirror image of the anchor word reverses to the mirrored terminal
    trace = left_reverse(d4, d4.parse("s3 s3 t(2)^-1"))
    assert [(s.position, s.rule is None) for s in trace.steps] == [
        (1, False), (0, False), (3, True)]
    out = trace.outcome
    assert str(out.v_prime) == "t(2) t(2) s3" and str(out.u_prime) == "s3 t(2)"
    assert str(trace.final) == "t(2)^-1 s3^-1 t(2) t(2) s3"


def test_one_step_replays_full_trace(d4):
    word = d4.parse(ANCHOR)
    full = right_reverse(d4, word)
    steps = []
    cur = word
    while True:
        got = right_reverse(d4, cur, fuel=1)
        if not got.steps:  # no redex left
            break
        steps.extend(got.steps)
        cur = got.final
    assert steps == list(full.steps)
    assert cur == full.final


def test_one_step_terminal_and_stuck(d4, two_commutes):
    got = right_reverse(d4, d4.parse("s3 t(2)^-1"), fuel=1)
    assert not got.steps and got.reached_terminal
    got = right_reverse(two_commutes, two_commutes.parse("b1^-1 c1"), fuel=1)
    assert isinstance(got.outcome, Stuck)
    got = left_reverse(d4, d4.parse("s3 s3^-1"), fuel=1)
    (step,), after = got.steps, got.final
    assert step.rule is None and not after


def test_ambiguity_propagates(yamada):
    with pytest.raises(AmbiguousComplementError):
        right_reverse(yamada, yamada.parse("s1^-1 t(1)"))


# -- transposition: W^-1 reverses along the transposed diagram of W -----------

MIRROR_PRESENTATIONS = [catalog.load(k) for k in
                        ("d4:new", "e8:new", "d4:yamada", "affine-a:classical:3")] + [
    load_presentation(text, name=name) for name, text in
    (("skewed", SKEWED), ("glue", GLUE), ("two-commutes", TWO_COMMUTES))]


def _signed_letters(p):
    return [Letter(g, sign) for g in pair_scan_generators(p) for sign in (1, -1)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), side=st.sampled_from(("right", "left")))
def test_inverse_word_reverses_alike(data, side):
    """If W ends Empty or Terminal, W^-1 ends the same way, in as many steps,
    on the inverse final word."""
    p = data.draw(st.sampled_from(MIRROR_PRESENTATIONS))
    word = Word(tuple(data.draw(st.lists(st.sampled_from(_signed_letters(p)),
                                         min_size=1, max_size=8))))
    reverse = right_reverse if side == "right" else left_reverse
    try:
        trace = reverse(p, word, 2000)
        if not trace.reached_terminal:
            return
        mirror = reverse(p, word.inverse(), 2000)
    except AmbiguousComplementError:
        return
    assert type(mirror.outcome) is type(trace.outcome)
    assert mirror.step_count == trace.step_count
    assert mirror.final == trace.final.inverse()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), side=st.sampled_from(("right", "left")))
def test_transposed_complement_is_the_fresh_one(data, side):
    """After a lookup of (x, y), the (y, x) entry is what a fresh lookup finds."""
    p = data.draw(st.sampled_from(MIRROR_PRESENTATIONS))
    gens = pair_scan_generators(p)
    x, y = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))
    complement = right_complement if side == "right" else left_complement

    def lookup(q, a, b):
        try:
            return complement(q, a, b)
        except AmbiguousComplementError as exc:
            return str(exc)

    shared = Presentation(p.name, p.alphabet, p.schemas)
    lookup(shared, x, y)
    assert lookup(shared, y, x) == lookup(Presentation(p.name, p.alphabet, p.schemas), y, x)


def test_translation_pairs_keep_their_own_bindings(d4):
    # the translation schema hits (t(0), t(1)) and (t(1), t(0)) with i and j
    # exchanged, so the swapped instance of the one is not the other's
    p = Presentation(d4.name, d4.alphabet, d4.schemas)
    t0, t1 = Generator("t", 0), Generator("t", 1)
    assert right_complement(p, t0, t1).rule.bindings == (("i", 0), ("j", 1))
    assert right_complement(p, t1, t0).rule.bindings == (("i", 1), ("j", 0))


def test_reverse_quotient_equal(d4):
    u = d4.parse("t(1) t(0) s1 t(1) t(0) s1")
    v = d4.parse("s1 t(1) t(0) s1 t(1) t(0)")
    for side in ("right", "left"):
        trace = reverse_quotient(d4, u, v, side=side)
        assert isinstance(trace.outcome, Empty)
        assert trace.step_count == 17


def test_reverse_quotient_common_multiple(d4):
    trace = reverse_quotient(d4, d4.parse("s3"), d4.parse("t(2)"))
    out = trace.outcome
    assert str(out.v_prime) == "t(2) s3" and str(out.u_prime) == "s3 t(2)"
    # u v' and v u' really are the two sides of the braid relation
    assert str(d4.parse("s3") * out.v_prime) == "s3 t(2) s3"
    assert str(d4.parse("t(2)") * out.u_prime) == "t(2) s3 t(2)"


def test_reverse_quotient_validation(d4):
    with pytest.raises(ValueError):
        reverse_quotient(d4, d4.parse("s3^-1"), d4.parse("s3"))
    with pytest.raises(ValueError):
        reverse_quotient(d4, d4.parse("s3"), d4.parse("s3"), side="up")


# -- grids -----------------------------------------------------------------


def boundary_word(grid):
    """The grid's final path read as a word; equals the trace's final word."""
    w = Word(tuple(Letter(e.label, sign) for e, sign in grid.final_path))
    return w.reversed() if grid.side == "left" else w


def test_anchor_grid(d4):
    grid = build_grid(right_reverse(d4, d4.parse(ANCHOR)))
    assert len(grid.nodes) == 10
    assert len(grid.path_edges) == 3
    assert len(grid.completion_edges) == 8
    assert len(grid.epsilon_arcs) == 1
    assert [c.rule.label() for c in grid.cells] == [
        "t_braid(i=2, j=3)", "t_braid(i=2, j=3)"]
    assert str(boundary_word(grid)) == ANCHOR_WORDS[-1]


def test_anchor_dot(d4):
    grid = build_grid(right_reverse(d4, d4.parse(ANCHOR)))
    assert grid_to_dot(grid) == ANCHOR_DOT


def test_epsilon_only_grid(d4):
    grid = build_grid(right_reverse(d4, d4.parse("s3^-1 s3")))
    # three path nodes, but the DOT keeps only the two the arc touches
    assert len(grid.nodes) == 3 and not grid.completion_edges
    dot = grid_to_dot(grid)
    assert dot == (
        "digraph reversing_grid {\n"
        "  node [shape=point];\n"
        "  n0 -> n1 [style=dashed, dir=none];\n"
        "}\n"
    )


def test_left_grid_mirrors(d4):
    trace = left_reverse(d4, d4.parse("s3 s3 t(2)^-1"))
    grid = build_grid(trace)
    assert grid.side == "left"
    assert len(grid.cells) == 2 and len(grid.epsilon_arcs) == 1
    assert str(boundary_word(grid)) == str(trace.final)


def test_grid_requires_terminal(d4):
    trace = right_reverse(d4, d4.parse(ANCHOR), fuel=1)
    with pytest.raises(ValueError):
        build_grid(trace)
