"""Headline behaviors, one test each, with their runtime budgets.

These are the checks the package stands on: the worked reversal and cube
examples reproduced move for move, the complementedness split between the
presentation families, bounded completeness and cancellativity certificates,
derivation replays cross-checked against reversing and the brute-force
oracle, and the generative law suites.  Budgets are asserted so a silent
performance regression fails loudly.
"""

import json
import os
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from monorev import catalog, load_presentation
from monorev.completeness import certify, cube_condition, cube_traces
from monorev.derivation import parse_script, verify_script, verify_translation_product
from monorev.grid import build_grid, grid_to_dot
from monorev.oracle import cancellation_scan, monoid_equal
from monorev.presentation import (
    check_complemented,
    instantiate_window,
    left_complement,
    right_complement,
)
from monorev.reversing import (
    Cycles,
    Diverged,
    Empty,
    Stuck,
    left_reverse,
    reverse_quotient,
    right_reverse,
)
from monorev.words import (
    EPSILON,
    Generator,
    Letter,
    Word,
    free_reduce,
    parse_word,
    shift_word,
)

from conftest import FIXTURES, TWO_COMMUTES, reference_reverse

NEW_KEYS = ("d4:new", "e6:new", "e7:new", "e8:new")
YAMADA_KEYS = ("d4:yamada", "e6:yamada", "e7:yamada", "e8:yamada")

D4 = catalog.load("d4:new")
SUITE = settings(max_examples=500, deadline=None)


@pytest.fixture(scope="module")
def elliptic_certs():
    t0 = time.perf_counter()
    certs = {key: certify(catalog.load(key), t_bound=3, fuel=10000)
             for key in NEW_KEYS}
    return certs, time.perf_counter() - t0


def test_reversal_worked_example():
    t0 = time.perf_counter()
    trace = right_reverse(D4, D4.parse("t(2)^-1 s3 s3"))
    assert trace.step_count == 3
    assert trace.reached_terminal
    assert str(trace.final) == "s3 t(2) t(2) s3^-1 t(2)^-1"
    grid = build_grid(trace)
    assert len(grid.cells) == 2 and len(grid.epsilon_arcs) == 1
    dot = grid_to_dot(grid)
    assert dot.count("label=") == 8 and dot.count("style=dashed") == 1
    assert time.perf_counter() - t0 < 1.0


def test_cube_worked_example():
    t0 = time.perf_counter()
    e8 = catalog.load("e8:new")
    triple = e8.parse("s7"), e8.parse("t(2)"), e8.parse("s8")
    res = cube_condition(e8, *triple)
    assert res.passed and res.reason == "ok"
    assert isinstance(cube_traces(e8, *triple)[1].outcome, Empty)
    assert time.perf_counter() - t0 < 1.0


def test_complementedness_split():
    t0 = time.perf_counter()
    for key in NEW_KEYS:
        right, left = check_complemented(catalog.load(key))
        assert right == () and left == (), key
    for key in YAMADA_KEYS:
        right, _ = check_complemented(catalog.load(key))
        assert right, key
        pair, witnesses = right[0]
        # two relations lead with the same pair: a braid and a double twist
        assert len(witnesses) == 2
        assert {w.schema.split("_")[0] for w in witnesses} == {"t", "double"}
        assert {pair[0].family, pair[1].family} == {"s", "t"}
    assert time.perf_counter() - t0 < 5.0


def test_bounded_completeness(elliptic_certs):
    certs, elapsed = elliptic_certs
    expected_triples = {"d4:new": 395, "e6:new": 685, "e7:new": 890, "e8:new": 1143}
    for key, cert in certs.items():
        assert cert.failures == (), key
        assert cert.refusal is None, key
        assert cert.triples_checked == expected_triples[key]
    assert elapsed < 300.0


def test_cancellativity_certificates(elliptic_certs):
    certs, _ = elliptic_certs
    for key, cert in certs.items():
        assert cert.claim == "cancellative-up-to", key
        assert cert.established
        data = json.loads(cert.to_json())
        assert data["t_bound"] == 3 and data["fuel"] == 10000


def test_double_twist_derivations():
    t0 = time.perf_counter()
    w2 = instantiate_window(D4, 2)
    for j in (1, 2, 3, 4):
        path = os.path.join(FIXTURES, f"double_twist_s{j}.script")
        with open(path, encoding="utf-8") as fh:
            script = parse_script(fh.read(), D4)
        assert len(script.steps) == 7
        result = verify_script(D4, script)
        assert result.ok, (j, result.error)
        # the same equality, twice more: by reversing and by closure
        trace = reverse_quotient(D4, script.start, script.expect)
        assert isinstance(trace.outcome, Empty)
        assert monoid_equal(w2, w2.parse(str(script.start)),
                            w2.parse(str(script.expect)))
    assert time.perf_counter() - t0 < 5.0


def test_translation_products():
    t0 = time.perf_counter()
    assert all(verify_translation_product(i) for i in range(-6, 7))
    assert time.perf_counter() - t0 < 1.0


def test_classical_baseline():
    t0 = time.perf_counter()
    for n, key in ((3, "affine-a:classical:3"), (4, "affine-a:classical:4")):
        cert = certify(catalog.load(key))
        assert cert.failures == (), key
        if n == 4:
            assert cert.claim == "cancellative-up-to"
        else:
            # the rank-3 cycle is the textbook non-terminating reversal;
            # no cube fails, but twelve first reversals are proved to cycle
            assert cert.claim == "undetermined"
            assert "(12 proved to cycle, 0 ran out of fuel)" in cert.refusal
    assert time.perf_counter() - t0 < 30.0


def test_reversal_oracle_agreement():
    t0 = time.perf_counter()
    w2 = instantiate_window(D4, 2)
    gens = w2.alphabet.finite_generators()
    rng = random.Random(20260823)
    oracles = {2: w2}
    terminated = cycles = 0
    for _ in range(200):
        u = Word(tuple(Letter(rng.choice(gens)) for _ in range(rng.randint(1, 4))))
        v = Word(tuple(Letter(rng.choice(gens)) for _ in range(rng.randint(1, 4))))
        trace = reverse_quotient(D4, u, v)
        assert not isinstance(trace.outcome, Diverged), (str(u), str(v))
        # a proved cycle never reaches epsilon, so the oracle must say not equal
        if isinstance(trace.outcome, Cycles):
            cycles += 1
        else:
            terminated += 1
        span = trace.touched_indices("t")
        need = 2 if span is None else max(2, abs(span[0]), abs(span[1]))
        oracle_p = oracles.setdefault(need, instantiate_window(D4, need))
        assert isinstance(trace.outcome, Empty) == monoid_equal(oracle_p, u, v), \
            (str(u), str(v))
    assert terminated >= 100  # the comparison must not be vacuous
    assert cycles == 83
    report = cancellation_scan(w2, max_len=3)
    assert report.cancellative and report.words_checked == 7371
    assert time.perf_counter() - t0 < 120.0



def test_cycles_are_proved_at_the_pinned_step():
    """Each pair of the agreement test that cycles, on either side, is proved
    to cycle after the steps, with the period and the shift, pinned in the
    fixture.  test_cycle_proofs_sound checks that a proved cycle is real; a
    cycle check that rejects too much proves one later, or not at all."""
    with open(f"{FIXTURES}/quotient_cycles.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    for side in ("right", "left"):
        assert len(pinned[side]) == 83
        for u, v, *cycle in pinned[side]:
            outcome = reverse_quotient(D4, D4.parse(u), D4.parse(v), side).outcome
            assert outcome == Cycles(*cycle), (side, u, v)

# -- generative law suites -------------------------------------------------

GEN = st.sampled_from([Generator("s", i) for i in range(1, 5)]
                      + [Generator("t", i) for i in range(-3, 4)])
LETTER = st.builds(Letter, GEN, st.sampled_from((1, -1)))
WORD = st.lists(LETTER, max_size=8).map(lambda ls: Word(tuple(ls)))
SHIFT = st.integers(min_value=-4, max_value=4)
C3 = catalog.load("affine-a:classical:3")
C3_WORD = st.lists(st.builds(Letter, st.sampled_from(C3.alphabet.finite_generators()),
                             st.sampled_from((1, -1))),
                   max_size=8).map(lambda ls: Word(tuple(ls)))


@SUITE
@given(w=WORD)
def check_parse_format_round_trip(w):
    assert parse_word(str(w), D4.alphabet) == w


@SUITE
@given(w=WORD)
def check_free_reduce_laws(w):
    reduced = free_reduce(w)
    assert free_reduce(reduced) == reduced
    assert free_reduce(w * w.inverse()) == EPSILON


@SUITE
@given(w=WORD, a=SHIFT, b=SHIFT)
def check_shift_action_laws(w, a, b):
    fams = D4.alphabet.integer_families
    assert shift_word(shift_word(w, a, fams), b, fams) == shift_word(w, a + b, fams)
    assert shift_word(w, 0, fams) == w
    shifted = shift_word(w, a, fams)
    assert len(shifted) == len(w)
    assert [l for l in shifted if l.gen.family != "t"] == \
        [l for l in w if l.gen.family != "t"]


@SUITE
@given(w=WORD, k=SHIFT)
def check_reversing_equivariance(w, k):
    for reverse in (right_reverse, left_reverse):
        plain = reverse(D4, w, 48)
        moved = reverse(D4, shift_word(w, k, D4.alphabet.integer_families), 48)
        assert [(s.position, s.rule is None) for s in plain.steps] == \
            [(s.position, s.rule is None) for s in moved.steps]
        assert type(plain.outcome) is type(moved.outcome)
        assert shift_word(plain.final, k, D4.alphabet.integer_families) == moved.final


@SUITE
@given(triple=st.tuples(GEN, GEN, GEN), k=SHIFT, side=st.sampled_from(("right", "left")))
def check_cube_equivariance(triple, k, side):
    words = [Word((Letter(g),)) for g in triple]
    moved = [shift_word(w, k, D4.alphabet.integer_families) for w in words]
    first = cube_condition(D4, *words, side=side, fuel=2048)
    second = cube_condition(D4, *moved, side=side, fuel=2048)
    assert (first.status, first.reason) == (second.status, second.reason)


@SUITE
@given(x=GEN, y=GEN)
def check_complement_coherence(x, y):
    comp = right_complement(D4, x, y)
    if x == y:
        assert comp is None
    else:
        # the rule really is x v' = y u'
        assert comp.rule.lhs[0] == Letter(x) and comp.rule.rhs[0] == Letter(y)
    comp = left_complement(D4, x, y)
    if x != y:
        assert comp.rule.lhs[-1] == Letter(x) and comp.rule.rhs[-1] == Letter(y)


@SUITE
@given(w=WORD)
def check_homogeneity_conservation(w):
    trace = right_reverse(D4, w, 48)
    balances = {sum(l.sign for l in step) for step in trace.words()}
    assert len(balances) == 1


@SUITE
@given(w=WORD, fuel=st.integers(min_value=0, max_value=40),
       extra=st.integers(min_value=0, max_value=40))
def check_fuel_monotonicity(w, fuel, extra):
    short = right_reverse(D4, w, fuel)
    long = right_reverse(D4, w, fuel + extra)
    assert short.steps == long.steps[:short.step_count]
    if isinstance(short.outcome, Diverged):
        assert short.step_count == fuel
    else:
        assert short.outcome == long.outcome and short.steps == long.steps


@settings(max_examples=150, deadline=None)
@given(d4_word=WORD, c3_word=C3_WORD)
def test_cycle_proofs_sound(d4_word, c3_word):
    """The kernel moves like plain list-splice reversing, and a proved cycle
    is a reversal that plain reversing cannot finish in 2000 steps."""
    for p, w in ((D4, d4_word), (C3, c3_word)):
        for side, reverse in (("right", right_reverse), ("left", left_reverse)):
            got = reverse(p, w, 2000)
            steps, outcome, final = reference_reverse(p, w, 2000, side)
            common = min(len(steps), got.step_count)
            assert got.steps[:common] == tuple(steps[:common])
            if isinstance(got.outcome, Cycles):
                assert outcome == Diverged(2000)
                assert [str(x) for x in got.words()][-1] == str(got.final)
            else:
                assert (got.steps, got.outcome, got.final) == (tuple(steps), outcome, final)


TWO = load_presentation(TWO_COMMUTES, name="two-commutes")
TWO_LETTERS = [Letter(Generator(name, 1), sign) for name in "abc" for sign in (1, -1)]
# a relation and a cancellation on each side, then stuck on (b1, c1)
STUCK_BOTH_SIDES = "a1^-1 b1 a1 b1^-1 c1 b1 c1^-1"


@settings(max_examples=300, deadline=None)
@given(letters=st.lists(st.sampled_from(TWO_LETTERS), max_size=12))
@example(letters=list(TWO.parse(STUCK_BOTH_SIDES)))
def test_kernel_matches_the_reference_where_it_sticks(letters):
    """On two-commutes, where (b1, c1) has no relation, the kernel takes the
    steps of plain list-splice reversing and ends as it does, on both sides:
    the same Stuck(position, pair), the same terminal split, the same word."""
    w = Word(tuple(letters))
    for side, reverse in (("right", right_reverse), ("left", left_reverse)):
        got = reverse(TWO, w, 2000)
        steps, outcome, final = reference_reverse(TWO, w, 2000, side)
        assert (got.steps, got.outcome, got.final) == (tuple(steps), outcome, final)


def test_the_stuck_example_sticks_after_steps():
    w = TWO.parse(STUCK_BOTH_SIDES)
    pair = (Generator("b", 1), Generator("c", 1))
    for reverse, pos in ((right_reverse, 1), (left_reverse, 3)):
        trace = reverse(TWO, w, 2000)
        assert trace.step_count == 2 and trace.outcome == Stuck(pos, pair)


def test_property_suites():
    t0 = time.perf_counter()
    check_parse_format_round_trip()
    check_free_reduce_laws()
    check_shift_action_laws()
    check_reversing_equivariance()
    check_cube_equivariance()
    check_complement_coherence()
    check_homogeneity_conservation()
    check_fuel_monotonicity()
    assert time.perf_counter() - t0 < 120.0
