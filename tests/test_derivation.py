"""Derivation scripts and the translation-family substitution."""

import os

import pytest

from monorev import catalog
from monorev.derivation import (
    CancelStep,
    DerivationError,
    InsertStep,
    RelationStep,
    apply_step,
    format_script,
    parse_script,
    shift_script,
    substitute_t,
    t_expression,
    verify_script,
    verify_translation_product,
)
from monorev.presentation import instantiate_window, load_presentation
from monorev.reversing import Empty, reverse_quotient
from monorev.words import Letter, Generator, free_reduce, shift_word

from conftest import FIXTURES

S1_SCRIPT = os.path.join(FIXTURES, "double_twist_s1.script")
TAU_SCRIPT = os.path.join(FIXTURES, "tau_t_braid_s1.script")


def test_apply_relation_step(d4):
    up = RelationStep("translation", (("i", 2), ("j", 1)), "rl", 0)
    climbed = apply_step(d4, d4.parse("t(1) t(0)"), up)
    assert str(climbed) == "t(2) t(1)"
    down = RelationStep("translation", (("i", 2), ("j", 1)), "lr", 0)
    assert str(apply_step(d4, climbed, down)) == "t(1) t(0)"


def test_apply_relation_step_errors(d4):
    word = d4.parse("t(1) t(0)")
    with pytest.raises(DerivationError, match="degenerate"):
        apply_step(d4, word, RelationStep("translation", (("i", 1), ("j", 1)), "lr", 0))
    with pytest.raises(DerivationError, match="out of range"):
        apply_step(d4, word, RelationStep("translation", (("i", 1), ("j", 0)), "lr", 1))
    with pytest.raises(DerivationError, match="expected t\\(2\\) t\\(1\\)"):
        apply_step(d4, word, RelationStep("translation", (("i", 2), ("j", 0)), "lr", 0))
    # a step that names no schema, leaves a parameter unbound or binds it
    # outside its domain does not apply either
    with pytest.raises(DerivationError, match="rel nosuch: .* no schema named 'nosuch'"):
        apply_step(d4, word, RelationStep("nosuch", (), "lr", 0))
    with pytest.raises(DerivationError, match="rel translation: .* expects bindings"):
        apply_step(d4, word, RelationStep("translation", (("i", 1),), "lr", 0))
    with pytest.raises(DerivationError, match="rel t_braid: .* j=9 outside domain"):
        apply_step(d4, word, RelationStep("t_braid", (("i", 0), ("j", 9)), "lr", 0))


def test_relation_step_mismatch_reports_words(d4):
    step = RelationStep("translation", (("i", 2), ("j", 0)), "lr", 0)
    with pytest.raises(DerivationError) as exc:
        apply_step(d4, d4.parse("t(1) t(0) s1"), step)
    assert str(exc.value) == "rel translation @0: expected t(2) t(1) in the word, found t(1) t(0)"


def test_apply_cancel_and_insert(d4):
    word = d4.parse("s1 s2^-1 s2")
    assert str(apply_step(d4, word, CancelStep(1))) == "s1"
    with pytest.raises(DerivationError, match="not an inverse pair"):
        apply_step(d4, word, CancelStep(0))
    with pytest.raises(DerivationError, match="out of range"):
        apply_step(d4, word, CancelStep(2))
    grown = apply_step(d4, word, InsertStep(Letter(Generator("t", 3)), 3))
    assert str(grown) == "s1 s2^-1 s2 t(3) t(3)^-1"
    with pytest.raises(DerivationError, match="out of range"):
        apply_step(d4, word, InsertStep(Letter(Generator("t", 3)), 4))


def test_verify_script_success(d4):
    with open(S1_SCRIPT, encoding="utf-8") as fh:
        script = parse_script(fh.read(), d4)
    assert script.presentation == "d4:new" and len(script.steps) == 7
    result = verify_script(d4, script)
    assert result.ok and result.failed_at is None and result.error is None
    assert [str(w) for w in result.intermediates] == [
        "t(1) t(0) s1 t(1) t(0) s1",
        "t(2) t(1) s1 t(1) t(0) s1",
        "t(2) s1 t(1) s1 t(0) s1",
        "t(2) s1 t(1) t(0) s1 t(0)",
        "t(2) s1 t(2) t(1) s1 t(0)",
        "s1 t(2) s1 t(1) s1 t(0)",
        "s1 t(2) t(1) s1 t(1) t(0)",
        "s1 t(1) t(0) s1 t(1) t(0)",
    ]
    assert result.final == script.expect


def test_verify_script_failures(d4):
    base = ("presentation: d4:new\n"
            "start: t(1) t(0)\n")
    wrong_end = parse_script(base + "expect: t(3) t(2)\n"
                             "rel translation i=2,j=1 rl @0\n", d4)
    result = verify_script(d4, wrong_end)
    assert not result.ok and result.failed_at is None
    assert "differs from expected" in result.error
    bad_step = parse_script(base + "expect: t(2) t(1)\n"
                            "rel translation i=3,j=2 rl @0\n", d4)
    result = verify_script(d4, bad_step)
    assert not result.ok and result.failed_at == 0
    assert len(result.intermediates) == 1


def test_parse_script_errors(d4):
    with pytest.raises(DerivationError, match="lacks a 'start'"):
        parse_script("presentation: d4:new\nexpect: s1\n", d4)
    with pytest.raises(DerivationError, match="duplicate"):
        parse_script("presentation: d4:new\npresentation: d4:new\n"
                     "start: s1\nexpect: s1\n", d4)
    with pytest.raises(DerivationError, match="unrecognised"):
        parse_script("presentation: d4:new\nstart: s1\nexpect: s1\nwiggle @0\n", d4)


def test_parse_script_refuses_a_parameter_bound_twice(d4):
    # a dict of the bindings would keep i=2 and verify the step
    with pytest.raises(DerivationError, match="binds i twice"):
        parse_script("presentation: d4:new\nstart: t(1) t(0)\nexpect: t(2) t(1)\n"
                     "rel translation i=1,i=2,j=1 rl @0\n", d4)


def test_format_parse_round_trip(d4):
    with open(S1_SCRIPT, encoding="utf-8") as fh:
        script = parse_script(fh.read(), d4)
    assert parse_script(format_script(script), d4) == script


@pytest.mark.parametrize("key", ["d4:yamada", "e8:yamada"])
def test_tau_t_braid_script(key):
    """The 13-step group derivation of tau(t_braid(1, 1)), with inserts and cancels."""
    with open(TAU_SCRIPT, encoding="utf-8") as fh:
        text = fh.read().replace("d4:yamada", key)
    p = catalog.load(key)
    script = parse_script(text, p)
    assert {type(step) for step in script.steps} == {RelationStep, InsertStep, CancelStep}
    assert format_script(script) == text
    result = verify_script(p, script)
    assert result.ok and len(result.intermediates) == 14


def test_shift_script_moves_inserted_letters(d4):
    script = parse_script("presentation: d4:new\nstart: t(1) t(0)\nexpect: t(2) t(1)\n"
                          "insert t(2) @0\nrel translation i=2,j=1 rl @2\ncancel @1\n", d4)
    assert verify_script(d4, script).ok
    lifted = shift_script(d4, script, 3)
    assert lifted.steps[0] == InsertStep(Letter(Generator("t", 5)), 0)
    assert lifted.steps[2] == CancelStep(1)
    assert str(lifted.expect) == "t(5) t(4)" and verify_script(d4, lifted).ok


def test_shift_script_replays(d4):
    with open(S1_SCRIPT, encoding="utf-8") as fh:
        script = parse_script(fh.read(), d4)
    lifted = shift_script(d4, script, 3)
    assert lifted.start == shift_word(script.start, 3, d4.alphabet.integer_families)
    assert verify_script(d4, lifted).ok
    # only the translation bindings move, the braid's s-vertex stays put
    first = lifted.steps[0]
    assert first.schema == "translation" and dict(first.bindings) == {"i": 5, "j": 4}
    braid = lifted.steps[1]
    assert dict(braid.bindings) == {"i": 4, "j": 1}


def test_shift_script_moves_every_integer_family():
    p = load_presentation("generators: a1 ; families: u\n"
                          "schema tr: u(i) u(i-1) = u(j) u(j-1)\n")
    script = parse_script("presentation: u-file\nstart: u(1) u(0) a1\nexpect: u(2) u(1) a1\n"
                          "insert u(0) @3\ncancel @3\nrel tr i=2,j=1 rl @0\n", p)
    assert verify_script(p, script).ok
    lifted = shift_script(p, script, 3)
    assert lifted.start == p.parse("u(4) u(3) a1") and lifted.expect == p.parse("u(5) u(4) a1")
    assert lifted.steps[0] == InsertStep(Letter(Generator("u", 3)), 3)
    assert dict(lifted.steps[2].bindings) == {"i": 5, "j": 4}
    assert verify_script(p, lifted).ok


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_double_twist_replays_on_a_window(j):
    # a window keeps its schemas' names, so a script names them there too
    w = instantiate_window(catalog.load("d4:new"), 2)
    with open(os.path.join(FIXTURES, f"double_twist_s{j}.script"), encoding="utf-8") as fh:
        script = parse_script(fh.read(), w)
    result = verify_script(w, script)
    assert result.ok, result.error


def test_t_expression_fixed_values():
    assert str(t_expression(0)) == "t(0)"
    assert str(t_expression(1)) == "t(1)"
    assert str(t_expression(2)) == "t(1) t(0) t(1)^-1"
    assert str(t_expression(3)) == "t(1) t(0) t(1) t(0)^-1 t(1)^-1"
    assert str(t_expression(-1)) == "t(0)^-1 t(1) t(0)"
    assert str(t_expression(-2)) == "t(0)^-1 t(1)^-1 t(0) t(1) t(0)"


def test_t_expression_lengths():
    for i in range(-8, 9):
        expr = t_expression(i)
        assert free_reduce(expr) == expr
        assert len(expr) == (2 * i - 1 if i >= 1 else 2 * abs(i) + 1)


def test_t_expression_unfolds_the_defining_product():
    t0, t1 = t_expression(0), t_expression(1)
    for i in range(-8, 0):
        assert t_expression(i) == free_reduce(t_expression(i + 1).inverse() * t1 * t0)


def test_t_expression_far_below_zero():
    # built in one pass: an index far below zero does not recurse once per index
    assert verify_translation_product(-2000)
    assert len(t_expression(-2000)) == 4001


def test_substitute_t():
    from monorev.words import parse_word, Alphabet
    ab = Alphabet({"s": (3,)}, frozenset({"t"}))
    assert str(substitute_t(parse_word("t(2) t(1)", ab))) == "t(1) t(0)"
    assert str(substitute_t(parse_word("t(2) s3 t(2)^-1", ab))) == \
        "t(1) t(0) t(1)^-1 s3 t(1) t(0)^-1 t(1)^-1"


def test_translation_products():
    assert all(verify_translation_product(i) for i in range(-6, 7))


def test_verify_positive_equality(d4):
    u = d4.parse("t(1) t(0) s1 t(1) t(0) s1")
    v = d4.parse("s1 t(1) t(0) s1 t(1) t(0)")
    assert isinstance(reverse_quotient(d4, u, v).outcome, Empty)
    assert not isinstance(reverse_quotient(d4, d4.parse("s1"), d4.parse("s2")).outcome, Empty)
    with pytest.raises(ValueError):
        reverse_quotient(d4, d4.parse("s1^-1"), d4.parse("s1"))
