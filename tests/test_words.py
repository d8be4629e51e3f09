"""The word layer: token grammar, word algebra, free reduction, shifts."""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction

import pytest

import monorev
from monorev.derivation import CancelStep, DerivationScript, InsertStep, RelationStep, ScriptResult
from monorev.grid import EpsilonArc, GridCell, GridEdge, GridNode, ReversingGrid
from monorev.oracle import ScanReport, ScanWitness
from monorev.completeness import CubeResult
from monorev.presentation import (
    Param,
    PatternLetter,
    RelationInstance,
    Schema,
    SchemaError,
)
from monorev.reversing import (
    Cycles,
    Diverged,
    Empty,
    ReversalStep,
    ReversalTrace,
    Stuck,
    Terminal,
)
from monorev.words import (
    EPSILON,
    Alphabet,
    Generator,
    Letter,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    free_reduce,
    parse_word,
    shift_word,
)

AB = Alphabet({"s": (1, 2, 3, 10)}, frozenset({"t"}))


def test_round_trip_fixed_cases():
    for text in ("", "s3", "t(2)", "t(-1)", "s(10)", "s3^-1 t(2)",
                 "t(0)^-1 s1 s1 t(-3)"):
        assert str(parse_word(text, AB)) == text


def test_formatting_conventions():
    # t always takes parentheses, finite families only past one digit
    assert str(Generator("t", 1)) == "t(1)"
    assert str(Generator("s", 3)) == "s3"
    assert str(Generator("s", 10)) == "s(10)"
    assert str(Letter(Generator("t", -2), -1)) == "t(-2)^-1"


def test_digit_form_is_accepted_for_t():
    # the grammar allows t2; formatting normalises it
    assert str(parse_word("t2", AB)) == "t(2)"


@pytest.mark.parametrize("token", ["s", "3s", "s33", "s-3", "s3^1", "s3^-2", "t(2"])
def test_malformed_tokens(token):
    with pytest.raises(WordSyntaxError):
        parse_word(token, AB)


def test_unknown_generators():
    with pytest.raises(UnknownGeneratorError):
        parse_word("r1", AB)
    with pytest.raises(UnknownGeneratorError):
        parse_word("s5", AB)


def test_letter_sign_validation():
    with pytest.raises(ValueError):
        Letter(Generator("s", 1), 0)


def test_value_types_are_named_tuples():
    s3, t = Generator("s", 3), Generator("t", -1)
    letter = Letter(s3, -1)
    step = ReversalStep(2, None)
    word = Word((letter, Letter(t)))
    for value, fields in ((s3, ("s", 3)), (letter, (s3, -1)), (step, (2, None)),
                          (word, (letter, Letter(t)))):
        assert isinstance(value, tuple) and tuple(value) == fields
        # hashing the field tuple keeps set and dict orders, hence every output
        assert hash(value) == hash(fields)
    # a word orders as the tuple of its letters
    words = [Word((Letter(t),)), word, EPSILON, Word((letter,)), Word((Letter(s3), letter))]
    assert [tuple(w) for w in sorted(words)] == sorted(tuple(w) for w in words)
    assert repr(word) == f"Word(({letter!r}, {Letter(t)!r}))"
    assert s3 == Generator("s", 3) and s3 != Generator("s", 4)
    assert letter == Letter(Generator("s", 3), -1) != Letter(s3)
    assert step == ReversalStep(2, None) != ReversalStep(3, None)
    # field by field: family, then index; generator, then sign
    assert sorted([Letter(t), Letter(s3), letter, Letter(Generator("s", 1))]) == [
        Letter(Generator("s", 1)), letter, Letter(s3), Letter(t)]
    assert repr(s3) == "Generator(family='s', index=3)"
    assert repr(letter) == "Letter(gen=Generator(family='s', index=3), sign=-1)"
    assert repr(step) == "ReversalStep(position=2, rule=None)"
    assert (str(s3), str(t), str(letter)) == ("s3", "t(-1)", "s3^-1")
    assert letter.inverse() == Letter(s3) and type(letter.inverse()) is Letter
    assert Letter(s3).sign == 1
    with pytest.raises(ValueError):
        Letter(s3, 0)
    with pytest.raises(ValueError):
        letter._replace(sign=0)

    # so is every other immutable value record: it equals and hashes as its fields
    rule = RelationInstance(Word((Letter(s3),)), Word((Letter(t),)), "r", (("i", -1),))
    node, far = GridNode(Fraction(1, 2), Fraction(-3)), GridNode(Fraction(1), Fraction(0))
    edge, witness = GridEdge(node, far, s3), ScanWitness("left", s3, word, EPSILON)
    schema = Schema("r", (Param("i"),), (PatternLetter("t", 0, "i"),), (PatternLetter("t", 1, "i"),))
    records = [
        rule, PatternLetter("t", -1, "i"), Param("k", (0, 1)),
        Empty(), Terminal(Word((Letter(s3),)), EPSILON), Stuck(0, (s3, t)), Cycles(7, 4, 1),
        Diverged(40), ReversalTrace("right", word, (step,), Empty(), EPSILON),
        RelationStep("r", (("i", -1),), "lr", 0), CancelStep(3), InsertStep(letter, 1),
        DerivationScript("d4:new", word, EPSILON, (CancelStep(0),)),
        ScriptResult(True, (word, EPSILON), None, None),
        node, edge, EpsilonArc(node, far), GridCell(node, rule),
        ReversingGrid("right", (node, far), (edge,), (), (), (), ((edge, 1),)),
        witness, ScanReport("d4:new", 2, 3, 10, (witness,)),
        schema, CubeResult((word, EPSILON, word), "right", "pass", "ok"),
    ]
    assert len({type(value) for value in records}) == 23
    for value in records:
        assert isinstance(value, tuple)
        assert value == tuple(value) and hash(value) == hash(tuple(value))
    # the alphabet's finite map is a dict, so it equals its fields but does not hash
    assert isinstance(AB, tuple) and AB == tuple(AB) == ({"s": (1, 2, 3, 10)}, frozenset({"t"}))
    assert repr(AB) == "Alphabet(finite={'s': (1, 2, 3, 10)}, integer_families=frozenset({'t'}))"
    assert repr(schema) == (
        "Schema(name='r', params=(Param(name='i', values=None),), "
        "lhs=(PatternLetter(family='t', offset=0, param='i'),), "
        "rhs=(PatternLetter(family='t', offset=1, param='i'),))")
    assert records[-1].passed and not records[-1]._replace(status="fail").passed
    with pytest.raises(SchemaError):  # a schema checks itself however it is made
        schema._replace(rhs=())
    assert sorted([far, node]) == [node, far]  # a grid node orders as (x, y)
    assert repr(records[4]) == (
        "Terminal(v_prime=Word((Letter(gen=Generator(family='s', index=3), sign=1),)), "
        "u_prime=Word(()))")
    assert repr(rule) == (
        "RelationInstance(lhs=Word((Letter(gen=Generator(family='s', index=3), sign=1),)), "
        "rhs=Word((Letter(gen=Generator(family='t', index=-1), sign=1),)), schema='r', "
        "bindings=(('i', -1),))")
    assert repr(records[1]) == "PatternLetter(family='t', offset=-1, param='i')"
    assert repr(node) == "GridNode(x=Fraction(1, 2), y=Fraction(-3, 1))"


def test_certificate_is_the_one_dataclass():
    # Certificate is copied with dataclasses.replace.  Every other record is a
    # named tuple, and Presentation, which holds caches, a class with __slots__.
    found = set()
    for info in pkgutil.iter_modules(monorev.__path__):
        module = importlib.import_module(f"monorev.{info.name}")
        found |= {name for name, value in vars(module).items()
                  if isinstance(value, type) and value.__module__ == module.__name__
                  and dataclasses.is_dataclass(value)}
    assert found == {"Certificate"}


def test_word_algebra():
    w = parse_word("s1 t(2)^-1", AB)
    assert len(w) == 2 and bool(w)
    assert not EPSILON
    assert str(w * w) == "s1 t(2)^-1 s1 t(2)^-1"
    assert str(w.inverse()) == "t(2) s1^-1"
    assert str(w.reversed()) == "t(2)^-1 s1"
    assert type(w[0:1]) is tuple and str(Word(w[0:1])) == "s1"
    assert w[1].sign == -1
    assert w == tuple(w)
    assert str(EPSILON * w) == str(w)


def test_free_reduce_fixed_cases():
    cases = {
        "s1 s1^-1": "",
        "s1 s2 s2^-1 s1^-1": "",
        "s1 s2^-1 s2 s3": "s1 s3",
        "s1 s1": "s1 s1",
        "t(1)^-1 t(1) t(1)": "t(1)",
    }
    for text, expected in cases.items():
        reduced = free_reduce(parse_word(text, AB))
        assert str(reduced) == expected
        assert free_reduce(reduced) == reduced


def test_free_reduce_kills_ww_inverse():
    w = parse_word("s1 t(2)^-1 s3 s3", AB)
    assert free_reduce(w * w.inverse()) == EPSILON
    assert free_reduce(w.inverse() * w) == EPSILON


def test_shift_word():
    w = parse_word("t(1) s3 t(-2)^-1", AB)
    assert str(shift_word(w, 2, AB.integer_families)) == "t(3) s3 t(0)^-1"
    assert str(shift_word(w, 0, AB.integer_families)) == str(w)
    # every family given moves, and only those
    assert str(shift_word(w, 1, frozenset({"s"}))) == "t(1) s4 t(-2)^-1"
    assert str(shift_word(w, 1, frozenset({"s", "t"}))) == "t(2) s4 t(-1)^-1"


def test_alphabet_membership():
    assert Generator("t", -100) in AB
    assert Generator("s", 2) in AB
    assert Generator("s", 4) not in AB
    assert [str(g) for g in AB.finite_generators()] == ["s1", "s2", "s3", "s(10)"]
