"""The word layer: token grammar, word algebra, free reduction, shifts."""

import pytest

from monorev.reversing import ReversalStep
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
    step = ReversalStep(2, "cancel", None)
    word = Word((letter, Letter(t)))
    for value, fields in ((s3, ("s", 3)), (letter, (s3, -1)), (step, (2, "cancel", None)),
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
    assert step == ReversalStep(2, "cancel", None) != ReversalStep(3, "cancel", None)
    # field by field: family, then index; generator, then sign
    assert sorted([Letter(t), Letter(s3), letter, Letter(Generator("s", 1))]) == [
        Letter(Generator("s", 1)), letter, Letter(s3), Letter(t)]
    assert repr(s3) == "Generator(family='s', index=3)"
    assert repr(letter) == "Letter(gen=Generator(family='s', index=3), sign=-1)"
    assert repr(step) == "ReversalStep(position=2, kind='cancel', rule=None)"
    assert (str(s3), str(t), str(letter)) == ("s3", "t(-1)", "s3^-1")
    assert letter.inverse() == Letter(s3) and type(letter.inverse()) is Letter
    assert Letter(s3).sign == 1
    with pytest.raises(ValueError):
        Letter(s3, 0)
    with pytest.raises(ValueError):
        letter._replace(sign=0)


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
    assert str(shift_word(w, 2)) == "t(3) s3 t(0)^-1"
    assert str(shift_word(w, 0)) == str(w)
    # other families can be shifted by name
    assert str(shift_word(w, 1, family="s")) == "t(1) s4 t(-2)^-1"


def test_alphabet_membership():
    assert Generator("t", -100) in AB
    assert Generator("s", 2) in AB
    assert Generator("s", 4) not in AB
    assert [str(g) for g in AB.finite_generators()] == ["s1", "s2", "s3", "s(10)"]
