"""The brute-force oracle: closures, equality, cancellation scans.

Everything runs on windowed presentations; the frozen class contents double
as a check that windowing instantiates the translation relations correctly.
"""

import json
import time
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GLUE, ONE_SIDED, SKEWED, reference_closure, reference_scan
from monorev import catalog, load_presentation, oracle
from monorev.oracle import (
    OracleCapError,
    cancellation_scan,
    equivalence_class,
    monoid_equal,
)
from monorev.presentation import Presentation, instantiate_window
from monorev.words import Alphabet, Letter, UnknownGeneratorError, Word


@pytest.fixture(scope="module")
def w1(d4):
    return instantiate_window(d4, 1)


@pytest.fixture(scope="module")
def w2(d4):
    return instantiate_window(d4, 2)


def test_requires_finite(d4):
    with pytest.raises(ValueError, match="window"):
        equivalence_class(d4, d4.parse("s1"))


def test_positive_words_only(w2):
    with pytest.raises(ValueError):
        monoid_equal(w2, w2.parse("s1^-1"), w2.parse("s1"))
    with pytest.raises(ValueError):
        equivalence_class(w2, w2.parse("s1^-1"))


def test_equivalence_class_frozen(w1, w2):
    assert sorted(str(w) for w in equivalence_class(w1, w1.parse("t(1) t(0)"))) == [
        "t(0) t(-1)", "t(1) t(0)"]
    assert sorted(str(w) for w in equivalence_class(w2, w2.parse("t(1) t(0)"))) == [
        "t(-1) t(-2)", "t(0) t(-1)", "t(1) t(0)", "t(2) t(1)"]
    assert equivalence_class(w2, w2.parse("s1")) == frozenset({w2.parse("s1")})


def test_monoid_equal(w2):
    assert monoid_equal(w2, w2.parse("t(1) t(0)"), w2.parse("t(2) t(1)"))
    assert monoid_equal(w2, w2.parse("s1"), w2.parse("s1"))
    assert not monoid_equal(w2, w2.parse("s1"), w2.parse("s2"))
    # homogeneous presentations gate on length without any search
    assert not monoid_equal(w2, w2.parse("s1"), w2.parse("s1 s1"), cap=1)


def test_cap(w2):
    with pytest.raises(OracleCapError):
        equivalence_class(w2, w2.parse("t(1) t(0)"), cap=2)
    with pytest.raises(OracleCapError):
        monoid_equal(w2, w2.parse("t(1) t(0)"), w2.parse("s1 s1"), cap=2)


def test_cap_follows_rewrite_order(skewed):
    # the search rewrites by relation first and position second; in that
    # order the target turns up before the class passes five words
    u, v = skewed.parse("a1 b1 c1 b1"), skewed.parse("c1 b1 b1 a1")
    assert monoid_equal(skewed, u, v, cap=5)
    with pytest.raises(OracleCapError):
        monoid_equal(skewed, u, v, cap=2)


def test_scan_clean(w2):
    report = cancellation_scan(w2, max_len=2)
    assert report.cancellative and not report.witnesses
    assert report.words_checked == 810
    assert report.window == 2 and report.presentation == "d4:new|window=2"


def test_scan_free_monoid():
    free = Presentation("free", Alphabet({"s": (1, 2)}, frozenset()), ())
    report = cancellation_scan(free, max_len=3)
    assert report.cancellative and report.words_checked == 28


def test_scan_finds_designed_failure(glue):
    report = cancellation_scan(glue, max_len=2)
    assert not report.cancellative
    first = report.witnesses[0]
    assert (first.side, str(first.letter)) == ("left", "a1")
    assert (str(first.first), str(first.second)) == ("b1", "c1")
    data = json.loads(report.to_json())
    assert data["verdict"] == "violation"
    assert data["counterexamples"][0] == {
        "side": "left", "letter": "a1", "first": "b1", "second": "c1"}
    assert [list(d.values()) for d in data["counterexamples"]] == [
        ["left", "a1", "b1", "c1"],
        ["left", "a1", "b1 a1", "c1 a1"],
        ["left", "a1", "b1 b1", "c1 b1"],
        ["left", "a1", "b1 c1", "c1 c1"],
    ]


def test_scan_json_shape(w2):
    data = json.loads(cancellation_scan(w2, max_len=1).to_json())
    assert list(data) == ["presentation", "window", "max_len", "words_checked",
                          "verdict", "counterexamples"]
    assert data["verdict"] == "cancellative-within-bound"


def test_scan_validations(w2, glue):
    from monorev.presentation import load_presentation
    from conftest import NONHOM
    with pytest.raises(ValueError, match="homogeneous"):
        cancellation_scan(load_presentation(NONHOM))
    with pytest.raises(ValueError):
        cancellation_scan(w2, max_len=0)
    with pytest.raises(OracleCapError):
        cancellation_scan(glue, max_len=2, cap=10)


def test_scan_cap_counts_only_up_to_the_cap(w2):
    # the words are counted length by length and the count stops once it
    # passes the cap, so a huge max_len is refused at once: the full count
    # has a million digits, too many to sum quickly or to print
    start = time.perf_counter()
    with pytest.raises(OracleCapError, match=r"^words of length up to 6 exceed cap 500000$"):
        cancellation_scan(w2, max_len=1_000_000)
    assert time.perf_counter() - start < 1


def test_refuses_letters_outside_window(d4, w2):
    # t(5) t(4) = t(4) t(3) holds in d4:new, but no relation of the window
    # of radius 2 mentions t(5), so answering there would be wrong
    u, v = d4.parse("t(5) t(4)"), d4.parse("t(4) t(3)")
    assert monoid_equal(instantiate_window(d4, 5), u, v)
    for call in (lambda: monoid_equal(w2, u, v), lambda: monoid_equal(w2, u, u),
                 lambda: monoid_equal(w2, w2.parse("s1"), u),
                 lambda: equivalence_class(w2, u)):
        with pytest.raises(UnknownGeneratorError, match="outside the range"):
            call()


def _witnesses(report):
    return [(w.side, str(w.letter), str(w.first), str(w.second)) for w in report.witnesses]


def test_scan_witness_lists(skewed):
    assert _witnesses(cancellation_scan(skewed, max_len=3)) == [
        ("left", "a1", "b1 c1", "c1 b1"),
        ("right", "a1", "b1 c1", "c1 b1"),
        ("left", "a1", "b1 b1 c1", "b1 c1 b1"),
        ("right", "a1", "b1 b1 c1", "b1 c1 b1"),
        ("left", "a1", "b1 c1 c1", "c1 b1 c1"),
        ("right", "a1", "b1 c1 c1", "c1 b1 c1"),
    ]
    one_sided = load_presentation(ONE_SIDED, name="one-sided")
    assert _witnesses(cancellation_scan(one_sided, max_len=3)) == [
        ("right", "a1", "a1 b1", "b1 a1"),
        ("right", "a1", "a1 a1 b1", "a1 b1 a1"),
        ("right", "a1", "b1 a1 b1", "b1 b1 a1"),
    ]


def test_scan_lists_classes_in_root_order():
    # the union-find root of {c1 a1 b1, c1 c1 b1} comes before the root of
    # the class of c1 a1 a1, though c1 a1 a1 is the smaller word: a scan that
    # ordered its classes by their smallest member would swap the last two
    p = load_presentation("generators: a1 b1 c1\nc1 a1 = c1 c1\n", name="root-order")
    report = cancellation_scan(p, max_len=2)
    assert _witnesses(report) == [
        ("left", "c1", "a1", "c1"),
        ("left", "c1", "a1 b1", "c1 b1"),
        ("left", "c1", "a1 a1", "a1 c1"),
    ]
    smallest = [min(w for w in equivalence_class(p, Word((Letter(x.letter),)) * x.first))
                for x in report.witnesses]
    assert [str(Word(w)) for w in smallest] == ["c1 a1", "c1 a1 b1", "c1 a1 a1"]
    assert smallest != sorted(smallest, key=lambda w: (len(w), w))


LAW_PRESENTATIONS = (
    [load_presentation(text, name=name)
     for text, name in ((GLUE, "glue"), (SKEWED, "skewed"), (ONE_SIDED, "one-sided"))]
    + [instantiate_window(catalog.load(key), 1)
       for key in ("d4:new", "d4:yamada", "affine-a:classical:3")]
)


@lru_cache(maxsize=None)
def _reference_scan_json(index, max_len):
    return reference_scan(LAW_PRESENTATIONS[index], max_len).to_json()


def _outcome(call):
    try:
        return call()
    except OracleCapError as e:
        return "cap", str(e)


def _reference_equal(p, u, v, cap):
    if u == v:
        return True
    if p.homogeneous and len(u) != len(v):
        return False
    return v in reference_closure(p, u, cap, v)


@settings(max_examples=100)
@given(index=st.integers(0, len(LAW_PRESENTATIONS) - 1), data=st.data())
def test_oracle_matches_reference(index, data):
    p = LAW_PRESENTATIONS[index]
    words = st.lists(st.sampled_from(p.alphabet.finite_generators()), min_size=1, max_size=5)
    u = Word(tuple(Letter(g) for g in data.draw(words)))
    klass = frozenset(Word(w) for w in reference_closure(p, u, 1_000_000))
    # a cap below the class size stops the search part way, where its order shows
    cap = data.draw(st.integers(1, len(klass)) | st.just(1_000_000))
    assert _outcome(lambda: equivalence_class(p, u, cap)) == _outcome(
        lambda: frozenset(Word(w) for w in reference_closure(p, u, cap)))
    other = Word(tuple(Letter(g) for g in data.draw(words)))
    for v in (other, data.draw(st.sampled_from(sorted(klass, key=str)))):
        assert _outcome(lambda: monoid_equal(p, u, v, cap)) == \
            _outcome(lambda: _reference_equal(p, u, v, cap))
    max_len = data.draw(st.integers(1, 3))
    assert cancellation_scan(p, max_len=max_len).to_json() == _reference_scan_json(index, max_len)


@st.composite
def _homogeneous_text(draw):
    """Presentation text: 2-4 generators, 1-5 relations with sides of equal length 1-3."""
    gens = ["a1", "b1", "c1", "d1"][:draw(st.integers(2, 4))]
    lines = [f"generators: {' '.join(gens)}"]
    for _ in range(draw(st.integers(1, 5))):
        span = draw(st.integers(1, 3))
        lhs, rhs = (draw(st.lists(st.sampled_from(gens), min_size=span, max_size=span))
                    for _ in range(2))
        lines.append(f"{' '.join(lhs)} = {' '.join(rhs)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100)
@example(text=GLUE, max_len=3)
@example(text="generators: a1 b1 c1\na1 = b1\nc1 a1 = c1 c1\n", max_len=3)
@example(text="generators: a1 b1 c1\na1 a1 = b1 a1\na1 b1 = c1 c1\n", max_len=2)
@given(text=_homogeneous_text(), max_len=st.integers(1, 3))
def test_scan_matches_reference_on_random_presentations(text, max_len):
    # the classes come out in root order, so a union run out of the
    # reference's order shows as witnesses listed in another order
    p = load_presentation(text, name="random")
    assert cancellation_scan(p, max_len=max_len).to_json() == reference_scan(p, max_len).to_json()


@settings(max_examples=100)
@example(text=GLUE, max_len=3)
@given(text=_homogeneous_text(), max_len=st.integers(1, 3))
def test_edge_pairs_number_the_rest_classes(text, max_len):
    # x ~ y gives a x ~ a y and x a ~ y a, so the class of a word is a
    # function of the class of its rest: at every side and edge letter the
    # distinct (class, class of the rest) pairs are as many as the classes
    # one letter shorter, the number the scan compares each edge with
    p = load_presentation(text, name="random")
    rw = oracle._Rewriter(p)
    n = len(rw.letters)
    joins = sorted((order, oracle._number(src, n), oracle._number(tgt, n), len(src))
                   for src, targets in rw.table.items() for order, tgt in targets if tgt > src)
    rests = oracle._class_roots(joins, n, 1)
    for L in range(2, max_len + 2):
        roots = oracle._class_roots(joins, n, L)
        width = len(rests)
        for edge in range(n):
            for word in (lambda rest: edge * width + rest, lambda rest: rest * n + edge):
                pairs = {(roots[word(rest)], rests[rest]) for rest in range(width)}
                assert len(pairs) == len(set(rests))
        rests = roots


def test_rewrite_table_built_once_per_presentation(monkeypatch, d4):
    built = []
    materialize = oracle.materialize_relations
    monkeypatch.setattr(oracle, "materialize_relations",
                        lambda p: built.append(p.name) or materialize(p))
    w = instantiate_window(d4, 2)
    cancellation_scan(w, max_len=2)
    assert monoid_equal(w, w.parse("t(1) t(0)"), w.parse("t(2) t(1)"))
    assert not monoid_equal(w, w.parse("s1 s2"), w.parse("s2 s3"))
    assert len(equivalence_class(w, w.parse("t(1) t(0)"))) == 4
    assert built == ["d4:new|window=2"]
    again = instantiate_window(d4, 2)
    assert monoid_equal(again, again.parse("t(1) t(0)"), again.parse("t(0) t(-1)"))
    assert built == ["d4:new|window=2"] * 2
