"""Schemas, pair-indexed complement lookup, windowing, and the text format."""

import itertools
import re
import tracemalloc
import traceback

import pytest
from hypothesis import example, given, settings, strategies as st

from monorev import catalog
from monorev.completeness import certify
from monorev.presentation import (
    AmbiguousComplementError,
    CapError,
    ComplementPair,
    Param,
    PatternLetter,
    Presentation,
    Schema,
    SchemaError,
    check_complemented,
    instances_for_pair,
    instantiate_window,
    left_complement,
    load_presentation,
    materialize_relations,
    pair_scan_generators,
    right_complement,
    save_presentation,
    splice,
    _canonical_form,
    _complement,
    _conflicts,
)
from monorev.reversing import reverse_quotient
from monorev.words import Generator, Letter, UnknownGeneratorError, WordSyntaxError

from conftest import (
    FIXTURES,
    GLUE,
    NONHOM,
    ONE_SIDED,
    PINNED_T,
    ROUND_TRIP_KEYS,
    SAVED_CATALOG,
    SKEWED,
    SQUARE_CHAIN,
    TWO_COMMUTES,
    WIDE_OFFSET,
    fresh,
    pair_query,
    reference_instances_for_pair,
)

T2 = Generator("t", 2)
S3 = Generator("s", 3)


def test_schema_instantiate(d4):
    tr = d4.schema("translation")
    inst = tr.instantiate({"i": 2, "j": 1})
    assert str(inst.lhs) == "t(2) t(1)" and str(inst.rhs) == "t(1) t(0)"
    assert inst.label() == "translation(i=2, j=1)"
    assert str(inst) == "t(2) t(1) = t(1) t(0)"
    # equal sides never count as a relation
    assert tr.instantiate({"i": 1, "j": 1}) is None


def test_schema_instantiate_validation(d4):
    tb = d4.schema("t_braid")
    with pytest.raises(ValueError):
        tb.instantiate({"i": 0})
    with pytest.raises(ValueError):
        tb.instantiate({"i": 0, "j": 5})  # 5 is not a core vertex


def test_schema_structural_errors():
    t_i = PatternLetter("t", 0, "i")
    with pytest.raises(SchemaError):
        Schema("empty", (), (), (t_i,))
    with pytest.raises(SchemaError):
        # declared parameter never used in the patterns
        Schema("unused", (Param("i"), Param("j")), (t_i,), (t_i,))
    with pytest.raises(SchemaError):
        # j does not reach either boundary pair, lookup would not be finite
        Schema("buried", (Param("i"), Param("j")),
               (t_i, PatternLetter("t", 0, "j"), t_i), (t_i, t_i, t_i))
    with pytest.raises(SchemaError):
        Schema("spread", (Param("i"),),
               (t_i, PatternLetter("s", 0, "i")), (PatternLetter("s", 0, "i"), t_i))


def test_leading_and_trailing_orientation(d4):
    tb = d4.schema("t_braid")
    inst = pair_query(tb, T2, S3, 0)[0]
    assert str(inst.lhs) == "t(2) s3 t(2)" and str(inst.rhs) == "s3 t(2) s3"
    swapped = pair_query(tb, S3, T2, 0)[0]
    assert str(swapped.lhs) == "s3 t(2) s3"
    inst = pair_query(tb, T2, S3, -1)[0]
    assert str(inst.lhs) == "t(2) s3 t(2)" and str(inst.rhs) == "s3 t(2) s3"
    assert pair_query(tb, T2, Generator("s", 9), 0) == []


def test_right_complement(d4, two_commutes):
    comp = right_complement(d4, T2, S3)
    assert str(comp.rule) == "t(2) s3 t(2) = s3 t(2) s3"
    assert comp.rule.schema == "t_braid"
    assert right_complement(d4, T2, T2) is None
    none = right_complement(two_commutes, Generator("b", 1), Generator("c", 1))
    assert none is None


def test_left_complement(d4):
    comp = left_complement(d4, T2, S3)
    assert str(comp.rule) == "t(2) s3 t(2) = s3 t(2) s3"
    assert left_complement(d4, S3, S3) is None


def test_ambiguous_complement_is_lazy_and_not_cached(yamada):
    s1, t1 = Generator("s", 1), Generator("t", 1)
    for _ in range(2):  # the second hit solves the pair again
        with pytest.raises(AmbiguousComplementError) as exc:
            right_complement(yamada, s1, t1)
        assert exc.value.pair == (s1, t1)
        assert "more than one relation" in str(exc.value)
        assert ("right", s1, t1) not in yamada._complements
        assert ("right", t1, s1) not in yamada._complements
    # pairs away from the conflict still resolve
    comp = right_complement(yamada, s1, Generator("s", 2))
    assert str(comp.rule) == "s1 s2 = s2 s1"


def test_ambiguous_complement_raises_a_fresh_error(yamada):
    # re-raising one cached instance would grow its traceback by every raise
    s1, t1 = Generator("s", 1), Generator("t", 1)
    raised = []
    for _ in range(3):
        with pytest.raises(AmbiguousComplementError) as exc:
            right_complement(yamada, s1, t1)
        raised.append(exc.value)
    depths = {len(traceback.extract_tb(e.__traceback__)) for e in raised}
    assert len(depths) == 1
    assert raised[0] is not raised[1] and len({str(e) for e in raised}) == 1


def test_instances_for_pair_validates_generators(d4):
    with pytest.raises(UnknownGeneratorError):
        instances_for_pair(d4, Generator("s", 9), S3)


def test_instances_for_pair_refuses_an_unknown_side(d4):
    # as cube_condition and reverse_quotient do; "up" once answered the left side
    with pytest.raises(ValueError, match="side must be 'right' or 'left', got 'up'"):
        instances_for_pair(d4, T2, S3, "up")


LAW_PRESENTATIONS = [catalog.load(key) for key in catalog.FIXED_NAMES] + [
    catalog.load(f"affine-a:{family}:3") for family in ("classical", "shi", "cll")] + [
    load_presentation(text, name=name) for name, text in (
        ("wide-offset", WIDE_OFFSET), ("glue", GLUE), ("skewed", SKEWED),
        ("pinned-t", PINNED_T))] + [
    # windows narrow their t-domains, which the compiled boundary solve must honour
    instantiate_window(catalog.load("d4:new"), 2),
    instantiate_window(catalog.load("affine-a:cll:3"), 1),
    instantiate_window(load_presentation(PINNED_T, name="pinned-t"), 10)]


@st.composite
def presentation_and_pair(draw):
    p = draw(st.sampled_from(LAW_PRESENTATIONS))
    gens = st.sampled_from(p.alphabet.finite_generators())
    if p.alphabet.integer_families:
        gens = gens | st.builds(Generator, st.sampled_from(sorted(p.alphabet.integer_families)),
                                st.integers(-12, 12))
    return p, draw(gens), draw(gens)


@settings(max_examples=400)
@given(presentation_and_pair())
def test_indexed_lookup_equals_full_scan(case):
    p, x, y = case
    for side in ("right", "left"):
        assert instances_for_pair(p, x, y, side) == reference_instances_for_pair(p, x, y, side)


def checked_reference(p, x, y, side):
    """Per schema, in schema order, the oriented sides of every instance leading
    (right) or trailing (left) with (x, y), built by the checked
    Schema.instantiate from each binding that could place x and y there."""
    end = 0 if side == "right" else -1
    found = []
    for s in p.schemas:
        boundary = (s.lhs[end], s.rhs[end])
        choices = []
        for param in s.params:
            values = {g.index - pl.offset for pl in boundary if pl.param == param.name
                      for g in (x, y)}
            choices.append(sorted(values if param.values is None
                                  else values & set(param.values)))
        sides = set()
        for combo in itertools.product(*choices):
            inst = s.instantiate({param.name: v for param, v in zip(s.params, combo)})
            if inst is None:
                continue
            for lhs, rhs in ((inst.lhs, inst.rhs), (inst.rhs, inst.lhs)):
                if (lhs[end].gen, rhs[end].gen) == (x, y):
                    sides.add((lhs, rhs))
        found.append(sides)
    return found


@settings(max_examples=300)
@given(presentation_and_pair())
def test_lookup_equals_checked_brute_force(case):
    # the lookup builds instances without instantiate's checks; this law
    # compares it with instances that instantiate built and checked
    p, x, y = case
    positions = {s.name: pos for pos, s in enumerate(p.schemas)}
    for side in ("right", "left"):
        got = [set() for _ in p.schemas]
        order = []
        for inst in instances_for_pair(p, x, y, side):
            pos = positions[inst.schema]
            order.append(pos)
            sides = (inst.lhs, inst.rhs)
            assert sides not in got[pos]
            got[pos].add(sides)
            built = p.schemas[pos].instantiate(dict(inst.bindings))
            assert inst in (built, built.swapped())
        assert order == sorted(order)
        assert got == checked_reference(p, x, y, side)


def test_each_schema_object_compiles_its_own_domains():
    # a window's schemas share names and patterns with the presentation's, not domains
    p = catalog.load("d4:new")
    s1 = Generator("s", 1)
    assert [inst.schema for inst in instances_for_pair(p, T2, s1)] == ["t_braid"]
    w = instantiate_window(p, 1)
    assert p.schema("t_braid")._form is not None and w.schema("t_braid")._form is None
    assert w.schema("t_braid")._oriented(T2, s1, 0, False) is None
    assert w.schema("t_braid")._oriented(Generator("t", 1), s1, 0, False) is not None
    assert all(letter.gen != T2 for inst in materialize_relations(w)
               for letter in inst.lhs + inst.rhs)


def test_a_schema_builds_each_letter_once():
    # a schema object keeps the letters it has built: t_braid solves
    # (t(3), s1) and (t(3), s2) with one t(3), and instantiate takes it too
    p = catalog.load("d4:new")
    t3 = Generator("t", 3)
    (first,), (second,) = (instances_for_pair(p, t3, Generator("s", j)) for j in (1, 2))
    assert first.schema == second.schema == "t_braid" and first.lhs[0] == Letter(t3)
    assert first.lhs[0] is second.lhs[0] is first.lhs[2] is first.rhs[1]
    assert p.schema("t_braid").instantiate({"i": 3, "j": 4}).lhs[0] is first.lhs[0]
    # every instance of one window schema holds one object per letter
    built: dict = {}
    for inst in materialize_relations(instantiate_window(p, 2)):
        for letter in inst.lhs + inst.rhs:
            assert built.setdefault((inst.schema, letter), letter) is letter


def test_pair_index_files_both_orientations(d4):
    index = d4.pair_index()
    positions = {s.name: i for i, s in enumerate(d4.schemas)}
    # t_braid leads with t(i) on its lhs and s(j) on its rhs: unswapped under
    # (t, s), swapped under (s, t)
    tb = positions["t_braid"]
    assert (tb, False) in index[(0, ("t", None), ("s", None))]
    assert (tb, True) in index[(0, ("s", None), ("t", None))]
    assert (tb, True) not in index[(0, ("t", None), ("s", None))]
    forward, backward = index[(-1, ("s", 1), ("s", 2))], index[(-1, ("s", 2), ("s", 1))]
    assert backward == [(pos, not swap) for pos, swap in forward]
    # translation carries t(.) at both ends of both sides, so one key files both ways
    tr = positions["translation"]
    assert [(tr, False), (tr, True)] == [hit for hit in index[(0, ("t", None), ("t", None))]
                                         if hit[0] == tr]
    assert d4.pair_index() is index


def test_replace_starts_with_empty_caches(d4):
    s1, s2 = Generator("s", 1), Generator("s", 2)
    assert right_complement(d4, s1, s2) is not None and d4.translation_invariant()
    bare = fresh(d4, d4.schemas[:1])
    assert bare._complements == {} and bare._pair_index is None
    assert right_complement(bare, s1, s2) is None


def test_presentation_caches():
    # each cache has traffic on the benchmark workloads; mirror_symmetric
    # is asked once per certify call and translation_invariant 8 times per
    # certify-elliptic pass, so they are computed, not stored.  The
    # oracle's rewrite table is built once and read 5 more times per
    # oracle-window pass
    caches = [name for name in Presentation.__slots__ if name.startswith("_")]
    assert caches == ["_complements", "_pair_index", "_rewriter"]


def test_catalog_load_builds_anew():
    first = catalog.load("d4:new")
    assert right_complement(first, Generator("s", 1), Generator("s", 2)) is not None
    again = catalog.load("d4:new")
    assert again is not first
    assert (again.name, again.alphabet, again.schemas) == (first.name, first.alphabet, first.schemas)
    assert again._complements == {} and again._pair_index is None
    assert again._rewriter is None


MIRROR_SYMMETRIC = [f"{key}:new" for key in ("d4", "e6", "e7", "e8")] + [
    f"affine-a:{family}:{n}" for family in ("classical", "cll") for n in (3, 4, 5)]
NOT_MIRROR_SYMMETRIC = [f"{key}:yamada" for key in ("d4", "e6", "e7", "e8")] + [
    f"affine-a:shi:{n}" for n in (3, 4, 5)]


@pytest.mark.parametrize("key,text,symmetric", [
    *((key, None, True) for key in MIRROR_SYMMETRIC),
    *((key, None, False) for key in NOT_MIRROR_SYMMETRIC),
    *(("hand", text, True) for text in (TWO_COMMUTES, NONHOM, WIDE_OFFSET)),
    *(("hand", text, False) for text in (SKEWED, GLUE, ONE_SIDED, PINNED_T, SQUARE_CHAIN)),
])
def test_mirror_symmetric(key, text, symmetric):
    # translation t(i) t(i-1) = t(j) t(j-1) reads backwards as itself under
    # i -> 1-i, braids are palindromes and commutations swap their sides; the
    # finite t(0), t(1) of :yamada and :shi are not negated, so their double
    # twist reads backwards as another relation
    p = catalog.load(key) if text is None else load_presentation(text)
    assert p.mirror_symmetric() is symmetric


@pytest.mark.parametrize("text,symmetric", [
    # the reflection negates offsets: without that, t(i-1) t(i) would not
    # come back as t(i) t(i-1)
    ("generators: a1 ; families: t\nschema x: t(i) t(i-1) a1 = a1 t(i) t(i-1)\n", True),
    ("generators: a1 ; families: t\nschema x: t(i) t(i-1) a1 = a1 t(i-1) t(i)\n", False),
    # parameters are matched by first appearance, not by name
    ("generators: a1 ; families: t\nschema x: t(i) a1 t(j) = t(j) a1 t(i)\n", True),
    # schemas may reflect onto each other, but not onto nothing
    ("generators: a1 ; families: t\n"
     "schema x: t(i) a1 a1 = a1 t(i) t(i)\nschema y: a1 a1 t(i) = t(i) t(i) a1\n", True),
    ("generators: a1 ; families: t\nschema x: t(i) a1 a1 = a1 t(i) t(i)\n", False),
    # finite domains are kept, so s(j) with j in {1, 2} is not s(j) with j in {2, 3}
    ("generators: s1 s2 s3 ; families: t\n"
     "schema x [i in Z; j in {1, 2}]: t(i) s(j) = s(j+1) t(i)\n", False),
])
def test_mirror_symmetric_hand_schemas(text, symmetric):
    assert load_presentation(text).mirror_symmetric() is symmetric


def reflect(side, fams):
    """A pattern side read backwards, each offset of a family in fams negated."""
    return tuple(PatternLetter(pl.family, -pl.offset, pl.param) if pl.family in fams else pl
                 for pl in reversed(side))


def reference_mirror_symmetric(p):
    """Presentation.mirror_symmetric as the full comparison of every schema's two forms."""
    if not p.translation_invariant():
        return False
    fams = p.alphabet.integer_families
    forms = sorted(_canonical_form(s.params, s.lhs, s.rhs) for s in p.schemas)
    mirrored = sorted(_canonical_form(s.params, reflect(s.lhs, fams), reflect(s.rhs, fams))
                      for s in p.schemas)
    return forms == mirrored


@st.composite
def reflective_presentations(draw):
    """A presentation on a1, a2 and the family t whose schemas often reflect onto themselves.

    One to four schemas.  Each has sides drawn at random, or a side and
    its reflection, or two palindromes under reflection, and may come with
    its reflection as another schema.  A schema with the parameter i (over
    Z) puts a letter t(i+k), |k| <= 2, at both ends of its lhs.
    """
    alphabet = load_presentation("generators: a1 a2 ; families: t\n").alphabet
    fams = alphabet.integer_families

    def bound():
        return PatternLetter("t", draw(st.integers(-2, 2)), "i")

    def letters(param, low, high):
        return [bound() if param and draw(st.booleans()) else
                PatternLetter("a", draw(st.integers(1, 2)))
                for _ in range(draw(st.integers(low, high)))]

    def side(param, ends, palindrome):
        head = [bound()] * ends + letters(param, 0 if ends else 1, 2)
        if not palindrome:
            return tuple(head + [bound()] * ends)
        middle = draw(st.sampled_from([(), (PatternLetter("a", 1),)]
                                      + [(PatternLetter("t", 0, "i"),)] * param))
        return tuple(head) + middle + reflect(head, fams)

    schemas = []
    for number in range(draw(st.integers(1, 4))):
        param = draw(st.booleans())
        kind = draw(st.sampled_from(("random", "swap", "palindromes")))
        lhs = side(param, param, kind == "palindromes")
        rhs = (reflect(lhs, fams) if kind == "swap" else
               side(param, False, kind == "palindromes"))
        params = (Param("i"),) if param else ()
        schemas.append(Schema(f"r{number}", params, lhs, rhs))
        if draw(st.booleans()):
            schemas.append(Schema(f"m{number}", params, reflect(lhs, fams), reflect(rhs, fams)))
    return Presentation("random", alphabet, tuple(schemas))


@settings(max_examples=300, deadline=None)
@given(p=reflective_presentations())
def test_mirror_symmetric_equals_the_full_comparison(p):
    # a schema that reflects onto itself, in either order of its sides, is
    # left out of both lists; the verdict is the full comparison's
    assert p.mirror_symmetric() is reference_mirror_symmetric(p)


def test_check_complemented_split(d4, yamada):
    assert check_complemented(d4) == ((), ())
    right, left = (tuple(_conflicts(fresh(yamada), scan_pairs(yamada), side))
                   for side in ("right", "left"))
    assert right
    pair, insts = right[0]
    assert (str(pair[0]), str(pair[1])) == ("s1", "t(1)")
    assert [i.schema for i in insts] == ["t_braid", "double_twist_1"]
    assert len(right) == 8
    # each side's scan stops at its first conflict
    assert check_complemented(fresh(yamada)) == (right[:1], left[:1])


def scan_pairs(p):
    """The pairs check_complemented scans: those of pair_scan_generators, in
    product order, with smallest family index 0."""
    fams = p.alphabet.integer_families
    return [(x, y) for x, y in itertools.product(pair_scan_generators(p), repeat=2)
            if min([g.index for g in (x, y) if g.family in fams], default=0) == 0]


def reference_check_complemented(p):
    """Every conflict of each side, as _conflicts streams them, from a plain
    loop over instances_for_pair, which files nothing.

    It loops over the scan's own pairs: it checks what the scan files, not
    which pairs it covers, which test_complemented_verdict_equals_a_brute_scan
    checks.
    """
    found = []
    for side in ("right", "left"):
        conflicts = []
        for x, y in scan_pairs(p):
            insts = instances_for_pair(p, x, y, side)
            if (x == y and insts) or len(insts) > 1:
                conflicts.append(((x, y), tuple(insts[:2])))
        found.append(tuple(conflicts))
    return tuple(found)


SCAN_CASES = [*((key, None) for key in catalog.FIXED_NAMES),
              *((f"affine-a:{family}:{n}", None)
                for family in ("classical", "shi", "cll") for n in (3, 4, 5)),
              *(("hand", text) for text in (TWO_COMMUTES, SKEWED, GLUE, ONE_SIDED, NONHOM,
                                            WIDE_OFFSET, SQUARE_CHAIN))]


@pytest.mark.parametrize("key,text", SCAN_CASES)
def test_scan_files_cold_complements(key, text):
    p = catalog.load(key) if text is None else load_presentation(text)
    reference = reference_check_complemented(fresh(p))
    assert check_complemented(fresh(p)) == tuple(conflicts[:1] for conflicts in reference)
    pairs = scan_pairs(p)
    assert tuple(tuple(_conflicts(p, pairs, side)) for side in ("right", "left")) == reference
    assert p._complements
    for (side, x, y), filed in p._complements.items():
        assert filed == _complement(fresh(p), x, y, side)


def test_transpose_is_filed_with_its_own_bindings():
    # translation hits (t(0), t(1)) with i=0, j=1 and, on the same sides,
    # with j=0, i=1: the lookup keeps the first, and files the second,
    # swapped, for (t(1), t(0)), as a lookup of that pair finds it
    p = catalog.load("d4:new")
    t0, t1 = Generator("t", 0), Generator("t", 1)
    assert right_complement(p, t0, t1).rule.bindings == (("i", 0), ("j", 1))
    filed = p._complements[("right", t1, t0)]
    assert (filed.rule.schema, filed.rule.bindings) == ("translation", (("i", 1), ("j", 0)))
    assert filed == right_complement(catalog.load("d4:new"), t1, t0)


QUOTIENT_WORDS = [f"{a} {b}" for a in ("s1", "s2", "t(0)", "t(1)", "t(2)")
                  for b in ("s1", "t(0)", "t(1)")]


def test_warm_quotient_steps_equal_fresh_ones(d4):
    # certify files complements, transposes included, that reversals then
    # read; each reversal records the rules, bindings included, that it
    # records on a presentation of its own
    warm = fresh(d4)
    certify(warm, t_bound=3)
    words = [warm.parse(text) for text in QUOTIENT_WORDS]
    for side in ("right", "left"):
        for u, v in itertools.product(words, repeat=2):
            assert reverse_quotient(warm, u, v, side) == reverse_quotient(fresh(d4), u, v, side)


def test_homogeneous_is_derived(d4, yamada):
    assert d4.homogeneous and yamada.homogeneous
    p = load_presentation("generators: a1 b1\na1 = b1 b1\n")
    assert not p.homogeneous  # computed from the schemas, nothing stored


def test_instantiate_window(d4):
    w = instantiate_window(d4, 2)
    assert w.name == "d4:new|window=2" and w.window == 2 and w.homogeneous
    assert not w.alphabet.integer_families
    assert w.alphabet.finite["t"] == (-2, -1, 0, 1, 2)
    with pytest.raises(UnknownGeneratorError):
        w.parse("t(3)")
    with pytest.raises(ValueError):
        instantiate_window(d4, 0)


def test_window_drops_instances_outside_it():
    # a fixed index outside the window drops its relation
    w = instantiate_window(load_presentation(PINNED_T), 2)
    assert [s.line() for s in w.schemas] == ["rel_1: a1 b1 = b1 a1"]
    # a finite-domain value on an integer family leaves the domain, and a
    # schema whose domain empties is dropped
    p = load_presentation("generators: a1 ; families: t\n"
                          "schema x [k in {0, 5}]: t(k) a1 = a1 t(k)\n"
                          "schema y [k in {5}]: t(k) a1 a1 = a1 a1 t(k)\n")
    assert [s.line() for s in instantiate_window(p, 2).schemas] == [
        "x [k in {0}]: t(k) a1 = a1 t(k)"]
    assert [s.line() for s in instantiate_window(p, 5).schemas] == [
        "x [k in {0, 5}]: t(k) a1 = a1 t(k)", "y [k in {5}]: t(k) a1 a1 = a1 a1 t(k)"]
    assert len(materialize_relations(instantiate_window(p, 5))) == 3


def test_window_schema_names(d4):
    # a window keeps the schemas, names and patterns, with narrower domains
    w = instantiate_window(d4, 1)
    assert [s.name for s in w.schemas] == [s.name for s in d4.schemas]
    assert [(s.lhs, s.rhs) for s in w.schemas] == [(s.lhs, s.rhs) for s in d4.schemas]
    labels = [inst.label() for inst in materialize_relations(w)]
    assert len(labels) == 19
    assert "t_braid(i=-1, j=1)" in labels and "t_braid(i=1, j=4)" in labels
    assert sum(1 for label in labels if label.startswith("translation")) == 1


def test_materialize_relations(d4):
    with pytest.raises(ValueError):
        materialize_relations(d4)
    assert len(materialize_relations(instantiate_window(d4, 1))) == 19


def test_schema_window_enumeration(d4):
    tr = instantiate_window(d4, 1).schema("translation")
    assert tr.line() == "translation [i in {0, 1}; j in {0, 1}]: t(i) t(i-1) = t(j) t(j-1)"
    insts = [inst for inst in materialize_relations(instantiate_window(d4, 1))
             if inst.schema == "translation"]
    assert [str(i) for i in insts] == ["t(0) t(-1) = t(1) t(0)"]
    # a Z-parameter on a finite presentation cannot be enumerated
    finite = load_presentation("generators: s1 s2\n")
    z = Schema("z", (Param("j", None),), (PatternLetter("s", 0, "j"), PatternLetter("s", 1)),
               (PatternLetter("s", 1), PatternLetter("s", 0, "j")))
    with pytest.raises(ValueError, match="over Z"):
        materialize_relations(fresh(finite, (z,)))


def test_window_size_is_capped(d4):
    # counted from the offsets before any domain is built, so a huge radius
    # is refused at once
    with pytest.raises(CapError, match="more than the cap"):
        instantiate_window(d4, 10 ** 9)
    # d4:new's translation schema alone has (2n)^2 bindings
    assert len(instantiate_window(d4, 200).alphabet.finite["t"]) == 401
    with pytest.raises(CapError):
        instantiate_window(d4, 250)


def test_window_radius_past_ssize_t_is_capped(d4):
    # a range of 2n + 1 >= 2**63 integers has no len(); the window is counted
    # without one and refused like any other
    with pytest.raises(CapError, match="the window of radius 4611686018427387904 on d4:new holds "
                                       r"\d+ generators and schema bindings, more than the cap"):
        instantiate_window(d4, 2 ** 62)


@st.composite
def windowed_schemas(draw):
    """A presentation on s1..s3 and the family t, with up to three random schemas.

    A parameter indexes t over Z or over a finite domain, or s over a
    finite domain; every parameter sits on a boundary letter at both ends,
    so the schema supports pair lookup.  Fixed t-indices reach past the
    small windows, so some schemas leave them.
    """
    alphabet = load_presentation("generators: s1 s2 s3 ; families: t\n").alphabet
    schemas = []
    for number in range(draw(st.integers(1, 3))):
        params, families = [], {}
        for name in ("i", "j")[:draw(st.integers(0, 2))]:
            family = draw(st.sampled_from(("t", "t", "s")))
            pool = range(-5, 6) if family == "t" else range(1, 4)
            values = draw((st.none() if family == "t" else st.nothing())
                          | st.sets(st.sampled_from(pool), min_size=1).map(sorted).map(tuple))
            params.append(Param(name, values))
            families[name] = family

        def bound(name):
            offset = draw(st.integers(-3, 3)) if families[name] == "t" else 0
            return PatternLetter(families[name], offset, name)

        fixed = st.builds(PatternLetter, st.just("t"), st.integers(-5, 5), st.none()) | st.builds(
            PatternLetter, st.just("s"), st.integers(1, 3), st.none())

        def letter():
            if params and draw(st.booleans()):
                return bound(draw(st.sampled_from(params)).name)
            return draw(fixed)

        ends = []
        for _ in range(2):  # each end carries every parameter on one side or the other
            names = draw(st.permutations([q.name for q in params]))
            pair = [bound(name) for name in names] + [letter() for _ in range(2 - len(names))]
            ends.append(pair if draw(st.booleans()) else pair[::-1])
        sides = [tuple([ends[0][k]] + [letter() for _ in range(draw(st.integers(0, 2)))]
                       + [ends[1][k]]) for k in (0, 1)]
        schemas.append(Schema(f"r{number}", tuple(params), *sides))
    return Presentation("random", alphabet, tuple(schemas))


def reference_window_relations(p, n):
    """The relations of the window of radius n, from Schema.instantiate over a wide range.

    Each Z-parameter runs over [-n - 8, n + 8], past any offset the
    strategy draws; instances with a t-index outside [-n, n] are dropped,
    and of the instances with the same unordered sides the first is kept.
    """
    out, seen = [], set()
    for s in p.schemas:
        ranges = [range(-n - 8, n + 9) if q.values is None else q.values for q in s.params]
        for combo in itertools.product(*ranges):
            inst = s.instantiate({q.name: v for q, v in zip(s.params, combo)})
            if inst is None or any(letter.gen.family == "t" and abs(letter.gen.index) > n
                                   for letter in inst.lhs + inst.rhs):
                continue
            key = frozenset((inst.lhs, inst.rhs))
            if key not in seen:
                seen.add(key)
                out.append(inst)
    return out


@settings(max_examples=100)
@given(p=windowed_schemas(), n=st.integers(1, 4))
def test_window_relations_match_the_reference(p, n):
    w = instantiate_window(p, n)
    assert w.alphabet.finite["t"] == tuple(range(-n, n + 1))
    assert list(materialize_relations(w)) == reference_window_relations(p, n)


def test_pair_scan_generators(d4):
    # span 1: translation's t(i) t(i-1), so indices 0..3
    gens = pair_scan_generators(d4)
    assert [str(g) for g in gens] == [
        "s1", "s2", "s3", "s4", "t(0)", "t(1)", "t(2)", "t(3)",
    ]
    # span 5: WIDE_OFFSET's t(i) t(i+5), so indices 0..11
    wide = pair_scan_generators(load_presentation(WIDE_OFFSET))
    assert [str(g) for g in wide] == ["a1"] + [f"t({i})" for i in range(12)]


@pytest.mark.parametrize("text,refusal", [
    (PINNED_T, "schema rel_2 pins the index of t(10)"),
    # the pinned index as a finite-domain value plus its offset
    (PINNED_T.replace("a1 t(10) = t(10) a1", "schema pin [j in {4}]: a1 t(j+6) = t(j+6) a1"),
     "schema pin pins the index of t(j+6)"),
])
def test_check_complemented_refuses_pinned_indices(text, refusal):
    p = load_presentation(text, name="pinned-t")
    with pytest.raises(ValueError, match=re.escape(refusal)):
        check_complemented(p)
    assert not p._complements
    # certify refuses them before it scans
    assert certify(p).refusal == (
        f"{refusal}, so the relations are not translation-invariant and the "
        "index-normalised sweep does not cover them")


@st.composite
def invariant_schemas(draw):
    """A translation-invariant presentation on a1, a2 and the families t and u.

    One to four schemas of two or three letters a side.  A schema has up to
    two parameters, each indexing t or u over Z with offsets in [-3, 3],
    and every parameter sits on a boundary letter at both ends.
    """
    alphabet = load_presentation("generators: a1 a2 ; families: t u\n").alphabet
    schemas = []
    for number in range(draw(st.integers(1, 4))):
        families = {name: draw(st.sampled_from("tu"))
                    for name in ("i", "j")[:draw(st.integers(0, 2))]}

        def bound(name):
            return PatternLetter(families[name], draw(st.integers(-3, 3)), name)

        def letter():
            if families and draw(st.booleans()):
                return bound(draw(st.sampled_from(sorted(families))))
            return PatternLetter("a", draw(st.integers(1, 2)), None)

        ends = []
        for _ in range(2):  # each end carries every parameter on one side or the other
            names = draw(st.permutations(sorted(families)))
            pair = [bound(name) for name in names] + [letter() for _ in range(2 - len(names))]
            ends.append(pair if draw(st.booleans()) else pair[::-1])
        sides = [tuple([ends[0][k]] + [letter() for _ in range(draw(st.integers(0, 1)))]
                       + [ends[1][k]]) for k in (0, 1)]
        schemas.append(Schema(f"r{number}", tuple(Param(name) for name in families), *sides))
    return Presentation("random", alphabet, tuple(schemas))


def brute_conflict_classes(p, side):
    """The classes of the pairs that conflict on the side, from instances_for_pair
    over every pair whose family indices differ by at most 4*span+6.

    span is the largest spread of one parameter's offsets in one schema.  A
    pair with a family letter stands with its shift that puts that letter
    at index 0, so the pairs are those of the finite letters and the
    indices -reach..reach with a family letter at 0, or with none.  A
    conflict is named by the pair that check_complemented scans for its
    class: shifted to smallest family index 0, with the other index cut
    down to 2*span+1, which stands for every larger difference.
    """
    span = max([max(offsets) - min(offsets) for s in p.schemas for name in
                {pl.param for pl in s.lhs + s.rhs if pl.param}
                for offsets in [[pl.offset for pl in s.lhs + s.rhs if pl.param == name]]],
               default=0)
    reach = 4 * span + 6
    finite = p.alphabet.finite_generators()
    gens = finite + [Generator(fam, i) for fam in ("t", "u") for i in range(-reach, reach + 1)]
    pairs = set(itertools.product(finite, repeat=2))
    pairs.update(pair for fam in ("t", "u") for g in gens
                 for pair in ((Generator(fam, 0), g), (g, Generator(fam, 0))))
    found = set()
    for x, y in pairs:
        insts = instances_for_pair(p, x, y, side)
        if (x == y and insts) or len(insts) > 1:
            low = min([g.index for g in (x, y) if g.family != "a"], default=0)
            found.add(tuple(g if g.family == "a" else Generator(g.family, min(
                g.index - low, 2 * span + 1)) for g in (x, y)))
    return found


@settings(max_examples=200, deadline=None)
@given(p=invariant_schemas())
def test_complemented_verdict_equals_a_brute_scan(p):
    # the scan's conflicts are the brute scan's classes, so each side's
    # verdict is the brute scan's too, and check_complemented gives the first
    full = tuple(tuple(_conflicts(fresh(p), scan_pairs(p), side)) for side in ("right", "left"))
    assert check_complemented(p) == tuple(conflicts[:1] for conflicts in full)
    for side, conflicts in zip(("right", "left"), full):
        assert {pair for pair, _ in conflicts} == brute_conflict_classes(fresh(p), side), side


LOOKUP_GENERATORS = [Generator("a", 1), Generator("a", 2)] + [
    Generator(fam, i) for fam in ("t", "u") for i in range(-3, 6)]
TRANSLATION = load_presentation(
    "generators: a1 a2 ; families: t u\nschema translation: t(i) t(i-1) = t(j) t(j-1)\n")


@settings(max_examples=200, deadline=None)
@given(p=invariant_schemas(),
       lookups=st.lists(st.tuples(st.sampled_from(LOOKUP_GENERATORS),
                                  st.sampled_from(LOOKUP_GENERATORS),
                                  st.sampled_from(("right", "left"))), min_size=1, max_size=30))
@example(p=TRANSLATION, lookups=[(Generator("t", 0), Generator("t", 1), "right"),
                                 (Generator("t", 2), Generator("t", 1), "left")])
def test_transposed_filing_law(p, lookups):
    # whatever order the pairs are looked up in, every entry, a transpose
    # included, is what a lookup of its own pair finds, and an ambiguous
    # pair files neither order
    ambiguous = []
    for x, y, side in lookups:
        try:
            _complement(p, x, y, side)
        except AmbiguousComplementError:
            ambiguous.append((side, x, y))
    bare = fresh(p)
    for (side, x, y), filed in p._complements.items():
        insts = instances_for_pair(bare, x, y, side)
        expected = ComplementPair(insts[0], splice(insts[0], side)) if insts else None
        assert len(insts) <= 1 and filed == expected, (side, x, y)
    for side, x, y in ambiguous:
        assert (side, x, y) not in p._complements and (side, y, x) not in p._complements


def test_load_save_round_trip():
    text = (
        "generators: a1 a2 ; families: t\n"
        "a1 a2 = a2 a1\n"
        "schema climb: t(i) a1 = a1 t(i+1)\n"
    )
    p = load_presentation(text, name="tiny")
    again = load_presentation(save_presentation(p), name="tiny")
    assert [s.line() for s in again.schemas] == [s.line() for s in p.schemas]
    assert again.alphabet.finite == p.alphabet.finite
    assert again.alphabet.integer_families == p.alphabet.integer_families


def test_save_keeps_whole_family_parameters(d4):
    text = save_presentation(d4)
    assert ("schema t_braid [i in Z; j in {1, 2, 3, 4}]: t(i) s(j) t(i) = s(j) t(i) s(j)"
            in text.splitlines())
    again = load_presentation(text, name=d4.name)
    for name in ("t_braid", "translation"):
        assert again.schema(name) == d4.schema(name)
    assert save_presentation(again) == text
    # e6 braids t only with s1..s3, a smaller domain, which the clause keeps
    e6 = save_presentation(catalog.load("e6:new")).splitlines()
    assert "schema t_braid [i in Z; j in {1, 2, 3}]: t(i) s(j) t(i) = s(j) t(i) s(j)" in e6
    assert "schema s_braid_1_4: s1 s4 s1 = s4 s1 s4" in e6


@pytest.mark.parametrize("key", ROUND_TRIP_KEYS)
def test_save_load_is_lossless(key):
    p = catalog.load(key)
    snapshots = [p] + ([instantiate_window(p, 1)] if p.alphabet.integer_families else [])
    for q in snapshots:
        text = save_presentation(q)
        again = load_presentation(text, name=q.name)
        assert again.schemas == q.schemas
        assert again.alphabet == q.alphabet
        # the text `monorev show` prints after its comment lines
        assert save_presentation(again) == text


@pytest.mark.parametrize("key", ROUND_TRIP_KEYS)
def test_catalog_saves_as_pinned(key):
    # a drift in a schema's name, orientation, domain or position shows here
    assert save_presentation(catalog.load(key)) == SAVED_CATALOG[key]


FORM_PAIRS = [(f"{key}:yamada", f"{key}:new") for key in ("d4", "e6", "e7", "e8")] + [
    (f"affine-a:shi:{n}", f"affine-a:cll:{n}") for n in range(3, 9)]


def _t_blanked(s):
    """A schema's shape with t's parameter, whose name and domain differ by form, left out."""
    blank = [(pl.family, pl.offset, None if pl.family == "t" else pl.param)
             for pl in s.lhs + s.rhs]
    return s.name, [q for q in s.params if s.param_family(q.name) != "t"], blank, len(s.lhs)


@pytest.mark.parametrize("earlier, new", FORM_PAIRS)
def test_both_forms_share_the_diagram(earlier, new):
    # the catalog docstring: both forms of a diagram share its braid and commute
    # relations and differ only in the central letter
    forms = [catalog.load(key) for key in (earlier, new)]
    diagram = [[s for s in p.schemas if all(pl.family != "t" for pl in s.lhs + s.rhs)]
               for p in forms]
    joins = [[_t_blanked(s) for s in p.schemas if s.name in ("t_braid", "t_commute")]
             for p in forms]
    assert diagram[0] == diagram[1]
    assert joins[0] == joins[1]
    for p, shapes in zip(forms, joins):
        assert len({s.name for s in p.schemas}) == len(p.schemas)
        # t is joined to each vertex once: it braids with the core, commutes with the rest
        (family,) = set(p.alphabet.finite) - {"t"}
        joined = sorted(v for _, params, _, _ in shapes for v in params[0].values)
        assert joined == list(p.alphabet.finite[family])


@pytest.mark.parametrize("key, error", [
    ("d4", KeyError), ("d5:new", KeyError), ("d4:old", KeyError), ("affine-a:cll", KeyError),
    ("affine-a:b:3", KeyError), ("affine-a:cll:3:4", KeyError),
    ("affine-a:cll:x", ValueError), ("affine-a:shi:2", ValueError),
    # more vertex pairs than presentation.MAX_WINDOW, refused before any is built
    ("affine-a:cll:100000", ValueError), ("affine-a:classical:100000", ValueError),
])
def test_catalog_bad_keys(key, error):
    with pytest.raises(error):
        catalog.load(key)


@pytest.mark.parametrize("kind", ["classical", "shi", "cll"])
def test_huge_rank_is_refused_before_anything_is_built(kind):
    # the vertex pairs are counted from the rank, before any vertex, edge or
    # relation tuple is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="diagram relations, more than the cap"):
            catalog.load(f"affine-a:{kind}:200000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("text, error", [
    ("a1 b1 = b1 a1\n", WordSyntaxError),             # no header
    ("generators: a\n", WordSyntaxError),             # bare family token
    ("generators: a1 ; types: t\n", WordSyntaxError), # bad second header field
    ("generators: a1\na1 a1\n", WordSyntaxError),     # relation without =
    ("generators: a1\na1 = a1^-1\n", WordSyntaxError),
    ("generators: a1\nschema x a1 = a1\n", WordSyntaxError),
    ("generators: a1\nschema x: a1 = a1^-1\n", WordSyntaxError),  # a negative letter
    ("generators: a1\nschema x: a1 a1\n", WordSyntaxError),        # schema line without =
    ("generators: s1 ; families: t\nt(i) s1 = s1 t(i)\n", WordSyntaxError),  # plain: no t(i)
    # the header reads letters and family names with the word grammar
    ("generators: a1 ; families: t(1)\n", WordSyntaxError),
    ("generators: a1 ; families: 1t\n", WordSyntaxError),
    ("generators: a1^-1\n", WordSyntaxError),
    ("generators: a1\na1 = b1\n", UnknownGeneratorError),
    # a family both finite and indexed over Z
    ("generators: t1 a1 b1 ; families: t\na1 b1 = b1 a1\n", WordSyntaxError),
    # domain clauses: malformed, empty, not the pattern variables, not in the family
    ("generators: s1 s2 ; families: t\nschema x [i in Q]: t(i) s1 = s1 t(i)\n",
     WordSyntaxError),
    ("generators: s1 s2\nschema x [j in {1, x}]: s(j) s1 = s1 s(j)\n", WordSyntaxError),
    ("generators: s1 s2\nschema x [j in {1, 2}: s(j) s1 = s1 s(j)\n", WordSyntaxError),
    ("generators: s1 s2\nschema x [j in {}]: s(j) s1 = s1 s(j)\n", WordSyntaxError),
    ("generators: s1 s2\nschema x []: s1 s2 = s2 s1\n", WordSyntaxError),
    ("generators: s1 s2 ; families: t\nschema x [i in Z]: t(i) s(j) = s(j) t(i)\n",
     SchemaError),
    ("generators: s1 s2 ; families: t\nschema x [i in Z; k in Z]: t(i) s1 = s1 t(i)\n",
     SchemaError),
    ("generators: s1 s2 ; families: t\nschema x [i in Z; i in Z]: t(i) s1 = s1 t(i)\n",
     SchemaError),
    ("generators: s1 s2\nschema x [j in Z]: s(j) s1 = s1 s(j)\n", SchemaError),
    ("generators: s1 s2\nschema x [j in {1, 3}]: s(j) s1 = s1 s(j)\n", SchemaError),
    # an offset that leaves the finite family, with an inferred or a declared domain
    ("generators: s1 s2 s3\nschema up: s(j) s(j+1) = s(j+1) s(j)\n", SchemaError),
    ("generators: s1 s2 s3\nschema up [j in {1, 2, 3}]: s(j) s(j+1) = s(j+1) s(j)\n",
     SchemaError),
    ("generators: s1 s2 s3\nschema dn [j in {1, 2}]: s(j-1) s3 = s3 s(j-1)\n", SchemaError),
    # a schema name used twice: a plain line is rel_<n>, or two schema lines share one
    ("generators: s1 s2 s3\nschema rel_1: s1 s2 = s2 s1\ns1 s3 = s3 s1\n", SchemaError),
    ("generators: s1 s2 s3\nschema x: s1 s2 = s2 s1\nschema x: s1 s3 = s3 s1\n", SchemaError),
])
def test_load_presentation_errors(text, error):
    with pytest.raises(error):
        load_presentation(text)


@pytest.mark.parametrize("line", ["z1 a1 = a1 z1", "schema r [i in Z]: z(i) a1 = a1 z(i)"])
def test_an_unknown_family_is_refused_alike_in_plain_and_pattern_letters(line):
    with pytest.raises(UnknownGeneratorError, match=r"\Aunknown generator family 'z'\Z"):
        load_presentation(f"generators: a1\n{line}\n")


def test_presentation_lookup(d4):
    with pytest.raises(KeyError):
        d4.schema("no_such")
    assert d4.schema("translation").name == "translation"


def test_offsets_inside_the_finite_family_load():
    text = "generators: s1 s2 s3\nschema up [j in {1, 2}]: s(j) s(j+1) = s(j+1) s(j)\n"
    p = load_presentation(text)
    assert [str(i) for i in materialize_relations(p)] == ["s1 s2 = s2 s1", "s2 s3 = s3 s2"]


@pytest.mark.parametrize("name", ["", "a b", "a\tb", "a:b", "a[1]", "b]"])
def test_schema_names_must_read_back(name):
    with pytest.raises(SchemaError, match="schema name"):
        Schema(name, (), (PatternLetter("a", 1),), (PatternLetter("b", 1),))


def test_unusual_schema_names_round_trip():
    alphabet = load_presentation("generators: a1 b1\n").alphabet
    rel = Schema("a.b-1/x", (), (PatternLetter("a", 1),), (PatternLetter("b", 1),))
    text = save_presentation(Presentation("odd", alphabet, (rel,)))
    assert load_presentation(text).schemas == (rel,)
