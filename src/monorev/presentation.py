"""Positive presentations with finitely many relation schemas.

A schema is a pair of positive pattern words whose letters may carry a single
integer parameter with a constant offset, for example

    translation:  t(i) t(i-1) = t(j) t(j-1)

Binding the parameters yields relation instances.  A schema with no parameters
is an ordinary fixed relation.  Schemas answer pair-indexed queries (all
instances whose sides begin, or end, with a given ordered generator pair)
without ever enumerating the infinite instance family, which is what makes
word reversing over Z-indexed alphabets possible.  A query solves the two
boundary letters of a schema against the pair and builds the instance from
the schema's compiled form: letter templates, domain sets and boundary
templates, made on the schema's first lookup or build and kept on that
schema object (see Schema).  The form is one per object, not per name, so
a window's schemas, which keep the names, solve with their own narrowed
domains.  It holds the schema's letter tables too: each parametrised
letter, such as t(3) of t_braid, is built once per schema object, the
first time an instance needs it, and every later instance of that schema
reuses the object.

Relations are unordered pairs of words; instances returned by queries are
oriented so that the left side starts (or ends) with the first generator of
the queried pair.

A schema is written as one line, `Schema.line()`, in the text format that
`save_presentation` writes, `load_presentation` reads and `monorev show`
prints, so saving and loading give back the same schemas.

Complements are cached per presentation, for pairs x != y: reversing
deletes x^-1 x without a lookup.  An entry is None or a ComplementPair, the
relation and the letters a reversal step pushes.  A cold lookup of (x, y)
that finds one instance, or none, files (y, x) too, with what a lookup of
(y, x) would find, bindings included (see _complement).  This is half of
the mirror lemma of the cube sweep (see completeness).  The
complementedness scan (`check_complemented`) solves one generator pair for
each class of pairs under index translation, and refuses a presentation
that is not translation-invariant.  A side's scan ends at its first
conflict, the one witness that rules the side out, so a side that is not
complemented solves no pair after it.  The scan looks its pairs up through
this cache, so it files what it solves, and the reversals that follow it
find those pairs warm.

A presentation is mirror-symmetric (`Presentation.mirror_symmetric`) when
it is translation-invariant and reflecting its schemas gives them back:
each side read backwards, each integer-family offset negated.
Translation reads backwards as itself under i -> 1-i, braid relations are
palindromes and commutations come back with their sides exchanged, so
every :new key and affine-a:{classical,cll} is; the finite t(0), t(1) of
:yamada and affine-a:shi are not negated, and their double twist reads
backwards as another relation.  The cube sweep lets a pass on one side
settle a check on the other there (see completeness).

A window (`instantiate_window`) is the finite presentation on the indices
-n..n of each integer family: the same schemas, names and patterns, with
each parameter over such a family narrowed to the values that keep all of
its letters inside, and without the schemas that no value keeps there.
`materialize_relations` enumerates the instances, of a window or of a
finite presentation; the oracle rewrites with them.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple

from .words import (
    _FAMILY,
    _LETTER_RE,
    Alphabet,
    Generator,
    Letter,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    parse_letter,
    parse_word,
)

# The reversal step budget by default.  It lives here, beside the complement
# lookup, so that the command line can name it without loading the kernel.
DEFAULT_FUEL = 10000


class CapError(RuntimeError):
    """A search met its size cap before an answer: the outcome is inconclusive.

    The cube sweep (completeness.SweepCapError) and the oracle
    (oracle.OracleCapError) raise subclasses, and instantiate_window raises
    it for a window that would be too large; the command line catches this
    base without loading either module.
    """


class SchemaError(ValueError):
    """Raised for schemas that cannot support pair-indexed lookup."""


class AmbiguousComplementError(ValueError):
    """Raised when a complement query hits more than one relation."""

    def __init__(self, pair: tuple[Generator, Generator], instances: list["RelationInstance"]):
        self.pair = pair
        self.instances = instances
        listed = "; ".join(str(r) for r in instances)
        super().__init__(
            f"pair ({pair[0]}, {pair[1]}) is related by more than one relation: {listed}"
        )


class RelationInstance(NamedTuple):
    lhs: Word
    rhs: Word
    schema: str
    bindings: tuple[tuple[str, int], ...] = ()

    def swapped(self) -> "RelationInstance":
        return RelationInstance(self.rhs, self.lhs, self.schema, self.bindings)

    def unordered_key(self):
        return frozenset((self.lhs, self.rhs))

    def label(self) -> str:
        if not self.bindings:
            return self.schema
        inner = ", ".join(f"{k}={v}" for k, v in self.bindings)
        return f"{self.schema}({inner})"

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


class PatternLetter(NamedTuple):
    family: str
    offset: int = 0
    param: str | None = None

    def render(self) -> str:
        if self.param is None:
            return str(Generator(self.family, self.offset))
        if self.offset == 0:
            return f"{self.family}({self.param})"
        sign = "+" if self.offset > 0 else "-"
        return f"{self.family}({self.param}{sign}{abs(self.offset)})"


class Param(NamedTuple):
    """A schema parameter; values is None for parameters ranging over Z."""

    name: str
    values: tuple[int, ...] | None = None


# what a schema line's head reads as a name
_SCHEMA_NAME = re.compile(r"[^\s:\[\]]+")


class _Letters(dict):
    """One family's letter table: its positive letters by index, each built on first use."""

    __slots__ = ("family",)

    def __init__(self, family: str) -> None:
        super().__init__()
        self.family = family

    def __missing__(self, index: int) -> Letter:
        new = tuple.__new__
        letter = self[index] = new(Letter, (new(Generator, (self.family, index)), 1))
        return letter


class _SchemaFields(NamedTuple):
    name: str
    params: tuple[Param, ...]
    lhs: tuple[PatternLetter, ...]
    rhs: tuple[PatternLetter, ...]


class Schema(_SchemaFields):
    """A named pair of pattern sides and the domains of their parameters.

    A named tuple of its four fields, checked when it is made: it equals,
    hashes and prints as them.  Lookups and builds read the schema's
    compiled form, made on the first of them and kept on this schema object
    as the attribute _form, None until then.  It is the tuple (names,
    sides, domains, ends): the parameter names in order; sides[swap], the
    letter templates of (lhs, rhs), or of (rhs, lhs) when swap is True;
    domains, the (slot, set of values) of each parameter with a finite
    domain; and ends[end][swap], the templates of the two boundary letters
    that a lookup solves against (x, y).  A template is (letter, table,
    offset, slot): slot indexes the parameter values, and a letter of
    fixed index has slot -1 and is taken once, as letter.  table is the
    letter table of the letter's family, one per family of the schema,
    shared by its templates: it maps an index to the positive letter, built
    on the first build that needs it and kept.  So every instance this
    object builds holds one Letter object per letter, wherever it occurs,
    and a build allocates only the two words and the instance.  A window's
    schemas are new objects, so each compiles its own narrowed domains and
    starts its own tables; a presentation's tables go with it, rather than
    growing in one table for every presentation loaded.
    """

    _form = None

    def __new__(cls, name: str, params: tuple[Param, ...], lhs: tuple[PatternLetter, ...],
                rhs: tuple[PatternLetter, ...]) -> "Schema":
        self = tuple.__new__(cls, (name, params, lhs, rhs))
        if not _SCHEMA_NAME.fullmatch(self.name):
            raise SchemaError(f"schema name {self.name!r} must be non-empty, without "
                              "whitespace, ':', '[' or ']', so a schema line can name it")
        if not self.lhs or not self.rhs:
            raise SchemaError(f"schema {self.name}: relation sides must be non-empty")
        names = {p.name for p in self.params}
        if len(names) < len(self.params):
            raise SchemaError(f"schema {self.name}: a parameter is declared twice")
        used = {pl.param for pl in self.lhs + self.rhs if pl.param}
        if used != names:
            raise SchemaError(
                f"schema {self.name}: parameters {sorted(names)} do not match "
                f"pattern variables {sorted(used)}"
            )
        for end in (0, -1):
            bound = {pl.param for pl in (self.lhs[end], self.rhs[end]) if pl.param}
            if names - bound:
                raise SchemaError(
                    f"schema {self.name}: parameters {sorted(names - bound)} are not "
                    "determined by the boundary letters, pair lookup would not be finite"
                )
        for p in self.params:
            fams = {pl.family for pl in self.lhs + self.rhs if pl.param == p.name}
            if len(fams) > 1:
                raise SchemaError(
                    f"schema {self.name}: parameter {p.name} spans families {sorted(fams)}"
                )
        return self

    @classmethod
    def _make(cls, iterable) -> "Schema":  # _replace goes through here too
        return cls(*iterable)

    def _compile(self) -> tuple:
        slots = {p.name: k for k, p in enumerate(self.params)}
        tables = {pl.family: _Letters(pl.family) for pl in self.lhs + self.rhs}

        def template(pl: PatternLetter) -> tuple:
            table = tables[pl.family]
            if pl.param is None:
                return (table[pl.offset], table, pl.offset, -1)
            return (None, table, pl.offset, slots[pl.param])
        lhs, rhs = [template(pl) for pl in self.lhs], [template(pl) for pl in self.rhs]
        form = (tuple(slots), ((lhs, rhs), (rhs, lhs)),
                tuple([(k, frozenset(p.values)) for k, p in enumerate(self.params)
                       if p.values is not None]),
                (((lhs[0], rhs[0]), (rhs[0], lhs[0])), ((lhs[-1], rhs[-1]), (rhs[-1], lhs[-1]))))
        self._form = form
        return form

    # -- instantiation ---------------------------------------------------

    def _param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def param_family(self, name: str) -> str:
        for pl in self.lhs + self.rhs:
            if pl.param == name:
                return pl.family
        raise KeyError(name)

    def instantiate(self, bindings: dict[str, int]) -> RelationInstance | None:
        """Concrete instance for the given parameter values.

        Returns None for degenerate instances whose two sides are the same
        word (these never count as relations).  The bindings must name
        every parameter, each within its domain; pair lookup builds from
        values its solve has already checked, without these checks.
        """
        if set(bindings) != {p.name for p in self.params}:
            raise ValueError(f"schema {self.name} expects bindings for "
                             f"{[p.name for p in self.params]}, got {sorted(bindings)}")
        for p in self.params:
            if p.values is not None and bindings[p.name] not in p.values:
                raise ValueError(
                    f"schema {self.name}: {p.name}={bindings[p.name]} outside domain"
                )
        return self._build([bindings[p.name] for p in self.params])

    def _build(self, values, swap: bool = False) -> RelationInstance | None:
        """The instance at values, the parameter values in order; its lhs is the rhs if swap.

        Each letter comes from its family's letter table, built there on
        first use (see Schema).
        """
        new = tuple.__new__
        names, sides, _, _ = self._form or self._compile()
        first, second = sides[swap]
        lhs = new(Word, [fixed or table[off + values[slot]] for fixed, table, off, slot in first])
        rhs = new(Word, [fixed or table[off + values[slot]] for fixed, table, off, slot in second])
        if lhs == rhs:
            return None
        return RelationInstance(lhs, rhs, self.name, tuple(zip(names, values)))

    # -- pair-indexed lookup ---------------------------------------------

    def _oriented(self, x: Generator, y: Generator, end: int,
                  swap: bool) -> RelationInstance | None:
        """The instance whose lhs has x and rhs has y at the given end, or None.

        The boundary letters of the schema's lhs and rhs are solved against
        x and y when swap is False, those of its rhs and lhs when swap is
        True, and the instance is built in that orientation.  None when the
        patterns do not fit or the instance is degenerate.

        x and y must match the two boundary letters' keys (see
        Presentation.pair_index): each has the letter's family, and the
        letter's index when that is fixed.  instances_for_pair solves only
        the entries filed under the pair, so only the parameters are checked.
        """
        names, _, domains, ends = self._form or self._compile()
        (_, _, ox, sx), (_, _, oy, sy) = ends[end][swap]
        a, b = x.index - ox, y.index - oy
        values = [0] * (len(names) + 1)
        values[sx] = a
        values[sy] = b
        # a letter of fixed index (slot -1) puts its difference, 0, in the
        # trailing spare slot, and a parameter on both letters takes one value
        if sx == sy and a != b:
            return None
        for slot, dom in domains:
            if values[slot] not in dom:
                return None
        return self._build(values, swap)

    def line(self) -> str:
        """The schema as the text format writes it after `schema`, domains included.

        `t_braid [i in Z; j in {1, 2, 3}]: t(i) s(j) t(i) = s(j) t(i) s(j)`
        """
        sides = " = ".join(" ".join(pl.render() for pl in side) for side in (self.lhs, self.rhs))
        if not self.params:
            return f"{self.name}: {sides}"
        doms = "; ".join(
            f"{p.name} in Z" if p.values is None
            else f"{p.name} in {{{', '.join(map(str, p.values))}}}"
            for p in self.params)
        return f"{self.name} [{doms}]: {sides}"


class Presentation:
    """A named alphabet and schemas, with the caches that lookups fill.

    It compares by identity: each object owns its caches, and a new one,
    made with the constructor, starts them empty.
    """

    __slots__ = ("name", "alphabet", "schemas", "window",
                 "_complements", "_pair_index", "_rewriter")

    def __init__(self, name: str, alphabet: Alphabet, schemas: tuple[Schema, ...],
                 window: int | None = None) -> None:
        self.name, self.alphabet, self.schemas, self.window = name, alphabet, schemas, window
        # caches, not arguments.  _rewriter is the oracle's rewrite table, built
        # from the relations on first use
        self._complements: dict = {}
        self._pair_index: dict | None = None
        self._rewriter: object | None = None

    def schema(self, name: str) -> Schema:
        for s in self.schemas:
            if s.name == name:
                return s
        raise KeyError(f"presentation {self.name} has no schema named {name!r}")

    def parse(self, text: str) -> Word:
        return parse_word(text, self.alphabet)

    @property
    def homogeneous(self) -> bool:
        """Every schema's sides have equal pattern length, so every instance's do too."""
        return all(len(s.lhs) == len(s.rhs) for s in self.schemas)

    def translation_invariant(self) -> bool:
        """True when one shift k of every integer-family index maps relations onto relations.

        That holds when every integer-family letter of every schema carries a
        parameter ranging over Z, so the shift just moves the parameter.  A
        fixed index such as t(100) breaks it.
        """
        return self.pinned_letter() is None

    def mirror_symmetric(self) -> bool:
        """True when every relation read backwards, family indices negated, is a relation.

        The presentation must be translation-invariant, and reflecting its
        schemas must give back the same schemas: each side read backwards,
        each integer-family offset negated, compared as canonical forms
        (see _canonical_form).  Then, for every c, the map that reverses a
        word and sends each family index i to c - i takes relations onto
        relations.  A schema whose reflected sides are its own, in either
        order, gives one form to both lists, so it is left out of both.
        """
        if not self.translation_invariant():
            return False
        fams = self.alphabet.integer_families
        forms, mirrored = [], []
        for s in self.schemas:
            back = tuple(tuple(PatternLetter(pl.family, -pl.offset, pl.param)
                               if pl.offset and pl.family in fams else pl
                               for pl in reversed(side)) for side in (s.lhs, s.rhs))
            if (s.lhs, s.rhs) != back != (s.rhs, s.lhs):
                forms.append(_canonical_form(s.params, s.lhs, s.rhs))
                mirrored.append(_canonical_form(s.params, *back))
        return sorted(forms) == sorted(mirrored)

    def pinned_letter(self) -> tuple[Schema, PatternLetter] | None:
        """The first integer-family pattern letter whose index a shift cannot move.

        That is a fixed index such as t(100), or a parameter with a finite
        domain.  None when there is none, that is, when the presentation is
        translation-invariant.
        """
        fams = self.alphabet.integer_families
        return next(((s, pl) for s in self.schemas for pl in s.lhs + s.rhs
                     if pl.family in fams
                     and (pl.param is None or s._param(pl.param).values is not None)), None)

    def pair_index(self) -> dict:
        """Schema positions and orientations by boundary pattern, for pair lookup.

        Maps (end, key of x, key of y) to the (position, swap) entries, in
        schema order, of the schemas whose sides can carry x and y at that
        end: swap is False when the lhs can carry x and the rhs y, True when
        the rhs can carry x and the lhs y.  A pattern letter's key is
        (family, index) when its index is fixed and (family, None) when a
        parameter sets it.  Computed once per presentation.
        """
        if self._pair_index is None:
            index: dict = {}
            for pos, s in enumerate(self.schemas):
                for end in (0, -1):
                    a, b = _boundary_key(s.lhs[end]), _boundary_key(s.rhs[end])
                    index.setdefault((end, a, b), []).append((pos, False))
                    index.setdefault((end, b, a), []).append((pos, True))
            self._pair_index = index
        return self._pair_index


def _canonical_form(params: tuple[Param, ...], lhs: tuple[PatternLetter, ...],
                    rhs: tuple[PatternLetter, ...]) -> tuple:
    """A schema's patterns up to parameter names, Z-offset shifts and the order of its sides.

    Parameters are numbered in order of first appearance, each Z-parameter's
    offsets are shifted so that the smallest is 0, finite domains are kept,
    and of the two side orders the smaller form is taken.
    """
    domains = {p.name: p.values for p in params}
    forms = []
    for first, second in ((lhs, rhs), (rhs, lhs)):
        names = list(dict.fromkeys(pl.param for pl in first + second if pl.param is not None))
        low = {n: 0 if domains[n] is not None else
               min(pl.offset for pl in first + second if pl.param == n) for n in names}
        sides = tuple(tuple((pl.family, pl.offset - low.get(pl.param, 0),
                             names.index(pl.param) if pl.param in low else -1) for pl in side)
                      for side in (first, second))
        forms.append(sides + (tuple((domains[n] is None, domains[n] or ()) for n in names),))
    return min(forms)


def _boundary_key(pl: PatternLetter) -> tuple[str, int | None]:
    return (pl.family, None if pl.param else pl.offset)


# -- complements ----------------------------------------------------------


class ComplementPair(NamedTuple):
    """The relation x v' = y u' (right) or v' x = u' y (left), and what a reversal step pushes.

    push is `splice(rule, side)`: the letters of v' u'^-1 (right) or
    v'^-1 u' (left), last first.
    """

    rule: RelationInstance
    push: tuple[Letter, ...]


def splice(rule: RelationInstance, side: str) -> tuple[Letter, ...]:
    """The letters a reversing step with this rule puts in place of its redex, in stack order.

    Right, from x v' = y u': x^-1 y becomes v' u'^-1.  Left, from v' x = u' y:
    x y^-1 becomes v'^-1 u'.  The letters come last first, the order in which
    they are pushed onto a stack of unread letters so that the first one ends
    on top.  Relation sides are positive, so a letter's inverse is (gen, -1).
    """
    new = tuple.__new__
    if side == "right":
        return tuple([new(Letter, (letter.gen, -1)) for letter in rule.rhs[1:]]) + rule.lhs[:0:-1]
    return rule.rhs[-2::-1] + tuple([new(Letter, (letter.gen, -1)) for letter in rule.lhs[:-1]])


def instances_for_pair(p: Presentation, x: Generator, y: Generator,
                       side: str = "right") -> list[RelationInstance]:
    """All relation instances whose sides lead (right) or trail (left) with (x, y).

    Only the orientations that p.pair_index() files under the pair are
    solved; their hits come in schema order, each schema's unswapped one
    first.  A schema's swapped hit that repeats its unswapped one is left
    out: translation gives t(2) t(1) = t(1) t(0) both ways round.
    """
    return _solve(p, x, y, side)[0]


def _solve(p: Presentation, x: Generator, y: Generator, side: str):
    """instances_for_pair's list for (x, y), and its last hit, a repeat included, or None.

    When the list holds one instance, that last hit, swapped, is the one
    instance of (y, x) (see _complement).
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    p.alphabet.require(x)
    p.alphabet.require(y)
    end = 0 if side == "right" else -1
    index = p.pair_index()
    # a generator keys as (family, index), like a pattern letter of fixed index
    anyx, anyy = (x.family, None), (y.family, None)
    found = list(filter(None, (index.get((end, x, y)), index.get((end, x, anyy)),
                               index.get((end, anyx, y)), index.get((end, anyx, anyy)))))
    if not found:
        return [], None
    # each list of the index is in schema order, each schema's unswapped entry first
    hits = found[0] if len(found) == 1 else sorted({hit for hits in found for hit in hits})
    out: list[RelationInstance] = []
    last = lead = None  # position of out[-1], and the last hit
    for pos, swap in hits:
        inst = p.schemas[pos]._oriented(x, y, end, swap)
        if inst is None:
            continue
        lead = inst
        if pos == last and inst.lhs == out[-1].lhs and inst.rhs == out[-1].rhs:
            continue
        out.append(inst)
        last = pos
    return out, lead


def _complement(p: Presentation, x: Generator, y: Generator, side: str):
    """The ComplementPair of (x, y), or None, cached per presentation under (side, x, y).

    Ambiguity is detected lazily, per queried pair, so reversing still works
    on presentations whose conflicts live elsewhere in the alphabet.  An
    ambiguous pair is solved again on each lookup and caches nothing.

    A cold lookup that finds no instance, or one, files (y, x) as well,
    with what a lookup of (y, x) finds.  pair_index files each orientation
    of a schema under (x, y) where it files the other under (y, x), and
    _oriented solves both with the same values, so a schema's swapped hit
    S of (x, y), swapped, is its unswapped hit of (y, x), bindings
    included, and its unswapped hit U gives the swapped one.  (y, x) finds
    swap(S), swap(U) schema by schema, repeating where S and U do: as many
    instances, and an unambiguous pair's one is the swapped last hit, S
    where the schema has it.  Translation hits (t(0), t(1)) with i=0, j=1
    and, on the same sides, with j=0, i=1: (t(1), t(0)) gets the second.
    """
    key = (side, x, y)
    try:
        return p._complements[key]
    except KeyError:
        pass
    insts, lead = _solve(p, x, y, side)
    if len(insts) > 1:
        raise AmbiguousComplementError((x, y), insts)
    if not insts:
        p._complements[key] = p._complements[(side, y, x)] = None
        return None
    inst = insts[0]
    result = p._complements[key] = ComplementPair(inst, splice(inst, side))
    swapped = lead.swapped()
    p._complements[(side, y, x)] = ComplementPair(swapped, splice(swapped, side))
    return result


def right_complement(p: Presentation, x: Generator, y: Generator):
    """Complement of x^-1 y: a ComplementPair whose rule is x v' = y u', or None.

    The kernel asks only for x != y.  A pair (x, x) is solved like any
    other; a complemented presentation has no relation for it.
    """
    return _complement(p, x, y, "right")


def left_complement(p: Presentation, x: Generator, y: Generator):
    """Complement of x y^-1: a ComplementPair whose rule is v' x = u' y, or None."""
    return _complement(p, x, y, "left")


# -- global checks --------------------------------------------------------


def pair_scan_generators(p: Presentation) -> list[Generator]:
    """The finite generators and each integer family's indices 0..2*span+1, sorted.

    span is the largest spread of offsets that one parameter has within one
    schema.  check_complemented scans the ordered pairs of these generators
    whose smallest family index is 0, one pair for each class of pairs
    under index translation; its docstring proves that they cover them all.
    """
    span = max((pl.offset - ql.offset for s in p.schemas for pl in s.lhs + s.rhs
                for ql in s.lhs + s.rhs if pl.param and pl.param == ql.param), default=0)
    gens = p.alphabet.finite_generators()
    gens.extend(Generator(fam, i) for fam in p.alphabet.integer_families
                for i in range(2 * span + 2))
    return sorted(gens)


def check_complemented(p: Presentation) -> tuple[tuple, tuple]:
    """Scan the generator pairs for complement conflicts: (right, left).

    A pair conflicts when more than one relation leads (or trails) with it,
    or when a relation relates x... to x... with distinct sides.  Each side
    gives the tuple of its first conflict in pair order, ((x, y), relations)
    with the first two relations found, or () when the side is
    complemented: a side's scan stops at its first conflict, which is all
    that Dehornoy's criterion needs to rule the side out.  Each pair of
    distinct generators is looked up through the complement cache, so the
    scan files what it solves for the reversals that follow, and a pair
    whose transpose it has filed is not solved again.

    The pairs are those of pair_scan_generators(p), in product order, whose
    smallest integer-family index is 0 (a pair of finite letters has none),
    one for each class under index translation, as enumerate_word_triples
    normalises triples.  They cover every pair:

    1. Translation invariance makes a shift of every family index by k map
       the instances of a pair onto those of the shifted pair, so a conflict
       depends only on the class: (f, t(i)) stands with (f, t(0)), and
       (a(i), b(i+d)) with (a(0), b(d)) when d >= 0, with (a(-d), b(0))
       when d < 0.
    2. Take (a(0), b(d)), one end, and one orientation of a schema whose
       two boundary letters there are family letters.  If both carry one
       parameter, the orientation hits the pair only where d is the
       difference of their offsets, so |d| <= span.  If they carry two,
       Schema's boundary check makes those two fix every parameter, so it
       hits every d, and each of its letters gets an index c or c + d with
       |c| <= span.  Whether the hit is degenerate, or repeats the other
       orientation's, compares such indices, and c = c' + d can hold only
       at |d| <= 2*span.  So a pair has as many instances at every
       |d| > 2*span of one sign, and d = 2*span+1 stands for them all.
    3. A class with d < 0 is scanned as (a(|d|), b(0)).

    A presentation that is not translation-invariant (see
    Presentation.pinned_letter) raises ValueError: its pairs have no
    finite set of classes to stand for them.
    """
    pinned = p.pinned_letter()
    if pinned is not None:
        raise ValueError(f"schema {pinned[0].name} pins the index of {pinned[1].render()}, "
                         "so the pair scan does not cover its relations")
    fams = p.alphabet.integer_families
    pairs = [(x, y) for x, y in itertools.product(pair_scan_generators(p), repeat=2)
             if min([g.index for g in (x, y) if g.family in fams], default=0) == 0]
    return tuple(tuple(itertools.islice(_conflicts(p, pairs, side), 1))
                 for side in ("right", "left"))


def _conflicts(p: Presentation, pairs: list, side: str):
    """Yield every conflict of the side among the pairs, in their order, as
    check_complemented gives it.

    A pair is solved only when the next conflict is asked for, so a caller
    that stops at the first conflict solves no pair after it.
    """
    for x, y in pairs:
        if x == y:  # solved, not filed: the kernel never looks (x, x) up
            insts = instances_for_pair(p, x, y, side)
        else:
            try:
                _complement(p, x, y, side)
                continue
            except AmbiguousComplementError as exc:
                insts = exc.instances
        if insts:
            yield (x, y), tuple(insts[:2])


def materialize_relations(p: Presentation) -> tuple[RelationInstance, ...]:
    """Every relation of a finite presentation or a window: the one instance enumerator.

    Schema by schema, the bindings run over the product of the finite
    domains, the last parameter fastest; degenerate instances are skipped,
    and of the instances with the same unordered sides the first is kept.
    """
    if p.alphabet.integer_families:
        raise ValueError(f"presentation {p.name} has integer families; window it first")
    out: list[RelationInstance] = []
    seen = set()
    for s in p.schemas:
        if any(q.values is None for q in s.params):
            raise ValueError(f"schema {s.name}: a parameter over Z needs a window")
        for combo in itertools.product(*(q.values for q in s.params)):
            inst = s._build(combo)
            if inst is not None and (key := inst.unordered_key()) not in seen:
                seen.add(key)
                out.append(inst)
    return tuple(out)


# the most generators plus schema bindings a window may hold; the largest d4:new
# window under it has radius 222 and 199,371, nearly all translation bindings.
# It also caps the vertex pairs of a catalog diagram, one relation each, so
# affine-a:classical above rank 632 (shi and cll above 634) is refused before
# any relation is built
MAX_WINDOW = 200_000


def instantiate_window(p: Presentation, n: int) -> Presentation:
    """The window of radius n: p with its integer families cut down to the indices -n..n.

    See the module docstring.  The generators and the bindings of every
    schema are counted from the offsets before a domain is built; more
    than MAX_WINDOW raise CapError.
    """
    if n < 1:
        raise ValueError("window must be at least 1")
    fams = p.alphabet.integer_families
    finite = {**p.alphabet.finite, **{fam: range(-n, n + 1) for fam in fams}}

    def count(values) -> int:  # len() of a range of 2**63 or more integers overflows
        return values.stop - values.start if isinstance(values, range) else len(values)

    size = sum(map(count, finite.values()))
    narrowed = []
    for s in p.schemas:
        letters = s.lhs + s.rhs
        if any(pl.param is None and pl.family in fams and not -n <= pl.offset <= n
               for pl in letters):
            continue
        domains: list[range | tuple[int, ...]] = []
        for q in s.params:
            offsets = [pl.offset for pl in letters if pl.param == q.name]
            lo, hi = max(-n - off for off in offsets), min(n - off for off in offsets)
            if q.values is None:
                domains.append(range(lo, hi + 1))
            elif s.param_family(q.name) in fams:
                domains.append(tuple(v for v in q.values if lo <= v <= hi))
            else:
                domains.append(q.values)
        if all(domains):
            size += math.prod(map(count, domains))
            narrowed.append((s, domains))
    if size > MAX_WINDOW:
        raise CapError(f"the window of radius {n} on {p.name} holds {size} generators "
                       f"and schema bindings, more than the cap of {MAX_WINDOW}")
    schemas = tuple(
        Schema(s.name, tuple(Param(q.name, tuple(d)) for q, d in zip(s.params, domains)),
               s.lhs, s.rhs)
        for s, domains in narrowed)
    alphabet = Alphabet({fam: tuple(values) for fam, values in finite.items()}, frozenset())
    return Presentation(f"{p.name}|window={n}", alphabet, schemas, window=n)


# -- text format ----------------------------------------------------------

_PARAM_TOKEN = re.compile(rf"({_FAMILY})\(([a-z])([+-]\d+)?\)\Z")
_SCHEMA_HEAD = re.compile(rf"({_SCHEMA_NAME.pattern})\s*(?:\[([^\]]*)\])?\Z")
_DOMAIN = re.compile(r"([a-z])\s+in\s+(?:(Z)|\{\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\})\Z")


def _parse_pattern_token(token: str, alphabet: Alphabet,
                         params: dict[str, Param]) -> PatternLetter:
    m = _PARAM_TOKEN.match(token)
    if m is not None:
        family, name, offset = m.groups()
        if family not in alphabet.finite and family not in alphabet.integer_families:
            raise UnknownGeneratorError(f"unknown generator family {family!r}")
        if name not in params:  # inferred: the whole family
            values = None if family in alphabet.integer_families else alphabet.finite[family]
            params[name] = Param(name, values)
        return PatternLetter(family, int(offset or 0), name)
    letter = parse_letter(token, alphabet)
    if letter.sign < 0:
        raise WordSyntaxError("relation sides must be positive words")
    return PatternLetter(*letter.gen)


def _parse_sides(body: str, alphabet: Alphabet):
    """The two pattern sides of `lhs = rhs`, and the parameters their letters use."""
    left_text, eq, right_text = body.partition("=")
    if not eq:
        raise WordSyntaxError(f"relation {body.strip()!r} lacks '='")
    inferred: dict[str, Param] = {}
    lhs = tuple(_parse_pattern_token(t, alphabet, inferred) for t in left_text.split())
    rhs = tuple(_parse_pattern_token(t, alphabet, inferred) for t in right_text.split())
    return lhs, rhs, inferred


def _parse_schema(line: str, alphabet: Alphabet) -> Schema:
    """One `schema <name> [<domains>]: <pattern> = <pattern>` line."""
    head, _, body = line[len("schema "):].partition(":")
    m = _SCHEMA_HEAD.match(head.strip())
    if m is None or not body:
        raise WordSyntaxError(f"malformed schema line {line!r}")
    sname, clause = m.groups()
    lhs, rhs, inferred = _parse_sides(body, alphabet)
    if clause is None:
        params = list(inferred.values())
    else:
        params = []
        for part in clause.split(";"):
            m = _DOMAIN.match(part.strip())
            if m is None:
                raise WordSyntaxError(f"malformed parameter domain {part.strip()!r} in {line!r}")
            pname, z, values = m.groups()
            params.append(Param(pname, None if z else tuple(int(v) for v in values.split(","))))
    schema = Schema(sname, tuple(params), lhs, rhs)
    # every letter a finite parameter indexes, offset included, must be a generator
    for pp in schema.params:
        family = schema.param_family(pp.name)
        if family not in alphabet.finite:
            continue
        if pp.values is None:
            raise SchemaError(f"schema {sname}: the domain of {pp.name} must lie in "
                              f"the finite family {family!r} {alphabet.finite[family]}")
        for pl, v in itertools.product(lhs + rhs, pp.values):
            if pl.param == pp.name and v + pl.offset not in alphabet.finite[family]:
                raise SchemaError(
                    f"schema {sname}: {pl.render()} at {pp.name}={v} is "
                    f"{Generator(family, v + pl.offset)}, outside the finite family "
                    f"{family!r} {alphabet.finite[family]}")
    return schema


def load_presentation(text: str, name: str = "user") -> Presentation:
    """Parse the plain-text presentation format.

    Header line:   generators: s1 s2 ... ; families: t
    Relations:     one `lhs = rhs` per line, the parameterless schema
                   rel_1, rel_2, ... in order, or one
                   `schema <name> [<domains>]: <pattern> = <pattern>` with
                   single-letter parameters and constant offsets.  The
                   optional clause `[i in Z; j in {1, 2, 3}]` declares the
                   parameters in order with their domains; without it they
                   are inferred from the families they index.
    Lines starting with # are comments.

    Every letter is read with the letter grammar of `words`: a header
    generator, a name under `families:` (a family name alone, no index) and
    each letter of a relation side, where a `schema` line also takes
    `family(p)`, `family(p+k)` and `family(p-k)`.  Plain and `schema` lines
    share one side parser.

    Raises WordSyntaxError for malformed text: a header without generators,
    a generator token that is not a letter or is inverted, a family name that
    is not letters alone, a family named both among the generators and under
    `families:`, a line without `=`, an inverted letter on a relation side,
    a parameter letter on a plain line, and a malformed schema head or
    domain.  Raises UnknownGeneratorError for a letter outside the alphabet,
    and SchemaError for a domain that does not fit its schema or that takes
    a letter, offset included, outside its finite family, and for a schema
    name used twice, a plain line's rel_<n> included.
    """
    lines = [l.strip() for l in text.splitlines()]
    lines = [l for l in lines if l and not l.startswith("#")]
    if not lines or not lines[0].startswith("generators:"):
        raise WordSyntaxError("presentation must start with a 'generators:' header")
    header = lines[0]
    gen_part, _, fam_part = header.partition(";")
    finite: dict[str, list[int]] = {}
    for tok in gen_part[len("generators:"):].split():
        m = _LETTER_RE.match(tok)
        if m is None or m[4]:
            raise WordSyntaxError(f"malformed generator token {tok!r} in header")
        finite.setdefault(m[1], []).append(int(m[2] or m[3]))
    integer_families = frozenset()
    if fam_part:
        fam_part = fam_part.strip()
        if not fam_part.startswith("families:"):
            raise WordSyntaxError("expected 'families:' after ';' in header")
        fams = fam_part[len("families:"):].split()
        for fam in fams:
            if not re.fullmatch(_FAMILY, fam):
                raise WordSyntaxError(f"malformed family name {fam!r} in header")
        integer_families = frozenset(fams)
    if not finite and not integer_families:  # no word to reverse, sweep or scan
        raise WordSyntaxError("the 'generators:' header names no generator")
    both = sorted(integer_families & finite.keys())
    if both:  # t1 and t(i) in one alphabet would put t(1) in it twice
        raise WordSyntaxError(f"family {both[0]!r} is named both in 'generators:' and in 'families:'")
    alphabet = Alphabet({f: tuple(sorted(set(v))) for f, v in finite.items()},
                        integer_families)
    schemas: list[Schema] = []
    names: set[str] = set()
    count = 0
    for line in lines[1:]:
        if line.startswith("schema "):
            schemas.append(_parse_schema(line, alphabet))
        else:
            count += 1
            lhs, rhs, inferred = _parse_sides(line, alphabet)
            if inferred:
                raise WordSyntaxError(f"a plain relation line takes no parameter letter, "
                                      f"got {line!r}; write it as a schema line")
            schemas.append(Schema(f"rel_{count}", (), lhs, rhs))
        if schemas[-1].name in names:
            raise SchemaError(f"schema name {schemas[-1].name!r} is used twice")
        names.add(schemas[-1].name)
    return Presentation(name, alphabet, tuple(schemas))


def save_presentation(p: Presentation) -> str:
    """Render a presentation in the plain-text format.

    After the header comes `schema <line>` for every schema, where the line
    is `Schema.line()`.  Names and parameter domains are written out, so
    loading the text gives back the same schemas.  `monorev show` prints
    this text after two comment lines, the name and whether it is
    homogeneous, so its output is a presentation file.
    """
    gens = " ".join(str(g) for g in p.alphabet.finite_generators())
    header = f"generators: {gens}"
    if p.alphabet.integer_families:
        header += " ; families: " + " ".join(sorted(p.alphabet.integer_families))
    return "\n".join([header] + [f"schema {s.line()}" for s in p.schemas]) + "\n"
