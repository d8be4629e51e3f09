import itertools
import json
from collections import deque

import pytest
from hypothesis import settings

from monorev import catalog, load_presentation
from monorev.oracle import OracleCapError, ScanReport, ScanWitness
from monorev.presentation import (
    Presentation,
    left_complement,
    materialize_relations,
    right_complement,
)
from monorev.reversing import Diverged, Empty, ReversalStep, Stuck, Terminal
from monorev.words import Generator, Letter, Word

settings.register_profile("monorev", deadline=None)
settings.load_profile("monorev")

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"

# catalog keys whose saved text fixtures/catalog_saved.json pins
ROUND_TRIP_KEYS = list(catalog.FIXED_NAMES) + [
    f"affine-a:{family}:{n}" for family in ("classical", "shi", "cll") for n in (3, 4, 5)]

with open(f"{FIXTURES}/catalog_saved.json", encoding="utf-8") as fh:
    SAVED_CATALOG = json.load(fh)

# Small hand-made presentations shared across test modules.  The first two
# reuse generator names on purpose: same commutation relations, but the
# third relation of `skewed` breaks the right cube condition.
TWO_COMMUTES = """\
generators: a1 b1 c1
a1 b1 = b1 a1
a1 c1 = c1 a1
"""

SKEWED = TWO_COMMUTES + "b1 a1 c1 = c1 b1 a1\n"

# left cancellation fails outright: a1 b1 = a1 c1 with b1 != c1
GLUE = """\
generators: a1 b1 c1
a1 b1 = a1 c1
"""

ONE_SIDED = """\
generators: a1 b1
b1 a1 a1 = a1 b1 a1
"""

NONHOM = """\
generators: a1 b1
a1 = b1 b1
"""

# two relations share the pairs (t(i), t(i+5)) and (t(i+5), t(i)): one
# parameter spreads over offsets 0 and 5, so the pair scan reaches t(11)
WIDE_OFFSET = """\
generators: a1 ; families: t
schema x: t(i) t(i+5) = t(i+5) t(i)
schema y: t(i) a1 t(i+5) = t(i+5) a1 t(i)
"""

# the fixed index t(10) breaks translation invariance, so an index-normalised
# sweep would test shifted copies of relations the presentation lacks
PINNED_T = """\
generators: a1 b1 ; families: t
a1 b1 = b1 a1
a1 t(10) = t(10) a1
b1 a1 t(10) = t(10) b1 a1
"""

# its first reversal terminates, then (u v')^-1 (v u') cycles
SQUARE_CHAIN = """\
generators: a1 b1 c1
a1 b1 a1 b1 = b1 a1 b1 a1
a1 a1 = c1 b1
b1 c1 b1 c1 = c1 b1 c1 b1
"""


# the complement of (t(i), t(i+1)) brings in s3, which s1 commutes with and
# s2 braids with: on the right (t(0), t(1), s1) passes and (t(0), t(1), s2)
# fails not-trivial, though s1 and s2 relate alike to each t(i) and to each
# other.  The left side is not complemented: tc trails with (t(i), t(i))
BOUNDARY_GUARD = """\
generators: s1 s2 s3 ; families: t
schema tc: t(i) s3 t(i) = t(i+1) s3 t(i)
schema c1: s1 t(i) = t(i) s1
schema c2: s2 t(i) = t(i) s2
schema c3: s3 t(i) = t(i) s3
s1 s3 = s3 s1
s2 s3 s2 = s3 s2 s3
s1 s2 = s2 s1
"""

# two integer families: a1 and b1 commute with each t(i) and with each
# other, and u(i) commutes with each t(j); a1 commutes with each u(i), and
# b1 has no relation with u.  So (a1, u(0), t(0)) passes on either side
# and (b1, u(0), t(0)) sticks, though a1 and b1 relate alike to t
TWO_FAMILIES = """\
generators: a1 b1 ; families: t u
schema ta: a1 t(i) = t(i) a1
schema tb: b1 t(i) = t(i) b1
schema ua: a1 u(i) = u(i) a1
schema tu: t(i) u(j) = u(j) t(i)
a1 b1 = b1 a1
"""


def fresh(p, schemas=None):
    """A copy of p with empty caches, and with the given schemas in place of its own."""
    return Presentation(p.name, p.alphabet, p.schemas if schemas is None else schemas, p.window)


@pytest.fixture(scope="session")
def d4():
    return catalog.load("d4:new")


@pytest.fixture(scope="session")
def e8():
    return catalog.load("e8:new")


@pytest.fixture(scope="session")
def yamada():
    return catalog.load("d4:yamada")


@pytest.fixture(scope="session")
def two_commutes():
    return load_presentation(TWO_COMMUTES, name="two-commutes")


@pytest.fixture(scope="session")
def skewed():
    return load_presentation(SKEWED, name="skewed")


@pytest.fixture(scope="session")
def glue():
    return load_presentation(GLUE, name="glue")


def reference_word_triples(p, max_len, t_bound):
    """The triple enumeration as a plain filter: collect each triple's family
    indices and keep it when there are none or the smallest is 0."""
    gens = list(p.alphabet.finite_generators())
    for fam in sorted(p.alphabet.integer_families):
        gens.extend(Generator(fam, d) for d in range(0, 2 * t_bound + 1))
    gens.sort()
    fams = p.alphabet.integer_families
    words = [Word(tuple(Letter(g) for g in combo))
             for length in range(1, max_len + 1)
             for combo in itertools.product(gens, repeat=length)]
    for triple in itertools.product(words, repeat=3):
        indices = [l.gen.index for w in triple for l in w if l.gen.family in fams]
        if not indices or min(indices) == 0:
            yield triple


def pair_query(schema, x, y, end):
    """One schema's instances oriented so that lhs has x and rhs has y at the end.

    end is 0 for the leading pair (right reversing) and -1 for the trailing
    pair (left reversing).  Built by the checked Schema.instantiate from
    every binding that could place x and y at the end, each parameter's
    candidates read off the two boundary letters and kept within its domain.
    The unswapped hit comes first; the swapped hit, turned round, follows
    unless its sides repeat the unswapped one's.
    """
    boundary = (schema.lhs[end], schema.rhs[end])
    choices = [sorted(v for v in {g.index - pl.offset for pl in boundary
                                  if pl.param == param.name for g in (x, y)}
                      if param.values is None or v in param.values)
               for param in schema.params]
    unswapped = swapped = None
    for combo in itertools.product(*choices):
        inst = schema.instantiate({param.name: v for param, v in zip(schema.params, combo)})
        if inst is None:
            continue
        if (inst.lhs[end].gen, inst.rhs[end].gen) == (x, y):
            unswapped = inst
        if (inst.rhs[end].gen, inst.lhs[end].gen) == (x, y):
            swapped = inst.swapped()
    hits = [unswapped] if unswapped is not None else []
    if swapped is not None and (unswapped is None or (swapped.lhs, swapped.rhs)
                                != (unswapped.lhs, unswapped.rhs)):
        hits.append(swapped)
    return hits


def reference_instances_for_pair(p, x, y, side):
    """The pair lookup without an index: every schema's pair query, in schema order."""
    end = 0 if side == "right" else -1
    return [inst for s in p.schemas for inst in pair_query(s, x, y, end)]


def reference_reverse(p, word, fuel, side):
    """Plain list-splice reversing without cycle detection: (steps, outcome, final).

    Rewrites the leftmost redex, resuming the search one letter before the
    last rewrite, and splices the complement in place.
    """
    first, second = (-1, 1) if side == "right" else (1, -1)
    complement = right_complement if side == "right" else left_complement
    letters, steps, pos = list(word), [], 0
    while True:
        pos = next((i for i in range(max(0, pos - 1), len(letters) - 1)
                    if letters[i].sign == first and letters[i + 1].sign == second), None)
        if pos is None or len(steps) >= fuel:
            break
        x, y = letters[pos].gen, letters[pos + 1].gen
        if x == y:
            letters[pos:pos + 2] = []
            steps.append(ReversalStep(pos, None))
            continue
        comp = complement(p, x, y)
        if comp is None:
            return steps, Stuck(pos, (x, y)), Word(tuple(letters))
        # v' and u' from the rule's own sides: x v' = y u' (right), v' x = u' y (left)
        rest = slice(1, None) if side == "right" else slice(None, -1)
        vp, up = Word(comp.rule.lhs[rest]), Word(comp.rule.rhs[rest])
        letters[pos:pos + 2] = (vp * up.inverse() if side == "right" else vp.inverse() * up)
        steps.append(ReversalStep(pos, comp.rule))
    final = Word(tuple(letters))
    if pos is not None:
        return steps, Diverged(fuel), final
    if not letters:
        return steps, Empty(), final
    split = next((i for i, l in enumerate(letters) if l.sign == first), len(letters))
    head, tail = Word(final[:split]), Word(final[split:])
    if side == "right":  # v' u'^-1
        return steps, Terminal(head, tail.inverse()), final
    return steps, Terminal(tail, head.inverse()), final  # u'^-1 v'


def _reference_oriented(p):
    """Each relation both ways round, as pairs of letter tuples."""
    return [pair for inst in materialize_relations(p)
            for pair in ((inst.lhs, inst.rhs),
                         (inst.rhs, inst.lhs))]


def _reference_rewrites(oriented, letters):
    """Every one-step rewrite of a letter tuple: by oriented relation, then by position."""
    for lhs, rhs in oriented:
        for i in range(len(letters) - len(lhs) + 1):
            if letters[i:i + len(lhs)] == lhs:
                yield letters[:i] + rhs + letters[i + len(lhs):]


def reference_closure(p, word, cap, target=None):
    """Breadth-first closure over letter tuples, splicing relation sides in place.

    Same contract as the oracle's closure: stops on reaching target (a letter
    tuple) and raises OracleCapError when a new word would pass cap.
    """
    oriented = _reference_oriented(p)
    seen = {word}
    queue = deque(seen)
    while queue:
        for nxt in _reference_rewrites(oriented, queue.popleft()):
            if nxt == target:
                seen.add(nxt)
                return seen
            if nxt not in seen:
                if len(seen) >= cap:
                    raise OracleCapError(f"class of {word} exceeded cap {cap}")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reference_scan(p, max_len):
    """The cancellation scan over letter tuples, with a plain union-find."""
    gens = p.alphabet.finite_generators()
    universe = [tuple(Letter(g) for g in combo)
                for length in range(1, max_len + 2)
                for combo in itertools.product(gens, repeat=length)]
    parent = {w: w for w in universe}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    oriented = _reference_oriented(p)
    for w in universe:
        for nxt in _reference_rewrites(oriented, w):
            ra, rb = find(w), find(nxt)
            if ra != rb:
                parent[ra] = rb
    by_class = {}
    for w in universe:
        if len(w) >= 2:
            by_class.setdefault(find(w), []).append(w)
    witnesses = []
    for root in sorted(by_class, key=lambda r: (len(r), r)):
        members = sorted(by_class[root])
        for side in ("left", "right"):
            groups = {}
            for w in members:
                edge, rest = (w[0], w[1:]) if side == "left" else (w[-1], w[:-1])
                groups.setdefault(edge, []).append(rest)
            for edge in sorted(groups):
                roots_seen = {}
                for rest in sorted(groups[edge]):
                    roots_seen.setdefault(find(rest), rest)
                if len(roots_seen) > 1:
                    reps = sorted(roots_seen.values())
                    witnesses.append(ScanWitness(side, edge.gen, Word(reps[0]), Word(reps[1])))
    checked = sum(len(gens) ** length for length in range(2, max_len + 2))
    return ScanReport(p.name, p.window, max_len, checked, tuple(witnesses))
