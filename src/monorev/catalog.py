"""Built-in presentation catalog.

Every key with a t is one diagram with its central vertex t doubled, in
one of two forms.  The earlier form has two central generators t(0),
t(1), and closes with a double twist x t(1) t(0) x t(1) t(0) =
t(1) t(0) x t(1) t(0) x for each vertex x joined to t.  The new form
replaces them with a Z-indexed family t(i) and closes with the two-letter
translation relations t(i) t(i-1) = t(j) t(j-1), which is what makes it
right-complemented.  Both forms of a diagram share its braid and commute
relations and differ only in the central letter.

Fixed keys cover the elliptic diagrams, :yamada the earlier form and :new
the new one:

    d4:yamada   d4:new   e6:yamada   e6:new
    e7:yamada   e7:new   e8:yamada   e8:new

Parametric keys take a rank suffix, e.g. affine-a:cll:5:

    affine-a:classical:<n>   cycle of n braid generators, no t
    affine-a:shi:<n>         the chain r3..rn, t joined to r3, earlier form
    affine-a:cll:<n>         the same chain in the new form

`_diagram` writes the braid and commute relations of a diagram, and
`_doubled` adds t to one in either form: t_braid, t_commute, the diagram,
then the translation or the double twists.
"""

from __future__ import annotations

import itertools

from .presentation import MAX_WINDOW, Param, PatternLetter, Presentation, Schema
from .words import Alphabet

# Star-shaped diagrams as (rank, core, edges): the doubled vertex t sits at
# the center, joined to the s-vertices in `core`; `edges` are the
# adjacencies among the s-vertices themselves.
_ELLIPTIC = {
    "d4": (4, (1, 2, 3, 4), ()),
    "e6": (6, (1, 2, 3), ((1, 4), (2, 5), (3, 6))),
    "e7": (7, (1, 2, 3), ((2, 4), (4, 5), (3, 6), (6, 7))),
    "e8": (8, (1, 2, 3), ((2, 4), (3, 5), (5, 6), (6, 7), (7, 8))),
}

FIXED_NAMES = tuple(f"{key}:{form}" for key in _ELLIPTIC for form in ("yamada", "new"))

PARAMETRIC_NAMES = (
    "affine-a:classical:<n>",
    "affine-a:shi:<n>",
    "affine-a:cll:<n>",
)

# The central letter in each form, as (parameter, letter, finite alphabet
# entry, integer families): t(i) over Z in the new form, t(k) over {0, 1}
# in the earlier one.
_Z_FORM = (Param("i"), PatternLetter("t", 0, "i"), {}, frozenset({"t"}))
_FINITE_FORM = (Param("k", (0, 1)), PatternLetter("t", 0, "k"), {"t": (0, 1)}, frozenset())
_FORMS = {"new": _Z_FORM, "cll": _Z_FORM, "yamada": _FINITE_FORM, "shi": _FINITE_FORM}

# What closes the Z form: t(i) t(i-1) = t(j) t(j-1).
_TRANSLATION = Schema("translation", (Param("i"), Param("j")),
                      (PatternLetter("t", 0, "i"), PatternLetter("t", -1, "i")),
                      (PatternLetter("t", 0, "j"), PatternLetter("t", -1, "j")))


def _diagram(family: str, vertices: tuple[int, ...],
             edges: tuple[tuple[int, int], ...]) -> list[Schema]:
    """x y x = y x y on each edge (x, y) in that orientation, x y = y x on every other pair."""
    schemas, edge_set = [], set(edges)
    for pair in itertools.combinations(vertices, 2):
        edge = next((e for e in (pair, pair[::-1]) if e in edge_set), None)
        i, j = edge or pair
        x, y = PatternLetter(family, i), PatternLetter(family, j)
        if edge:
            schemas.append(Schema(f"{family}_braid_{i}_{j}", (), (x, y, x), (y, x, y)))
        else:
            schemas.append(Schema(f"{family}_commute_{i}_{j}", (), (x, y), (y, x)))
    return schemas


def _doubled(name: str, family: str, vertices: tuple[int, ...], core: tuple[int, ...],
             edges: tuple[tuple[int, int], ...], form: str) -> Presentation:
    """The diagram on `vertices` with the doubled vertex t joined to `core`, in `form`.

    t braids with the vertices in `core` and commutes with the others.  The
    Z form is closed by the translation relations, the finite form by one
    double twist x t(1) t(0) x t(1) t(0) = t(1) t(0) x t(1) t(0) x per x in core.
    """
    k, t, t_finite, families = _FORMS[form]
    x = PatternLetter(family, 0, "j")
    tail = tuple(j for j in vertices if j not in core)
    if families:
        closing = [_TRANSLATION]
    else:
        tt = (PatternLetter("t", 1), PatternLetter("t", 0))
        closing = [Schema(f"double_twist_{c.offset}", (), (c, *tt, c, *tt), (*tt, c, *tt, c))
                   for c in (PatternLetter(family, j) for j in core)]
    schemas = [
        Schema("t_braid", (k, Param("j", core)), (t, x, t), (x, t, x)),
        *([Schema("t_commute", (k, Param("j", tail)), (t, x), (x, t))] if tail else []),
        *_diagram(family, vertices, edges),
        *closing,
    ]
    return Presentation(name, Alphabet({family: vertices, **t_finite}, families), tuple(schemas))


def load(name: str) -> Presentation:
    """Build a catalog presentation by key, anew on each call, with empty caches.

    Raises KeyError for unknown keys and ValueError for a bad rank suffix, or
    for a rank whose diagram has more than MAX_WINDOW vertex pairs, one
    relation each: that is counted from the rank before anything is built.
    """
    parts = name.split(":")
    if name in FIXED_NAMES:
        rank, core, edges = _ELLIPTIC[parts[0]]
        return _doubled(name, "s", tuple(range(1, rank + 1)), core, edges, parts[1])
    if len(parts) == 3 and parts[0] == "affine-a":
        try:
            n = int(parts[2])
        except ValueError:
            raise ValueError(f"rank suffix in {name!r} must be an integer") from None
        if n < 3:
            raise ValueError(f"family {parts[1]!r} needs rank n >= 3, got {n}")
        name = f"affine-a:{parts[1]}:{n}"
        vertices = {"classical": n, "shi": n - 2, "cll": n - 2}.get(parts[1], 0)
        if (pairs := vertices * (vertices - 1) // 2) > MAX_WINDOW:
            raise ValueError(f"{vertices} vertices make {pairs} diagram relations, "
                             f"more than the cap of {MAX_WINDOW}")
        if parts[1] == "classical":
            cycle = tuple(range(1, n + 1))
            edges = tuple(zip(cycle, cycle[1:])) + ((n, 1),)
            return Presentation(name, Alphabet({"r": cycle}, frozenset()),
                                tuple(_diagram("r", cycle, edges)))
        if parts[1] in ("shi", "cll"):
            chain = tuple(range(3, n + 1))
            return _doubled(name, "r", chain, (3,), tuple(zip(chain, chain[1:])), parts[1])
    raise KeyError(f"unknown catalog key {name!r}")


def names() -> tuple[str, ...]:
    return FIXED_NAMES + PARAMETRIC_NAMES
