"""Built-in presentation catalog.

Fixed keys cover the elliptic types with a doubled central vertex:

    d4:yamada   d4:new   e6:yamada   e6:new
    e7:yamada   e7:new   e8:yamada   e8:new

Both presentations of a diagram share its braid and commute relations and
differ only in the central letter.  The :yamada entries use two central
generators t(0), t(1) and a commutation relation for the product of twists;
the :new entries replace them with a Z-indexed family t(i) and the
two-letter translation relations t(i) t(i-1) = t(j) t(j-1), which is what
makes them right-complemented.

Parametric keys take a rank suffix, e.g. affine-a:cll:5:

    affine-a:classical:<n>   cycle of n braid generators
    affine-a:shi:<n>         t(0), t(1) and r3..rn, with a double twist
    affine-a:cll:<n>         Z-family t(i) and r3..rn

`_diagram` writes the braid and commute relations of a diagram;
`_elliptic` and `_affine` add the central letter in either form.
"""

from __future__ import annotations

import itertools

from .presentation import Param, PatternLetter, Presentation, Schema
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
# entry, integer families): t(i) over Z, or t(k) over {0, 1}.
_Z_FORM = (Param("i"), PatternLetter("t", 0, "i"), {}, frozenset({"t"}))
_FINITE_FORM = (Param("k", (0, 1)), PatternLetter("t", 0, "k"), {"t": (0, 1)}, frozenset())

# What closes the Z form: t(i) t(i-1) = t(j) t(j-1).
_TRANSLATION = Schema("translation", (Param("i"), Param("j")),
                      (PatternLetter("t", 0, "i"), PatternLetter("t", -1, "i")),
                      (PatternLetter("t", 0, "j"), PatternLetter("t", -1, "j")))


def _double_twist(name: str, x: PatternLetter) -> Schema:
    """What closes the finite form: x t(1) t(0) x t(1) t(0) = t(1) t(0) x t(1) t(0) x."""
    t1, t0 = PatternLetter("t", 1), PatternLetter("t", 0)
    return Schema(name, (), (x, t1, t0, x, t1, t0), (t1, t0, x, t1, t0, x))


def _diagram(family: str, vertices: tuple[int, ...],
             edges: tuple[tuple[int, int], ...]) -> list[Schema]:
    """x y x = y x y on each edge (x, y) in that orientation, x y = y x on every other pair."""
    schemas = []
    for pair in itertools.combinations(vertices, 2):
        edge = next((e for e in (pair, pair[::-1]) if e in edges), None)
        i, j = edge or pair
        x, y = PatternLetter(family, i), PatternLetter(family, j)
        if edge:
            schemas.append(Schema(f"{family}_braid_{i}_{j}", (), (x, y, x), (y, x, y)))
        else:
            schemas.append(Schema(f"{family}_commute_{i}_{j}", (), (x, y), (y, x)))
    return schemas


def _t_commute(k: Param, t: PatternLetter, family: str, tail: tuple[int, ...]) -> list[Schema]:
    """t x(j) = x(j) t for the vertices in `tail`, which are not joined to t."""
    x = PatternLetter(family, 0, "j")
    return [Schema("t_commute", (k, Param("j", tail)), (t, x), (x, t))] if tail else []


def _elliptic(key: str, form: str) -> Presentation:
    rank, core, edges = _ELLIPTIC[key]
    k, t, t_finite, families = _Z_FORM if form == "new" else _FINITE_FORM
    vertices = tuple(range(1, rank + 1))
    s_j = PatternLetter("s", 0, "j")
    schemas = [
        Schema("t_braid", (k, Param("j", core)), (t, s_j, t), (s_j, t, s_j)),
        *_t_commute(k, t, "s", tuple(j for j in vertices if j not in core)),
        *_diagram("s", vertices, edges),
        *([_TRANSLATION] if form == "new" else
          [_double_twist(f"double_twist_{j}", PatternLetter("s", j)) for j in core]),
    ]
    return Presentation(f"{key}:{form}", Alphabet({"s": vertices, **t_finite}, families),
                        tuple(schemas))


def _classical(n: int) -> Presentation:
    vertices = tuple(range(1, n + 1))
    edges = tuple(zip(vertices, vertices[1:])) + ((n, 1),)
    return Presentation(f"affine-a:classical:{n}", Alphabet({"r": vertices}, frozenset()),
                        tuple(_diagram("r", vertices, edges)))


def _affine(form: str, n: int) -> Presentation:
    """The chain r3..rn with the central letter braided with r3 and commuting with the rest."""
    k, t, t_finite, families = _Z_FORM if form == "cll" else _FINITE_FORM
    vertices = tuple(range(3, n + 1))
    r3 = PatternLetter("r", 3)
    schemas = [
        Schema("t_braid", (k,), (r3, t, r3), (t, r3, t)),
        *_t_commute(k, t, "r", vertices[1:]),
        *_diagram("r", vertices, tuple(zip(vertices, vertices[1:]))),
        _TRANSLATION if form == "cll" else _double_twist("double_twist", r3),
    ]
    return Presentation(f"affine-a:{form}:{n}", Alphabet({**t_finite, "r": vertices}, families),
                        tuple(schemas))


def load(name: str) -> Presentation:
    """Build a catalog presentation by key, anew on each call, with empty caches.

    Raises KeyError for unknown keys and ValueError for a bad rank suffix.
    """
    parts = name.split(":")
    if name in FIXED_NAMES:
        return _elliptic(*parts)
    if len(parts) == 3 and parts[0] == "affine-a":
        try:
            n = int(parts[2])
        except ValueError:
            raise ValueError(f"rank suffix in {name!r} must be an integer") from None
        if n < 3:
            raise ValueError(f"family {parts[1]!r} needs rank n >= 3, got {n}")
        if parts[1] == "classical":
            return _classical(n)
        if parts[1] in ("shi", "cll"):
            return _affine(parts[1], n)
    raise KeyError(f"unknown catalog key {name!r}")


def names() -> tuple[str, ...]:
    return FIXED_NAMES + PARAMETRIC_NAMES


def describe(p: Presentation) -> str:
    """Readable listing: alphabet, then one line per relation schema."""
    lines = [f"presentation {p.name}"]
    fin = " ".join(str(g) for g in p.alphabet.finite_generators())
    if fin:
        lines.append(f"  generators: {fin}")
    for fam in sorted(p.alphabet.integer_families):
        lines.append(f"  family: {fam}(i) for i in Z")
    lines.append(f"  homogeneous: {'yes' if p.homogeneous else 'no'}")
    lines.extend(f"  {s.line()}" for s in p.schemas)
    return "\n".join(lines)
