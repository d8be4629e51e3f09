"""Built-in presentation catalog.

Fixed keys cover the elliptic types with a doubled central vertex:

    d4:yamada   d4:new   e6:yamada   e6:new
    e7:yamada   e7:new   e8:yamada   e8:new

The :yamada entries use two central generators t(0), t(1) and a commutation
relation for the product of twists; the :new entries replace them with a
Z-indexed family t(i) and the two-letter translation relations
t(i) t(i-1) = t(j) t(j-1), which is what makes them right-complemented.

Parametric keys take a rank suffix, e.g. affine-a:cll:5:

    affine-a:classical:<n>   cycle of n braid generators
    affine-a:shi:<n>         t(0), t(1) and r3..rn, with a double twist
    affine-a:cll:<n>         Z-family t(i) and r3..rn
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .presentation import Param, PatternLetter, Presentation, Schema, fixed_schema
from .words import Alphabet, Generator, Letter, Word

FIXED_NAMES = (
    "d4:yamada", "d4:new",
    "e6:yamada", "e6:new",
    "e7:yamada", "e7:new",
    "e8:yamada", "e8:new",
)

PARAMETRIC_NAMES = (
    "affine-a:classical:<n>",
    "affine-a:shi:<n>",
    "affine-a:cll:<n>",
)

# Star-shaped diagrams: the doubled vertex t sits at the center, s-vertices
# listed in `core` are adjacent to it, `edges` are the adjacencies among the
# s-vertices themselves.
_ELLIPTIC = {
    "d4": {"rank": 4, "core": (1, 2, 3, 4), "edges": ()},
    "e6": {"rank": 6, "core": (1, 2, 3), "edges": ((1, 4), (2, 5), (3, 6))},
    "e7": {"rank": 7, "core": (1, 2, 3), "edges": ((2, 4), (4, 5), (3, 6), (6, 7))},
    "e8": {"rank": 8, "core": (1, 2, 3), "edges": ((2, 4), (3, 5), (5, 6), (6, 7), (7, 8))},
}


def _w(*gens: Generator) -> Word:
    return Word(tuple(Letter(g) for g in gens))


def _braid(name: str, a: Generator, b: Generator) -> Schema:
    return fixed_schema(name, _w(a, b, a), _w(b, a, b))


def _commute(name: str, a: Generator, b: Generator) -> Schema:
    return fixed_schema(name, _w(a, b), _w(b, a))


def _s_schemas(rank: int, edges: tuple[tuple[int, int], ...]) -> list[Schema]:
    edge_set = {frozenset(e) for e in edges}
    out = []
    for i, j in itertools.combinations(range(1, rank + 1), 2):
        a, b = Generator("s", i), Generator("s", j)
        if frozenset((i, j)) in edge_set:
            out.append(_braid(f"s_braid_{i}_{j}", a, b))
        else:
            out.append(_commute(f"s_commute_{i}_{j}", a, b))
    return out


def _elliptic_new(key: str) -> Presentation:
    data = _ELLIPTIC[key]
    rank, core = data["rank"], data["core"]
    tail = tuple(j for j in range(1, rank + 1) if j not in core)
    alphabet = Alphabet({"s": tuple(range(1, rank + 1))}, frozenset({"t"}))
    t_i = PatternLetter("t", 0, "i")
    s_j = PatternLetter("s", 0, "j")
    schemas = [
        Schema("t_braid", (Param("i"), Param("j", core)),
               (t_i, s_j, t_i), (s_j, t_i, s_j)),
    ]
    if tail:
        schemas.append(Schema("t_commute", (Param("i"), Param("j", tail)),
                              (t_i, s_j), (s_j, t_i)))
    schemas.extend(_s_schemas(rank, data["edges"]))
    schemas.append(Schema("translation", (Param("i"), Param("j")),
                          (t_i, PatternLetter("t", -1, "i")),
                          (PatternLetter("t", 0, "j"), PatternLetter("t", -1, "j"))))
    return Presentation(f"{key}:new", alphabet, tuple(schemas))


def _elliptic_yamada(key: str) -> Presentation:
    data = _ELLIPTIC[key]
    rank, core = data["rank"], data["core"]
    tail = tuple(j for j in range(1, rank + 1) if j not in core)
    alphabet = Alphabet({"s": tuple(range(1, rank + 1)), "t": (0, 1)}, frozenset())
    t0, t1 = Generator("t", 0), Generator("t", 1)
    t_k = PatternLetter("t", 0, "k")
    s_j = PatternLetter("s", 0, "j")
    schemas = [
        Schema("t_braid", (Param("k", (0, 1)), Param("j", core)),
               (t_k, s_j, t_k), (s_j, t_k, s_j)),
    ]
    if tail:
        schemas.append(Schema("t_commute", (Param("k", (0, 1)), Param("j", tail)),
                              (t_k, s_j), (s_j, t_k)))
    schemas.extend(_s_schemas(rank, data["edges"]))
    for j in core:
        s = Generator("s", j)
        schemas.append(fixed_schema(f"double_twist_{j}",
                                    _w(s, t1, t0, s, t1, t0),
                                    _w(t1, t0, s, t1, t0, s)))
    return Presentation(f"{key}:yamada", alphabet, tuple(schemas))


def _chain_schemas(indices: tuple[int, ...]) -> list[Schema]:
    """Linear braid chain on family r: neighbors braid, the rest commute."""
    out = []
    for a, b in itertools.combinations(indices, 2):
        ra, rb = Generator("r", a), Generator("r", b)
        if b - a == 1:
            out.append(_braid(f"r_braid_{a}_{b}", ra, rb))
        else:
            out.append(_commute(f"r_commute_{a}_{b}", ra, rb))
    return out


def _classical(n: int) -> Presentation:
    alphabet = Alphabet({"r": tuple(range(1, n + 1))}, frozenset())
    schemas = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        ri, rj = Generator("r", i), Generator("r", j)
        if j - i == 1:
            schemas.append(_braid(f"r_braid_{i}_{j}", ri, rj))
        elif (i, j) == (1, n):
            schemas.append(_braid(f"r_braid_{j}_{i}", rj, ri))
        else:
            schemas.append(_commute(f"r_commute_{i}_{j}", ri, rj))
    return Presentation(f"affine-a:classical:{n}", alphabet, tuple(schemas))


def _shi(n: int) -> Presentation:
    indices = tuple(range(3, n + 1))
    alphabet = Alphabet({"t": (0, 1), "r": indices}, frozenset())
    r3 = PatternLetter("r", 3)
    t_k = PatternLetter("t", 0, "k")
    t0, t1 = Generator("t", 0), Generator("t", 1)
    schemas = [
        Schema("t_braid", (Param("k", (0, 1)),),
               (r3, t_k, r3), (t_k, r3, t_k)),
    ]
    if n >= 4:
        schemas.append(Schema("t_commute", (Param("k", (0, 1)), Param("j", tuple(range(4, n + 1)))),
                              (t_k, PatternLetter("r", 0, "j")),
                              (PatternLetter("r", 0, "j"), t_k)))
    schemas.extend(_chain_schemas(indices))
    g3 = Generator("r", 3)
    schemas.append(fixed_schema("double_twist",
                                _w(g3, t1, t0, g3, t1, t0),
                                _w(t1, t0, g3, t1, t0, g3)))
    return Presentation(f"affine-a:shi:{n}", alphabet, tuple(schemas))


def _cll(n: int) -> Presentation:
    indices = tuple(range(3, n + 1))
    alphabet = Alphabet({"r": indices}, frozenset({"t"}))
    r3 = PatternLetter("r", 3)
    t_i = PatternLetter("t", 0, "i")
    schemas = [
        Schema("t_braid", (Param("i"),),
               (r3, t_i, r3), (t_i, r3, t_i)),
    ]
    if n >= 4:
        schemas.append(Schema("t_commute", (Param("i"), Param("j", tuple(range(4, n + 1)))),
                              (t_i, PatternLetter("r", 0, "j")),
                              (PatternLetter("r", 0, "j"), t_i)))
    schemas.extend(_chain_schemas(indices))
    schemas.append(Schema("translation", (Param("i"), Param("j")),
                          (t_i, PatternLetter("t", -1, "i")),
                          (PatternLetter("t", 0, "j"), PatternLetter("t", -1, "j"))))
    return Presentation(f"affine-a:cll:{n}", alphabet, tuple(schemas))


@lru_cache(maxsize=None)
def load(name: str) -> Presentation:
    """Load a catalog presentation by key.

    Raises KeyError for unknown keys and ValueError for a bad rank suffix.
    """
    parts = name.split(":")
    if len(parts) == 2 and parts[0] in _ELLIPTIC and parts[1] in ("yamada", "new"):
        builder = _elliptic_yamada if parts[1] == "yamada" else _elliptic_new
        return builder(parts[0])
    if len(parts) == 3 and parts[0] == "affine-a":
        try:
            n = int(parts[2])
        except ValueError:
            raise ValueError(f"rank suffix in {name!r} must be an integer") from None
        if n < 3:
            raise ValueError(f"family {parts[1]!r} needs rank n >= 3, got {n}")
        builders = {"classical": _classical, "shi": _shi, "cll": _cll}
        if parts[1] in builders:
            return builders[parts[1]](n)
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
