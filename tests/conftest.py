import pytest
from hypothesis import settings

from monorev import catalog, load_presentation
from monorev.presentation import EQUAL, left_complement, right_complement
from monorev.reversing import Diverged, Empty, ReversalStep, Stuck, Terminal
from monorev.words import Word

settings.register_profile("monorev", deadline=None)
settings.load_profile("monorev")

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"

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

# two relations share the pairs (t(i), t(i+5)) and (t(i+5), t(i)), a wider
# offset than the [-2, 2] index window of the pair scan spans
WIDE_OFFSET = """\
generators: a1 ; families: t
schema x: t(i) t(i+5) = t(i+5) t(i)
schema y: t(i) a1 t(i+5) = t(i+5) a1 t(i)
"""


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
        comp = complement(p, x, y)
        if comp is None:
            return steps, Stuck(pos, (x, y)), Word(tuple(letters))
        if comp is EQUAL:
            letters[pos:pos + 2] = []
            steps.append(ReversalStep(pos, "cancel", None))
        else:
            vp, up = comp.v_prime, comp.u_prime
            letters[pos:pos + 2] = (vp * up.inverse() if side == "right" else vp.inverse() * up)
            steps.append(ReversalStep(pos, "relation", comp.rule))
    final = Word(tuple(letters))
    if pos is not None:
        return steps, Diverged(fuel), final
    if not letters:
        return steps, Empty(), final
    split = next((i for i, l in enumerate(letters) if l.sign == first), len(letters))
    head, tail = final[:split], final[split:]
    if side == "right":  # v' u'^-1
        return steps, Terminal(head, tail.inverse()), final
    return steps, Terminal(tail, head.inverse()), final  # u'^-1 v'
