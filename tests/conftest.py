import pytest
from hypothesis import settings

from monorev import catalog, load_presentation

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
