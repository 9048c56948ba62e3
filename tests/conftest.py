import pytest

from ltsep import separ
from ltsep.profiles import capped_image


@pytest.fixture(autouse=True)
def _fresh_evidence():
    """Start every test with an empty evidence memo, so that no test reads
    evidence computed before its own monkeypatches."""
    separ._evidence.cache_clear()


# Reference helpers shared by the profile and separator tests, given to a test
# as session fixtures: the capped image of a word as a frozenset signature,
# and the interned counts of such a signature.


def _signature_of(w, k, d):
    """The capped image of w as a canonical frozenset signature."""
    return frozenset(capped_image(w, k, d).counts)


def _counts_of(win, sig):
    """The counts of a frozenset signature at win's width and threshold."""
    counts = list(win.empty)
    for p, n in sig:
        bit = win.bit(p.left, p.right)
        for c in range(min(n, win.d)):
            counts[c] |= bit
    return tuple(counts)


@pytest.fixture(scope="session")
def signature_of():
    return _signature_of


@pytest.fixture(scope="session")
def counts_of():
    return _counts_of
