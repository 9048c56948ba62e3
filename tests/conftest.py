import pytest

from ltsep import separ


@pytest.fixture(autouse=True)
def _fresh_evidence():
    """Start every test with an empty evidence memo, so that no test reads
    evidence computed before its own monkeypatches."""
    separ._evidence.cache_clear()
