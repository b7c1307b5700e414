from collections import OrderedDict

import pytest

from stirval import bigmath

#: The row kernel itself, taken before any test wraps it.
_EXPAND = bigmath._expand_rising


@pytest.fixture
def cold_rows(monkeypatch):
    """A function that gives the test an empty row store (exact, residue and
    valuation rows alike), optionally with its own byte budget, restored
    afterwards, and returns the list of (n, shift) rows built from then on."""

    def empty(budget=None):
        monkeypatch.setattr(bigmath, "_rows", OrderedDict())
        monkeypatch.setattr(bigmath, "_rows_held", 0)
        if budget is not None:
            monkeypatch.setattr(bigmath, "_ROW_CACHE_BYTES", budget)
        builds = []

        def counting_expand(n, shift, modulus=0):
            builds.append((n, shift))
            return _EXPAND(n, shift, modulus)

        monkeypatch.setattr(bigmath, "_expand_rising", counting_expand)
        return builds

    return empty
