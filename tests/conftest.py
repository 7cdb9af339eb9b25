"""Fixtures shared by the test modules."""

import pytest

from strata_limits import stable_graphs


@pytest.fixture
def search_shapes(monkeypatch):
    """Each canonical search's ``(leaves, automorphisms found)``, in call order.

    The certificate digests pin what the search returns; these counts pin
    the shape of the tree it walked to get there.
    """
    shapes = []
    run = stable_graphs._CanonicalSearch.run

    def recording_run(search):
        certificate = run(search)
        shapes.append((search.leaves, len(search.automorphisms)))
        return certificate

    monkeypatch.setattr(stable_graphs._CanonicalSearch, "run", recording_run)
    return shapes
