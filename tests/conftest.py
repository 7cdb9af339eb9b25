"""Fixtures shared by the test modules."""

import contextlib
import dataclasses
import sys

import pytest

from strata_limits import orbifolds, stable_graphs


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


@pytest.fixture
def form_line():
    """``form_line(form)`` is a form's line in the committed form digests:
    the repr, newline-terminated, of the form with its certificate
    expanded to ``(weight_multiset, triangle)``.  The digests were taken
    when the certificate held the weights in leaf order before the
    triangle, and those are always the sorted weights, so the digests
    still pin every form."""

    def line(form) -> bytes:
        expanded = dataclasses.replace(
            form, certificate=(form.weight_multiset, form.certificate)
        )
        return repr(expanded).encode() + b"\n"

    return line


@pytest.fixture
def recursion_headroom():
    """``with recursion_headroom(k):`` runs its body with Python's recursion
    limit ``k`` frames above the current stack depth, and restores the old
    limit on the way out."""

    @contextlib.contextmanager
    def headroom(frames: int):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + frames)
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    return headroom


@pytest.fixture
def plant_subgroup():
    """``plant_subgroup(action, words, subgroup)`` puts ``subgroup`` in the
    action's subgroup record under the images of ``words``, so a build that
    asks the action for them gets it without a closure: the one way the
    tests hand a build a wrong subgroup."""

    def plant(action, words, subgroup):
        key = frozenset(orbifolds.evaluate_word(action, w) for w in words)
        vars(action).setdefault("_subgroups", {})[key] = subgroup

    return plant
