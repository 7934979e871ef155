"""Fixtures shared by the closure-index tests."""

import pytest

from repro.ce import controller as controller_module
from tests.ce.word_rows import BACKENDS, graph_class


@pytest.fixture(params=BACKENDS)
def graph_cls(request, monkeypatch):
    """The graph class for each row backend id (``tests/ce/word_rows.py``).

    Every ``ConcurrencyController`` the test builds, directly or through
    a runner, builds its graph from it too: repair decisions, counters
    and answers must not depend on which check rides along."""
    cls = graph_class(request.param)
    monkeypatch.setattr(controller_module, "DependencyGraph", cls)
    return cls
