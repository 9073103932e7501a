"""Shared fixtures."""

import pytest

from railswin import cbam


@pytest.fixture
def refine_calls(monkeypatch):
    """Attention applications: a list that gains one entry per ``refine`` call.

    ``refine`` is wrapped in ``railswin.cbam``, its one caller being
    ``cbam.gate``, so gates applied directly and through the backbone count
    alike.  ``clear()`` starts a fresh count.
    """
    calls = []
    original = cbam.refine

    def counting(f, m):
        calls.append(m.shape)
        return original(f, m)

    monkeypatch.setattr(cbam, "refine", counting)
    return calls
