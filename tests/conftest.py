"""Shared fixtures."""

import pytest

from railswin import cbam, swin


@pytest.fixture
def refine_calls(monkeypatch):
    """Attention applications: a list that gains one entry per ``refine`` call.

    ``refine`` is wrapped in every railswin module that refers to it, so
    gates applied through ``cbam_apply`` and through the backbone count
    alike.  ``clear()`` starts a fresh count.
    """
    calls = []
    original = cbam.refine

    def counting(f, m):
        calls.append(m.shape)
        return original(f, m)

    for module in (cbam, swin):
        monkeypatch.setattr(module, "refine", counting)
    return calls
