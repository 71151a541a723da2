"""Fixtures shared by the test files."""

import pytest

import superalg.scalars as scalars


@pytest.fixture
def fresh_ring_table(monkeypatch):
    """An empty ring intern table (``scalars._rings``) for the test, so every ring it asks for is built in it.

    The table the test found is put back afterwards, so the rings other tests
    hold stay the rings of their descriptors.
    """
    monkeypatch.setattr(scalars, "_rings", {})
