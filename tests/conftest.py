"""Fixtures shared by the test files."""

from __future__ import annotations

import pytest

from hconc import transform


@pytest.fixture
def cold_held():
    """The process-wide cache of held arrays (`transform._held`: the
    good-bad windows' kernel ladders, their piece rules and points, and the
    folded spectral rows of `dk_coefficients`), emptied before and after
    the test, so that what a test counts does not depend on the tests that
    ran before it."""
    transform._held.cache_clear()
    yield transform._held
    transform._held.cache_clear()
