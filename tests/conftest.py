"""Fixtures shared by the test files."""

from __future__ import annotations

import pytest

from hconc import annihilation


@pytest.fixture
def cold_plan():
    """The process-wide cache of good-bad window plans
    (`annihilation._window_plan`: the pieces, points, weight rows, folded
    spectral rows and held kernel ladder of each order, k_max, set of
    centers and spectral rule), emptied before and after the test, so that
    what a test counts does not depend on the tests that ran before it."""
    annihilation._window_plan.cache_clear()
    yield annihilation._window_plan
    annihilation._window_plan.cache_clear()
