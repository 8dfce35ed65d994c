"""Fixtures shared by the test files."""

from __future__ import annotations

import pytest

from hconc import annihilation, bessel


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


@pytest.fixture
def cold_zero_tables():
    """The process-wide zero-table cache (`bessel.cached_zero_table`),
    emptied before and after the test, so that the tables a test counts or
    fakes are neither found from nor left to the tests around it."""
    bessel.cached_zero_table.cache_clear()
    yield bessel.cached_zero_table
    bessel.cached_zero_table.cache_clear()
