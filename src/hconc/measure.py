"""Interval-union subsets of the half-line and their weighted measures.

The measure is mu_alpha with density
(2 pi^(alpha+1) / Gamma(alpha+1)) x^(2 alpha + 1) dx, used for the transform
and all x-variable energies.  Its image under s = x^2, nu_alpha, has density
(pi^(alpha+1) / Gamma(alpha+1)) s^alpha ds, so a nu_alpha mass is the
mu_alpha mass of the root set.  The density has an exact closed-form
antiderivative, so all set measures here are closed-form, not quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bessel import Order
from .errors import DomainError, UsageError

_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# most windows of one density profile: 2^24 doubles per array, 128 MB
_MAX_WINDOWS = 2**24


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint bounded intervals [lo, hi) in R+.

    Always normalized: sorted by lo, overlapping or touching intervals merged.
    Construct via `of` (normalizing) rather than the raw constructor.
    """

    intervals: tuple[tuple[float, float], ...]

    @staticmethod
    def of(pairs: Iterable[Sequence[float]]) -> "IntervalSet":
        items = []
        for lo, hi in pairs:
            lo = float(lo)
            hi = float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError("interval endpoints must be finite")
            if lo < 0:
                raise DomainError(f"intervals live on R+, got lo={lo}")
            if hi <= lo:
                raise DomainError(f"need hi > lo, got [{lo}, {hi}]")
            items.append((lo, hi))
        items.sort()
        merged: list[list[float]] = []
        for lo, hi in items:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return IntervalSet(tuple((a, b) for a, b in merged))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    def is_empty(self) -> bool:
        return len(self.intervals) == 0

    def sup(self) -> float:
        return self.intervals[-1][1] if self.intervals else 0.0

    def length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def intersect_window(self, lo: float, hi: float) -> "IntervalSet":
        lo = max(lo, 0.0)
        if hi <= lo:
            return IntervalSet.empty()
        out = []
        for a, b in self.intervals:
            c, d = max(a, lo), min(b, hi)
            if d > c:
                out.append((c, d))
        return IntervalSet(tuple(out))

    def complement_within(self, lo: float, hi: float) -> "IntervalSet":
        """Closure of [lo,hi] minus this set, as an interval union."""
        if hi <= lo:
            return IntervalSet.empty()
        gaps = []
        cursor = lo
        for a, b in self.intersect_window(lo, hi).intervals:
            if a > cursor:
                gaps.append((cursor, a))
            cursor = max(cursor, b)
        if cursor < hi:
            gaps.append((cursor, hi))
        return IntervalSet.of(gaps) if gaps else IntervalSet.empty()

def _pi_power_over_gamma(order: Order, z: float) -> float:
    """pi^(alpha+1) / Gamma(z), through lgamma where Gamma(z) overflows a
    double (z > 171).  DomainError where the quotient underflows (alpha above
    ~215), since every measure built on it would read 0."""
    a = order.alpha
    if z < 171.0:
        return math.pi ** (a + 1.0) / math.gamma(z)
    value = math.exp((a + 1.0) * math.log(math.pi) - math.lgamma(z))
    if value < sys.float_info.min:
        raise DomainError(
            f"the mu_alpha constant pi^(alpha+1) / Gamma({z:g}) underflows a "
            f"double at alpha = {a}"
        )
    return value


def _check_power_range(order: Order, top: float, p: float) -> None:
    """DomainError where top^p, the largest power a closed-form measure or a
    mu_alpha quadrature rule takes, leaves the range of a double (alpha in
    the hundreds)."""
    if top > 1.0 and p * math.log(top) >= _LOG_DOUBLE_MAX:
        raise DomainError(
            f"mu_alpha measure overflows a double at alpha = {order.alpha}: "
            f"{top:g}^{p:g} leaves its range"
        )


def mu_density_constant(order: Order) -> float:
    """Constant in d mu_alpha = C x^(2 alpha + 1) dx."""
    return 2.0 * _pi_power_over_gamma(order, order.alpha + 1.0)


def mu_measure(order: Order, subset: IntervalSet) -> float:
    """mu_alpha of an interval union, closed form:
    sum of pi^(alpha+1) (hi^(2a+2) - lo^(2a+2)) / Gamma(alpha+2)."""
    scale = _pi_power_over_gamma(order, order.alpha + 2.0)
    p = 2.0 * order.alpha + 2.0
    _check_power_range(order, subset.sup(), p)
    return scale * sum(hi**p - lo**p for lo, hi in subset.intervals)


def _window_masses(order: Order, subset: IntervalSet, lo: np.ndarray, hi: np.ndarray):
    """mu_alpha(subset & [lo, hi]) and mu_alpha([lo, hi]) for arrays of
    windows at once, in closed form.  `searchsorted` finds the interval that
    holds or last precedes lo and the last one that starts by hi; those two
    are clipped to the window, and the intervals between them lie inside it,
    so their mass is a difference of one prefix sum of the intervals'
    masses.  A window that holds no whole interval sums the same clipped
    terms as a loop over every interval would."""
    p = 2.0 * order.alpha + 2.0
    scale = _pi_power_over_gamma(order, order.alpha + 2.0)
    _check_power_range(order, float(np.max(hi, initial=0.0)), p)
    # a leading empty interval [0, 0) stands before every window
    ends = np.array(((0.0, 0.0),) + subset.intervals)
    starts, stops = ends[:, 0], ends[:, 1]
    cum = np.concatenate([[0.0], np.cumsum(stops**p - starts**p)])
    first = np.searchsorted(starts, lo, side="right") - 1
    last = np.searchsorted(starts, hi, side="right") - 1

    def clipped(k):
        return np.clip(stops[k], lo, hi) ** p - np.clip(starts[k], lo, hi) ** p

    part = clipped(first) + (cum[np.maximum(last, first + 1)] - cum[first + 1])
    part += np.where(last > first, clipped(last), 0.0)
    return scale * part, scale * (hi**p - lo**p)


def density_profile_rows(
    order: Order, subset: IntervalSet, a: float, x_max: float, step: float | None = None
):
    """Window centers xs = a, a+step, ..., <= x_max and the ratios
    mu_alpha(subset & [x-a, x+a]) / mu_alpha([x-a, x+a]) at each.

    Windows reaching past the subset's support count the absent mass as
    zero.  Default step is a/100.  DomainError where the window count,
    floor((x_max - a) / step) + 1, exceeds _MAX_WINDOWS = 2^24.
    """
    if not (0 < a < math.inf):
        raise DomainError(f"window half-width a must be positive and finite, got {a}")
    if not (a <= x_max < math.inf):
        raise DomainError(f"x_max ({x_max}) must be finite and >= a ({a})")
    if step is None:
        step = a / 100.0
    if not (0 < step < math.inf):
        raise DomainError(f"step must be positive and finite, got {step}")
    count = int(math.floor((x_max - a) / step + 1e-12)) + 1
    if count > _MAX_WINDOWS:
        raise DomainError(
            f"density profile needs {count} windows, more than the cap of "
            f"{_MAX_WINDOWS}; raise step or lower x_max"
        )
    xs = a + step * np.arange(count)
    part, full = _window_masses(order, subset, np.maximum(xs - a, 0.0), xs + a)
    return xs, part / full


def density_profile(
    order: Order, subset: IntervalSet, a: float, x_max: float
) -> tuple[float, float]:
    """Minimum of the density_profile_rows ratios at the default step, as
    (gamma_min, argmin)."""
    xs, ratios = density_profile_rows(order, subset, a, x_max)
    k = int(np.argmin(ratios))
    return float(ratios[k]), float(xs[k])


def load_interval_set(path: str) -> IntervalSet:
    """Read a set file: one `lo hi` pair per line, '#' comments ignored."""
    pairs = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read interval set file {path}: {exc}") from exc
    with fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise UsageError(f"{path}:{ln}: expected 'lo hi', got {raw!r}")
            try:
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise UsageError(f"{path}:{ln}: non-numeric interval: {raw!r}") from exc
    return IntervalSet.of(pairs)
