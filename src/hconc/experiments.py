"""Experiment configs, named recipes, CSV reports, and the self-test suite.

Config files are flat `key = value` text, each key set at most once, and
only keys its recipe reads (`_RECIPE_TABLE`); recipes compose the
numerical modules into reproducible checks and write one CSV per run.
Every report row comes from `_row`, judged by its kind's `_CHECKS` entry.
Every recipe runs its trials in order, in one thread.  Reports are
deterministic given the seed: per-trial generators are spawned from
(seed, trial index), so a trial's rows do not depend on the trial count.
The Plancherel recipe runs its trials in contiguous batches that share
every kernel block; each trial keeps its own matrix-vector products, so
its values do not depend on the batch.  The translation recipe likewise
translates its two compact bumps, and the product-formula kernel together
with the symmetry reference, through the set axis of `translate_batch`,
which gives each function the value it has when translated alone.

The self-test runs each recipe of a table at a few trials and fails an
entry whose rows fail; its zero-table check validates a freshly computed
zero table.
"""

from __future__ import annotations

import math
import operator
import os
import tempfile
import time
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import __version__
from .annihilation import (
    LSParams,
    ProjectionPair,
    annihilation_constant,
    good_bad_partition,
    kovrijkine_check,
    ls_bound,
    ls_bound_log10,
    ls_empirical_min_ratio,
    mode_frequencies,
    pair_norm,
    strong_pair_trials,
    witness_point,
)
from .bessel import Order, _horner, cached_zero_table, eval_j
from .bessel import validate_interlacing, zeros_of_j_prime
from .errors import ConvergenceError, InternalError, UsageError
from .measure import IntervalSet, density_profile, load_interval_set
from .paley_wiener import (
    bernstein_sides,
    dk_coefficients,
    extremal_family,
    extremal_peak,
    random_pw,
    synthesize,
)
from .quadrature import mu_rule
from .transform import kernel_apply, max_sets, round_trip
from .translation import translate_batch

DEFAULT_SEED = 0xC0FFEE


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    recipe: str = ""
    alpha: float = 0.0
    a: float = 1.0
    b: float = 1.0
    gamma: float = 0.0
    omega_file: str | None = None
    s_file: str | None = None
    sigma_file: str | None = None
    xmax: float = 0.0
    seed: int = DEFAULT_SEED
    trials: int = 100
    output_dir: str = "."

    def __post_init__(self):
        if not self.name:
            raise UsageError("config must set a name")
        recipe = self.recipe or self.name
        object.__setattr__(self, "recipe", recipe)
        if recipe not in _RECIPE_TABLE:
            expected = ", ".join(_RECIPE_TABLE)
            raise UsageError(f"unknown recipe {recipe!r}; expected one of {expected}")
        for attr in ("omega_file", "s_file", "sigma_file"):
            path = getattr(self, attr)
            if path is not None and not os.path.exists(path):
                raise UsageError(f"{attr} does not exist: {path}")
        if self.trials < 0:
            raise UsageError("trials must be nonnegative")


@dataclass(frozen=True)
class ReportRow:
    params: str
    value: float
    reference: float
    passed: bool


# config key -> the annotation of its field: how parse_config reads a value
_KEY_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_NUMBERS = {"float": (float, "number"), "int": (partial(int, base=0), "integer")}


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat `key = value` config file; # comments and blanks ignored.
    A key its recipe does not read is an error at the key's line."""
    values: dict = {}
    line_of: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{i}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise UsageError(f"{path}:{i}: duplicate key {key!r}")
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise UsageError(f"{path}:{i}: unknown key {key!r}")
        if kind in _NUMBERS:
            convert, noun = _NUMBERS[kind]
            try:
                val = convert(val)
            except ValueError as exc:
                raise UsageError(f"{path}:{i}: bad {noun} for {key}: {val!r}") from exc
        elif key.endswith("_file") or key == "output_dir":
            val = val if os.path.isabs(val) else os.path.join(base, val)
        values[key], line_of[key] = val, i
    if "name" not in values:
        raise UsageError(f"{path}: config must set a name")
    # the recipe may come after a key, or default to the name
    config = ExperimentConfig(**values)
    _, reads = _RECIPE_TABLE[config.recipe]
    for key in values:  # in line order
        if key not in _SHARED_KEYS and key not in reads:
            raise UsageError(
                f"{path}:{line_of[key]}: key {key!r} is not read by recipe "
                f"{config.recipe!r}"
            )
    return config


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def write_report(config: ExperimentConfig, rows: list[ReportRow]) -> str:
    """Write <output_dir>/<name>.csv with full parameter provenance."""
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, f"{config.name}.csv")
    provenance = " ".join(
        f"{f.name}={getattr(config, f.name)}" for f in fields(config)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# hconc {__version__} {provenance}\n")
        fh.write("experiment,params,value,reference,passed\n")
        for r in rows:
            fh.write(
                f"{config.name},{r.params},{_fmt(r.value)},"
                f"{_fmt(r.reference)},{'true' if r.passed else 'false'}\n"
            )
    return path


# --------------------------------------------------------------------------
# row checks: one comparison form per kind of inequality a row checks


def _at_most(slack: float):
    """value <= reference (1 + slack)."""
    factor = 1 + slack
    return lambda value, ref, **_: value <= ref * factor


def _within(tol: float, floor: float = 1.0):
    """|value - reference| <= tol max(floor, |reference|)."""
    return lambda value, ref, **_: abs(value - ref) <= tol * max(floor, abs(ref))


def _ordered(relation):
    """value `relation` reference, with no slack."""
    return lambda value, ref, **_: relation(value, ref)


def _bernstein(value, ref, k, **_) -> bool:
    """The derivative-norm inequality; at k = 0 both sides are ||f||, so
    they must also agree."""
    return _at_most(1e-6)(value, ref) and (k != 0 or _within(1e-9, 1e-300)(value, ref))


# row kind -> check(value, reference, **ids) of its rows; the index of every
# kind of row a recipe writes
_CHECKS = {
    "bernstein": _bernstein,
    "isometry-defect": _at_most(0.0),
    "roundtrip-error": _at_most(0.0),
    # an absolute 1e-8: |reference| <= 1, since eval_j clips to [-1, 1]
    "product-formula": _within(1e-8),
    "symmetry": _within(1e-10),
    "mass": _within(1e-8),
    "contraction-p2": _at_most(1e-8),
    "contraction-p1": _at_most(1e-8),
    "intertwining": _at_most(0.0),
    "zeros": _at_most(0.0),
    "peak": _within(1e-6, floor=0.0),
    "pair-norm": lambda value, ref, **_: 0.0 <= value <= ref,
    "annihilation-constant": _ordered(operator.ge),
    "strong-pair": _at_most(1e-9),
    # an undeclared gamma (0) asks only that omega be relatively dense
    "gamma-min": lambda value, ref, **_: value > 0 and value >= ref,
    "ls-bound": _ordered(operator.ge),
    "empirical-min-ratio": _ordered(operator.gt),
    "constant": _at_most(1e-12),
    "polynomial": _at_most(1e-12),
    "bad-mass": _at_most(0.0),
    "witnesses": _ordered(operator.eq),
}


def _row(kind: str, value, reference, **ids) -> ReportRow:
    """The row of one check: params `quantity=<kind> key=value ...` in the
    order of `ids`, passed as the kind's entry of _CHECKS judges it."""
    params = " ".join([f"quantity={kind}"] + [f"{k}={v}" for k, v in ids.items()])
    passed = bool(_CHECKS[kind](value, reference, **ids))
    return ReportRow(params, value, reference, passed)


def _map_trials(fn, n: int) -> list:
    return [row for i in range(n) for row in fn(i)]


def _trial_rng(config: ExperimentConfig, trial: int) -> np.random.Generator:
    return np.random.default_rng((config.seed, trial))


# --------------------------------------------------------------------------
# recipes


# spectral nodes of each Bernstein trial's random PW function
_BERNSTEIN_NODES = 96


def _recipe_bernstein(config: ExperimentConfig) -> list[ReportRow]:
    order = Order(config.alpha)

    def one(t: int) -> list[ReportRow]:
        rng = _trial_rng(config, t)
        k = t % 6
        pw = random_pw(order, config.b, _BERNSTEIN_NODES, rng)
        lhs, rhs = bernstein_sides(pw, k)
        return [_row("bernstein", lhs, rhs, trial=t, k=k)]

    return _map_trials(one, config.trials)


def _plancherel_window(b: float) -> float:
    """x_max of the physical window [0, x_max] of the Plancherel checks."""
    return 40.0 * max(1.0, 1.0 / b)


def _plancherel_grids(order: Order, b: float):
    """(x, wx, xi, wxi): the mu_alpha rules of the physical and spectral
    windows the Plancherel checks run on; they depend on (alpha, b) only."""
    x_max = _plancherel_window(b)
    # mu_alpha-weighted rules: Gauss-Jacobi next to 0, where the density
    # x^(2 alpha + 1) is not smooth; f oscillates ~b cycles per unit of x,
    # and the inverse kernel ~x_max cycles per unit of xi
    x, wx = mu_rule(order, IntervalSet.of([(0.0, x_max)]), 10.0 * max(1.0, b))
    xi, wxi = mu_rule(order, IntervalSet.of([(0.0, 2.0 * b)]), max(32.0, 8.0 * x_max))
    return x, wx, xi, wxi


def _plancherel_batch(
    order: Order, b: float, rngs, grids
) -> list[tuple[float, float]]:
    """(isometry defect, roundtrip error) for one random band-limited f per
    generator, all synthesized in one kernel pass and sent through one
    `round_trip` pass on `grids` = _plancherel_grids(order, b)."""
    x, wx, xi, wxi = grids
    # the spectral sum aliases from x ~ 0.47 n_spec / b on (see random_pw):
    # 3 b x_max nodes keep the alias past the whole window
    n_spec = max(128, math.ceil(3.0 * b * _plancherel_window(b)))
    pws = [random_pw(order, b, n_spec, rng, kind="smooth") for rng in rngs]
    f = synthesize(pws, x)
    hat, back = round_trip(order, x, wx * f, xi, wxi)
    cases = []
    for f_j, hat_j, back_j in zip(f, hat, back):
        defect = abs(math.sqrt(np.dot(wxi, hat_j**2) / np.dot(wx, f_j**2)) - 1.0)
        scale = float(np.max(np.abs(f_j)))
        cases.append((defect, float(np.max(np.abs(back_j - f_j))) / scale))
    return cases


def _recipe_plancherel(config: ExperimentConfig) -> list[ReportRow]:
    order = Order(config.alpha)
    grids = _plancherel_grids(order, config.b)
    x, _, xi, _ = grids
    # contiguous batches whose set arrays stay within one kernel block's entries
    size = max_sets(max(len(x), len(xi)))
    rows = []
    for start in range(0, config.trials, size):
        trials = range(start, min(start + size, config.trials))
        rngs = [_trial_rng(config, t) for t in trials]
        cases = _plancherel_batch(order, config.b, rngs, grids)
        for t, (defect, roundtrip) in zip(trials, cases):
            rows += [
                _row("isometry-defect", defect, 1e-7, trial=t),
                _row("roundtrip-error", roundtrip, 1e-8, trial=t),
            ]
    return rows


_TRANSLATION_ALPHAS = (-0.5, 0.0, 0.5, 1.0, 1.7)
_TRANSLATION_NORMS = ("mass", "contraction-p2", "contraction-p1")


def _bump_family(width: float, poly: np.ndarray):
    """Evaluator of the translation recipe's two compact bumps on (0, width):
    1-D s -> rows (f, f_pos), f = e p(u) and f_pos = e p(u)^2 + 0.1 e, with
    u = s / width and e = exp(4 - 1/(u (1 - u))) on 0 < u < 1, zero outside.
    u, the support indices and e are formed once per grid for both rows.
    poly is highest coefficient first; Horner's rule on it gives the bits of
    np.polyval, which starts from 0 * u + poly[0] = poly[0] exactly; so a
    leading zero, which np.polymul would trim, leaves np.convolve's bits."""
    low, low_sq = poly[::-1], np.convolve(poly, poly)[::-1]

    def bumps(t: np.ndarray) -> np.ndarray:
        u = np.asarray(t, dtype=float) / width
        out = np.zeros((2,) + u.shape)
        # integer indices gather and scatter ~3x faster than the boolean mask
        inside = np.flatnonzero((u > 0.0) & (u < 1.0))
        u_in = u[inside]
        e = np.exp(4.0 - 1.0 / np.maximum(u_in * (1.0 - u_in), 1e-300))
        out[0, inside] = e * _horner(low, u_in)
        out[1, inside] = e * _horner(low_sq, u_in) + e * 0.1
        return out

    return bumps


def _translation_case(config: ExperimentConfig, t: int) -> list[ReportRow]:
    rng = _trial_rng(config, t)
    alpha = _TRANSLATION_ALPHAS[t % len(_TRANSLATION_ALPHAS)]
    order = Order(alpha)
    x = float(rng.uniform(0.2, 4.0))
    y = float(rng.uniform(0.2, 4.0))
    lam = float(rng.uniform(0.3, 3.0))
    width = float(rng.uniform(2.0, 4.0))
    poly = rng.uniform(-1.0, 1.0, size=3)
    bumps = _bump_family(width, poly)
    f = lambda s: bumps(s)[0]

    # the product formula's kernel and the symmetry reference share (x, y)
    prod, sym_ref = translate_batch(
        order, x, lambda s: np.stack([eval_j(order, lam * s), f(s)]), np.array([y])
    )[:, 0].tolist()
    prod_ref = float(eval_j(order, lam * x)) * float(eval_j(order, lam * y))

    # the swapped arguments on one 384-node pass: a rule that the reference's
    # doubling from 256 never uses, and cheap to build once per order
    # (roots_jacobi's time grows as ~n^2; 2048 nodes take ~30x as long)
    sym = float(translate_batch(order, y, f, [x], theta_nodes=384)[0])

    # 32 nodes/unit: the bump's endpoint boundary layers defeat coarser panels
    big_x, big_w = mu_rule(order, IntervalSet.of([(0.0, width + x + 0.5)]), 32.0)
    # p=1 runs on the nonnegative f_pos so |.| stays smooth under quadrature
    shifted, shifted_pos = translate_batch(order, x, bumps, big_x)
    base_x, base_w = mu_rule(order, IntervalSet.of([(0.0, width)]), 32.0)
    base, base_pos = bumps(base_x)
    # (mass of f, L2 norm of f, L1 norm of f_pos) after and before translation
    after, before = (
        (float(np.dot(w, g)), math.sqrt(np.dot(w, g**2)), float(np.dot(w, abs(g_pos))))
        for w, g, g_pos in ((big_w, shifted, shifted_pos), (base_w, base, base_pos))
    )

    ys = np.linspace(0.05, 2.0, 24)
    lhs_hat = kernel_apply(order, ys, big_x, big_w * shifted)
    rhs_hat = eval_j(order, 2.0 * math.pi * x * ys) * kernel_apply(
        order, ys, base_x, base_w * base
    )
    scale = float(np.max(np.abs(rhs_hat)))
    defect = float(np.max(np.abs(lhs_hat - rhs_hat))) / scale

    ids = {"trial": t, "alpha": alpha}
    return [
        _row("product-formula", prod, prod_ref, **ids),
        _row("symmetry", sym, sym_ref, **ids),
        *map(partial(_row, **ids), _TRANSLATION_NORMS, after, before),
        _row("intertwining", defect, 1e-6, **ids),
    ]


def _recipe_translation(config: ExperimentConfig) -> list[ReportRow]:
    return _map_trials(lambda t: _translation_case(config, t), config.trials)


def _recipe_extremal(config: ExperimentConfig) -> list[ReportRow]:
    order = Order(config.alpha)
    table = cached_zero_table(order.alpha, config.trials + 8)

    def one(n: int) -> list[ReportRow]:
        peak_ref = extremal_peak(order, n)
        others = [table.s_prime(k) for k in range(1, config.trials + 1) if k != n]
        vals = extremal_family(order, n, np.array(others)) if others else np.array([])
        worst = float(np.max(np.abs(vals))) if len(vals) else 0.0
        peak_at = (
            float(extremal_family(order, n, table.s_prime(n))) if n >= 1 else 1.0
        )
        return [
            _row("zeros", worst, 1e-8 * peak_ref, n=n),
            _row("peak", peak_at, peak_ref, n=n),
        ]

    # members 0..trials: n = 0 peaks at 0, and n >= 1 at the n-th zero s'_n
    return _map_trials(one, config.trials + 1)


def _recipe_pair_norm(config: ExperimentConfig) -> list[ReportRow]:
    order = Order(config.alpha)
    S, Sigma = (
        load_interval_set(path) if path else IntervalSet.of([(0.0, 1.0)])
        for path in (config.s_file, config.sigma_file)
    )
    pair = ProjectionPair(order=order, S=S, Sigma=Sigma, x_max=max(1.0, S.sup()))
    norm = pair_norm(pair)
    rows = [_row("pair-norm", norm, 1.0)]
    if norm < 1.0:
        rows.append(_row("annihilation-constant", annihilation_constant(norm), 1.0))
        trial_rows = strong_pair_trials(
            order, S, Sigma, norm, config.trials, config.seed
        )
        rows += [
            _row("strong-pair", float(lhs), float(rhs), trial=t)
            for t, (lhs, rhs) in enumerate(trial_rows)
        ]
    return rows


def ls_verify_rows(
    order: Order,
    omega: IntervalSet,
    a: float,
    b: float,
    gamma_declared: float,
    x_max: float,
) -> list[ReportRow]:
    """Certify density, evaluate the explicit bound, measure the empirical
    minimum concentration on every mode of PW_alpha(b) on [0, x_max], and
    check the ordering empirical > bound.  gamma_declared = 0 declares no
    gamma, and x_max <= 0 takes sup(omega) + 20 max(1, 1/b).  A set that is
    not relatively dense (gamma_min = 0) gets its failed density row alone:
    no bound applies."""
    if omega.is_empty():
        raise UsageError("ls verification requires a nonempty omega")
    # windows [x-a, x+a] are scanned over the covered span only: beyond
    # sup(omega) every window eventually misses the set and gamma -> 0
    gamma_min, argmin = density_profile(order, omega, a, omega.sup())
    rows = [_row("gamma-min", gamma_min, gamma_declared, argmin=_fmt(argmin))]
    if gamma_min <= 0.0:
        return rows
    gamma_used = min(gamma_min, gamma_declared) if gamma_declared > 0 else gamma_min
    params = LSParams(gamma=gamma_used, a=a, b=b, order=order)
    bound = ls_bound(params)
    rows.append(_row("ls-bound", bound, 0.0, log10=_fmt(ls_bound_log10(params))))
    if x_max <= 0:
        x_max = 20.0 * max(1.0, 1.0 / b) + omega.sup()
    empirical = ls_empirical_min_ratio(order, b, omega, x_max)
    modes = len(mode_frequencies(order, b, x_max))
    rows.append(
        _row("empirical-min-ratio", empirical, bound, xmax=_fmt(x_max), modes=modes)
    )
    return rows


def _recipe_ls_verify(config: ExperimentConfig) -> list[ReportRow]:
    if not config.omega_file:
        raise UsageError("ls-verify requires omega_file")
    omega = load_interval_set(config.omega_file)
    order, a, b = Order(config.alpha), config.a, config.b
    return ls_verify_rows(order, omega, a, b, config.gamma, config.xmax)


def _recipe_kovrijkine(config: ExperimentConfig) -> list[ReportRow]:
    def one(t: int) -> list[ReportRow]:
        rng = _trial_rng(config, t)
        if t == 0:
            lhs, rhs = kovrijkine_check([2.5], (0.0, 1.0), IntervalSet.of([(0.0, 0.5)]))
            kind = "constant"
        else:
            deg = int(rng.integers(1, 6))
            coeffs = rng.uniform(-1.0, 1.0, size=deg + 1)
            lo = float(rng.uniform(0.0, 3.0))
            length = float(rng.uniform(0.5, 2.0))
            j_lo = lo + float(rng.uniform(0.0, 0.7)) * length
            j_len = max(0.1 * length, float(rng.uniform(0.1, 0.5)) * length)
            j_hi = min(lo + length, j_lo + j_len)
            lhs, rhs = kovrijkine_check(
                coeffs, (lo, lo + length), IntervalSet.of([(j_lo, j_hi)])
            )
            kind = "polynomial"
        return [_row(kind, lhs, rhs, trial=t)]

    return _map_trials(one, config.trials)


_GOOD_BAD_PRODUCTS = (0.05, 0.1, 0.3)


def _recipe_good_bad(config: ExperimentConfig) -> list[ReportRow]:
    order = Order(config.alpha)
    xs = np.arange(1.0, 16.0)

    def one(t: int) -> list[ReportRow]:
        rng = _trial_rng(config, t)
        ab = _GOOD_BAD_PRODUCTS[t % len(_GOOD_BAD_PRODUCTS)]
        pw = random_pw(order, ab, 32, rng, kind="smooth")
        coeffs = dk_coefficients(pw, 8)
        bad, mass, frac, left = good_bad_partition(pw, ab, xs, coeffs)
        goods = xs[~bad]
        witness = witness_point(pw, ab, goods, mass[~bad], left[:, ~bad], coeffs)
        found = int(np.count_nonzero(np.isfinite(witness)))
        return [
            _row("bad-mass", frac, 1.0 / 3.0 + 0.01, trial=t, ab=ab),
            _row("witnesses", float(found), float(len(goods)), trial=t, ab=ab),
        ]

    return _map_trials(one, config.trials)


# keys every recipe reads: the report's name and directory, and the recipe
_SHARED_KEYS = ("name", "recipe", "output_dir")

# name -> (recipe, the config keys it reads beyond _SHARED_KEYS); parse_config
# rejects any other key, since it would change nothing but the report header
_RECIPE_TABLE = {
    "bernstein": (_recipe_bernstein, ("alpha", "b", "seed", "trials")),
    "plancherel": (_recipe_plancherel, ("alpha", "b", "seed", "trials")),
    "translation": (_recipe_translation, ("seed", "trials")),
    "extremal": (_recipe_extremal, ("alpha", "trials")),
    "pair-norm": (
        _recipe_pair_norm,
        ("alpha", "s_file", "sigma_file", "seed", "trials"),
    ),
    "ls-verify": (
        _recipe_ls_verify,
        ("alpha", "a", "b", "gamma", "omega_file", "xmax"),
    ),
    "kovrijkine": (_recipe_kovrijkine, ("seed", "trials")),
    "good-bad": (_recipe_good_bad, ("alpha", "seed", "trials")),
}


def run(config: ExperimentConfig) -> list[ReportRow]:
    """Dispatch to the named recipe and write <output_dir>/<name>.csv."""
    recipe, _ = _RECIPE_TABLE[config.recipe]
    rows = recipe(config)
    write_report(config, rows)
    return rows


# --------------------------------------------------------------------------
# selftest


def _check_zero_table():
    validate_interlacing(zeros_of_j_prime(Order(0.7), 128))


# (recipe, trials, other keys) of each recipe check: Plancherel on every
# eval_j route (closed form, j0, j1, table); translation picks its own orders
# and kovrijkine takes none; ls-verify needs an omega file
_SELFTEST_TABLE = (
    ("plancherel", 1, {"alpha": -0.5}),
    ("plancherel", 1, {"alpha": 0.0}),
    ("plancherel", 1, {"alpha": 1.0}),
    ("plancherel", 1, {"alpha": 0.3}),
    ("translation", 5, {}),
    ("bernstein", 20, {"alpha": 0.0}),
    ("extremal", 6, {"alpha": 0.0}),
    ("pair-norm", 4, {"alpha": 0.0}),
    ("good-bad", 2, {"alpha": 0.0}),
    ("kovrijkine", 6, {}),
)


def _selftest_label(recipe: str, keys: dict) -> str:
    return " ".join([recipe] + [f"{key}={value:g}" for key, value in keys.items()])


def _check_recipe(recipe: str, trials: int, keys: dict):
    """Run a recipe into a temporary directory; fail if a row fails."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig(
            f"selftest-{recipe}", recipe=recipe, trials=trials, output_dir=tmp, **keys
        )
        rows = run(cfg)
    failed = [r for r in rows if not r.passed]
    if failed:
        raise InternalError(
            f"{len(failed)} of {len(rows)} rows failed, first {failed[0].params}"
        )


def selftest() -> int:
    """Run the desk-scale suite; exit code 0 iff every check passes.

    Each `_SELFTEST_TABLE` entry runs its recipe once (see `_check_recipe`);
    `zero-table` validates the interlacing of a computed zero table.
    """
    checks = [("zero-table", _check_zero_table)] + [
        (_selftest_label(recipe, keys), partial(_check_recipe, recipe, trials, keys))
        for recipe, trials, keys in _SELFTEST_TABLE
    ]
    failures = 0
    for name, fn in checks:
        start = time.perf_counter()
        try:
            fn()
        except (InternalError, ConvergenceError) as exc:
            failures += 1
            print(f"FAIL {name}: {exc} ({time.perf_counter() - start:.2f}s)")
        else:
            print(f"PASS {name} ({time.perf_counter() - start:.2f}s)")
    if failures:
        print(f"selftest: {failures} of {len(checks)} checks failed")
        return 1
    print(f"selftest: all {len(checks)} checks passed")
    return 0
