"""Experiment configs, named recipes, CSV reports, and the self-test suite.

Config files are flat `key = value` text; recipes compose the numerical
modules into reproducible checks and write one CSV per run.  Reports are
deterministic given the seed: per-trial generators are spawned from
(seed, trial index), so --jobs parallelism cannot change any value.  The
Plancherel recipe runs its trials in contiguous batches that share every
kernel block; each trial keeps its own matrix-vector products, so its values
do not depend on the batch, and --jobs, which splits the trials into more
batches, still cannot change them.  The translation recipe likewise
translates its two compact bumps, and the product-formula kernel together
with the symmetry reference, through the set axis of `translate_batch`,
which gives each function the value it has when translated alone.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .annihilation import (
    LSParams,
    ProjectionPair,
    annihilation_constant,
    bad_mass_fraction,
    good_bad_partition,
    kovrijkine_check,
    ls_bound,
    ls_bound_log10,
    ls_empirical_min_ratio,
    pair_norm,
    strong_pair_trials,
    witness_point,
)
from .bessel import Order, ZeroTable, cached_zero_table, eval_j, zeros_of_j_prime
from .errors import ConvergenceError, InternalError, UsageError
from .measure import (
    IntervalSet,
    density_profile,
    load_interval_set,
    mu_density_constant,
    mu_measure,
)
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
from .translation import make_plan, translate, translate_batch

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
    nodes: int = 128
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
        if self.nodes < 1:
            raise UsageError("nodes must be positive")


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    params: str
    value: float
    reference: float
    passed: bool


_FLOAT_KEYS = {"alpha", "a", "b", "gamma", "xmax"}
_INT_KEYS = {"nodes", "seed", "trials"}
_STR_KEYS = {"name", "recipe", "omega_file", "s_file", "sigma_file", "output_dir"}


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat `key = value` config file; # comments and blanks ignored."""
    values: dict = {}
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
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError as exc:
                raise UsageError(f"{path}:{i}: bad number for {key}: {val!r}") from exc
        elif key in _INT_KEYS:
            try:
                values[key] = int(val, 0)
            except ValueError as exc:
                raise UsageError(f"{path}:{i}: bad integer for {key}: {val!r}") from exc
        elif key in _STR_KEYS:
            if key.endswith("_file") or key == "output_dir":
                val = val if os.path.isabs(val) else os.path.join(base, val)
            values[key] = val
        else:
            raise UsageError(f"{path}:{i}: unknown key {key!r}")
    if "name" not in values:
        raise UsageError(f"{path}: config must set a name")
    return ExperimentConfig(**values)


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
                f"{r.experiment},{r.params},{_fmt(r.value)},"
                f"{_fmt(r.reference)},{'true' if r.passed else 'false'}\n"
            )
    return path


def _map_trials(fn, n: int, jobs: int) -> list:
    if jobs <= 1:
        chunks = [fn(i) for i in range(n)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(fn, range(n)))
    return [row for chunk in chunks for row in chunk]


def _trial_rng(config: ExperimentConfig, trial: int) -> np.random.Generator:
    return np.random.default_rng((config.seed, trial))


# --------------------------------------------------------------------------
# recipes


def _recipe_bernstein(config: ExperimentConfig, jobs: int) -> list[ReportRow]:
    order = Order(config.alpha)

    def one(t: int) -> list[ReportRow]:
        rng = _trial_rng(config, t)
        k = t % 6
        pw = random_pw(order, config.b, max(16, min(config.nodes, 96)), rng)
        lhs, rhs = bernstein_sides(pw, k)
        ok = lhs <= rhs * (1 + 1e-6)
        if k == 0:
            ok = ok and abs(lhs - rhs) <= 1e-9 * max(rhs, 1e-300)
        return [
            ReportRow(config.name, f"quantity=bernstein trial={t} k={k}", lhs, rhs, ok)
        ]

    return _map_trials(one, config.trials, jobs)


def _plancherel_grids(order: Order, b: float):
    """(x, wx, xi, wxi): the mu_alpha rules of the physical and spectral
    windows the Plancherel checks run on; they depend on (alpha, b) only."""
    # window and node counts sized so the discrete spectral sum still tracks
    # the decaying continuous profile across the whole window
    x_max = 40.0 * max(1.0, 1.0 / b)
    # mu_alpha-weighted rules: Gauss-Jacobi next to 0, where the density
    # x^(2 alpha + 1) is not smooth; the inverse kernel oscillates ~x_max
    # cycles per unit of xi
    x, wx = mu_rule(order, IntervalSet.of([(0.0, x_max)]), 10.0)
    xi, wxi = mu_rule(order, IntervalSet.of([(0.0, 2.0 * b)]), max(32.0, 8.0 * x_max))
    return x, wx, xi, wxi


def _plancherel_batch(
    order: Order, b: float, rngs, grids
) -> list[tuple[float, float]]:
    """(isometry defect, roundtrip error) for one random band-limited f per
    generator, all synthesized in one kernel pass and sent through one
    `round_trip` pass on `grids` = _plancherel_grids(order, b)."""
    x, wx, xi, wxi = grids
    pws = [random_pw(order, b, 128, rng, kind="smooth") for rng in rngs]
    f = synthesize(pws, x)
    hat, back = round_trip(order, x, wx * f, xi, wxi)
    cases = []
    for f_j, hat_j, back_j in zip(f, hat, back):
        defect = abs(math.sqrt(np.dot(wxi, hat_j**2) / np.dot(wx, f_j**2)) - 1.0)
        scale = float(np.max(np.abs(f_j)))
        cases.append((defect, float(np.max(np.abs(back_j - f_j))) / scale))
    return cases


def _recipe_plancherel(config: ExperimentConfig, jobs: int) -> list[ReportRow]:
    order = Order(config.alpha)
    grids = _plancherel_grids(order, config.b)
    x, _, xi, _ = grids
    # contiguous batches, one per job at least, whose set arrays stay
    # within one kernel block's entries
    per_job = -(-config.trials // max(1, jobs))
    size = max(1, min(max_sets(max(len(x), len(xi))), per_job))
    batches = [
        range(start, min(start + size, config.trials))
        for start in range(0, config.trials, size)
    ]

    def one(i: int) -> list[ReportRow]:
        trials = batches[i]
        rngs = [_trial_rng(config, t) for t in trials]
        cases = _plancherel_batch(order, config.b, rngs, grids)
        rows = []
        for t, (defect, roundtrip) in zip(trials, cases):
            rows += [
                ReportRow(
                    config.name,
                    f"quantity=isometry-defect trial={t}",
                    defect,
                    1e-7,
                    defect <= 1e-7,
                ),
                ReportRow(
                    config.name,
                    f"quantity=roundtrip-error trial={t}",
                    roundtrip,
                    1e-8,
                    roundtrip <= 1e-8,
                ),
            ]
        return rows

    return _map_trials(one, len(batches), jobs)


_TRANSLATION_ALPHAS = (-0.5, 0.0, 0.5, 1.0, 1.7)


def _horner(poly: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.polyval(poly, u) in place: polyval starts from 0 * u + poly[0],
    which is poly[0] exactly, so the values are the same bits."""
    out = np.full_like(u, poly[0])
    for c in poly[1:]:
        out *= u
        out += c
    return out


def _bump_family(width: float, poly: np.ndarray):
    """Evaluator of the translation recipe's two compact bumps on (0, width):
    1-D s -> rows (f, f_pos), f = e p(u) and f_pos = e p(u)^2 + 0.1 e, with
    u = s / width and e = exp(4 - 1/(u (1 - u))) on 0 < u < 1, zero outside.
    u, the support indices and e are formed once per grid for both rows."""
    poly_sq = np.polymul(poly, poly)

    def bumps(t: np.ndarray) -> np.ndarray:
        u = np.asarray(t, dtype=float) / width
        out = np.zeros((2,) + u.shape)
        # integer indices gather and scatter ~3x faster than the boolean mask
        inside = np.flatnonzero((u > 0.0) & (u < 1.0))
        u_in = u[inside]
        e = np.exp(4.0 - 1.0 / np.maximum(u_in * (1.0 - u_in), 1e-300))
        out[0, inside] = e * _horner(poly, u_in)
        out[1, inside] = e * _horner(poly_sq, u_in) + e * 0.1
        return out

    return bumps


def _translation_case(config: ExperimentConfig, t: int) -> list[ReportRow]:
    rng = _trial_rng(config, t)
    alpha = _TRANSLATION_ALPHAS[t % len(_TRANSLATION_ALPHAS)]
    order = Order(alpha)
    plan = make_plan(order)
    x = float(rng.uniform(0.2, 4.0))
    y = float(rng.uniform(0.2, 4.0))
    lam = float(rng.uniform(0.3, 3.0))
    width = float(rng.uniform(2.0, 4.0))
    poly = rng.uniform(-1.0, 1.0, size=3)
    bumps = _bump_family(width, poly)
    f = lambda s: bumps(s)[0]
    rows = []

    # the product formula's kernel and the symmetry reference share (x, y)
    prod, sym_ref = translate_batch(
        plan, x, lambda s: np.stack([eval_j(order, lam * s), f(s)]), np.array([y])
    )[:, 0].tolist()
    prod_ref = float(eval_j(order, lam * x)) * float(eval_j(order, lam * y))
    rows.append(
        ReportRow(
            config.name,
            f"quantity=product-formula trial={t} alpha={alpha}",
            prod,
            prod_ref,
            abs(prod - prod_ref) <= 1e-8,
        )
    )

    sym = translate(plan, y, f, x)
    rows.append(
        ReportRow(
            config.name,
            f"quantity=symmetry trial={t} alpha={alpha}",
            sym,
            sym_ref,
            abs(sym - sym_ref) <= 1e-10 * max(1.0, abs(sym_ref)),
        )
    )

    # 32 nodes/unit: the bump's endpoint boundary layers defeat coarser panels
    big_x, big_w = mu_rule(order, IntervalSet.of([(0.0, width + x + 0.5)]), 32.0)
    # p=1 runs on the nonnegative f_pos so |.| stays smooth under quadrature
    shifted, shifted_pos = translate_batch(plan, x, bumps, big_x)
    base_x, base_w = mu_rule(order, IntervalSet.of([(0.0, width)]), 32.0)
    base, base_pos = bumps(base_x)
    mass = float(np.dot(big_w, shifted))
    mass_ref = float(np.dot(base_w, base))
    rows.append(
        ReportRow(
            config.name,
            f"quantity=mass trial={t} alpha={alpha}",
            mass,
            mass_ref,
            abs(mass - mass_ref) <= 1e-8 * max(1.0, abs(mass_ref)),
        )
    )

    lhs2 = math.sqrt(np.dot(big_w, shifted**2))
    rhs2 = math.sqrt(np.dot(base_w, base**2))
    rows.append(
        ReportRow(
            config.name,
            f"quantity=contraction-p2 trial={t} alpha={alpha}",
            lhs2,
            rhs2,
            lhs2 <= rhs2 * (1 + 1e-8),
        )
    )
    lhs1 = float(np.dot(big_w, np.abs(shifted_pos)))
    rhs1 = float(np.dot(base_w, np.abs(base_pos)))
    rows.append(
        ReportRow(
            config.name,
            f"quantity=contraction-p1 trial={t} alpha={alpha}",
            lhs1,
            rhs1,
            lhs1 <= rhs1 * (1 + 1e-8),
        )
    )

    ys = np.linspace(0.05, 2.0, 24)
    lhs_hat = kernel_apply(order, ys, big_x, big_w * shifted)
    rhs_hat = eval_j(order, 2.0 * math.pi * x * ys) * kernel_apply(
        order, ys, base_x, base_w * base
    )
    scale = float(np.max(np.abs(rhs_hat)))
    defect = float(np.max(np.abs(lhs_hat - rhs_hat))) / scale
    rows.append(
        ReportRow(
            config.name,
            f"quantity=intertwining trial={t} alpha={alpha}",
            defect,
            1e-6,
            defect <= 1e-6,
        )
    )
    return rows


def _recipe_translation(config: ExperimentConfig, jobs: int) -> list[ReportRow]:
    return _map_trials(lambda t: _translation_case(config, t), config.trials, jobs)


def _recipe_extremal(config: ExperimentConfig, jobs: int) -> list[ReportRow]:
    order = Order(config.alpha)
    n_top = min(20, max(1, config.trials))
    table = cached_zero_table(order.alpha, n_top + 8)

    def one(n: int) -> list[ReportRow]:
        peak_ref = extremal_peak(order, n)
        others = [table.s_prime(k) for k in range(0, n_top + 1) if k != n and k >= 1]
        vals = extremal_family(order, n, np.array(others)) if others else np.array([])
        worst = float(np.max(np.abs(vals))) if len(vals) else 0.0
        peak_at = (
            float(extremal_family(order, n, table.s_prime(n))) if n >= 1 else 1.0
        )
        return [
            ReportRow(
                config.name,
                f"quantity=zeros n={n}",
                worst,
                1e-8 * peak_ref,
                worst <= 1e-8 * peak_ref,
            ),
            ReportRow(
                config.name,
                f"quantity=peak n={n}",
                peak_at,
                peak_ref,
                abs(peak_at - peak_ref) <= 1e-6 * peak_ref,
            ),
        ]

    return _map_trials(one, n_top + 1, jobs)


def _recipe_pair_norm(config: ExperimentConfig, jobs: int) -> list[ReportRow]:
    order = Order(config.alpha)
    S = (
        load_interval_set(config.s_file)
        if config.s_file
        else IntervalSet.of([(0.0, 1.0)])
    )
    Sigma = (
        load_interval_set(config.sigma_file)
        if config.sigma_file
        else IntervalSet.of([(0.0, 1.0)])
    )
    x_max = config.xmax if config.xmax > 0 else max(1.0, S.sup())
    pair = ProjectionPair(
        order=order, S=S, Sigma=Sigma, x_max=x_max, nodes_per_interval=config.nodes
    )
    norm = pair_norm(pair)
    rows = [
        ReportRow(
            config.name, "quantity=pair-norm", norm, 1.0, 0.0 <= norm <= 1.0
        )
    ]
    if norm < 1.0:
        const = annihilation_constant(norm)
        rows.append(
            ReportRow(config.name, "quantity=annihilation-constant", const, 1.0, const >= 1.0)
        )
        trial_rows = strong_pair_trials(
            order, S, Sigma, norm, config.trials, config.seed
        )
        for t, (lhs, rhs) in enumerate(trial_rows):
            rows.append(
                ReportRow(
                    config.name,
                    f"quantity=strong-pair trial={t}",
                    float(lhs),
                    float(rhs),
                    lhs <= rhs * (1 + 1e-9),
                )
            )
    return rows


def ls_verify_rows(
    name: str,
    order: Order,
    omega: IntervalSet,
    a: float,
    b: float,
    gamma_declared: float = 0.0,
    x_max: float = 0.0,
    n_modes: int = 128,
) -> list[ReportRow]:
    """Certify density, evaluate the explicit bound, measure the empirical
    minimum concentration, and check the ordering empirical > bound."""
    if omega.is_empty():
        raise UsageError("ls verification requires a nonempty omega")
    # windows [x-a, x+a] are scanned over the covered span only: beyond
    # sup(omega) every window eventually misses the set and gamma -> 0
    gamma_min, argmin = density_profile(order, omega, a, omega.sup())
    rows = [
        ReportRow(
            name,
            f"quantity=gamma-min argmin={_fmt(argmin)}",
            gamma_min,
            gamma_declared,
            gamma_min >= gamma_declared > 0,
        )
    ]
    gamma_used = min(gamma_min, gamma_declared) if gamma_declared > 0 else gamma_min
    params = LSParams(gamma=gamma_used, a=a, b=b, order=order)
    bound = ls_bound(params)
    rows.append(
        ReportRow(
            name,
            f"quantity=ls-bound log10={_fmt(ls_bound_log10(params))}",
            bound,
            0.0,
            bound >= 0.0,
        )
    )
    if x_max <= 0:
        x_max = 20.0 * max(1.0, 1.0 / b) + omega.sup()
    empirical = ls_empirical_min_ratio(order, b, omega, x_max, n_modes)
    rows.append(
        ReportRow(
            name,
            f"quantity=empirical-min-ratio xmax={_fmt(x_max)} modes={n_modes}",
            empirical,
            bound,
            empirical > bound,
        )
    )
    return rows


def _recipe_ls_verify(config: ExperimentConfig, jobs: int) -> list[ReportRow]:
    if not config.omega_file:
        raise UsageError("ls-verify requires omega_file")
    return ls_verify_rows(
        config.name,
        Order(config.alpha),
        load_interval_set(config.omega_file),
        config.a,
        config.b,
        gamma_declared=config.gamma,
        x_max=config.xmax,
        n_modes=config.nodes,
    )


def _recipe_kovrijkine(config: ExperimentConfig, jobs: int) -> list[ReportRow]:
    def one(t: int) -> list[ReportRow]:
        rng = _trial_rng(config, t)
        if t == 0:
            lhs, rhs = kovrijkine_check(
                [2.5], (0.0, 1.0), IntervalSet.of([(0.0, 0.5)])
            )
            quantity = "constant"
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
            quantity = "polynomial"
        return [
            ReportRow(
                config.name,
                f"quantity={quantity} trial={t}",
                lhs,
                rhs,
                lhs <= rhs * (1 + 1e-12),
            )
        ]

    return _map_trials(one, config.trials, jobs)


_GOOD_BAD_PRODUCTS = (0.05, 0.1, 0.3)


def _recipe_good_bad(config: ExperimentConfig, jobs: int) -> list[ReportRow]:
    order = Order(config.alpha)
    xs = np.arange(1.0, 16.0)

    def one(t: int) -> list[ReportRow]:
        rng = _trial_rng(config, t)
        ab = _GOOD_BAD_PRODUCTS[t % len(_GOOD_BAD_PRODUCTS)]
        pw = random_pw(order, ab, 32, rng, kind="smooth")
        coeffs = dk_coefficients(pw, 8)
        bad, mass = good_bad_partition(pw, ab, xs, coeffs)
        frac = bad_mass_fraction(pw, xs, bad)
        goods = xs[~bad]
        witness = witness_point(pw, ab, goods, mass[~bad], coeffs)
        found = int(np.count_nonzero(np.isfinite(witness)))
        return [
            ReportRow(
                config.name,
                f"quantity=bad-mass trial={t} ab={ab}",
                frac,
                1.0 / 3.0 + 0.01,
                frac <= 1.0 / 3.0 + 0.01,
            ),
            ReportRow(
                config.name,
                f"quantity=witnesses trial={t} ab={ab}",
                float(found),
                float(len(goods)),
                found == len(goods),
            ),
        ]

    return _map_trials(one, config.trials, jobs)


_RECIPE_TABLE = {
    "bernstein": _recipe_bernstein,
    "plancherel": _recipe_plancherel,
    "translation": _recipe_translation,
    "extremal": _recipe_extremal,
    "pair-norm": _recipe_pair_norm,
    "ls-verify": _recipe_ls_verify,
    "kovrijkine": _recipe_kovrijkine,
    "good-bad": _recipe_good_bad,
}


def run(config: ExperimentConfig, jobs: int = 1) -> list[ReportRow]:
    """Dispatch to the named recipe and write <output_dir>/<name>.csv."""
    rows = _RECIPE_TABLE[config.recipe](config, jobs)
    write_report(config, rows)
    return rows


# --------------------------------------------------------------------------
# selftest


def _check_half_order():
    xs = np.linspace(0.0, 100.0, 4001)
    sinc = np.ones_like(xs)
    sinc[1:] = np.sin(xs[1:]) / xs[1:]
    err_s = np.max(np.abs(eval_j(Order(0.5), xs) - sinc))
    err_c = np.max(np.abs(eval_j(Order(-0.5), xs) - np.cos(xs)))
    if max(err_s, err_c) > 1e-10:
        raise InternalError(f"half-order forms off by {max(err_s, err_c):.3e}")


def _check_zero_table(inject: str | None):
    order = Order(0.7)
    table = zeros_of_j_prime(order, 128)
    zs = np.array(table.zeros)
    if inject == "zerotable":
        zs[10], zs[11] = zs[11], zs[10]
    ZeroTable(order=order, zeros=zs)


def _check_measure():
    from scipy.integrate import quad

    order = Order(0.8)
    dens = mu_density_constant(order)
    subset = IntervalSet.of([(0.3, 1.7), (2.0, 2.5)])
    ref = sum(
        quad(lambda x: dens * x ** (2 * order.alpha + 1), lo, hi)[0]
        for lo, hi in subset.intervals
    )
    got = mu_measure(order, subset)
    if abs(got - ref) > 1e-10 * ref:
        raise InternalError(f"mu closed form vs quad: {got} vs {ref}")


def _check_plancherel():
    rng = np.random.default_rng(DEFAULT_SEED)
    for alpha in (-0.5, 0.0, 1.0, 0.3):
        order = Order(alpha)
        grids = _plancherel_grids(order, 1.0)
        [(defect, roundtrip)] = _plancherel_batch(order, 1.0, [rng], grids)
        if defect > 1e-7 or roundtrip > 1e-8:
            raise InternalError(
                f"alpha={alpha}: isometry defect {defect:.3e}, "
                f"roundtrip {roundtrip:.3e}"
            )


_FROZEN_PAIR_NORM_UNIT = 0.9997619967469777


def _check_pair_norm():
    pair = ProjectionPair(
        order=Order(0.0),
        S=IntervalSet.of([(0.0, 1.0)]),
        Sigma=IntervalSet.of([(0.0, 1.0)]),
        x_max=1.0,
    )
    norm = pair_norm(pair)
    if abs(norm - _FROZEN_PAIR_NORM_UNIT) > 1e-5:
        raise InternalError(f"unit pair norm drifted: {norm!r}")


def _check_ls_pins():
    ab = math.log(2.0) / (160.0 * math.sqrt(3.0) * math.pi)
    pin = ls_bound(LSParams(gamma=1.0, a=1.0, b=ab, order=Order(0.0)))
    ref = (2.0 / 3.0) / 300.0**2
    if abs(pin - ref) > 1e-12 * ref:
        raise InternalError(f"exponent-2 pin off: {pin!r} vs {ref!r}")
    limit = ls_bound(LSParams(gamma=1.0, a=1.0, b=ab * 1e-9, order=Order(0.0)))
    if abs(limit - (2.0 / 3.0) / 300.0) > 1e-6:
        raise InternalError(f"exponent-1 limit off: {limit!r}")


def _check_ls_monotone():
    order = Order(0.0)
    full = IntervalSet.of([(0.0, 10.0)])
    evens = IntervalSet.of([(2 * k, 2 * k + 1) for k in range(5)])
    halves = IntervalSet.of([(2 * k, 2 * k + 0.5) for k in range(5)])
    r_full = ls_empirical_min_ratio(order, 1.0, full, 10.0, 64)
    r_even = ls_empirical_min_ratio(order, 1.0, evens, 10.0, 64)
    r_half = ls_empirical_min_ratio(order, 1.0, halves, 10.0, 64)
    r_none = ls_empirical_min_ratio(order, 1.0, IntervalSet.empty(), 10.0, 64)
    if not (r_none <= r_half <= r_even <= r_full):
        raise InternalError(
            f"concentration not monotone: {r_none} {r_half} {r_even} {r_full}"
        )
    if r_full < 1 - 1e-4:
        raise InternalError(f"full-window concentration {r_full!r} < 1 - 1e-4")
    if r_none > 1e-10:
        raise InternalError(f"empty-window concentration {r_none!r} > 1e-10")


def _recipe_check(recipe: str, trials: int, what: str):
    """A check that runs `trials` trials of a recipe, writing no report, and
    fails as "<what> failed: <params of the first failed row>"; `what` may
    hold {n}, the number of failed rows."""

    def check():
        cfg = ExperimentConfig(f"selftest-{recipe}", recipe=recipe, trials=trials)
        bad = [r for r in _RECIPE_TABLE[recipe](cfg, 1) if not r.passed]
        if bad:
            raise InternalError(f"{what.format(n=len(bad))} failed: {bad[0].params}")

    return check


def _check_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig(
            name="selftest-determinism",
            recipe="kovrijkine",
            trials=4,
            output_dir=tmp,
        )
        run(cfg, jobs=1)
        path = os.path.join(tmp, f"{cfg.name}.csv")
        with open(path, "rb") as fh:
            first = fh.read()
        run(cfg, jobs=2)
        with open(path, "rb") as fh:
            second = fh.read()
    if first != second:
        raise InternalError("report not byte-identical across reruns")


def selftest(inject_fault: str | None = None, echo=print) -> int:
    """Run the desk-scale invariant suite; exit code 0 iff everything passes.

    inject_fault="zerotable" deliberately corrupts a zero table to prove the
    interlacing validation trips; the suite must then report that failure.
    """
    if inject_fault not in (None, "zerotable"):
        raise UsageError(f"unknown fault {inject_fault!r}")
    checks = [
        ("half-order-forms", _check_half_order),
        ("zero-table", lambda: _check_zero_table(inject_fault)),
        ("measure-closed-forms", _check_measure),
        ("plancherel-roundtrip", _check_plancherel),
        ("translation-suite", _recipe_check("translation", 5, "{n} translation checks")),
        ("bernstein-suite", _recipe_check("bernstein", 20, "{n} Bernstein checks")),
        ("extremal-family", _recipe_check("extremal", 6, "extremal check")),
        ("pair-norm-frozen", _check_pair_norm),
        ("ls-bound-pins", _check_ls_pins),
        ("ls-concentration-monotone", _check_ls_monotone),
        ("good-bad-windows", _recipe_check("good-bad", 2, "good/bad check")),
        ("kovrijkine-doubling", _recipe_check("kovrijkine", 6, "doubling inequality")),
        ("report-determinism", _check_determinism),
    ]
    failures = 0
    for name, fn in checks:
        start = time.perf_counter()
        try:
            fn()
        except (InternalError, ConvergenceError) as exc:
            failures += 1
            echo(f"FAIL {name}: {exc} ({time.perf_counter() - start:.2f}s)")
        else:
            echo(f"PASS {name} ({time.perf_counter() - start:.2f}s)")
    if failures:
        echo(f"selftest: {failures} of {len(checks)} checks failed")
        return 1
    echo(f"selftest: all {len(checks)} checks passed")
    return 0
