"""Command-line entry point.

Subcommands mirror the library modules; `transform` needs no direction,
since the Hankel transform is its own inverse; `run` executes a
config-driven experiment recipe, in one thread, and `selftest` runs the
desk-scale suite of recipes.
Exit codes: 0 success, 1 failed check, 2 usage or domain error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .annihilation import LSParams, ProjectionPair, ls_bound, ls_bound_log10
from .annihilation import ls_empirical_min_ratio, pair_norm
from .bessel import Order, eval_j, zeros_of_j_prime
from .errors import ConvergenceError, DomainError, InternalError, UsageError
from .experiments import _fmt, _row, ls_verify_rows, parse_config, run, selftest
from .measure import IntervalSet, density_profile_rows, load_interval_set
from .paley_wiener import bernstein_sides, extremal_family, random_pw
from .quadrature import _PANEL, mu_panels
from .transform import kernel_apply
from .translation import translate_batch


def _read_xy(path: str):
    """Two-column CSV; a non-numeric first row is treated as a header."""
    xs, vs = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            for i, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise UsageError(f"{path}:{i}: expected two columns")
                try:
                    xs.append(float(parts[0]))
                    vs.append(float(parts[1]))
                except ValueError:
                    if xs:
                        raise UsageError(f"{path}:{i}: bad number") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not xs:
        raise UsageError(f"{path}: no data rows")
    order = np.argsort(xs)
    return np.asarray(xs)[order], np.asarray(vs)[order]


def _parse_triple(text: str, what: str):
    try:
        lo, hi, n = text.split(",")
        lo, hi, n = float(lo), float(hi), int(n)
        if n >= 1 and np.isfinite([lo, hi]).all():
            return lo, hi, n
    except ValueError:
        pass
    raise UsageError(
        f"{what} must be lo,hi,n with finite lo, hi and n >= 1, got {text!r}"
    )


def _parse_pair(text: str, what: str):
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be lo,hi, got {text!r}") from None
    return lo, hi


# --------------------------------------------------------------------------
# handlers


def _cmd_bessel_eval(args) -> int:
    order = Order(args.alpha)
    try:
        xs = [float(p) for p in args.x.split(",")]
    except ValueError:
        raise UsageError(f"--x must be numbers, got {args.x!r}") from None
    for x in xs:
        print(_fmt(eval_j(order, x)))
    return 0


def _cmd_bessel_zeros(args) -> int:
    table = zeros_of_j_prime(Order(args.alpha), args.count)
    for z in table.zeros:
        print(_fmt(z))
    return 0


def _cmd_measure_density(args) -> int:
    subset = load_interval_set(args.set)
    xs, ratios = density_profile_rows(
        Order(args.alpha), subset, args.a, args.xmax, args.step
    )
    print("x,ratio")
    for x, ratio in zip(xs, ratios):
        print(f"{_fmt(x)},{_fmt(ratio)}")
    k = int(np.argmin(ratios))
    print("gamma_min,argmin")
    print(f"{_fmt(ratios[k])},{_fmt(xs[k])}")
    return 0


def _cmd_transform(args) -> int:
    order = Order(args.alpha)
    lo, hi = _parse_pair(args.support, "--support")
    IntervalSet.of([(lo, hi)])  # DomainError unless 0 <= lo < hi, both finite
    if not (2 <= args.nodes <= 10**5):
        raise DomainError(f"node count must be in [2, 1e5], got {args.nodes}")
    xs, vs = _read_xy(args.infile)
    # the transform is its own inverse, so one kernel sum serves both ways;
    # equal panels as mu_rule cuts them, ceil(nodes / _PANEL) of them
    edges = np.linspace(lo, hi, -(-args.nodes // _PANEL) + 1)
    nodes, weights = (a.ravel() for a in mu_panels(order, edges[:-1], edges[1:]))
    values = np.interp(nodes, xs, vs, left=0.0, right=0.0)
    out_vals = kernel_apply(order, nodes, nodes, weights * values)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,value\n")
        for x, v in zip(nodes, out_vals):
            fh.write(f"{_fmt(x)},{_fmt(v)}\n")
    return 0


def _cmd_translate(args) -> int:
    order = Order(args.alpha)
    lo, hi, n = _parse_triple(args.y_grid, "--y-grid")
    xs, vs = _read_xy(args.f)
    f = lambda t: np.interp(t, xs, vs, left=0.0, right=0.0)
    ys = np.linspace(lo, hi, n)
    # sampled input is interpolated, so refinement cannot converge past the
    # sampling error; a fixed generous rule is the honest evaluation
    vals = translate_batch(order, args.x, f, ys, theta_nodes=1024)
    print("y,value")
    for y, v in zip(ys, vals):
        print(f"{_fmt(y)},{_fmt(v)}")
    return 0


def _cmd_pw_bernstein(args) -> int:
    if args.trials < 0:
        raise UsageError("trials must be nonnegative")
    order = Order(args.alpha)
    print("trial,lhs,rhs,ratio")
    ok = True
    for t in range(args.trials):
        rng = np.random.default_rng((args.seed, t))
        pw = random_pw(order, args.b, 48, rng)
        lhs, rhs = bernstein_sides(pw, args.k)
        ratio = lhs / rhs if rhs > 0 else float("inf")
        ok &= _row("bernstein", lhs, rhs, trial=t, k=args.k).passed
        print(f"{t},{_fmt(lhs)},{_fmt(rhs)},{_fmt(ratio)}")
    return 0 if ok else 1


def _cmd_pw_extremal(args) -> int:
    order = Order(args.alpha)
    lo, hi, m = _parse_triple(args.x_grid, "--x-grid")
    xs = np.linspace(lo, hi, m)
    vals = extremal_family(order, args.n, xs)
    print("x,value")
    for x, v in zip(xs, vals):
        print(f"{_fmt(x)},{_fmt(v)}")
    return 0


def _cmd_pair_norm(args) -> int:
    pair = ProjectionPair(
        order=Order(args.alpha),
        S=load_interval_set(args.s),
        Sigma=load_interval_set(args.sigma),
        x_max=args.xmax,
    )
    print(_fmt(pair_norm(pair)))
    return 0


def _cmd_ls_bound(args) -> int:
    params = LSParams(gamma=args.gamma, a=args.a, b=args.b, order=Order(args.alpha))
    print(_fmt(ls_bound(params)))
    print(f"log10 = {_fmt(ls_bound_log10(params))}")
    return 0


def _cmd_ls_empirical(args) -> int:
    omega = load_interval_set(args.omega)
    value = ls_empirical_min_ratio(Order(args.alpha), args.b, omega, args.xmax)
    print(_fmt(value))
    return 0


def _cmd_ls_verify(args) -> int:
    omega = load_interval_set(args.omega)
    order = Order(args.alpha)
    rows = ls_verify_rows(order, omega, args.a, args.b, args.gamma, args.xmax)
    for r in rows:
        print(f"{r.params}: value={_fmt(r.value)} reference={_fmt(r.reference)}")
    failed = [r for r in rows if not r.passed]
    if failed:
        first = failed[0].params
        print(f"FAIL: {len(failed)} of {len(rows)} rows failed, first {first}")
        return 1
    print("PASS: empirical min ratio vs explicit bound")
    return 0


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    rows = run(config)
    failed = sum(1 for r in rows if not r.passed)
    print(
        f"{config.name}: {len(rows) - failed} of {len(rows)} rows passed; "
        f"report at {config.output_dir}/{config.name}.csv"
    )
    return 0 if failed == 0 else 1


def _cmd_selftest(args) -> int:
    return selftest()


# --------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every `main`
    call.  Each subcommand stores its handler, which looks up the functions it
    calls among this module's globals when it runs."""
    parser = argparse.ArgumentParser(
        prog="hconc",
        description="Hankel-transform concentration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bessel = sub.add_parser("bessel", help="normalized Bessel kernel")
    bsub = p_bessel.add_subparsers(dest="subcommand", required=True)
    p = bsub.add_parser("eval", help="evaluate j_alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", required=True, help="point or comma-separated points")
    p.set_defaults(func=_cmd_bessel_eval)
    p = bsub.add_parser("zeros", help="positive zeros of j_alpha'")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_bessel_zeros)

    p_measure = sub.add_parser("measure", help="weighted measures and density")
    msub = p_measure.add_subparsers(dest="subcommand", required=True)
    p = msub.add_parser("density", help="windowed density profile")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--set", required=True, help="interval-set file")
    p.add_argument("--a", type=float, required=True, help="window half-width")
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(func=_cmd_measure_density)

    p = sub.add_parser("transform", help="self-inverse Hankel transform of samples")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--in", dest="infile", required=True, help="CSV x,value")
    p.add_argument("--support", required=True, help="lo,hi")
    p.add_argument(
        "--nodes",
        type=int,
        default=256,
        help="quadrature nodes on the support, 2 to 1e5, rounded up to whole "
        "16-node panels",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("translate", help="generalized translation")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--f", required=True, help="CSV x,value samples")
    p.add_argument("--y-grid", required=True, help="lo,hi,n")
    p.set_defaults(func=_cmd_translate)

    p_pw = sub.add_parser("pw", help="band-limited model functions")
    psub = p_pw.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("bernstein", help="derivative-norm inequality trials")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    p.set_defaults(func=_cmd_pw_bernstein)
    p = psub.add_parser("extremal", help="peaked family member values")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x-grid", required=True, help="lo,hi,m")
    p.set_defaults(func=_cmd_pw_extremal)

    p_pair = sub.add_parser("pair", help="space/frequency projection pairs")
    prsub = p_pair.add_subparsers(dest="subcommand", required=True)
    p = prsub.add_parser("norm", help="operator norm of the compression")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--s", required=True, help="spatial interval-set file")
    p.add_argument("--sigma", required=True, help="spectral interval-set file")
    p.add_argument("--xmax", type=float, required=True)
    p.set_defaults(func=_cmd_pair_norm)

    p_ls = sub.add_parser("ls", help="concentration bound machinery")
    lsub = p_ls.add_subparsers(dest="subcommand", required=True)
    p = lsub.add_parser("bound", help="explicit concentration constant")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_ls_bound)
    p = lsub.add_parser("empirical", help="minimum concentration ratio")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--omega", required=True, help="interval-set file")
    p.add_argument("--xmax", type=float, required=True)
    p.set_defaults(func=_cmd_ls_empirical)
    p = lsub.add_parser("verify", help="check empirical ratio > explicit bound")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--omega", required=True, help="interval-set file")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--xmax", type=float, default=0.0)
    p.set_defaults(func=_cmd_ls_verify)

    p = sub.add_parser("run", help="run a config-driven experiment recipe")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("selftest", help="desk-scale suite of recipes")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
