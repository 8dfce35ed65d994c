"""Outside-in tracer: wraps hconc's public functions from the benchmark.

Each listed function is replaced by a timing wrapper in every `hconc.*`
namespace that holds it, because modules import with `from .bessel import
eval_j` and keep their own reference.  Spans are kept on one stack per
thread, because `hconc run --jobs N` runs trials on a thread pool; a span's
self time is its duration minus the durations of the spans it opened on the
same thread.  Work counts are computed from call arguments and results.

A listed function that a later version of the program no longer has is
recorded as absent and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
from time import perf_counter


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        return math.prod(shape)
    return len(value) if hasattr(value, "__len__") else 1


def _count_eval_j(work, args, kwargs, result):
    alpha = _arg(args, kwargs, 0, "order").alpha
    if alpha in (-0.5, 0.5):
        route = "elems_closed"
    elif alpha in (0.0, 1.0):
        route = "elems_integer"
    else:
        route = "elems_general"
    work[route] = work.get(route, 0) + _size(_arg(args, kwargs, 1, "x"))


def _count_windows(work, args, kwargs, result):
    a = _arg(args, kwargs, 2, "a")
    x_max = _arg(args, kwargs, 3, "x_max")
    step = kwargs.get("step", args[4] if len(args) > 4 else None) or a / 100.0
    windows = int(math.floor((x_max - a) / step + 1e-12)) + 1
    work["windows"] = work.get("windows", 0) + windows


def _count_rule_nodes(work, args, kwargs, result):
    work["nodes"] = work.get("nodes", 0) + len(result)


def _count_kernel_entries(work, args, kwargs, result):
    f = _arg(args, kwargs, 1, "f")
    entries = _size(_arg(args, kwargs, 2, "out_nodes")) * len(f.rule)
    work["kernel_entries"] = work.get("kernel_entries", 0) + entries


def _count_ys(work, args, kwargs, result):
    work["ys"] = work.get("ys", 0) + _size(_arg(args, kwargs, 3, "ys"))


def _synth_counter(x_index):
    def count(work, args, kwargs, result):
        pw = _arg(args, kwargs, 0, "pw")
        entries = _size(_arg(args, kwargs, x_index, "x")) * len(pw.spectral_rule)
        work["synth_entries"] = work.get("synth_entries", 0) + entries

    return count


def _count_rows(work, args, kwargs, result):
    work["rows"] = work.get("rows", 0) + len(result)


def _count_exit(work, args, kwargs, result):
    key = f"exit_{result}"
    work[key] = work.get(key, 0) + 1


# (module, attribute, span name, work counter).  An attribute "Class.method"
# wraps a method on the class.
TARGETS = (
    ("bessel", "eval_j", "bessel.eval_j", _count_eval_j),
    ("bessel", "zeros_of_j_prime", "bessel.zeros", None),
    ("measure", "density_profile", "measure.density_profile", _count_windows),
    ("measure", "mu_measure", "measure.mu_measure", None),
    ("measure", "IntervalSet.intersect_window", "measure.intersect_window", None),
    ("quadrature", "build_rule", "quadrature.build_rule", _count_rule_nodes),
    ("quadrature", "panel_rule", "quadrature.panel_rule", _count_rule_nodes),
    ("quadrature", "set_rule", "quadrature.set_rule", None),
    ("transform", "forward", "transform.forward", _count_kernel_entries),
    ("transform", "inverse", "transform.inverse", None),
    ("transform", "mu_weights", "transform.mu_weights", None),
    ("transform", "norm_l2", "transform.norm_l2", None),
    ("transform", "norm_lp", "transform.norm_lp", None),
    ("translation", "make_plan", "translation.make_plan", None),
    ("translation", "translate_batch", "translation.translate_batch", _count_ys),
    ("translation", "translate", "translation.translate", None),
    ("paley_wiener", "random_pw", "paley_wiener.random_pw", None),
    ("paley_wiener", "synthesize", "paley_wiener.synthesize", _synth_counter(1)),
    ("paley_wiener", "apply_Dk", "paley_wiener.apply_Dk", _synth_counter(2)),
    ("paley_wiener", "dk_norm", "paley_wiener.dk_norm", None),
    ("paley_wiener", "plancherel_norm", "paley_wiener.plancherel_norm", None),
    ("annihilation", "pair_norm", "annihilation.pair_norm", None),
    ("annihilation", "ls_empirical_min_ratio", "annihilation.ls_empirical_min_ratio", None),
    ("annihilation", "concentration_matrix", "annihilation.concentration_matrix", None),
    ("annihilation", "good_bad_partition", "annihilation.good_bad_partition", None),
    ("annihilation", "bad_mass_fraction", "annihilation.bad_mass_fraction", None),
    ("annihilation", "witness_point", "annihilation.witness_point", None),
    ("_eigs", "sigma_max_factor", "eigs.sigma_max_factor", None),
    ("_eigs", "lambda_min_psd", "eigs.lambda_min_psd", None),
    ("experiments", "run", "experiments.run", _count_rows),
    ("cli", "main", "cli.main", _count_exit),
)


class SpanStats:
    __slots__ = ("calls", "failed", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.self_s = 0.0
        self.work = {}


class Tracer:
    """Installs the wrappers, collects per-thread span statistics, and puts
    the original functions back on `uninstall`."""

    def __init__(self):
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local.stack, local.table

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = tracer._state()
            frame = [0.0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats = table.get(name)
                if stats is None:
                    stats = table[name] = SpanStats()
                stats.calls += 1
                stats.self_s += duration - frame[0]
                if not ok:
                    stats.failed += 1
                elif counter is not None:
                    try:
                        counter(stats.work, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # the call signature changed; report, never crash
                        tracer.uncounted.add(name)

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            try:
                module = importlib.import_module(f"hconc.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            if owner_name:
                self._replace(owner, method, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hconc" or mod_name.startswith("hconc.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def stats(self) -> dict[str, SpanStats]:
        """Span statistics merged over threads, keyed by span name."""
        merged: dict[str, SpanStats] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, s in table.items():
                m = merged.setdefault(name, SpanStats())
                m.calls += s.calls
                m.failed += s.failed
                m.self_s += s.self_s
                for key, value in s.work.items():
                    m.work[key] = m.work.get(key, 0) + value
        return merged


# Per-layer metrics of a traced run, in the order they are reported.
PER_LAYER = (
    ("bessel.eval_j.calls", "count"),
    ("bessel.eval_j.elems_closed", "count"),
    ("bessel.eval_j.elems_integer", "count"),
    ("bessel.eval_j.elems_general", "count"),
    ("bessel.eval_j.self_s", "s"),
    ("bessel.eval_j.ns_per_elem", "ns"),
    ("bessel.zeros.calls", "count"),
    ("bessel.zeros.self_s", "s"),
    ("bessel.zero_cache.hit_ratio", "ratio"),
    ("measure.density_profile.calls", "count"),
    ("measure.density_profile.windows", "count"),
    ("measure.density_profile.self_s", "s"),
    ("measure.mu_measure.calls", "count"),
    ("measure.mu_measure.self_s", "s"),
    ("measure.intersect_window.calls", "count"),
    ("quadrature.rules.calls", "count"),
    ("quadrature.nodes", "count"),
    ("quadrature.self_s", "s"),
    ("transform.apply.calls", "count"),
    ("transform.kernel_entries", "count"),
    ("transform.self_s", "s"),
    ("translation.translate_batch.calls", "count"),
    ("translation.ys", "count"),
    ("translation.self_s", "s"),
    ("paley_wiener.apply_Dk.calls", "count"),
    ("paley_wiener.synthesize.calls", "count"),
    ("paley_wiener.synth_entries", "count"),
    ("paley_wiener.self_s", "s"),
    ("annihilation.pair_norm.calls", "count"),
    ("annihilation.pair_norm.failed", "count"),
    ("annihilation.pair_norm.self_s", "s"),
    ("annihilation.ls_empirical_min_ratio.self_s", "s"),
    ("annihilation.concentration_matrix.self_s", "s"),
    ("annihilation.good_bad_partition.calls", "count"),
    ("annihilation.good_bad_partition.self_s", "s"),
    ("annihilation.bad_mass_fraction.self_s", "s"),
    ("annihilation.witness_point.calls", "count"),
    ("annihilation.witness_point.failed", "count"),
    ("annihilation.witness_point.self_s", "s"),
    ("eigs.sigma_max_factor.calls", "count"),
    ("eigs.sigma_max_factor.failed", "count"),
    ("eigs.sigma_max_factor.self_s", "s"),
    ("eigs.lambda_min_psd.calls", "count"),
    ("eigs.lambda_min_psd.self_s", "s"),
    ("experiments.run.calls", "count"),
    ("experiments.run.self_s", "s"),
    ("experiments.rows", "count"),
    ("cli.main.self_s", "s"),
    ("cli.exit_1", "count"),
    ("cli.exit_2", "count"),
    ("cli.exit_3", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metrics(
    stats: dict[str, SpanStats], zero_cache: tuple[int, int], overhead_ratio: float
) -> dict[str, dict]:
    """The PER_LAYER metrics from merged span statistics, the zero-table
    cache's (hits, misses) over the traced phase, and the tracing overhead."""
    raw: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for name, s in stats.items():
        raw[f"{name}.calls"] = s.calls
        raw[f"{name}.failed"] = s.failed
        raw[f"{name}.self_s"] = s.self_s
        for key, value in s.work.items():
            raw[f"{name}.{key}"] = value
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s.self_s
    for layer, self_s in layer_self.items():
        raw[f"{layer}.self_s"] = self_s

    def get(key):
        return raw.get(key, 0)

    elems = sum(get(f"bessel.eval_j.elems_{r}") for r in ("closed", "integer", "general"))
    hits, misses = zero_cache
    raw.update(
        {
            "bessel.eval_j.ns_per_elem": 1e9 * get("bessel.eval_j.self_s") / elems
            if elems
            else 0.0,
            "bessel.zero_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "quadrature.rules.calls": get("quadrature.build_rule.calls")
            + get("quadrature.panel_rule.calls"),
            "quadrature.nodes": get("quadrature.build_rule.nodes")
            + get("quadrature.panel_rule.nodes"),
            "transform.apply.calls": get("transform.forward.calls"),
            "transform.kernel_entries": get("transform.forward.kernel_entries"),
            "translation.ys": get("translation.translate_batch.ys"),
            "paley_wiener.synth_entries": get("paley_wiener.synthesize.synth_entries")
            + get("paley_wiener.apply_Dk.synth_entries"),
            "experiments.rows": get("experiments.run.rows"),
            "cli.exit_1": get("cli.main.exit_1"),
            "cli.exit_2": get("cli.main.exit_2"),
            "cli.exit_3": get("cli.main.exit_3"),
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return {name: {"value": get(name), "unit": unit} for name, unit in PER_LAYER}
