"""Span tracer for the quadherald layers.

The package's modules import each other's functions by name
(``from .stats import mandel_q``), so a call from ``solvers`` goes
through the ``solvers.mandel_q`` binding, not through ``stats``.  The
tracer therefore wraps every public function at every module attribute
bound to it, and restores the originals when it is removed.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the benchmark operation it
belongs to.  Spans stay in memory until :meth:`Tracer.write`.  A span's
self time is its duration minus the durations of its direct children;
calls are strictly nested (one thread), so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

LAYERS = ("special", "stats", "phase_space", "solvers", "sweeps", "oracles", "cli")


class Group(NamedTuple):
    """A per-layer metric group: the functions it covers and what it counts."""

    functions: tuple
    fields: tuple                  # reported as metrics "<group>.<field>"
    counter: Callable | None       # (args, kwargs, result) -> {count: value}
    moves: str                     # the end-to-end metric it should move


def _count(field: str, measure: Callable) -> Callable:
    return lambda args, kwargs, result: {field: measure(args, result)}


GROUPS = {
    "special.psi": Group(
        ("oscillator_eigenfunctions",), ("calls", "self_ms", "elems"),
        _count("elems", lambda a, r: int(np.size(r))),          # orders x points
        "strong-squeezing latency_p50_ms and ops_per_s"),
    "stats.q_ideal": Group(
        ("fock_acceptance_probabilities",), ("calls", "self_ms", "orders"),
        _count("orders", lambda a, r: len(r)),
        "strong-squeezing ops_per_s and latency_p90_ms"),
    "stats.q_imperfect": Group(
        ("fock_acceptance_probabilities_imperfect",), ("calls", "self_ms", "orders"),
        _count("orders", lambda a, r: len(r)),
        "strong-squeezing ops_per_s and latency_p90_ms (the imperfect path "
        "dominates the tail)"),
    "stats.photon_distribution": Group(
        ("photon_distribution",), ("calls", "self_ms"), None,
        "strong-squeezing ops_per_s"),
    "stats.closed_form": Group(
        ("acceptance_probability_imperfect", "mean_photon_number",
         "second_factorial_moment", "mandel_q"), ("calls", "self_ms", "us_per_call"), None,
        "cli-sweeps latency_p50_ms on the sweep and figure ops"),
    "phase_space.husimi": Group(
        ("husimi",), ("calls", "self_ms", "terms"),
        _count("terms", lambda a, r: len(a[0]) * int(np.size(r))),   # N x radii
        "strong-squeezing latency_p50_ms"),
    "phase_space.wigner": Group(
        ("wigner",), ("calls", "self_ms", "terms"),
        _count("terms", lambda a, r: len(a[0]) * int(np.size(r))),
        "strong-squeezing latency_p50_ms"),
    "solvers.solve_threshold": Group(
        ("solve_threshold_for_mandel_q",), ("calls", "self_ms", "iterations"),
        _count("iterations", lambda a, r: r.iterations),
        "cli-sweeps on the fig3, fig6 and solve ops"),
    "solvers.optimal_squeezing": Group(
        ("optimal_squeezing_for_mandel_q",), ("calls", "self_ms", "iterations"),
        _count("iterations", lambda a, r: r.iterations),
        "cli-sweeps on the solve optimal-lambda op"),
    "sweeps.run_sweep": Group(
        ("run_sweep",), ("self_ms", "points"), _count("points", lambda a, r: len(r[2])),
        "cli-sweeps ops_per_s"),
    "sweeps.build_figure": Group(
        ("build_figure",), ("self_ms", "rows"), _count("rows", lambda a, r: len(r[2])),
        "cli-sweeps ops_per_s"),
    "sweeps.format": Group(
        ("format_csv", "format_json"), ("self_ms", "bytes"),
        _count("bytes", lambda a, r: len(r.encode())),
        "cli-sweeps ops_per_s"),
    "oracles.mc": Group(
        ("monte_carlo_experiment",),
        ("calls", "self_ms", "shots", "s_per_1e6_shots", "accept_ratio"),
        lambda args, kwargs, r: {"shots": r.shots, "accepted": r.accepted},
        "montecarlo ops_per_s and latency_p50_ms"),
    "cli.main": Group(("main",), ("self_ms",), None, "cli-sweeps latency_p50_ms"),
}
_GROUP_OF = {fn: name for name, group in GROUPS.items() for fn in group.functions}


class Tracer:
    """Records spans and per-group counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self._stack = [-1]
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1], self.op)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body, e.g. around a benchmark op."""
        idx = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(idx, name, start)

    def _wrap(self, func, name: str, group: str | None):
        counter = GROUPS[group].counter if group else None
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer._enter()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(idx, name, start)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[group][key] += value
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public layer function at every binding of it."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for mod in modules[1:]:
            names = list(getattr(mod, "__all__", ()))
            if mod.__name__.endswith(".cli"):
                names.append("main")
            for attr in names:
                func = getattr(mod, attr)
                if inspect.isfunction(func) and func.__module__ == mod.__name__:
                    layer = mod.__name__.rsplit(".", 1)[1]
                    wrappers[func] = self._wrap(func, f"{layer}.{attr}",
                                                _GROUP_OF.get(attr))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: [self seconds, inclusive seconds, span count]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += end - start - child[i]
            totals[name][1] += end - start
            totals[name][2] += 1
        return totals

    def group_metrics(self) -> dict:
        """Per group: calls, self_ms, incl_ms, the group's counts and ratios."""
        out = {group: {"calls": 0, "self_ms": 0.0, "incl_ms": 0.0,
                       **self.counts[group]} for group in GROUPS}
        for name, (self_s, incl_s, calls) in self.totals().items():
            group = _GROUP_OF.get(name.rsplit(".", 1)[-1])
            if group is not None:
                out[group]["calls"] += calls
                out[group]["self_ms"] += 1e3 * self_s
                out[group]["incl_ms"] += 1e3 * incl_s
        # a ratio over zero calls (a layer the workload does not run) reads 0
        cf, mc = out["stats.closed_form"], out["oracles.mc"]
        cf["us_per_call"] = 1e3 * cf["self_ms"] / cf["calls"] if cf["calls"] else 0.0
        shots = mc.get("shots", 0)
        mc["s_per_1e6_shots"] = 1e3 * mc["incl_ms"] / shots if shots else 0.0
        mc["accept_ratio"] = mc.get("accepted", 0) / shots if shots else 0.0
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics, "<group>.<field>" -> value."""
        groups = self.group_metrics()
        return {f"{name}.{field}": groups[name].get(field, 0)
                for name, group in GROUPS.items() for field in group.fields}

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
