"""Span tracing of the ``resonances`` layers from outside the package.

``Tracer.install`` wraps every public function of each layer module, under
every ``resonances.*`` namespace that binds it (the modules import names
from each other directly, so wrapping only the defining module would miss
calls). It also counts ``numpy.linalg.inv``/``svd`` calls and matrices and
times ``numpy.einsum``. Spans live in memory; ``layer_metrics`` reduces
them to per-layer self times and counts, and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "model", "contour", "transfer", "solver", "spectral", "friedrichs")

# Self time of each span lands in exactly one bucket, so the buckets sum to
# the traced op time. Functions not named here land in their layer's default.
BUCKETS = {
    "cli.load_config": "cli.load_s",
    "model.model_from_json_dict": "cli.load_s",
    "model.model_loads": "cli.load_s",
    "solver.self_energy_of_operator": "solver.F_s",
    "solver.adjoint_self_energy_of_operator": "solver.F_s",
    "contour.solvability_certificate": "contour.certificate_s",
    "contour.variation": "contour.certificate_s",
    "contour.separation_distance": "contour.certificate_s",
    "spectral.eigen_decompose": "spectral.decompose_s",
    "spectral.spectral_decomposition_of": "spectral.decompose_s",
    "spectral.overlap_operator": "spectral.overlap_s",
    "spectral.contour_moment": "spectral.moment_s",
    "spectral.enclosure_circles": "spectral.moment_s",
    "spectral.transfer_residue": "spectral.residue_s",
    "spectral.residue_at": "spectral.residue_s",
    "spectral.verify_projection_equations": "spectral.projection_eq_s",
    "spectral.self_energy_derivative": "spectral.projection_eq_s",
    "spectral.factorize": "spectral.factorize_s",
    "spectral.left_factor_inverse_bound": "spectral.factorize_s",
    "spectral.riesz_gram": "spectral.gram_s",
}
DEFAULT_BUCKET = {
    "cli": "cli.self_s",
    "model": "model.validate_s",
    "contour": "contour.build_s",
    "transfer": "transfer.s",
    "solver": "solver.solve_s",
    "spectral": "spectral.other_s",
    "friedrichs": "friedrichs.oracle_s",
    "numpy": "numpy.einsum_s",
}
TIME_METRICS = tuple(dict.fromkeys([*DEFAULT_BUCKET.values(), *BUCKETS.values()]))

# Leaf helpers: counted, but given no span, so their time stays with the caller.
COUNTED_ONLY = {"model.spectral_norm": "model.spectral_norm_calls"}
# A memo helper: the work of a cache miss belongs to the layer that asked.
NOT_WRAPPED = {"contour.keyed_cache"}

# Span name -> function of the call's result giving the span's work count.
_WORK = {
    "contour.build_contour": lambda r: int(r.nodes.size),
    "solver.solve_fixed_point": lambda r: int(r.iterations),
    "transfer.transfer_many": len,          # one (n, n) matrix per point
    "transfer.self_energy_many": len,
    "transfer.transfer": lambda r: 1,
    "transfer.self_energy": lambda r: 1,
}

COUNT_METRICS = (
    "solver.F_evals", "solver.iterations", "solver.solves",
    "contour.builds", "contour.nodes", "contour.certificate_calls",
    "contour.certificate_builds", "transfer.points", "spectral.decompose_calls",
    "spectral.moment_points", "model.spectral_norm_calls",
    "numpy.inv_calls", "numpy.inv_matrices", "numpy.svd_calls",
)


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric == "transfer.s":
        return "s"
    return {"cli.artifact_bytes": "bytes", "trace.overhead_ratio": "ratio"}.get(metric, "count")


def _matrices(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    """Records spans ``(name, start, end, parent, op, work)`` in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None          # spans and counts are recorded only inside an op
        self._stack: list = []
        self._restore: list = []

    def _span(self, name: str, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.op, 0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span[5] = work(result)
                return result
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
        return wrapper

    def _counter(self, key, fn, matrices=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[key] += 1
                if matrices is not None:
                    self.counts[matrices] += _matrices(args[0])
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layers and numpy kernels; ``uninstall`` undoes it."""
        package = importlib.import_module("resonances")
        modules = {layer: importlib.import_module(f"resonances.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNTED_ONLY:
                    wrapped[obj] = self._counter(COUNTED_ONLY[name], obj)
                elif name not in NOT_WRAPPED:
                    wrapped[obj] = self._span(name, obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        self._patch(np.linalg, "inv", self._counter("numpy.inv_calls", np.linalg.inv,
                                                    "numpy.inv_matrices"))
        svd = self._counter("numpy.svd_calls", np.linalg.svd)
        self._patch(np.linalg, "svd", svd)
        # np.linalg.norm(a, 2) reaches svd through numpy's private module.
        private = getattr(np.linalg, "_linalg", None)
        if private is not None and hasattr(private, "svd"):
            self._patch(private, "svd", svd)
        self._patch(np, "einsum", self._span("numpy.einsum", np.einsum))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path: str):
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\twork\n")
            for i, (name, start, end, parent, op, work) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\t{work}\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover.

    Calls are nested and serial, so children never overlap and the covered
    time is the sum of the children's durations.
    """
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def _bucket(name: str) -> str:
    return BUCKETS.get(name) or DEFAULT_BUCKET[name.split(".", 1)[0]]


def _has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list, counters: Counter, ops: int) -> dict:
    """Per-op self time per bucket (seconds) and per-op work counts.

    ``spans`` and ``counters`` are a ``Tracer``'s records over ``ops`` ops.
    """
    times = defaultdict(float)
    for span, self_time in zip(spans, self_times(spans)):
        times[_bucket(span[0])] += self_time
    calls = Counter(span[0] for span in spans)
    work = defaultdict(int)
    for i, (name, _, _, parent, _, amount) in enumerate(spans):
        # count transfer points once, at the outermost transfer call
        if name.startswith("transfer.") and (parent is None or not spans[parent][0].startswith("transfer.")):
            work["transfer.points"] += amount
            if _has_ancestor(spans, i, "spectral.contour_moment"):
                work["spectral.moment_points"] += amount
        elif name in ("contour.build_contour", "solver.solve_fixed_point"):
            work[name] += amount
    counts = {
        "solver.F_evals": calls["solver.self_energy_of_operator"]
        + calls["solver.adjoint_self_energy_of_operator"],
        "solver.iterations": work["solver.solve_fixed_point"],
        "solver.solves": calls["solver.solve_fixed_point"],
        "contour.builds": calls["contour.build_contour"],
        "contour.nodes": work["contour.build_contour"],
        "contour.certificate_calls": calls["contour.solvability_certificate"],
        "contour.certificate_builds": calls["contour.variation"],
        "transfer.points": work["transfer.points"],
        "spectral.decompose_calls": calls["spectral.eigen_decompose"],
        "spectral.moment_points": work["spectral.moment_points"],
    }
    for key in ("model.spectral_norm_calls", "numpy.inv_calls", "numpy.inv_matrices",
                "numpy.svd_calls"):
        counts[key] = counters[key]
    out = {key: times[key] / ops for key in TIME_METRICS}
    out.update({key: counts[key] / ops for key in COUNT_METRICS})
    return out
