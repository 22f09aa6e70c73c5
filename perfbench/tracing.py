"""Per-layer spans for the traced benchmark run.

The tracer wraps public (and a few private) functions of ``holecert`` at the
module attribute their caller looks up, so the library itself is unchanged.
Only ``run.py --trace 1`` imports this module; untraced runs load no
wrappers.

A span's self time is its duration minus the time covered by the spans it
encloses.  Every metric is reported per workload pass (totals divided by the
number of passes), so the self times plus the uncovered remainder add up to
the mean traced pass; ``trace.wall_s`` is the fastest one.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _matrix_built(tracer, args, matrix):
    tracer.counts["ulam.bins_assembled"] += matrix.n_bins
    tracer.counts["ulam.nnz"] += matrix.matrix.nnz


def _density_iterations(tracer, args, result):
    tracer.counts["spectral.density_iters"] += result[3]


def _escape_iterations(tracer, args, result):
    tracer.counts["escape.power_iters"] += result[3]


def _bytes_read(tracer, args, result):
    # computed from the file size, not measured at the device
    tracer.counts["cache.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(tracer, args, result):
    tracer.counts["cache.bytes_written"] += os.path.getsize(args[1])


def _certification(tracer, args, report):
    iterations = report.iterations
    tracer.counts["certify.iterations"] += len(iterations)
    tracer.counts["certify.bootstrap_iterations"] += sum(
        1 for it in iterations if it.used_bootstrap)


def _cache_created(tracer, args, result):
    tracer.caches.append(args[0])


#: (module, attribute looked up there, span name or None, hook).  A None span
#: only runs the hook, so the callee's time stays with its caller's span.
TARGETS = (
    ("holecert.cli", "main", "cli", None),
    ("holecert.cli", "load_map", "maps.load", None),
    ("holecert.cli", "run_certification", "certify", _certification),
    ("holecert.certify", "refine_with_bootstrap", "certify", None),
    ("holecert.certify", "h_star", "spectral.h_star", None),
    ("holecert.certify", "kl_constants", "kl.chain", None),
    ("holecert.certify", "ly_constants", "kl.chain", None),
    ("holecert.cache", "PipelineCache.__init__", None, _cache_created),
    ("holecert.cache", "PipelineCache.closed_matrix", "cache.lookup", None),
    ("holecert.cache", "PipelineCache.open_matrix", "cache.lookup", None),
    ("holecert.cache", "PipelineCache.spectral", "cache.lookup", None),
    ("holecert.cache", "PipelineCache.spectral_record", "cache.record_io", None),
    ("holecert.cache", "load_matrix", "cache.matrix_load", _bytes_read),
    ("holecert.cache", "save_matrix", "cache.matrix_save", _bytes_written),
    ("holecert.cache", "_load_record", None, _bytes_read),
    ("holecert.cache", "_save_record", None, _bytes_written),
    ("holecert.cache", "build_closed", "ulam.build_closed", _matrix_built),
    ("holecert.cache", "build_open", "ulam.build_open", None),
    ("holecert.cache", "compute_record", "spectral.record", None),
    ("holecert.cache", "record_to_data", "spectral.to_data", None),
    ("holecert.ulam", "build_closed", "ulam.build_closed", _matrix_built),
    ("holecert.spectral", "dominant_left_eigenpair", "spectral.density", _density_iterations),
    ("holecert.spectral", "_dense_eigenvalues", "spectral.eig", None),
    ("holecert.spectral", "_iterative_eigenvalues", "spectral.eig", None),
    ("holecert.spectral", "_q_power_norms", "spectral.q_norms", None),
    ("holecert.escape", "asymptotic_ratio", "escape.ratio", None),
    ("holecert.escape", "estimate_escape", "escape.estimate", None),
    ("holecert.escape", "classify_point", "escape.classify", None),
    ("holecert.escape", "build_closed", "ulam.build_closed", _matrix_built),
    ("holecert.escape", "build_open", "ulam.build_open", None),
    ("holecert.escape", "dominant_left_eigenpair", None, _escape_iterations),
)

#: per-layer metric -> (unit, better); the order is the output order
LAYER_METRICS = {
    "maps.load_s": ("s", "lower"),
    "ulam.build_closed_s": ("s", "lower"),
    "ulam.build_closed_calls": ("count", "lower"),
    "ulam.bins_assembled": ("count", "lower"),
    "ulam.nnz": ("count", "lower"),
    "ulam.build_open_s": ("s", "lower"),
    "ulam.build_open_calls": ("count", "lower"),
    "spectral.record_s": ("s", "lower"),
    "spectral.record_calls": ("count", "lower"),
    "spectral.eig_s": ("s", "lower"),
    "spectral.q_norms_s": ("s", "lower"),
    "spectral.density_s": ("s", "lower"),
    "spectral.density_iters": ("count", "lower"),
    "spectral.to_data_s": ("s", "lower"),
    "spectral.h_star_s": ("s", "lower"),
    "spectral.h_star_calls": ("count", "lower"),
    "kl.chain_s": ("s", "lower"),
    "kl.chain_calls": ("count", "lower"),
    "certify.self_s": ("s", "lower"),
    "certify.iterations": ("count", "lower"),
    "certify.analyzed_meshes": ("count", "lower"),
    "certify.bootstrap_share": ("ratio", "higher"),
    "escape.ratio_s": ("s", "lower"),
    "escape.estimate_s": ("s", "lower"),
    "escape.estimate_calls": ("count", "lower"),
    "escape.power_iters": ("count", "lower"),
    "escape.classify_s": ("s", "lower"),
    "cache.lookup_s": ("s", "lower"),
    "cache.record_io_s": ("s", "lower"),
    "cache.matrix_load_s": ("s", "lower"),
    "cache.matrix_save_s": ("s", "lower"),
    "cache.bytes_read": ("bytes", "lower"),
    "cache.bytes_written": ("bytes", "lower"),
    "cache.matrix_hits": ("count", "higher"),
    "cache.matrix_builds": ("count", "lower"),
    "cache.spectral_hits": ("count", "higher"),
    "cache.spectral_builds": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.uncovered_share": ("ratio", "lower"),
}

_CACHE_STATS = ("matrix_hits", "matrix_builds", "spectral_hits", "spectral_builds")


class Tracer:
    """Span and counter recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.covered_s = 0.0
        self.caches = []          # PipelineCache objects created in this pass
        self._open = []           # child time accumulated by each open span
        self._patched = []

    def _wrap(self, fn, span, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                t0 = time.perf_counter()
                self._open.append(0.0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - t0
                    self.self_s[span] += elapsed - self._open.pop()
                    self.calls[span] += 1
                    if self._open:
                        self._open[-1] += elapsed
                    else:
                        self.covered_s += elapsed
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def install(self):
        """Wrap every target that exists; a missing name is skipped."""
        for module_name, attr, span, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name, None)
            if original is None:
                continue
            setattr(owner, name, self._wrap(original, span, hook))
            self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def end_pass(self):
        """Fold the cache statistics of this pass's own caches into the counts."""
        for cache in self.caches:
            for key in _CACHE_STATS:
                self.counts[f"cache.{key}"] += cache.stats.get(key, 0)
        self.caches.clear()

    def metrics(self, passes: int, traced_wall: float, untraced_wall: float,
                total_wall: float) -> dict:
        """Per-pass layer metrics; ``total_wall`` is the traced passes' sum."""
        s, c, n = self.self_s, self.calls, self.counts
        iterations = n["certify.iterations"]
        hits = n["cache.matrix_hits"] + n["cache.spectral_hits"]
        lookups = hits + n["cache.matrix_builds"] + n["cache.spectral_builds"]
        totals = {
            "maps.load_s": s["maps.load"],
            "ulam.build_closed_s": s["ulam.build_closed"],
            "ulam.build_closed_calls": c["ulam.build_closed"],
            "ulam.bins_assembled": n["ulam.bins_assembled"],
            "ulam.nnz": n["ulam.nnz"],
            "ulam.build_open_s": s["ulam.build_open"],
            "ulam.build_open_calls": c["ulam.build_open"],
            "spectral.record_s": s["spectral.record"],
            "spectral.record_calls": c["spectral.record"],
            "spectral.eig_s": s["spectral.eig"],
            "spectral.q_norms_s": s["spectral.q_norms"],
            "spectral.density_s": s["spectral.density"],
            "spectral.density_iters": n["spectral.density_iters"],
            "spectral.to_data_s": s["spectral.to_data"],
            "spectral.h_star_s": s["spectral.h_star"],
            "spectral.h_star_calls": c["spectral.h_star"],
            "kl.chain_s": s["kl.chain"],
            "kl.chain_calls": c["kl.chain"],
            "certify.self_s": s["certify"],
            "certify.iterations": iterations,
            "certify.analyzed_meshes": iterations - n["certify.bootstrap_iterations"],
            "escape.ratio_s": s["escape.ratio"],
            "escape.estimate_s": s["escape.estimate"],
            "escape.estimate_calls": c["escape.estimate"],
            "escape.power_iters": n["escape.power_iters"],
            "escape.classify_s": s["escape.classify"],
            "cache.lookup_s": s["cache.lookup"],
            "cache.record_io_s": s["cache.record_io"],
            "cache.matrix_load_s": s["cache.matrix_load"],
            "cache.matrix_save_s": s["cache.matrix_save"],
            "cache.bytes_read": n["cache.bytes_read"],
            "cache.bytes_written": n["cache.bytes_written"],
            "cache.matrix_hits": n["cache.matrix_hits"],
            "cache.matrix_builds": n["cache.matrix_builds"],
            "cache.spectral_hits": n["cache.spectral_hits"],
            "cache.spectral_builds": n["cache.spectral_builds"],
            "cli.self_s": s["cli"],
        }
        out = {name: value / passes for name, value in totals.items()}
        out["certify.bootstrap_share"] = (
            n["certify.bootstrap_iterations"] / iterations if iterations else 0.0)
        out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.uncovered_share"] = 1.0 - self.covered_s / total_wall
        return {name: out[name] for name in LAYER_METRICS}
