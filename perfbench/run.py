"""holecert benchmark: cold/warm table reproduction and the shrinking-hole
experiment, driven through the package's public entry points.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 55 --trace 0

Each run sets the workload up, then repeats whole workload passes in one
process (a closed loop) until ``--seconds`` have passed, checks every
pass's outputs, and prints as its last stdout line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is a JSON detail block: machine, inputs, full-precision outputs
and any failed checks.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the untraced workload in a child process for half the
time, then the traced workload for the other half, and reports the
per-layer metrics of ``tracing.py``.

Workloads, profiles and metrics are described in ``perfbench/README.md``.
The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOADS = ("tables", "shrink-hole")
#: set-ups per run (imports of the program in fresh interpreters and
#: workload set-ups); ``setup_s`` reports the sum of the two medians
SETUP_REPEATS = 5
#: run in a fresh interpreter: prints the time of importing holecert (with
#: numpy and scipy) from the ``src/`` directory given as its argument
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import holecert.cli; "
                "print(time.perf_counter() - t0)")

#: single-threaded BLAS: steadier timings on a shared machine, and a plain
#: single-threaded baseline for every later comparison
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: relative tolerance of the benchmark's own reference values; they were
#: produced by the seed commit and only floating-point reordering may move them
GOLDEN_RTOL = 1e-9


def kfold_moebius_map(k: int) -> dict:
    """Config of x -> (k-1)x/(1-x) on [0, 1/k) plus k-1 slope-k branches.

    The bundled map is the k = 10 member.  Every branch is onto, min |T'| =
    k - 1 and sup |T''|/T'^2 = 2/(k-1), hence alpha0 = 1/(k-1), B0 = 2/(k-1).
    """
    branches = [{"kind": "moebius", "domain": ["0", f"1/{k}"],
                 "p": str(k - 1), "q": "0", "r": "-1", "s": "1"}]
    branches += [{"kind": "linear", "domain": [f"{i}/{k}", f"{i + 1}/{k}"],
                  "slope": str(k), "intercept": str(-i)} for i in range(1, k)]
    return {"label": f"{k}fold-moebius", "alpha0": f"1/{k - 1}",
            "B0": f"2/{k - 1}", "branches": branches}


#: Scaled reference tables in the shape of ``holecert.cli.REFERENCE_TABLES``:
#: table 1 certifies directly at 1500 bins, table 2 fails the comparison
#: there and certifies mesh 1/100000 through the bootstrap transfer.
BENCH_TABLES = {
    "table1": {
        "ell": Fraction(1, 10),
        "cells": [
            ("r", "9/10", None),
            ("delta_com", "1/11", None),
            ("epsilon_com", "1/1500", None),
            ("n1", 1, None),
            ("C", 1.1111111111111112, GOLDEN_RTOL),
            ("n2", 4, None),
            ("neumann", 5.704872954251285, GOLDEN_RTOL),
            ("h_star", 22.18235889749851, GOLDEN_RTOL),
            ("threshold", 0.0007434349341681076, GOLDEN_RTOL),
            ("loop1", True, None),
            ("loop2", True, None),
        ],
    },
    "table2": {
        "ell": Fraction(1, 8),
        "cells": [
            ("r", "7/8", None),
            ("iter1_h_star", 20.503318057241604, GOLDEN_RTOL),
            ("iter1_n2", 5, None),
            ("iter1_threshold", 0.0006339077607694225, GOLDEN_RTOL),
            ("iter1_loop1", False, None),
            ("closed_only_threshold", 0.0010176280408201622, GOLDEN_RTOL),
            ("transferred_H", 310.59221366089565, GOLDEN_RTOL),
            ("iter2_n2", 6, None),
            ("iter2_threshold", 4.707511320618831e-05, GOLDEN_RTOL),
            ("iter2_loop1", True, None),
            ("delta_com", "1/9", None),
            ("epsilon_com", "1/100000", None),
            ("loop2", True, None),
        ],
    },
}

#: ``bench`` is what BENCHMARK.json runs.  ``paper`` is the source paper's
#: configuration (bundled map at 5000 bins against the package's own
#: REFERENCE_TABLES, C6 widths down to 1/10000); one pass of it takes about a
#: minute, far beyond the run budget.  ``smoke`` is the fast check of the
#: benchmark itself.  ``e_at_zero`` holds the reference e_H of the hole at
#: y = 0 for each width; ``warm_calls`` is the number of warm-cache calls
#: that follow the cold one in a tables pass.
PROFILES = {
    "bench": {
        "map": kfold_moebius_map(20), "bins": 1500, "tables": BENCH_TABLES,
        "warm_calls": 3,
        "widths": ("1/100", "1/1000"), "bins_per_hole": 1,
        "e_at_zero": (0.9908326913195639, 0.9990975590049336),
    },
    "smoke": {
        "map": kfold_moebius_map(20), "bins": 1500, "tables": BENCH_TABLES,
        "warm_calls": 1,
        "widths": ("1/100", "1/1000"), "bins_per_hole": 1,
        "e_at_zero": (0.9908326913195631, 0.9990975590049335),
    },
    "paper": {
        "map": None, "bins": 5000, "tables": None,
        "warm_calls": 10,
        "widths": ("1/100", "1/1000", "1/10000"), "bins_per_hole": 10,
        "e_at_zero": (0.9908326913195639, 0.9990975590049336, 0.9999099675810326),
    },
}


class SetupError(RuntimeError):
    """The workload could not be prepared; the run prints no result."""


class Program:
    """The holecert modules the workloads call, imported from ``src/``."""

    def __init__(self):
        if not (SRC / "holecert" / "__init__.py").is_file():
            raise SetupError(f"no holecert sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import holecert
        import holecert.cli
        if Path(holecert.__file__).resolve().parent != SRC / "holecert":
            raise SetupError(f"imported holecert from {holecert.__file__}, not {SRC}")
        self.hc = holecert
        self.cli = holecert.cli
        self.escape = holecert.escape


# -- workloads ------------------------------------------------------------------

class Checks:
    """Pass/fail tally of one run; failures keep their names for the report."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


class TablesWorkload:
    """``holecert reproduce-tables`` through ``holecert.cli.main``.

    A pass runs the command once against an empty, fresh cache directory
    (cold: assembly, spectral record and cache writes), then ``warm_calls``
    times against the directory that call filled.  Every call builds its
    own PipelineCache, so every warm hit is a disk read.  The cold call's
    outputs are the pass's outputs; every call is checked.
    """

    def __init__(self, prog: Program, profile: dict, work: Path):
        self.prog = prog
        self.profile = profile
        self.work = work
        self.tables = profile["tables"] or prog.cli.REFERENCE_TABLES
        self.out_dir = work / "out"
        self.out_dir.mkdir()
        if profile["map"] is None:
            self.map_path = Path(prog.hc.bundled_map_path())
        else:
            self.map_path = work / "map.json"
            self.map_path.write_text(json.dumps(profile["map"]), encoding="utf-8")

    def run_pass(self, checks: Checks) -> dict:
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        try:
            outputs = self._call(cache_dir, checks)
            for _ in range(self.profile["warm_calls"]):
                self._call(cache_dir, checks)
            return outputs
        finally:
            shutil.rmtree(cache_dir)

    def _call(self, cache_dir: Path, checks: Checks) -> dict:
        argv = ["reproduce-tables", "--map", str(self.map_path),
                "--bins", str(self.profile["bins"]),
                "--out-dir", str(self.out_dir), "--cache-dir", str(cache_dir)]
        with self._reference_tables(), contextlib.redirect_stdout(io.StringIO()):
            code = self.prog.cli.main(argv)
        checks.check("exit code 0", code == 0)
        return {which: self._check_table(which, checks) for which in ("table1", "table2")}

    @contextlib.contextmanager
    def _reference_tables(self):
        # the scaled profiles compare against their own reference cells
        saved = self.prog.cli.REFERENCE_TABLES
        self.prog.cli.REFERENCE_TABLES = self.tables
        try:
            yield
        finally:
            self.prog.cli.REFERENCE_TABLES = saved

    def _check_table(self, which: str, checks: Checks) -> dict:
        doc = json.loads((self.out_dir / f"{which}.json").read_text(encoding="utf-8"))
        payload = doc["report"]
        report = payload["report"]
        for cell in payload["cells"]:
            checks.check(f"{which}.{cell['cell']}", cell["pass"])
        checks.check(f"{which}.all_pass", payload["all_pass"])
        expected = {name: value for name, value, _tol in self.tables[which]["cells"]}
        hole_bound = report["hole_bound"]
        checks.check(f"{which}.hole_bound == Gamma * epsilon_com",
                      hole_bound is not None and Fraction(hole_bound)
                      == Fraction(report["Gamma"]) * Fraction(expected["epsilon_com"]))
        iterations = report["iterations"]
        if which == "table2":
            checks.check("table2.iteration2.used_bootstrap",
                         len(iterations) > 1 and iterations[1]["used_bootstrap"] is True)
        return {
            "epsilon_com": report["epsilon_com"], "delta_com": report["delta_com"],
            "hole_bound": hole_bound,
            "iterations": [{key: it.get(key) for key in
                            ("n_bins", "used_bootstrap", "h_star", "threshold",
                             "transferred_H", "closed_only_threshold")}
                           for it in iterations],
        }

    def inputs(self) -> dict:
        return {"map": (self.profile["map"] or {"label": "bundled"})["label"],
                "bins": self.profile["bins"],
                "ell": {which: str(spec["ell"]) for which, spec in self.tables.items()}}


def draw_point(seed: int, widths) -> tuple[float, int]:
    """Seeded non-periodic test point for 10x mod 1, and the redraw count.

    A hole escapes visibly slower when it holds a periodic point, so a draw
    is redrawn when its finest hole could hold a point of period <= 2
    (k/9, k/99), which would break the 5% check against the limit 1, or
    when a hole of any width could hold a fixed point (k/9), which would tie
    with the hole at the fixed point 0.  Every hole containing y lies within
    its width of y; the margin is twice that.
    """
    rng = random.Random(seed)
    fixed = [Fraction(k, 9) for k in range(10)]
    period_two = [Fraction(k, 99) for k in range(100)]
    for redraws in range(1000):
        y = rng.uniform(0.05, 0.95)
        if (all(abs(Fraction(y) - p) > 2 * max(widths) for p in fixed)
                and all(abs(Fraction(y) - p) > 2 * min(widths) for p in period_two)):
            return y, redraws
    raise SetupError("no admissible point drawn")


class ShrinkHoleWorkload:
    """``asymptotic_ratio`` on 10x mod 1 at y = 0 and at a seeded point.

    Each pass gives both points one fresh memory-only PipelineCache, so the
    closed matrices are built once per pass and shared by the two points.
    """

    def __init__(self, prog: Program, profile: dict, seed: int):
        self.prog = prog
        self.widths = [Fraction(w) for w in profile["widths"]]
        self.bins_per_hole = profile["bins_per_hole"]
        self.e_at_zero = profile["e_at_zero"]
        self.tmap = prog.hc.full_branch_linear(10)
        self.y, self.redraws = draw_point(seed, self.widths)

    def run_pass(self, checks: Checks) -> dict:
        cache = self.prog.hc.PipelineCache(None)
        ratio = self.prog.escape.asymptotic_ratio
        at_zero = ratio(self.tmap, Fraction(0), self.widths, self.bins_per_hole, cache=cache)
        at_y = ratio(self.tmap, self.y, self.widths, self.bins_per_hole, cache=cache)
        checks.check("y=0 classified periodic", at_zero.classification.kind == "periodic")
        checks.check("y=0 ratio within 5% of 0.9", abs(at_zero.ratios[-1] / 0.9 - 1) <= 0.05)
        checks.check("y classified non-periodic", at_y.classification.kind == "non-periodic")
        checks.check("y ratio within 5% of 1", abs(at_y.ratios[-1] - 1) <= 0.05)
        for w, e0, e1 in zip(self.widths, at_zero.e_values, at_y.e_values):
            checks.check(f"width {w}: fixed-point hole escapes slower", e0 > e1)
        for w, got, ref in zip(self.widths, at_zero.e_values, self.e_at_zero):
            checks.check(f"width {w}: e_H at y=0 matches reference",
                         abs(got / ref - 1) <= GOLDEN_RTOL)
        return {
            "y": self.y,
            "n_bins": list(at_zero.n_bins),
            "e_H_at_zero": list(at_zero.e_values), "ratios_at_zero": list(at_zero.ratios),
            "e_H_at_y": list(at_y.e_values), "ratios_at_y": list(at_y.ratios),
        }

    def inputs(self) -> dict:
        return {"map": "10x-mod-1", "widths": [str(w) for w in self.widths],
                "bins_per_hole": self.bins_per_hole, "y": self.y,
                "y_redraws": self.redraws}


def make_workload(name: str, prog: Program, profile: dict, seed: int, work: Path):
    if name == "shrink-hole":
        return ShrinkHoleWorkload(prog, profile, seed)
    return TablesWorkload(prog, profile, work)


# -- measurement ------------------------------------------------------------------

def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(workload, seconds: float, checks: Checks, tracer=None) -> dict:
    """Closed loop of whole passes until ``seconds`` have elapsed (>= 1 pass)."""
    walls, cpus, outputs = [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(checks)
        except Exception:   # a failing pass is a failed check; keep measuring
            traceback.print_exc(file=sys.stderr)
            checks.check("pass raised", False)
            result = None
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_seconds() - cpu0)
        if outputs is None:
            outputs = result
        if tracer is not None:
            tracer.end_pass()
        if time.perf_counter() >= deadline:
            return {"walls": walls, "cpus": cpus, "outputs": outputs}


def machine_info(prog: Program) -> dict:
    import numpy as np
    import scipy
    cpu_model = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = None
    with contextlib.suppress(Exception):   # show_config's layout varies by numpy version
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "holecert").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
        "holecert": prog.hc.__version__, "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _import_seconds() -> float:
    """Time of importing holecert in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SetupError(f"importing holecert in a fresh interpreter exited {proc.returncode}")
    return float(proc.stdout)


def _untraced_child(args, seconds: float) -> dict:
    """End-to-end result of the same workload in a process without wrappers."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", "0",
            "--profile", args.profile]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SetupError(f"untraced child run exited {proc.returncode}")
    return json.loads(lines[-1])


def run(args) -> int:
    child = _untraced_child(args, args.seconds / 2) if args.trace else None
    t_import = time.perf_counter()
    prog = Program()
    import_times = [time.perf_counter() - t_import]
    import_times += [_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    profile = PROFILES[args.profile]
    WORK_ROOT.mkdir(exist_ok=True)
    work_dirs = []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
            work_dirs.append(work)
            workload = make_workload(args.workload, prog, profile, args.seed, work)
            setup_times.append(time.perf_counter() - t0)
        checks = Checks()
        tracer = None
        if args.trace:
            from tracing import LAYER_METRICS, Tracer
            tracer = Tracer()
            tracer.install()
        try:
            seconds = args.seconds / 2 if args.trace else args.seconds
            result = measure(workload, seconds, checks, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        machine = machine_info(prog)
    finally:
        for work in work_dirs:
            shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    # A pass slows whenever a neighbour on the shared host contends for the
    # core, in bursts of seconds; the fastest pass is the least disturbed
    # one, so its time is the steadiest measure of the program's own cost.
    walls = result["walls"]
    wall_s = min(walls)
    attempted, failed = checks.attempted, len(checks.failures)
    if args.trace:
        attempted += child["attempted"]
        failed += child["failed"]
        metrics = tracer.metrics(len(walls), wall_s, child["metrics"]["wall_s"]["value"],
                                 math.fsum(walls))
        units = {name: unit for name, (unit, _better) in LAYER_METRICS.items()}
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": min(result["cpus"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        }
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    detail = {
        "benchmark": "holecert", "workload": args.workload, "profile": args.profile,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(walls), "pass_wall_s": walls,
        "median_pass_wall_s": statistics.median(walls),
        "setup_s": {"import": import_times, "workload": setup_times},
        "fail_frac": failed / attempted,
        "failed_checks": sorted(set(checks.failures)),
        "inputs": workload.inputs(),
        "outputs": result["outputs"], "machine": machine,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=tuple(PROFILES), default="bench")
    args = parser.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    try:
        return run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
