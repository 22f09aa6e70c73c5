"""Command-line entry point.

One subcommand per pipeline stage: ``spectral``, ``kl-constants``,
``certify``, ``escape``, ``hole-asymptotics``, ``reproduce-tables`` and
``cache``.  Ulam matrices are built in memory from a map and a bin count;
only spectral records are cached on disk.  Rationals are written ``p/q``
and survive exactly into the reports.  A report is its result dataclass
walked field by field (:func:`_jsonify`), so a new field reaches the JSON
with no serialiser edit; ``spectral`` writes the record's fields
(``power_iterations`` among them) plus its derived values, and with
``--delta`` the ``h_star`` bound from the map's own (alpha0, B0).
Every JSON report embeds a run manifest (every computation parameter
but no output location, map fingerprint, tool version, per-phase
timings, cache statistics); identical manifests and caches reproduce
byte-identical reports apart from the timings block.  The module loads no
numpy: a numpy value in a report is duck-typed (:func:`_jsonify`), and
only a command that builds a matrix loads numpy and scipy.  ``kl-constants``
takes one (alpha0, B0, r, H) input and prints the LY and KL constant
fields in dataclass order, then ``mesh_threshold``; the LY constants
are exact ``p/q``.

:func:`main` may be called many times in one process.  Importing the
module builds no parser; the first call builds it and later calls reuse
it, and each call picks its ``_cmd_*`` function by the subcommand's name.

Exit codes: 0 success, 1 validation/tolerance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from . import __version__
from .cache import CACHE_ENV_VAR, PipelineCache, default_cache_dir
from .certify import CertificationReport, run_certification
from .escape import asymptotic_ratio, estimate_escape
from .kl import CLOSED_ONLY, HOLE_UNIFORM, kl_constants, ly_constants
from .maps import MapConfigError, as_rational, bundled_map_path, load_map
from .spectral import compute_record, h_star, neumann_bound
from .ulam import Hole, build_closed

__all__ = ["main", "REFERENCE_TABLES"]


def _rational(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (MapConfigError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _hole(text: str) -> Hole:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"hole must be 'a,b', got {text!r}")
    return Hole(_rational(parts[0]), _rational(parts[1]))


@dataclass
class RunManifest:
    """Provenance block embedded in every JSON report."""

    subcommand: str
    parameters: dict
    map_fingerprint: str | None = None
    version: str = __version__
    timings: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)


#: argparse keys that place or name a run rather than parametrise it
_NOT_PARAMETERS = {"subcommand", "out", "out_dir", "cache_dir"}


def _manifest(args, tmap, **extra) -> RunManifest:
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    return RunManifest(args.subcommand, {**parameters, **extra}, tmap.fingerprint)


class _Phase:
    """Context manager collecting wall-clock phase timings."""

    def __init__(self, manifest: RunManifest, name: str):
        self.manifest = manifest
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.manifest.timings[self.name] = time.perf_counter() - self.t0
        return False


#: dataclass fields a report leaves out: the constant set behind the
#: logged iterations, and the record's fingerprint (in the manifest) and
#: raw spectral data (reported through derived values)
_OMITTED = {
    "CertificationReport": {"final_constants"},
    "SpectralRecord": {"map_fingerprint", "mass_bytes", "eigenvalues"},
}


def _jsonify(obj):
    """JSON-ready copy of a report value; a dataclass becomes a dict of its
    fields.  A non-finite float becomes its repr string (``"nan"``,
    ``"inf"``), since JSON has no such numbers."""
    if hasattr(obj, "dtype"):           # a numpy array or scalar: Python values
        return _jsonify(obj.tolist())
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, Hole):
        return [str(obj.a), str(obj.b)]
    omitted = _OMITTED.get(type(obj).__name__, ())
    return {f.name: _jsonify(getattr(obj, f.name))
            for f in fields(obj) if f.name not in omitted}


def _write_report(path, manifest: RunManifest, payload) -> None:
    doc = _jsonify({"manifest": manifest, "report": payload})
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _make_cache(args) -> PipelineCache:
    directory = getattr(args, "cache_dir", None) or default_cache_dir()
    return PipelineCache(directory)


# -- subcommands -----------------------------------------------------------------

def _cmd_spectral(args) -> int:
    tmap = load_map(args.map)
    manifest = _manifest(args, tmap)
    with _Phase(manifest, "assembly"):
        matrix = build_closed(tmap, args.bins)
    with _Phase(manifest, "analysis"):
        record = compute_record(matrix)
    payload = dict(
        _jsonify(record), r=args.r, delta=args.delta,
        unit_eigenvalue=record.eigenvalues[0],
        spectral_radius_bound=record.spectral_radius_bound,
        truncation_N=record.truncation_N,
        invariant_density=record.invariant_density,
        neumann_bound=neumann_bound(record.q_power_norms_colsum, float(args.r)))
    if args.delta is not None:
        bound = h_star(record, args.r, args.delta, tmap.alpha0, tmap.B0)
        payload.update(resolvent_l1_bound=bound.resolvent_l1_bound, h_star=bound.h_star)
    _write_report(args.out, manifest, payload)
    return 0


def _cmd_kl_constants(args) -> int:
    mode = CLOSED_ONLY if args.closed_only else HOLE_UNIFORM
    ly = ly_constants(args.alpha0, args.B0, mode)
    chain = kl_constants(ly, args.r, args.H)
    rows = [(f.name, getattr(obj, f.name))
            for obj in (ly, chain) for f in fields(obj) if f.name != "ly"]
    for name, value in rows + [("mesh_threshold", chain.mesh_threshold)]:
        if isinstance(value, float):
            print(f"{name:26s} {value:.12g}")
        else:
            print(f"{name:26s} {value}")
    return 0


def _iteration_table(report: CertificationReport) -> str:
    """Human-readable per-iteration table of the certification loop."""
    rows = []
    for it in report.iterations:
        rows.append([
            ("r", str(report.r)),
            ("delta", str(it.delta)),
            ("epsilon", str(it.mesh)),
            ("H bound", f"{it.transferred_H:.10g} (transferred)" if it.used_bootstrap
             else (f"{it.h_star:.10g}" if it.h_star is not None else "-")),
            ("n1", str(it.n1)),
            ("n2", str(it.n2)),
            ("(2G)^-1 eps0", f"{it.threshold:.10g}"),
            ("Loop I", "Pass" if it.step7_pass else "Fail: reduce epsilon"),
        ])
    lines = []
    for k, row in enumerate(rows):
        lines.append(f"-- iteration {k + 1} " + "-" * 40)
        for name, val in row:
            lines.append(f"  {name:14s} {val}")
    if report.certified:
        lines.append("-" * 56)
        lines.append(f"  Output I      epsilon_com = {report.epsilon_com}, "
                     f"delta_com = {report.delta_com}")
        lines.append(f"  Output II     lambda(H) in (0, {report.hole_bound}] => "
                     f"accim exists with escape rate < {report.escape_guarantee:.10g}")
    else:
        lines.append(f"  FAILED: {report.reason}")
    return "\n".join(lines)


def _cmd_certify(args) -> int:
    tmap = load_map(args.map)
    manifest = _manifest(args, tmap)
    cache = _make_cache(args)
    with _Phase(manifest, "certification"):
        report = run_certification(tmap, args.ell, args.bins_init, cache=cache)
    manifest.cache_stats = dict(cache.stats)
    print(_iteration_table(report))
    _write_report(args.out, manifest, report)
    return 0 if report.certified else 1


def _cmd_escape(args) -> int:
    tmap = load_map(args.map)
    manifest = _manifest(args, tmap)
    with _Phase(manifest, "escape"):
        est = estimate_escape(build_closed(tmap, args.bins), args.hole)
    print(f"hole {args.hole}: e_H = {est.e_H:.12g} in [{est.e_H_lower:.15g}, "
          f"{est.e_H_upper:.15g}], escape rate = {est.escape_rate:.12g}")
    _write_report(args.out, manifest, est)
    return 0


def _cmd_hole_asymptotics(args) -> int:
    tmap = load_map(args.map)
    manifest = _manifest(args, tmap)
    with _Phase(manifest, "experiment"):
        exp = asymptotic_ratio(tmap, args.point, args.widths, args.bins_per_hole)
    cls = exp.classification
    print(f"point {exp.point}: {cls.kind}"
          + (f" (period {cls.period}, cycle derivative {cls.derivative:.6g})"
             if cls.kind == "periodic" else ""))
    for w, n, e, ratio in zip(exp.widths, exp.n_bins, exp.e_values, exp.ratios):
        print(f"  width {str(w):>10s}  bins {n:>8d}  e_H {e:.12g}  ratio {ratio:.8g}")
    print(f"  extrapolated limit {exp.extrapolated_limit:.8g}"
          f"  (predicted {exp.predicted_limit:.8g}, f* from {exp.f_star_source})")
    _write_report(args.out, manifest, exp)
    return 0


def _cmd_cache(args) -> int:
    cache = _make_cache(args)
    if cache.directory is None:
        print(f"no cache directory configured (set {CACHE_ENV_VAR} or --cache-dir)")
        return 0
    if args.action == "purge":
        count = cache.purge()
        print(f"purged {count} cached files from {cache.directory}")
        return 0
    entries = cache.entries()
    if not entries:
        print(f"cache at {cache.directory} is empty")
        return 0
    for entry in entries:
        if args.action == "inspect":
            print(f"{entry['kind']:13s} {entry['bytes']:>12d}  {entry['file']}")
        else:
            print(entry["file"])
    return 0


# -- reference-table reproduction ---------------------------------------------------

#: Reference outputs for the bundled example map at mesh 2e-4 (and the
#: bootstrap continuation to mesh 1e-5).  ``tol`` is relative; None means
#: exact.  The two cells with a 0.10 tolerance sit downstream of a
#: formula-variant discrepancy documented in the README.
REFERENCE_TABLES = {
    "table1": {
        "ell": Fraction(1, 25),
        "cells": [
            ("r", "24/25", None),
            ("delta_com", "1/26", None),
            ("epsilon_com", "1/5000", None),
            ("n1", 1, None),
            ("C", 25 / 24, 1e-12),
            ("n2", 8, None),
            ("neumann", 7.444310493, 1e-3),
            ("h_star", 45.46070939, 1e-3),
            ("threshold", 2.319492040e-4, 1e-3),
            ("loop1", True, None),
            ("loop2", True, None),
        ],
    },
    "table2": {
        "ell": Fraction(1, 40),
        "cells": [
            ("r", "39/40", None),
            ("iter1_h_star", 63.73181657, 1e-3),
            ("iter1_n2", 8, None),
            ("iter1_threshold", 1.763820641e-4, 1e-3),
            ("iter1_loop1", False, None),
            ("closed_only_threshold", 2.425063815e-4, 1e-3),
            ("transferred_H", 1036.693385, 0.10),
            ("iter2_n2", 11, None),
            ("iter2_threshold", 1.216687545e-5, 0.10),
            ("iter2_loop1", True, None),
            ("delta_com", "1/41", None),
            ("epsilon_com", "1/100000", None),
            ("loop2", True, None),
        ],
    },
}


def _table_values(report: CertificationReport, which: str) -> dict:
    """Extract the comparable cells from a certification report."""
    out: dict = {"r": str(report.r), "loop2": bool(report.certified)}
    out["delta_com"] = None if report.delta_com is None else str(report.delta_com)
    out["epsilon_com"] = None if report.epsilon_com is None else str(report.epsilon_com)
    its = report.iterations
    if which == "table1":
        it = its[0]
        out.update(n1=it.n1, n2=it.n2, h_star=it.h_star, neumann=it.neumann,
                   threshold=it.threshold, loop1=it.step7_pass)
        if report.final_constants is not None:
            out["C"] = report.final_constants.C
    else:
        it1 = its[0]
        out.update(iter1_h_star=it1.h_star, iter1_n2=it1.n2,
                   iter1_threshold=it1.threshold, iter1_loop1=it1.step7_pass,
                   closed_only_threshold=it1.closed_only_threshold)
        if len(its) > 1:
            it2 = its[1]
            out.update(transferred_H=it2.transferred_H, iter2_n2=it2.n2,
                       iter2_threshold=it2.threshold, iter2_loop1=it2.step7_pass)
    return out


def _diff_cells(values: dict, cells) -> tuple[list[dict], bool]:
    diffs = []
    ok = True
    for name, expected, tol in cells:
        got = values.get(name)
        if tol is None:
            passed = got == expected
            rel = None
        elif got is None:
            passed = False
            rel = None
        else:
            rel = abs(got / expected - 1.0)
            passed = rel <= tol
        ok = ok and passed
        diffs.append({"cell": name, "got": got, "expected": expected,
                      "rel": rel, "tol": tol, "pass": passed})
    return diffs, ok


def _cmd_reproduce_tables(args) -> int:
    tmap = load_map(args.map) if args.map else load_map(bundled_map_path())
    cache = _make_cache(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for which in ("table1", "table2"):
        spec = REFERENCE_TABLES[which]
        manifest = _manifest(args, tmap, table=which, ell=spec["ell"])
        before = dict(cache.stats)
        with _Phase(manifest, "certification"):
            report = run_certification(tmap, spec["ell"], args.bins, cache=cache)
        # the tables share one cache: report this table's own lookups
        manifest.cache_stats = {k: v - before[k] for k, v in cache.stats.items()}
        values = _table_values(report, which)
        diffs, ok = _diff_cells(values, spec["cells"])
        all_ok = all_ok and ok
        print(f"== {which} (ell = {spec['ell']}) ==")
        for d in diffs:
            mark = "ok " if d["pass"] else "FAIL"
            rel = "" if d["rel"] is None else f"  rel={d['rel']:.2e} (tol {d['tol']:g})"
            print(f"  [{mark}] {d['cell']:24s} got={d['got']}  expected={d['expected']}{rel}")
        _write_report(out_dir / f"{which}.json", manifest,
                      {"report": report, "cells": diffs, "all_pass": ok})
    print("reproduction " + ("PASSED" if all_ok else "FAILED"))
    return 0 if all_ok else 1


# -- parser ------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call in a process and
    shared afterwards: it holds configuration only, and ``parse_args``
    fills a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="holecert",
        description="Certified hole sizes and escape rates for piecewise "
                    "expanding interval maps.",
    )
    parser.add_argument("--version", action="version", version=f"holecert {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectral", help="spectral report for a map at a bin count")
    p.add_argument("--map", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--r", type=_rational, required=True)
    p.add_argument("--delta", type=_rational, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("kl-constants", help="print the full constant chain")
    p.add_argument("--alpha0", type=_rational, required=True)
    p.add_argument("--B0", type=_rational, required=True)
    p.add_argument("--r", type=_rational, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--closed-only", action="store_true")

    p = sub.add_parser("certify", help="run the certification loop")
    p.add_argument("--map", required=True)
    p.add_argument("--ell", type=_rational, required=True)
    p.add_argument("--bins-init", type=int, default=1000)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("escape", help="escape rate of one concrete hole")
    p.add_argument("--map", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--hole", type=_hole, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("hole-asymptotics", help="shrinking-hole ratio experiment")
    p.add_argument("--map", required=True)
    p.add_argument("--point", type=_rational, required=True)
    p.add_argument("--widths", type=lambda s: [_rational(w) for w in s.split(",")],
                   required=True)
    p.add_argument("--bins-per-hole", type=int, default=10)
    p.add_argument("--out", default=None)

    p = sub.add_parser("reproduce-tables",
                       help="re-run the bundled-map reference certifications")
    p.add_argument("--map", default=None, help="defaults to the bundled map")
    p.add_argument("--bins", type=int, default=5000)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("cache", help="list, inspect, or purge the spectral-record cache")
    p.add_argument("action", choices=("list", "inspect", "purge"))
    p.add_argument("--cache-dir", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so a replaced ``_cmd_*`` takes effect at once
    command = globals()["_cmd_" + args.subcommand.replace("-", "_")]
    try:
        return command(args)
    except (MapConfigError, ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
