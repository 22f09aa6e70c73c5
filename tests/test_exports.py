import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import holecert

MODULES = ["holecert"] + [f"holecert.{m.name}" for m in pkgutil.iter_modules(holecert.__path__)]

#: the public surface; a name added or dropped shows up as an edit here
PUBLIC = [
    "AsymptoticRatioExperiment", "Branch", "CertificateBounds",
    "CertificationReport", "EscapeEstimate", "Hole", "HoleAlignmentError",
    "KLConstants", "KLDomainError", "LYConstants", "MapConfigError", "MapDomainError",
    "NeumannDivergenceError", "PiecewiseMap", "PipelineCache", "PointClassification",
    "ResolventBound", "SpectralRecord", "SpectralStructureError", "UlamMatrix",
    "as_rational", "asymptotic_ratio", "build_closed",
    "bundled_map_path", "certificate_bounds", "classify_point", "compute_record",
    "default_cache_dir", "dominant_left_eigenpair", "estimate_escape",
    "full_branch_linear", "h_star", "kl_constants", "load_map", "ly_constants",
    "neumann_bound", "run_certification",
]


def test_public_surface_is_frozen():
    assert PUBLIC == sorted(PUBLIC)
    assert holecert.__all__ == PUBLIC


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


#: prints, as JSON, the top-level names of the modules that importing the
#: modules named in argv adds to a fresh interpreter, and the numpy and
#: scipy modules among everything then loaded
FOOTPRINT = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
added = set(sys.modules) - before
print(json.dumps([sorted({m.partition(".")[0] for m in added}),
                  sorted(m for m in added if m.partition(".")[0] in ("numpy", "scipy"))]))
"""


def _footprint(*modules):
    src = Path(holecert.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", FOOTPRINT, *modules], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_import_footprint_is_stdlib_numpy_scipy():
    # the dependency rule: holecert imports the standard library, numpy and
    # scipy only; what the numpy and scipy modules it loads import in turn
    # (Cython runtimes, optional helpers) is theirs.  Importing the CLI loads
    # neither: they come with the first array
    added, deps = _footprint("holecert.cli")
    theirs = set(_footprint(*deps)[0])
    foreign = [m for m in added if m not in sys.stdlib_module_names
               and m not in ("numpy", "scipy", "holecert") and m not in theirs]
    assert "holecert" in added and "numpy" not in added
    assert foreign == []


#: runs ``holecert.cli.main`` on argv in a fresh interpreter and prints, as
#: its last line, the exit code and whether scipy and numpy were loaded
CLI_PROBE = """
import json, sys
from holecert.cli import main
rc = main(sys.argv[1:])
print(json.dumps([rc, "scipy" in sys.modules, "numpy" in sys.modules]))
"""


def _cli_in_fresh_process(*argv):
    src = Path(holecert.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", CLI_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    # scipy loads with the first sparse matrix, not with the package
    added, deps = _footprint("holecert.cli")
    assert "scipy" not in added
    assert [m for m in deps if m.startswith("scipy")] == []


def test_import_leaves_numpy_unloaded():
    # numpy loads with the first array, not with the package (the footprint
    # test above holds the same for holecert.cli)
    added, deps = _footprint("holecert")
    assert "holecert" in added
    assert "numpy" not in added and deps == []


@pytest.mark.parametrize("command", ["kl-constants", "cache"])
def test_scalar_commands_leave_scipy_unloaded(tmp_path, command):
    # neither numpy nor scipy: the constants are Fractions and floats
    argv = {"kl-constants": ["kl-constants", "--alpha0", "1/9", "--B0", "2/9", "--r", "24/25",
                             "--H", "45.46070939"],
            "cache": ["cache", "list", "--cache-dir", str(tmp_path)]}[command]
    assert _cli_in_fresh_process(*argv) == [0, False, False]


def test_warm_reproduce_tables_leaves_scipy_unloaded(tmp_path):
    # a warm run reads records with struct: neither numpy nor scipy loads
    argv = ["reproduce-tables", "--out-dir", str(tmp_path),
            "--cache-dir", str(tmp_path / "cache")]
    assert _cli_in_fresh_process(*argv) == [0, True, True]        # cold: builds matrices
    assert _cli_in_fresh_process(*argv) == [0, False, False]      # warm: reads records


def test_import_builds_no_parser():
    # the parser is built by the first call of main, not by the import
    src = Path(holecert.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import holecert.cli as c; print(c._build_parser.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0"]


#: the perfbench tracer targets that name no object at this revision; the
#: tracer skips them silently, so a renamed layer must show up here instead
#: of reading 0 in the traced metrics
UNRESOLVED_TRACE_TARGETS = [
    "holecert.cache.PipelineCache.open_matrix", "holecert.cache.PipelineCache.spectral",
    "holecert.cache.build_open", "holecert.cache.load_matrix",
    "holecert.cache.record_to_data", "holecert.cache.save_matrix",
    "holecert.certify.refine_with_bootstrap", "holecert.escape.build_closed",
    "holecert.escape.build_open", "holecert.spectral._dense_eigenvalues",
    "holecert.spectral._iterative_eigenvalues",
]


def test_trace_targets_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, _span, _hook in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *parts, name = attr.split(".")
        for part in parts:
            owner = getattr(owner, part)
        if getattr(owner, name, None) is None:
            missing.append(f"{module_name}.{attr}")
    assert sorted(missing) == UNRESOLVED_TRACE_TARGETS
