"""The demo scripts and the README's library quickstart run to completion
against the current package.

Each runs in its own interpreter with ``src`` on ``PYTHONPATH`` and an
empty cache directory, so a public name they use cannot disappear
unnoticed.  ``certify_bundled_map.py`` and the quickstart certify the
bundled map on their first pass at 5000 bins, which takes several
seconds cold.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["constants_walkthrough.py"],
    ["escape_rates.py"],
    ["hole_position.py", "2"],
    ["certify_bundled_map.py"],
], ids=["constants_walkthrough", "escape_rates", "hole_position",
        "certify_bundled_map"])
def test_demo_runs(args, tmp_path):
    proc = run_python([str(ROOT / "demos" / args[0]), *args[1:]], ROOT,
                      HOLECERT_CACHE_DIR=str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path):
    # the cache is "~/.cache/holecert": it must land under HOME, not in a
    # literal "~" directory beside the script
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    proc = run_python(["-c", code], work, HOME=str(home))
    assert proc.returncode == 0, proc.stderr
    assert list(work.iterdir()) == []
    assert any((home / ".cache" / "holecert").iterdir())


def run_python(args, cwd, **env):
    """Run a fresh interpreter on ``args`` with ``src`` importable."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
