"""The demo scripts run to completion against the current package.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH`` and
an empty cache directory, so a public name the demos use cannot disappear
unnoticed.  ``certify_bundled_map.py`` certifies the bundled map on its
first pass at 5000 bins, which takes several seconds cold.
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["HOLECERT_CACHE_DIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / args[0]), *args[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
