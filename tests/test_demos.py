"""The demo scripts run to completion against the current package.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, so a
public name the demos use cannot disappear unnoticed.

``certify_bundled_map.py`` is left out: it certifies the bundled map by
refining to 10 000 bins, where the Q-power norms alone take tens of
seconds, many times the run time of the three demos here.
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
], ids=["constants_walkthrough", "escape_rates", "hole_position"])
def test_demo_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / args[0]), *args[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
