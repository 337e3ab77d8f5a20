"""Every script in ``examples/`` runs clean against the current package.

Each example runs in its own interpreter with ``PYTHONPATH=src``, so an
example that calls a removed name fails here.  ``hardness_demo.py`` takes
about 15 s, so it is only imported (run under a non-``__main__`` name):
its main guard skips the demo, but every import still resolves.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
IMPORT_ONLY = {"hardness_demo.py"}


def test_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    if path.name in IMPORT_ONLY:
        target = [
            "-c",
            "import runpy, sys; runpy.run_path(sys.argv[1], run_name='example')",
            str(path),
        ]
    else:
        target = [str(path)]
    proc = subprocess.run(
        [sys.executable, *target],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
