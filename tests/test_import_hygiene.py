"""Start-up imports of the command-line entry points stay light.

``scipy`` is only a test oracle and ``networkx`` is needed only by
``clustered_task_graph`` and the matching arbiter, so neither may load
when a fabric worker, the fabric coordinator or the server starts.
``multiprocessing`` and ``concurrent.futures.process`` stay unloaded
too: the fabric spawns its workers with :mod:`subprocess`, and no
start-up path needs a fork pool.  Each
import runs in a fresh interpreter and only ``sys.modules`` is checked,
so the test measures no time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

HEAVY = (
    "scipy",
    "networkx",
    "multiprocessing",
    "concurrent.futures.process",
)
SOURCE_ROOT = str(Path(repro.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "module", ["repro", "repro.fabric.worker", "repro.fabric.cli",
               "repro.service.cli"]
)
def test_entry_point_import_leaves_heavy_modules_unloaded(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    script = (
        f"import sys, {module}\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert result.stdout.split() == []
