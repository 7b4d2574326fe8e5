"""Start-up imports stay light, and no layer loads the layers above it.

``scipy`` is only a test oracle and ``networkx`` is needed only by
``clustered_task_graph`` and the matching arbiter, so neither may load
when one of the three console scripts or a fabric worker starts.
``multiprocessing`` and ``concurrent.futures.process`` stay unloaded
too: the fabric forks its workers with :func:`os.fork`, and no start-up
path needs a process pool.

Package ``__init__`` files hold only their docstring, so importing a
module loads that module's own imports and nothing else: the fabric
loads none of the query service, and the paper's closed forms load none
of the layers built on them.  Each import runs in a fresh interpreter
and only ``sys.modules`` is checked, so the tests measure no time.
"""

import ast
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
PACKAGE_ROOT = Path(repro.__file__).resolve().parent
SOURCE_ROOT = str(PACKAGE_ROOT.parent)


def _loaded_modules(module: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it imports ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    script = f"import sys, {module}\nprint(' '.join(sys.modules))\n"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return set(result.stdout.split())


def _under(loaded: set[str], prefixes) -> list[str]:
    return sorted(
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


@pytest.mark.parametrize(
    "module", ["repro.experiments.runner", "repro.fabric.worker",
               "repro.fabric.cli", "repro.service.cli"]
)
def test_entry_point_import_leaves_heavy_modules_unloaded(module):
    assert _under(_loaded_modules(module), HEAVY) == []


@pytest.mark.parametrize("module", ["repro.fabric.cli", "repro.fabric.worker"])
def test_fabric_loads_no_query_service(module):
    loaded = _loaded_modules(module)
    assert _under(loaded, ("asyncio", "ssl", "repro.service")) == []


def test_closed_forms_load_no_upper_layer():
    loaded = _loaded_modules("repro.core.exact")
    upper = tuple(
        f"repro.{layer}"
        for layer in ("analysis", "simulation", "service", "fabric",
                      "experiments")
    )
    assert _under(loaded, upper) == []


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE_ROOT.rglob("__init__.py")),
    ids=lambda path: ".".join(path.parent.relative_to(SOURCE_ROOT).parts),
)
def test_package_init_is_a_docstring(path):
    body = ast.parse(path.read_text()).body
    assert body and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)
    rest = [ast.unparse(node) for node in body[1:]]
    if path.parent == PACKAGE_ROOT:
        assert len(rest) == 1 and rest[0].startswith("__version__ = ")
    else:
        assert rest == []
