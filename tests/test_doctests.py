"""Run every library docstring example as a test.

Docstring examples are part of the documented API surface; this keeps
them from rotting as the code evolves.  The cross-references in those
docstrings (``:func:`repro.…``` and the like) must name an object that
exists, reached through the module that defines it.
"""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def _library_modules():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", _library_modules())
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{module_name}: {results.failed} doctest failure(s)"
    )


CROSS_REFERENCE = re.compile(r":(?:func|class|meth|mod):`~?(repro(?:\.\w+)+)`")
SOURCE_DIR = Path(repro.__file__).resolve().parent


def _cross_reference_targets():
    targets = set()
    for path in SOURCE_DIR.rglob("*.py"):
        targets.update(CROSS_REFERENCE.findall(path.read_text()))
    return sorted(targets)


def _resolve(target):
    """Import the longest module prefix of ``target``, then follow attributes.

    The first attribute must be defined in that module, not imported into it.
    """
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        if split == len(parts):
            return module
        obj = getattr(module, parts[split])
        home = getattr(obj, "__module__", module.__name__)
        if home != module.__name__:
            raise AttributeError(f"{target}: defined in {home}")
        for attr in parts[split + 1:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(target)


def test_docstring_cross_references_resolve():
    dangling = []
    for target in _cross_reference_targets():
        try:
            _resolve(target)
        except (ImportError, AttributeError):
            dangling.append(target)
    assert dangling == []
