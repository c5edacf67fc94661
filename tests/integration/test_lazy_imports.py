"""``import repro.<subpackage>`` loads that subpackage, not the whole facade.

``repro/__init__`` and ``repro/engine/__init__`` resolve their public names
lazily (PEP 562), so the proof, the kernel, the engine and the bench harness
import without the HTTP front-end, the report, the experiment drivers, the
dict reference, :mod:`repro.analysis` or :mod:`multiprocessing`.
The server imports no :mod:`multiprocessing` either: it is one process.
The facade itself still exports every name of ``__all__``.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.engine

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a plain proof, grid or bench import must not load.  The dict
#: reference (``repro.pipeline.pipelines``) is for tests and ``validate``.
HEAVY = (
    "repro.api",
    "repro.report",
    "repro.experiments",
    "repro.pipeline.pipelines",
    "http.server",
    "multiprocessing",
)

PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules)))
"""


@pytest.mark.parametrize(
    "module",
    [
        "repro.check.coverage",
        "repro.kernel.batch",
        "repro.engine.pool",
        "repro.bench",
    ],
)
def test_subpackage_import_stays_small(module):
    assert loaded_by(module, HEAVY) == []


def loaded_by(module: str, watched: tuple[str, ...]) -> list[str]:
    """Which of ``watched`` a fresh interpreter loads importing ``module``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, module, json.dumps(watched)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


SUBPACKAGES = sorted(
    f"repro.{path.name}"
    for path in (Path(SRC) / "repro").iterdir()
    if (path / "__init__.py").exists()
)


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_each_subpackage_imports_first(module):
    """No import cycle hides behind the order a caller happens to use:
    each subpackage imports cleanly as the first ``repro`` import."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "module",
    [
        "repro.engine.cache",
        "repro.engine.pool",
        "repro.bench",
        "repro.check.coverage",
    ],
)
def test_grid_and_proof_imports_load_no_sqlite(module):
    """The disk tier imports :mod:`sqlite3` on first use: the grid runs a
    memory-only cache and the proof none, so neither pays for it."""
    assert loaded_by(module, ("sqlite3", "_sqlite3")) == []


@pytest.mark.parametrize(
    "module", ["repro.check.coverage", "repro.engine.pool", "repro.bench"]
)
def test_proof_grid_and_bench_imports_load_no_analysis(module):
    """``repro.engine`` resolves its names lazily and the table formatting
    is imported where a table is printed, so none of these loads the
    aggregation package."""
    assert loaded_by(module, ("repro.analysis",)) == []


@pytest.mark.parametrize(
    "module", ["repro.engine.pool", "repro.bench", "repro.api.serve"]
)
def test_engine_bench_and_server_imports_load_no_checker(module):
    """The checker is imported on a proving map's first proof only."""
    assert loaded_by(module, ("repro.check",)) == []


def test_proof_import_loads_no_process_machinery():
    """The proof maps on the engine's pool, which imports its process
    machinery only when it starts workers."""
    watched = ("multiprocessing", "concurrent.futures")
    assert loaded_by("repro.check.coverage", watched) == []


def test_server_import_loads_no_multiprocessing():
    assert loaded_by("repro.api.serve", ("multiprocessing",)) == []


def test_load_harness_import_loads_no_multiprocessing():
    """Benchmark workers import ``percentile`` from the load harness."""
    assert loaded_by("repro.api.loadtest", ("multiprocessing",)) == []


def type_checking_imports(package=repro) -> dict[str, str]:
    """Name -> module of the ``if TYPE_CHECKING:`` imports type checkers read."""
    tree = ast.parse(Path(package.__file__).read_text())
    block = next(
        node
        for node in tree.body
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )
    return {
        alias.name: node.module
        for node in block.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_lazy_table_matches_what_type_checkers_see():
    imports = type_checking_imports()
    assert imports == repro._EXPORTS
    assert set(imports) | {"__version__"} == set(repro.__all__)


def test_every_public_name_resolves_to_its_definition():
    for name, module in type_checking_imports().items():
        namespace: dict = {}
        exec(f"from repro import {name}", namespace)
        assert namespace[name] is getattr(
            importlib.import_module(module), name
        ), name
    assert repro.__version__ == "1.0.0"


def test_dir_lists_every_public_name():
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018


def test_engine_package_exports_lazily_what_type_checkers_see():
    """``repro.engine`` keeps the same lazy table as ``repro``."""
    imports = type_checking_imports(repro.engine)
    assert imports == repro.engine._EXPORTS
    assert set(imports) == set(repro.engine.__all__)
    assert set(repro.engine.__all__) <= set(dir(repro.engine))
    for name, module in imports.items():
        namespace: dict = {}
        exec(f"from repro.engine import {name}", namespace)
        assert namespace[name] is getattr(
            importlib.import_module(module), name
        ), name
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.engine.no_such_name  # noqa: B018


#: Packages that import their extension modules on first access only.
PARTLY_LAZY = {
    "repro.machine": ("repro.machine.costmodel",),
    "repro.core": ("repro.core.pressure",),
}


@pytest.mark.parametrize("package", sorted(PARTLY_LAZY))
def test_extension_modules_load_on_first_access(package):
    assert loaded_by(package, PARTLY_LAZY[package]) == []
    module = importlib.import_module(package)
    assert type_checking_imports(module) == module._LAZY
    assert set(module._LAZY) <= set(module.__all__) <= set(dir(module))
    for name, defining in module._LAZY.items():
        assert getattr(module, name) is getattr(
            importlib.import_module(defining), name
        ), name
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018
