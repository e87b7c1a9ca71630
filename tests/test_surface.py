"""Every name a module lists in ``__all__`` must exist, and so must every
file and entry point that ``pyproject.toml`` declares."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "module", ["stringtop", "stringtop.brackets", "stringtop.chords", "stringtop.phasespace"]
)
def test_star_import_binds_every_listed_name(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)


def test_package_import_leaves_the_suite_runner_out():
    # the suite runner loads jsonschema and its fixtures; the library needs neither
    code = "import sys, stringtop; print(sorted({'stringtop.harness', 'jsonschema'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.split() == ["[]"]


def test_pyproject_declares_only_what_exists():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    project, setuptools = pyproject["project"], pyproject["tool"]["setuptools"]
    for target in project.get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target
    declared = [project["readme"]] if "readme" in project else []
    (where,) = setuptools["packages"]["find"]["where"]
    for package, files in setuptools.get("package-data", {}).items():
        declared += [f"{where}/{package.replace('.', '/')}/{name}" for name in files]
    assert declared
    for path in declared:
        assert (ROOT / path).is_file(), path
