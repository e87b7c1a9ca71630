"""Every name a module lists in ``__all__`` must exist."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["stringtop", "stringtop.brackets", "stringtop.chords", "stringtop.phasespace"]
)
def test_star_import_binds_every_listed_name(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
