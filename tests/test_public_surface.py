"""The public surface: every name a package exports in ``__all__`` exists.

A name left in ``__all__`` after its definition moved or was deleted
only fails at ``from repro.x import *`` time, far from the edit that
broke it. This walks ``repro`` and every subpackage.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
