"""Every name in ``__all__`` resolves, so ``from X import *`` works."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["repro", "repro.glm", "repro.metrics",
                                     "repro.data", "repro.collectives"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []
