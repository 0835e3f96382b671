"""Every name a module exports in `__all__` resolves."""

import importlib
import pkgutil

import pytest

import pam

MODULES = ["pam"] + [f"pam.{m.name}" for m in pkgutil.iter_modules(pam.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
