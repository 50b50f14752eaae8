import importlib
import pkgutil

import pytest

import schouten

_MODULES = sorted(f"schouten.{m.name}" for m in pkgutil.iter_modules(schouten.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_star_import_binds_exactly_the_package_all():
    # a stale name in the package __all__ makes the import raise AttributeError
    namespace = {}
    exec("from schouten import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(schouten.__all__)
