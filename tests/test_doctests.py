import doctest
import importlib
import pkgutil

import pytest

import parkav

# the package and every module in it, so a module's new doctests run too
MODULES = [parkav] + [importlib.import_module(f"parkav.{m.name}") for m in pkgutil.iter_modules(parkav.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
