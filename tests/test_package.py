import importlib
import inspect

import pytest

import bopcalc

LIBRARY_MODULES = ("algebra", "catalog", "conjecture", "errors", "reports",
                   "series", "splitting", "towers")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_all_is_the_one_export_list(name):
    module = importlib.import_module(f"bopcalc.{name}")
    defined = {key for key, value in vars(module).items()
               if not key.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__}
    assert defined <= set(module.__all__)
    for key in module.__all__:
        assert getattr(bopcalc, key) is getattr(module, key), key
