import doctest
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

import bopcalc

LIBRARY_MODULES = ("algebra", "catalog", "conjecture", "errors", "reports",
                   "series", "splitting", "towers")

# The library modules whose docstrings hold no examples.
NO_EXAMPLES = ("errors", "reports", "splitting")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_doctests(name):
    results = doctest.testmod(importlib.import_module(f"bopcalc.{name}"))
    assert results.failed == 0
    assert results.attempted > 0 or name in NO_EXAMPLES


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


def test_cli_import_loads_no_heavy_stdlib_modules():
    # each bopcalc run is a short process, so start-up time is part of
    # every check's cost; these modules alone cost more than most checks
    probe = ("import sys; before = set(sys.modules); import bopcalc.cli; "
             "print(sorted({'dataclasses', 'inspect', 'csv'} "
             "& (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_typing_without_site():
    # annotations stay unevaluated (from __future__ import annotations),
    # so no module needs typing at run time; -S keeps site's own imports
    # out of the count
    src = os.path.dirname(os.path.dirname(bopcalc.__file__))
    probe = ("import sys; before = set(sys.modules); import bopcalc.cli; "
             "print('typing' in set(sys.modules) - before)")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_tracer_spans_name_live_functions():
    # the benchmark's tracer wraps each span's function by name, so a
    # deleted or renamed entry point breaks every traced run
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("_bopcalc_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module_name, attr, _ in tracer.SPANS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
