"""The package namespace: every public name loaded on first access, nothing before."""

import inspect
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import netpoverty

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code, *options):
    """The finished run of ``code`` in a new interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *options, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("name", netpoverty.__all__)
def test_each_public_name_is_its_defining_modules_object(name):
    module = import_module(f"netpoverty.{netpoverty._EXPORTS[name]}")
    value = getattr(netpoverty, name)
    assert value is getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__
    assert vars(netpoverty)[name] is value  # stored: later lookups skip __getattr__


def test_all_is_the_table_sorted_once():
    assert netpoverty.__all__ == sorted(set(netpoverty.__all__))
    assert set(netpoverty.__all__) == set(netpoverty._EXPORTS)


def test_dir_lists_every_public_name():
    listed = dir(netpoverty)
    assert set(netpoverty.__all__) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(set(listed))


@pytest.mark.parametrize("name", ["nope", "_EXPORT", "numpy", "__wrapped__"])
def test_unknown_name_raises_the_standard_attribute_error(name):
    with pytest.raises(AttributeError, match=rf"^module 'netpoverty' has no attribute '{name}'$"):
        getattr(netpoverty, name)
    assert not hasattr(netpoverty, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from netpoverty import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(netpoverty.__all__)
    assert all(namespace[name] is getattr(netpoverty, name) for name in namespace)


@pytest.mark.parametrize("name", ["aggregation", "axioms", "cli", "errors", "weights"])
def test_submodule_names_resolve(name):
    assert getattr(netpoverty, name) is sys.modules[f"netpoverty.{name}"]


def test_import_alone_loads_no_submodule_and_no_numpy():
    loaded = json.loads(run_fresh(
        "import json, sys, netpoverty\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] in "
        "('netpoverty', 'numpy'))))"
    ).stdout)
    assert loaded == ["netpoverty"]


#: a config file any test here may load
CONFIG = json.dumps({"cutoffs": [1.0, 2.0], "alpha": 1, "k": {"mode": "fraction", "value": 0.5}})
#: what loading a config must never import: readers, kernels, report code, hashing
NOT_FOR_A_CONFIG = {
    "netpoverty.dataio", "netpoverty.aggregation", "netpoverty.deprivation",
    "netpoverty.identification", "netpoverty.cli", "netpoverty.axioms", "netpoverty.weights",
    "csv", "hashlib",
}


def test_a_name_loads_only_its_modules_dependencies(tmp_path):
    # as a fresh interpreter that reads a config does
    config = tmp_path / "c.json"
    config.write_text(CONFIG, encoding="utf-8")
    loaded = json.loads(run_fresh(
        "import json, sys, netpoverty\n"
        f"netpoverty.load_config({str(config)!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'netpoverty')))"
    ).stdout)
    assert loaded == [
        "netpoverty", "netpoverty.bounds", "netpoverty.config", "netpoverty.core",
        "netpoverty.errors",
    ]


def test_importtime_lists_what_a_name_imports(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(CONFIG, encoding="utf-8")
    err = run_fresh(
        f"import netpoverty; netpoverty.load_config({str(config)!r})", "-X", "importtime"
    ).stderr
    imported = {line.rpartition("|")[2].strip() for line in err.splitlines()}
    assert "netpoverty.config" in imported
    assert not NOT_FOR_A_CONFIG & imported
