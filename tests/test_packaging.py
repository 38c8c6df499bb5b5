"""Package-level hygiene: every module imports, every export exists."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent


def all_module_names():
    names = ["repro"]
    for module in pkgutil.walk_packages([str(PACKAGE_ROOT)], prefix="repro."):
        names.append(module.name)
    return names


@pytest.mark.parametrize("module_name", all_module_names())
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", all_module_names())
def test_declared_exports_exist(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("module_name", all_module_names())
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"
    assert len(module.__doc__.strip()) > 20


def test_version_exposed():
    assert repro.__version__ == "1.0.0"


def test_cli_entry_point_importable():
    from repro.cli import main

    assert callable(main)


#: What the ``repro`` CLI commands import on their way to work.
WORKLOAD_MODULES = ("repro.cli", "repro.gen", "repro.faults.campaign",
                    "repro.core.verification")


@pytest.mark.parametrize("block_numpy", [False, True],
                         ids=["numpy-importable", "numpy-blocked"])
def test_workload_modules_never_import_numpy(block_numpy):
    """The CLI and every workload it drives run on the standard library:
    numpy is neither imported nor needed."""
    script = "\n".join([
        "import importlib, sys",
        *(["sys.modules['numpy'] = None"] if block_numpy else []),
        f"for name in {WORKLOAD_MODULES!r}:",
        "    importlib.import_module(name)",
        "assert sys.modules.get('numpy') is None, 'numpy was imported'",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT.parent), env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
