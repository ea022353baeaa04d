import ast
import importlib
import inspect
import logging
from pathlib import Path

import l1kernels

MODULES = ("errors", "kernels", "gram", "admissibility", "interpolation", "solvers", "experiment")


def exported(module) -> list[str]:
    """The names `from module import *` binds: __all__, or else every public name."""
    return getattr(module, "__all__", None) or [name for name in vars(module) if not name.startswith("_")]


def test_package_reexports_each_modules_public_names():
    expected = {}
    for module in (importlib.import_module(f"l1kernels.{name}") for name in MODULES):
        for name in exported(module):
            assert name not in expected, f"{name} exported twice"
            expected[name] = getattr(module, name)
    public = {name: obj for name, obj in vars(l1kernels).items() if not name.startswith("_")}
    # apart from the exports, the package holds its submodules and logging
    extra = {name: obj for name, obj in public.items() if name not in expected}
    assert all(
        obj is logging or (inspect.ismodule(obj) and obj.__name__ == f"l1kernels.{name}") for name, obj in extra.items()
    ), sorted(extra)
    assert set(MODULES) <= extra.keys()
    for name, obj in expected.items():
        assert public[name] is obj, name


def test_errors_exports_exactly_its_exception_classes():
    errors = importlib.import_module("l1kernels.errors")
    names = exported(errors)
    assert names and all(
        inspect.isclass(errors.__dict__[name]) and issubclass(errors.__dict__[name], l1kernels.L1KernelsError)
        for name in names
    )


def test_every_error_class_has_a_raise_site():
    # a class that nothing raises any more cannot stay in errors.py unnoticed
    raised = set()
    for path in Path(l1kernels.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    errors = importlib.import_module("l1kernels.errors")
    classes = set(exported(errors)) - {"L1KernelsError"}
    assert classes <= raised, sorted(classes - raised)


def test_only_the_cli_opens_files():
    # the library computes and returns; reading and writing files is the
    # CLI's, so no other module may call open (builtin or a .open method)
    openers = []
    for path in Path(l1kernels.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    openers.append(path.name)
    assert openers and set(openers) == {"cli.py"}, sorted(openers)
