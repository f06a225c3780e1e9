"""Each library module's ``__all__`` names exactly the public names it defines."""
import ast
import importlib
import inspect
import pkgutil

import pytest

import kahlerpinch

# The command module's interface is the ``kahlerpinch`` command, not its names.
LIBRARY = sorted(
    info.name for info in pkgutil.iter_modules(kahlerpinch.__path__) if info.name != "cli"
)


def _defined_names(module):
    """Public names bound at the top level of the module's source: def, class and assignments."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("name", LIBRARY)
def test_all_lists_the_public_definitions(name):
    module = importlib.import_module(f"kahlerpinch.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) == _defined_names(module)
