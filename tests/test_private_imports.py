"""Which private names each module of the package takes from the others.

A module's private names are its own business; those another module imports
are an interface that no ``__all__`` shows.  This pins them, so that a new
one shows up as an edit here.
"""
import ast
import importlib
import inspect
import pkgutil

import kahlerpinch

# module -> the private names it imports from other modules of the package, as
# "<module>.<name>"; a module that imports none is left out.
PINNED = {
    "berger": {
        "geometry._scalar_curvature",
        "geometry._stack_first",
        "models._as_point",
        "optimize._HSCScorer",
        "optimize._blocks",
        "optimize._frame_tensor",
        "optimize._widest_block",
    },
    "cli": {
        "geometry._ResidueError",
        "geometry._ricci",
        "geometry._scalar_curvature",
        "geometry._stack_first",
        "optimize._extremize_directions",
        "optimize._sweep_radii",
    },
    "models": {
        "geometry._Factors",
        "geometry._require_positive_definite",
        "geometry._stack_first",
        "geometry._stack_last",
    },
    "optimize": {
        "geometry._real_part",
        "geometry._require_positive_definite",
        "geometry._stack_first",
        "geometry._stack_last",
        "models._S_RANGE",
        "sphere._secular_root",
        "sphere._sphere_extrema",
    },
    "products": {"geometry._Factors", "optimize._extremize_directions"},
    "sphere": {"geometry._sum_first"},
}


def _private_imports(name):
    """The "<module>.<name>" of each ``from .module import _name`` in a module, wherever it stands."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"kahlerpinch.{name}")))
    return {
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_private_names_taken_across_modules_are_pinned():
    got = {info.name: _private_imports(info.name) for info in pkgutil.iter_modules(kahlerpinch.__path__)}
    got = {name: imports for name, imports in got.items() if imports}
    assert got == PINNED
    assert sum(map(len, got.values())) == 27
