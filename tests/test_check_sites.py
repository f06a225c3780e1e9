"""Where the package checks a metric definite: once per jet it makes, and at its public entries."""
import ast
import importlib
import inspect
import pkgutil

import kahlerpinch

# (module, function) of every reference to the definiteness check: geometry's
# entries that take a metric from outside, the models' jet maker, and the
# direction search, which takes curvature stacks from outside.  The check
# factors the metric, so ricci and scalar_curvature check theirs through
# inverse_metric.
ALLOWED = {
    ("geometry", "inverse_metric"),
    ("geometry", "curvature_tensor"),
    ("geometry", "orthonormal_frame"),
    ("models", "_jet_on_rows"),
    ("optimize", "extremize_directions"),
}


def _check_sites(name):
    """(module, enclosing function) of each use of ``_require_positive_definite`` in a module."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"kahlerpinch.{name}")))
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>") if function is None else function
        if isinstance(node, ast.Name) and node.id == "_require_positive_definite":
            sites.append((name, function))
        if isinstance(node, ast.Attribute) and node.attr == "_require_positive_definite":
            sites.append((name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_metrics_are_checked_only_where_they_enter():
    sites = [
        site
        for info in pkgutil.iter_modules(kahlerpinch.__path__)
        for site in _check_sites(info.name)
    ]
    assert sorted(sites) == sorted(ALLOWED), sorted(set(sites) ^ ALLOWED)
