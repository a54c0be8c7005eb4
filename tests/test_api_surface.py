"""The package keeps only what a subcommand runs: every public function, class and
method in src/isocmc is named somewhere in src/ outside its own definition."""

import ast
from pathlib import Path

import isocmc

SRC = Path(isocmc.__file__).parent
# Kept for the benchmark's tracer, which wraps it, until the tracer no longer needs it.
ALLOWED = {"SurfaceSample.as_height_field"}


def public_definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of each public top-level function
    and class, and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def references(tree: ast.Module):
    """(name, line) of every name, attribute and imported name the module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_every_public_name_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = [(name, module, line) for module, tree in trees.items() for name, line in references(tree)]
    unused = []
    for module, tree in trees.items():
        for qualified, name, first, last in public_definitions(tree):
            outside = (
                ref for ref, where, line in refs
                if ref == name and not (where == module and first <= line <= last)
            )
            if next(outside, None) is None and qualified not in ALLOWED:
                unused.append(f"{module}: {qualified}")
    assert not unused, f"named nowhere else in src/: {unused}"


def test_the_allowed_names_exist():
    # an entry whose definition is gone would keep nothing alive; drop it with its code
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    defined = {qualified for tree in trees for qualified, *_ in public_definitions(tree)}
    assert ALLOWED <= defined
