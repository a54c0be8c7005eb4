"""The package keeps only what a subcommand runs: every public function, class and
method in src/isocmc is named somewhere in src/ outside its own definition, every
defaulted parameter of a public function or method is set by some call in src/, so no
default is a knob that only tests turn, and every module-level import is used or
exported.  Every field of a dataclass is read as an attribute somewhere in src/ outside
its class, but for the reports that are written out whole.  Every source file parses at
the Python floor that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import isocmc

SRC = Path(isocmc.__file__).parent
ROOT = Path(__file__).parent.parent
# Kept for the benchmark's tracer, which wraps it, until the tracer no longer needs it.
ALLOWED = {"SurfaceSample.as_height_field"}
# (module, qualified name, parameter) of defaults only callers outside src/ set:
# cli.main's argv, which the tests and the benchmark's traced run pass.
ALLOWED_KNOBS = {("cli.py", "main", "argv")}
# Dataclasses whose every field io_mesh.write_report serializes, unread by name.
SERIALIZED = {"ClassificationResult", "VdistReport"}


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class, and of each
    public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


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
        for qualified, node in public_definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            outside = (
                ref for ref, where, line in refs
                if ref == node.name and not (where == module and line in inside)
            )
            if next(outside, None) is None and qualified not in ALLOWED:
                unused.append(f"{module}: {qualified}")
    assert not unused, f"named nowhere else in src/: {unused}"


def dataclass_fields(tree: ast.Module):
    """(class node, field name) of each annotated field of each top-level dataclass."""
    for node in tree.body:
        decorators = [getattr(d, "func", d) for d in getattr(node, "decorator_list", [])]
        if "dataclass" in [getattr(d, "id", None) for d in decorators]:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node, item.target.id


def test_every_dataclass_field_is_read_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = [
        (node.attr, module, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for module, tree in trees.items():
        for cls, field in dataclass_fields(tree):
            inside = range(cls.lineno, cls.end_lineno + 1)
            read = any(
                attr == field and not (where == module and line in inside)
                for attr, where, line in reads
            )
            if cls.name not in SERIALIZED and not read:
                unread.append(f"{module}: {cls.name}.{field}")
    assert not unread, f"fields read nowhere in src/: {unread}"


def defaulted_parameters(qualified: str, node: ast.FunctionDef):
    """(name, position) of each parameter of the function or method that has a default;
    the position counts a call's positional arguments, so a method's self is not one,
    and it is None for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first - ("." in qualified)):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call passes the parameter, by keyword, position or unpacking."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and (len(call.args) > position or starred)


def callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def public_defaults(trees: dict):
    """(module, qualified name, parameter name, position, function name) of each
    defaulted parameter of a public function or method."""
    for module, tree in trees.items():
        for qualified, node in public_definitions(tree):
            if isinstance(node, ast.FunctionDef):
                for name, position in defaulted_parameters(qualified, node):
                    yield module, qualified, name, position, node.name


def test_every_defaulted_parameter_is_set_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    calls = [node for node in nodes if isinstance(node, ast.Call)]
    knobs = [
        f"{module}: {qualified}({name})"
        for module, qualified, name, position, function in public_defaults(trees)
        if (module, qualified, name) not in ALLOWED_KNOBS
        and not any(callee(call) == function and sets(call, name, position) for call in calls)
    ]
    assert not knobs, f"defaults no call in src/ overrides: {knobs}"


def test_the_allowed_names_exist():
    # an entry whose definition is gone would keep nothing alive; drop it with its code
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    defined = {qualified for tree in trees.values() for qualified, _ in public_definitions(tree)}
    assert ALLOWED <= defined
    assert SERIALIZED <= {cls.name for tree in trees.values() for cls, _ in dataclass_fields(tree)}
    defaults = {(module, qualified, name) for module, qualified, name, *_ in public_defaults(trees)}
    assert ALLOWED_KNOBS <= defaults


def module_imports(body: list):
    """(bound name, line) of each import among the statements, also inside their if and
    try blocks: given a module's top-level statements, its module-level imports."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            for block in ("body", "handlers", "orelse", "finalbody"):
                yield from module_imports(getattr(node, block, []))


def exported(tree: ast.Module) -> set:
    """The names of the module's __all__ list, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_module_level_import_is_used_or_exported():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
        unused += [f"{path.name}:{line}: {name}" for name, line in module_imports(tree.body)
                   if name not in used]
    assert not unused, f"imported and never used: {unused}"


def test_every_source_file_parses_at_the_declared_python_floor():
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = tuple(int(part) for part in floor.groups())
    files = [path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")]
    assert len(files) > 10
    for path in sorted(files):
        ast.parse(path.read_text(), str(path), feature_version=version)
