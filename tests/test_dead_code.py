"""Every function, class and method defined in src/idcascade is used by
name somewhere in the package or in the benchmark (perfbench/), so code
that only the tests call shows up here.

A name counts as used when it appears as a name, an attribute, an import
or a string constant (the tracer wraps methods by their names as strings).
The package's __init__.py re-exports names for the user, so its imports
and the string constants of its name table count as no caller.
The subcommand and estimate dispatch builds a name from a prefix and a
key, as f"cmd_{command}", so a name that is two string constants joined,
such as "cmd_" and "theory", counts as used too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# module.name -> why it stays without a caller in src/ or perfbench/
ALLOWED = {
    "cones.strip_kernel": "planned for strip draws (ROADMAP item 10)",
    "moments.selberg_moment": "ROADMAP item 9 gives it callers",
    "moments.implicit_renewal_constant": "ROADMAP item 9 gives it callers",
    "moments.growth_ratio_probe": "test_11's acceptance line",
    "levy.single_atom_model": "the tests' constructor of atom models",
}


def _parse(path):
    return path, ast.parse(path.read_text(), str(path))


def _definitions(tree):
    """Names of every function, class and method of a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name


def _references(path, tree):
    """Names, attributes, imported names and string constants (but
    __init__.py's imports and strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias) and path.name != "__init__.py":
            yield node.name.rsplit(".", 1)[-1]
    yield from _strings(path, tree)


def _strings(path, tree):
    if path.name == "__init__.py":
        return set()
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unused_definitions(root=ROOT):
    """module.name of each definition in src/idcascade that nothing in
    src/idcascade or perfbench/ refers to, dunders left out."""
    sources = [_parse(p) for p in sorted(
        (root / "src" / "idcascade").glob("*.py"))]
    trees = sources + [_parse(p) for p in sorted(
        (root / "perfbench").glob("*.py"))]
    used = {name for path, tree in trees
            for name in _references(path, tree)}
    strings = set().union(*(_strings(path, tree) for path, tree in trees))
    unused = []
    for path, tree in sources:
        for name in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            joined = any(name[:i] in strings and name[i:] in strings
                         for i in range(1, len(name)))
            if name not in used and not joined:
                unused.append(f"{path.stem}.{name}")
    return sorted(unused)


def test_every_definition_in_src_has_a_caller():
    assert unused_definitions() == sorted(ALLOWED)
