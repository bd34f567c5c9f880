"""Which private names the modules of src/idcascade import from one
another.  A private helper that a second module imports is a decision
that two modules know; the list is pinned so that a new one is a choice
made on purpose, and cascade.py leaves the drawing of fields (cones'
regions included) to field.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "idcascade"


def private_imports(src=SRC):
    """(importer, module, name) of every underscore-prefixed name that a
    module of src imports from another module of the package."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level
                    and node.module):
                found += [(path.stem, node.module, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")]
    return sorted(found)


def imported_modules(path):
    """The package modules that path imports, by any spelling."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else
                         [alias.name for alias in node.names])
    return names


def test_private_imports_are_pinned():
    assert private_imports() == [("cascade", "field", "_scratch"),
                                 ("cli", "cascade", "_write_file"),
                                 ("moments", "levy", "_unit_gauss")]


def test_cascade_does_not_import_cones():
    modules = imported_modules(SRC / "cascade.py")
    assert "field" in modules
    assert "cones" not in modules


def writing_opens(src=SRC):
    """(module, line) of every call of the builtin open whose mode is not
    a constant that only reads."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            if modes and not (isinstance(modes[0], ast.Constant)
                              and isinstance(modes[0].value, str)
                              and not set("wax+") & set(modes[0].value)):
                found.append((path.stem, node.lineno))
    return found


def test_every_output_file_goes_through_one_writer():
    # the package writes files through cascade._write_file alone, which
    # overwrites in place and cuts to length
    assert writing_opens() == []


def config_builds(path=SRC / "cli.py"):
    """(function, method) of every call of build_model, build_grid or
    check in a top-level function of path, nested functions included."""
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        if isinstance(top, ast.FunctionDef):
            found += [(top.name, node.func.attr) for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("build_model", "build_grid",
                                             "check")]
    return found


def test_only_main_builds_the_model_and_grid():
    # main checks the whole configuration, model and grid included, before
    # any subcommand runs, and hands each cmd_<sub> what it built
    assert config_builds() == [("main", "check")]
