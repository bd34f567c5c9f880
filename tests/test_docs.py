"""README's reference tables name what the program accepts and reports, no
more and no less: the config table's keys are config.KEYS, the global-flags
paragraph names the options of the command-line parser, the list of
sampler names those the samplers report, the Install paragraph the
dependencies pyproject.toml declares, and every `module.name` of the
package's modules names code that exists."""

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import idcascade
from idcascade import GridSpec, cli, lognormal_model, single_atom_model
from idcascade.config import KEYS
from idcascade.field import make_sampler

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PYPROJECT = (ROOT / "pyproject.toml").read_text()


def _config_table_keys():
    """Every `section.key` in the first cell of the config table's rows;
    a row may name two keys."""
    lines = README.splitlines()
    start = lines.index("| key | type | default | bound |") + 2
    keys = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys += re.findall(r"`(\w+\.\w+)`", line.split("|")[1])
    return keys


def _global_flags_paragraph():
    [paragraph] = [p for p in README.split("\n\n")
                   if p.startswith("Global flags")]
    return paragraph


def test_config_table_names_every_key_once():
    keys = _config_table_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == {f"{section}.{key}" for section, keys in KEYS.items()
                         for key in keys}


def test_global_flags_paragraph_names_every_option():
    options = {opt for action in cli._build_parser()._actions
               if action.dest != "help" for opt in action.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", _global_flags_paragraph())) \
        == options


def test_sampler_list_names_every_sampler_once():
    [paragraph] = [p for p in README.split("\n\n")
                   if "record which sampler ran" in p]
    listed = re.findall(r"`([\w-]+)`", paragraph.split(
        "(`sampler`:", 1)[1].split(")", 1)[0])
    # each model kind on one copy and on three, and a Gaussian grid of
    # 2048 points, the circulant embedding's
    names = {make_sampler(GridSpec((0.0, 1.0), 3, 2), model, copies).name
             for model in (lognormal_model(0.5), single_atom_model(-0.5, 1.0),
                           single_atom_model(-0.4, 0.8, sigma2=0.2))
             for copies in (1, 3)}
    names.add(make_sampler(GridSpec((0.0, 1.0), 10, 2, 0),
                           lognormal_model(0.5)).name)
    assert len(listed) == len(set(listed))
    assert set(listed) == names


def _requirements(key):
    """The package names of pyproject.toml's `key = [...]` list."""
    [block] = re.findall(rf"^{key} = \[(.*?)\]", PYPROJECT, re.M | re.S)
    return set(re.findall(r'"([A-Za-z0-9_-]+)', block))


def test_install_paragraph_names_the_runtime_dependencies():
    # "Requires Python 3.10+ and <runtime>; the tests use <test extra>."
    [paragraph] = [" ".join(p.split()) for p in README.split("\n\n")
                   if p.startswith("Requires Python")]
    runtime, tests = paragraph.split("; the tests use ", 1)
    tests = tests.split(".", 1)[0]
    packages = _requirements("dependencies") | _requirements("test")

    def named(text):
        return {p for p in packages if re.search(rf"\b{p}\b", text)}
    assert named(runtime) == _requirements("dependencies")
    assert named(tests) == _requirements("test")


def _module_references(text):
    """(module, dotted name) of each backticked `module.name`, with or
    without the `idcascade.` prefix, whose module is one of the
    package's; a call's arguments are left out."""
    modules = {m.name for m in pkgutil.iter_modules(idcascade.__path__)}
    return sorted({(module, name) for module, name in re.findall(
        r"`(?:idcascade\.)?(\w+)\.([\w.]+)[`(]", text) if module in modules})


def test_readme_names_only_code_that_exists():
    # an output file (moments.json) is named as <kind>.<format>
    refs = [(module, name) for module, name in _module_references(README)
            if name not in ("json", "csv")]
    assert refs
    missing = []
    for module, name in refs:
        try:
            functools.reduce(getattr, name.split("."),
                             importlib.import_module(f"idcascade.{module}"))
        except AttributeError:
            missing.append(f"{module}.{name}")
    assert missing == []
