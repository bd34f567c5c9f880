"""README's reference tables name what the program accepts, no more and no
less: the config table's keys are config.KEYS, and the global-flags
paragraph names the options of the command-line parser."""

import re
from pathlib import Path

from idcascade import cli
from idcascade.config import KEYS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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
