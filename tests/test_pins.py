"""Every pinned value of the suite sits in tests/pins.py and is read by a
test: no test file outside the table holds a hex float, a 32-hex model
digest or a stream key (an integer of 64 bits or more), and each row's
path is a string constant of some test, or two joined (a path and its
suffix).
"""

import ast
import math
import re
from pathlib import Path

import pytest

import pins
from pins import assert_pinned

TESTS = Path(__file__).resolve().parent
HEX_FLOAT = re.compile(r"0x[0-9a-f]+(\.[0-9a-f]*)?p[-+]?[0-9]+", re.I)
DIGEST = re.compile(r"(?<![0-9a-f])[0-9a-f]{32}(?![0-9a-f])", re.I)


def _constants():
    """(file name, line, value) of every constant of tests/ but the
    table."""
    for path in sorted(TESTS.glob("*.py")):
        if path.name != "pins.py":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Constant):
                    yield path.name, node.lineno, node.value


def pinned_literals():
    found = []
    for name, line, value in _constants():
        if isinstance(value, str):
            hit = HEX_FLOAT.search(value) or DIGEST.search(value)
        else:
            hit = (isinstance(value, int) and not isinstance(value, bool)
                   and abs(value) >= 2 ** 64)
        if hit:
            found.append((name, line))
    return found


def unread_rows():
    strings = {v for _, _, v in _constants() if isinstance(v, str)}
    return [path for path in pins.PINS if path not in strings and not any(
        path[:i] in strings and path[i:] in strings
        for i in range(1, len(path)))]


def test_no_pinned_literal_outside_the_table():
    assert pinned_literals() == []


def test_every_row_is_read_by_a_test():
    assert unread_rows() == []
    # and no path names two rows, the later hiding the earlier
    assert len(pins.PINS) == len(re.findall(r"^\S", pins.TABLE, re.M))


def _values(path):
    return [float.fromhex(t) for t in pins.PINS[path]]


@pytest.mark.parametrize("path", ["circulant/batch",
                                  "poisson/juxtaposed/cone-drop"])
def test_a_moved_pin_names_its_path_and_both_rows(path, monkeypatch):
    values = _values(path)
    assert_pinned(path, values)
    old = pins.PINS[path]
    # 1e-9 relative: past the cone-drop rows' 1e-12, and every bit row's
    moved = values[3] * (1 + 1e-9)
    monkeypatch.setitem(pins.PINS, path, old[:3] + [moved.hex()] + old[4:])
    with pytest.raises(AssertionError) as failure:
        assert_pinned(path, values)
    message = str(failure.value)
    assert repr(path) in message and "exactly in law" in message
    old_part, new_part = message.split("\nnew:\n")
    assert moved.hex() in old_part and old[3] not in old_part
    # the new row is the table's row of the values: pasted, it passes
    assert new_part.split() == [path, *old]
    assert all(len(line) <= 79 for line in new_part.splitlines())


def test_rows_compare_bit_for_bit_or_at_their_tolerance():
    values = _values("poisson/juxtaposed/cone-drop")
    values[0] *= 1 + 1e-13
    assert_pinned("poisson/juxtaposed/cone-drop", values)
    with pytest.raises(AssertionError, match="at 1e-12 relative"):
        assert_pinned("poisson/juxtaposed/cone-drop", values[:-1])
    values = _values("poisson/juxtaposed")
    values[0] = math.nextafter(values[0], math.inf)
    with pytest.raises(AssertionError, match="bit for bit"):
        assert_pinned("poisson/juxtaposed", values)
