"""Every pinned result is written once, in ``tests/pins.json``: the CI
workflow holds none of them and no long float or digest of its own, no test
module repeats a pinned float or digest, and every pin is read by a test."""

import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"
# a number with a point or an exponent, its sign left out
FLOAT = re.compile(r"(?<![\w.])(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")
DIGEST = re.compile(r"\b[0-9a-f]{64}\b")


def leaves(value):
    """The strings a pin value holds, at any depth."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item)


def significant_digits(literal: str) -> int:
    mantissa = re.split("[eE]", literal)[0].replace(".", "")
    return len(mantissa.lstrip("0"))


def floats(text: str) -> set:
    return {float(literal) for literal in FLOAT.findall(text)}


def pinned(pins) -> tuple:
    """The pinned strings, the float values inside them and the digests."""
    strings = set(leaves(pins))
    return strings, set().union(*map(floats, strings)), {s for s in strings if DIGEST.fullmatch(s)}


def test_workflow_holds_no_result(pins):
    text = WORKFLOW.read_text(encoding="utf-8")
    long_floats = [lit for lit in FLOAT.findall(text) if significant_digits(lit) >= 10]
    assert long_floats == []
    assert DIGEST.findall(text) == []
    strings, values, _ = pinned(pins)
    assert sorted(s for s in strings if s in text) == []
    assert sorted(floats(text) & values) == []


def test_no_test_module_repeats_a_pin(pins):
    _, values, digests = pinned(pins)
    for path in sorted(TESTS.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert sorted(floats(text) & values) == [], path.name
        assert sorted(set(DIGEST.findall(text)) & digests) == [], path.name


def test_every_pin_is_read(pins):
    paths = [p for p in TESTS.glob("test_*.py") if p.name != "test_pins.py"]
    texts = [p.read_text(encoding="utf-8") for p in paths]
    unread = [key for key in pins if not any(f'"{key}"' in t or f"'{key}'" in t for t in texts)]
    assert unread == []
