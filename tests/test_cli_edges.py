"""Float-range edges as a checked table: every numeric flag of price and
smile, one at a time, over a fixed ladder of values, in process with
warnings recorded. Each run meets the CLI contract: exit 0 with an empty
stderr and a finite artifact, exit 1 with exactly one JSON error line and
no warning, or exit 2 for a usage error."""
import argparse
import json
import math
import warnings

import pytest

from fracvol.cli import build_parser, main

LADDER = (0.0, *(sign * v for v in (5e-324, 1e-320, 1e-300, 1e-30, 30.0, 60.0, 300.0,
                                    700.0, 709.8, 710.0, 745.0, 1e20, 1e300, 1.7e308)
                 for sign in (1.0, -1.0)))


def _numeric_flags(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(a.option_strings[0], a.type) for a in sub.choices[command]._actions
            if a.type in (int, float)]


def _text(value, kind):
    """The ladder value as a flag argument; an int flag takes the integral ones."""
    return str(int(value)) if kind is int and value == int(value) else repr(value)


def _all_finite(path):
    """Every number in a JSON or CSV artifact is finite."""
    text = path.read_text()
    if text.startswith("{"):
        numbers = []

        def walk(node):
            if isinstance(node, dict):
                for item in node.values():
                    walk(item)
            elif isinstance(node, list):
                for item in node:
                    walk(item)
            elif isinstance(node, float):
                numbers.append(node)

        walk(json.loads(text))
    else:
        numbers = [float(v) for line in text.splitlines()[1:] for v in line.split(",")]
    return all(math.isfinite(v) for v in numbers)


def _breach(code, err, caught, out):
    """How one run breaks the contract, or None."""
    if code != 2 and caught:
        return f"exit {code} after {caught[0].category.__name__}: {caught[0].message}"
    lines = err.splitlines()
    if code == 0:
        if err:
            return f"exit 0 with stderr {err!r}"
        return None if _all_finite(out) else "exit 0 with a non-finite artifact"
    if code == 1:
        if len(lines) != 1 or set(json.loads(lines[0])) != {"error", "message"}:
            return f"exit 1 with stderr {err!r}"
        return "exit 1 left an artifact" if out.exists() else None
    return None if code == 2 else f"exit {code}"


@pytest.mark.parametrize("command, flag, kind", [
    pytest.param(command, flag, kind, id=f"{command}{flag}")
    for command in ("price", "smile") for flag, kind in _numeric_flags(command)])
def test_flag_ladder_meets_the_cli_contract(tmp_path, capsys, command, flag, kind):
    out = tmp_path / "artifact"
    breaches = []
    for value in LADDER:
        arg = f"{flag}={_text(value, kind)}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([command, arg, "--out", str(out)])
            except SystemExit as usage:
                code = usage.code
        breach = _breach(code, capsys.readouterr().err, caught, out)
        if breach:
            breaches.append(f"{command} {arg}: {breach}")
        out.unlink(missing_ok=True)
    assert not breaches, "\n".join(breaches)


def test_ladder_covers_the_flags():
    assert len(LADDER) == len(set(LADDER)) == 29
    assert [flag for flag, _ in _numeric_flags("price")] == [
        "--seed", "--spot", "--rate", "--sigma", "--alpha-disp", "--strike", "--tau"]
    assert [flag for flag, _ in _numeric_flags("smile")] == [
        "--seed", "--hurst", "--k", "--beta", "--delta", "--spot", "--rate", "--sigma",
        "--alpha-disp"]
