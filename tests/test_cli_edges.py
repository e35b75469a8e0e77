"""Float-range edges as a checked table: every numeric flag of every
command but estimate (whose one, --seed, it does not use), and every
real-valued abm config key under both signal rules, one at a time, over a
fixed ladder of values, in process with warnings recorded. Each run meets
the CLI contract: exit 0 with an empty stderr and a finite artifact, exit 1
with exactly one JSON error line and no warning, or exit 2 for a usage
error."""
import argparse
import json
import math
import warnings

import pytest

from fracvol.agents import _CONFIG_KEYS
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


# what a command runs with besides the value under test, unless that sets it:
# the default path lengths would make the ladder slow (745 simulate paths of
# 4,096 steps alone take about 25 s)
_BASE = {"simulate": ["--steps", "64"], "lob": ["--steps", "4096"], "abm": ["--steps", "600"]}
_REAL_KEYS = [key for key, (_, _, default) in _CONFIG_KEYS.items() if type(default) is float]


def _ladder_breaches(command, flag, kind, tmp_path, capsys, config=None):
    """Run command once per ladder value, set by the flag, or by the config
    key `flag` after the config lines `config`; how each breaching run breaks
    the contract."""
    out, cfg = tmp_path / "artifact", tmp_path / "run.cfg"
    base = [] if flag in _BASE.get(command, ()) else _BASE.get(command, [])
    breaches = []
    for value in LADDER:
        if config is None:
            arg = f"{flag}={_text(value, kind)}"
            argv = [command, arg, *base]
        else:
            arg = f"{flag} = {value!r}"
            cfg.write_text(f"{config}{arg}\n")
            argv = [command, "--config", str(cfg), *base]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as usage:
                code = usage.code
        breach = _breach(code, capsys.readouterr().err, caught, out)
        if breach:
            breaches.append(f"{command} {config or ''}{arg}: {breach}")
        for written in tmp_path.glob("artifact*"):  # abm's csv report too
            written.unlink()
    return breaches


@pytest.mark.parametrize("command, flag, kind", [
    pytest.param(command, flag, kind, id=f"{command}{flag}")
    for command in ("price", "smile", "simulate", "pdf", "lob", "abm")
    for flag, kind in _numeric_flags(command)])
def test_flag_ladder_meets_the_cli_contract(tmp_path, capsys, command, flag, kind):
    breaches = _ladder_breaches(command, flag, kind, tmp_path, capsys)
    assert not breaches, "\n".join(breaches)


@pytest.mark.parametrize("rule", ["step", "logistic"])
@pytest.mark.parametrize("key", _REAL_KEYS)
def test_abm_config_ladder_meets_the_cli_contract(tmp_path, capsys, key, rule):
    breaches = _ladder_breaches("abm", key, float, tmp_path, capsys,
                                config=f"f_choice = {rule}\n")
    assert not breaches, "\n".join(breaches)


def test_ladder_covers_the_flags():
    assert len(LADDER) == len(set(LADDER)) == 29
    assert [flag for flag, _ in _numeric_flags("price")] == [
        "--seed", "--spot", "--rate", "--sigma", "--alpha-disp", "--strike", "--tau"]
    assert [flag for flag, _ in _numeric_flags("smile")] == [
        "--seed", "--hurst", "--k", "--beta", "--delta", "--spot", "--rate", "--sigma",
        "--alpha-disp"]
    assert [flag for flag, _ in _numeric_flags("simulate")] == [
        "--seed", "--hurst", "--k", "--beta", "--delta", "--mu", "--steps", "--paths"]
    assert [flag for flag, _ in _numeric_flags("pdf")] == [
        "--seed", "--hurst", "--k", "--beta", "--delta", "--mu", "--tau"]
    assert [flag for flag, _ in _numeric_flags("lob")] == [
        "--seed", "--width", "--order-size", "--steps"]
    assert [flag for flag, _ in _numeric_flags("abm")] == ["--seed", "--steps"]
    assert _numeric_flags("estimate") == [("--seed", int)]
    assert _REAL_KEYS == [
        "unit_investment", "noise_sigma", "value_walk_sigma", "beta_f", "price0", "cash0",
        "stock0", "impact.lambda0", "impact.lambda1", "impact.alpha_exponent",
        "evolution.mutation_prob"]
