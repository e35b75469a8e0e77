"""CLI fuzz: any numeric flag or abm config value exits 0, 1 or 2, and a
failure is one JSON line on stderr, never a traceback.

Examples are derandomized, so every run draws the same command lines.
"""
import contextlib
import io
import json
import os
import tempfile

import pytest

from fracvol.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# plausible values mixed with any double, NaN, +-inf and subnormals included
_REAL = st.one_of(st.floats(-3.0, 3.0), st.floats()).map(repr)


def _count(lo, hi):
    return st.integers(lo, hi).map(str)


def _flags(required: dict, optional: dict):
    """argv tokens: every required flag and any subset of the optional
    ones, each with one drawn value."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda d: [tok for flag, value in d.items() for tok in (flag, value)])


_MODEL = {f"--{name}": _REAL for name in ("hurst", "k", "beta", "delta", "mu")}
_COMMANDS = st.one_of(
    _flags({"--steps": _count(-2, 2000)},
           {**_MODEL, "--paths": _count(-1, 4), "--seed": _count(-1, 99)}
           ).map(lambda a: ["simulate", *a]),
    _flags({}, {**_MODEL, "--tau": _REAL}).map(lambda a: ["pdf", *a]),
    _flags({}, {f"--{name}": _REAL for name in
                ("spot", "strike", "rate", "sigma", "tau", "alpha-disp")}
           ).map(lambda a: ["price", *a]),
    _flags({"--steps": _count(-2, 2000)},
           {"--width": _count(-2, 32), "--order-size": _REAL,
            "--seed": _count(-1, 99)}).map(lambda a: ["lob", *a]),
)
_POPULATION = st.lists(st.tuples(st.integers(-2, 82), st.integers(-1, 60)),
                       min_size=1, max_size=3).map(
    lambda mix: ", ".join(f"{code}:{count}" for code, count in mix))
_ABM_KEYS = {
    "population": _POPULATION, "seed": _count(-1, 99), "window": _count(0, 64),
    "f_choice": st.sampled_from(["step", "logistic", "other"]),
    "evolution.period": _count(-1, 300), "evolution.copiers": _count(-1, 120),
    "evolution.random_selection": st.sampled_from(["true", "false", "maybe"]),
    **{key: _REAL for key in (
        "unit_investment", "noise_sigma", "value_walk_sigma", "beta_f",
        "price0", "cash0", "stock0", "impact.lambda0", "impact.lambda1",
        "impact.alpha_exponent", "evolution.mutation_prob")},
}
_ABM_CONFIGS = st.fixed_dictionaries({}, optional=_ABM_KEYS).map(
    lambda kv: "".join(f"{key} = {value}\n" for key, value in kv.items()))


def _fuzz_main(argv: list[str]) -> tuple[int, str]:
    """main(argv) with stdout and stderr captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def _assert_error_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 1:
        doc = json.loads(err.splitlines()[-1])
        assert set(doc) == {"error", "message"}


_FUZZ = hypothesis.settings(max_examples=120, derandomize=True, database=None,
                            deadline=None)


@_FUZZ
@hypothesis.given(argv=_COMMANDS)
def test_cli_fuzz_numeric_flags(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_error_contract(*_fuzz_main(argv + ["--out", os.path.join(tmp, "x")]))


@_FUZZ
@hypothesis.given(config=_ABM_CONFIGS, steps=st.integers(-1, 2000))
def test_cli_fuzz_abm_config(config, steps):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.cfg")
        with open(cfg, "w") as handle:
            handle.write(config)
        _assert_error_contract(*_fuzz_main(
            ["abm", "--steps", str(steps), "--config", cfg,
             "--out", os.path.join(tmp, "x.csv")]))
