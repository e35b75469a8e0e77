"""CLI fuzz: any numeric flag, abm config value or estimate input file
exits 0, 1 or 2. A domain failure (exit 1) is exactly one JSON line on
stderr, a success leaves stderr empty, and no run prints a traceback. A
simulate run that exits 0 wrote only finite positive prices.

Examples are derandomized, so every run draws the same command lines.
"""
import contextlib
import io
import json
import os
import tempfile

import numpy as np
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
    ones, each as --flag=value, so that argparse takes a value such as
    -1e-05 as the flag's value rather than as an unknown option."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda d: [f"{flag}={value}" for flag, value in d.items()])


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


_SMILES = _flags({}, {f"--{name}": _REAL for name in (
    "hurst", "k", "beta", "delta", "spot", "rate", "sigma", "alpha-disp")}
                 ).map(lambda a: ["smile", *a])
# estimate input: a t,price CSV on a uniform grid, a lognormal walk long
# enough to estimate (about 540 rows) or not, with a few rows replaced by
# malformed, non-finite, non-positive, non-increasing or off-grid ones
_BAD_ROWS = st.sampled_from([
    "{t},abc", "abc,1.0", "{t}", "{t},1.0,2.0", "{t},nan", "nan,1.0", "{t},inf",
    "{t},-inf", "inf,1.0", "{t},0.0", "{t},-1.0", "0.0,1.0", "{t_off},1.0", ""])


def _price_csv(header, dt, n_rows, seed, vol, bad):
    with np.errstate(over="ignore"):
        walk = np.exp(np.cumsum(vol * np.random.default_rng(seed).standard_normal(n_rows)))
    rows = [bad.get(i, "{t},{p!r}").format(t=repr(i * dt), p=p, t_off=repr((i + 0.5) * dt))
            for i, p in enumerate(walk.tolist())]
    return "\n".join([header, *rows]) + "\n"


_PRICE_CSVS = st.builds(
    _price_csv, st.sampled_from(["t,price", "t,price", "t,price", "time,price"]),
    st.one_of(st.sampled_from([1.0, 0.1, 1e-3]), st.floats(1e-300, 1e300)),
    st.one_of(st.integers(0, 700), st.integers(540, 700)), st.integers(0, 2**32 - 1),
    st.one_of(st.floats(0.0, 0.1), st.floats(0.0, 1e300)),
    st.one_of(st.just({}), st.dictionaries(st.integers(0, 700), _BAD_ROWS, max_size=3)))


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
    if code == 0:
        assert err == "", err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert set(json.loads(lines[0])) == {"error", "message"}


_FUZZ = hypothesis.settings(max_examples=120, derandomize=True, database=None,
                            deadline=None)


@_FUZZ
@hypothesis.given(argv=_COMMANDS)
def test_cli_fuzz_numeric_flags(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x")
        code, err = _fuzz_main(argv + ["--out", out])
        _assert_error_contract(code, err)
        if code == 0 and argv[0] == "simulate":
            prices = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
            assert np.all((prices > 0) & (prices < np.inf)), argv


@hypothesis.settings(_FUZZ, max_examples=40)
@hypothesis.given(argv=_SMILES)
def test_cli_fuzz_smile_flags(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_error_contract(*_fuzz_main(argv + ["--out", os.path.join(tmp, "x")]))


@_FUZZ
@hypothesis.given(text=_PRICE_CSVS)
def test_cli_fuzz_estimate_input(text):
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "p.csv")
        with open(src, "w") as handle:
            handle.write(text)
        _assert_error_contract(*_fuzz_main(
            ["estimate", src, "--out", os.path.join(tmp, "r.json")]))


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
