"""Command-line artifacts: formats, exit codes, ingestion, atomicity."""
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracvol
from fracvol.agents import EvolutionParams, ExperimentConfig, ImpactParams
from fracvol.cli import main
from fracvol.errors import IngestionError
from fracvol.io import (PRICE_HEADER, atomic_write, ingest_prices, json_text,
                        key_value_csv, market_path_csv)
from fracvol.lob import EVENT_NAMES
from fracvol.simulate import ModelParams, simulate_path


def _read(path):
    return path.read_text().splitlines()


def test_ingest_round_trip(tmp_path):
    src = simulate_path(ModelParams(), 100, 1.0, seed=8)
    f = tmp_path / "path.csv"
    atomic_write(str(f), market_path_csv(src))
    back = ingest_prices(str(f))
    np.testing.assert_array_equal(back.times, src.times)
    np.testing.assert_array_equal(back.prices, src.prices)
    assert np.isnan(back.logvol).all()
    assert back.seed == 0


def test_ingest_header_and_empty(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("time,price\n0,1\n")
    with pytest.raises(IngestionError) as err:
        ingest_prices(str(f))
    assert err.value.lines == [(1, "bad header 'time,price'")]
    f.write_text("")
    with pytest.raises(IngestionError):
        ingest_prices(str(f))
    f.write_text(PRICE_HEADER + "\n\n")
    with pytest.raises(IngestionError, match="no data rows") as err:
        ingest_prices(str(f))
    assert err.value.lines == []


def test_ingest_collects_bad_rows(tmp_path):
    rows = [PRICE_HEADER, "0.0,1.0", "1.0,-2.0", "0.5,1.0", "2.0,1.0,9",
            "3.0,abc", "4.0,inf"]
    rows += [f"{4.0 - i},1.0" for i in range(1, 9)]  # 8 more non-increasing
    f = tmp_path / "mixed.csv"
    f.write_text("\n".join(rows) + "\n")
    with pytest.raises(IngestionError) as err:
        ingest_prices(str(f))
    msg = str(err.value)
    assert msg.startswith("11 malformed rows:")
    assert "line 3: price=-2.0 not positive" in msg
    assert "not increasing" in msg
    assert "expected 2 fields, got 3" in msg
    assert "non-numeric" in msg
    assert "non-finite" in msg
    assert "(+1 more)" in msg
    assert len(err.value.lines) == 10
    assert err.value.lines[0] == (3, "price=-2.0 not positive")


class _HandedOver(Exception):
    """Raised in place of the row validator: the bulk checks passed the file on."""


def _hand_over(raw):
    raise _HandedOver


def _outcome(read):
    """What read() returns, or the IngestionError it raises."""
    try:
        return read()
    except IngestionError as err:
        return err


# (file text, accepted): the bulk path and the row validator must agree on each
_INGEST_CASES = {
    "blank-and-whitespace-lines": ("0,1\n\n   \n\t\n1,2\n\n", True),
    "crlf": ("0,1\r\n1,2\r\n", True),
    "form-feed-separator": ("0,1\x0c1,2\n", True),
    "line-separator-u2028": ("0,1\u20281,2\n", True),
    "spaces-around-fields": (" 0 , 1 \n1\t,\t2\n", True),
    "underscore-digits": ("1_0,1\n11,2_5\n", True),
    "full-width-digits": ("\uff10,\uff11\n1,2\n", True),
    "negative-zero-time": ("-0.0,1\n1,2\n", True),
    "one-row": ("5,1e-300\n", True),
    "one-field": ("0\n1,2\n", False),
    "three-fields": ("0,1,2\n1,2\n", False),
    "three-then-one-misaligned": ("1,2,3\n4\n", False),
    "one-then-three-misaligned": ("1\n2,3,4\n", False),
    "empty-field": ("0,\n1,2\n", False),
    "hex": ("0,0x10\n", False),
    "nan": ("0,1\n1,nan\n", False),
    "nan-time": ("nan,1\n", False),
    "inf": ("0,inf\n", False),
    "infinity-time": ("0,1\nInfinity,2\n", False),
    "overflowing-1e400": ("0,1e400\n", False),
    "negative-zero-price": ("0,-0.0\n", False),
    "zero-price": ("0,1\n1,0\n", False),
    "repeated-time": ("0,1\n0,2\n", False),
    "decreasing-time": ("0,1\n2,1\n1,1\n3,1\n", False),
    "only-blank-rows": ("\n \n", False),
    # splitlines ends a row at the form feed, so the tokenizer sees "0" and ",1"
    "form-feed-inside-row": ("0\x0c,1\n1,2\n", False),
    # the tokenizer parses these into three columns, which is not a price file
    "uniform-three-fields": ("0,1,2\n1,2,3\n", False),
    "one-row-three-fields": ("1,2,3\n", False),
    "nul-in-field": ("0,1\x00\n", False),
    # float() spellings the tokenizer refuses: the split parse takes them
    "exponent-underscore": ("1e1_0,1\n", True),
    "arabic-indic-digits": ("\u0661,\u0662\n", True),
}


@pytest.mark.parametrize("body, accepted", _INGEST_CASES.values(), ids=_INGEST_CASES.keys())
def test_ingest_bulk_path_agrees_with_row_validator(tmp_path, monkeypatch, body, accepted):
    f = tmp_path / "p.csv"
    f.write_text(PRICE_HEADER + "\n" + body, newline="")
    with open(f) as handle:  # as ingest_prices reads it
        raw = handle.read().splitlines()
    expected = _outcome(lambda: fracvol.io._ingest_rows(raw))
    got = _outcome(lambda: ingest_prices(str(f)))
    assert isinstance(expected, IngestionError) != accepted
    monkeypatch.setattr(fracvol.io, "_ingest_rows", _hand_over)
    if accepted:  # bit for bit, and from the bulk path alone
        bulk = ingest_prices(str(f))
        for path in (got, bulk):
            assert path.times.tobytes() == expected.times.tobytes()
            assert path.prices.tobytes() == expected.prices.tobytes()
            assert np.isnan(path.logvol).all() and len(path.logvol) == len(path.times)
    else:  # the bulk checks refuse it and the validator's error stands unchanged
        with pytest.raises(_HandedOver):
            ingest_prices(str(f))
        assert str(got) == str(expected) and got.lines == expected.lines


def test_ingest_bulk_parse_is_float_bit_for_bit(tmp_path, monkeypatch):
    bits = np.random.default_rng(5).integers(0, 2**63, 4000, dtype=np.uint64)
    values = np.abs(bits.view(np.float64))
    values = values[np.isfinite(values) & (values > 0)]
    spellings = [repr, "{:.17e}".format, "{:.5g}".format, lambda v: f" {v!r}\t"]
    rows = [f"{i},{spellings[i % 4](float(v))}" for i, v in enumerate(values)]
    f = tmp_path / "p.csv"
    f.write_text("\n".join([PRICE_HEADER, *rows]) + "\n")
    expected = fracvol.io._ingest_rows(f.read_text().splitlines())
    monkeypatch.setattr(fracvol.io, "_ingest_rows", _hand_over)
    bulk = ingest_prices(str(f))
    assert bulk.prices.tobytes() == expected.prices.tobytes()
    assert bulk.times.tobytes() == expected.times.tobytes()


def _refuse(rows):
    raise AssertionError("the split parse ran")


def test_ingest_reads_an_export_with_the_tokenizer_alone(tmp_path, monkeypatch):
    src = simulate_path(ModelParams(), 4096, 1.0, seed=4)
    f = tmp_path / "path.csv"
    atomic_write(str(f), market_path_csv(src))
    monkeypatch.setattr(fracvol.io, "_split_parse", _refuse)
    monkeypatch.setattr(fracvol.io, "_ingest_rows", _hand_over)
    back = ingest_prices(str(f))
    assert back.times.tobytes() == src.times.tobytes()
    assert back.prices.tobytes() == src.prices.tobytes()


def _joined_csv(header, *columns):
    # csv_text's earlier form: every row joined, then all lines
    rows = map(",".join, zip(*[map(str, column) for column in columns]))
    return "\n".join([header, *rows]) + "\n"


_CSV_VALUES = [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf, 0.1, 1 / 3, 2.5]


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_csv_text_blocks_give_the_joined_bytes(width):
    block = fracvol.io.CSV_BLOCK_CELLS // width
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        columns = [[_CSV_VALUES[(i * width + j) % len(_CSV_VALUES)] for i in range(n)]
                   for j in range(width)]
        header = ",".join(f"c{j}" for j in range(width))
        assert fracvol.io.csv_text(header, *columns) == _joined_csv(header, *columns)


def test_key_value_csv_blocks_give_the_joined_bytes():
    values = ["tag", 7, -3, True, False, np.float64(0.1), *_CSV_VALUES]
    block = fracvol.io.CSV_BLOCK_CELLS // 2
    for n in (0, 1, block - 1, block, block + 1):
        payload = {f"k{i:05d}": values[i % len(values)] for i in range(n)}
        scalars = sorted(payload.items())
        assert key_value_csv(payload) == _joined_csv("key,value", *zip(*scalars))


def test_atomic_write_leaves_no_temp(tmp_path):
    f = tmp_path / "a.txt"
    atomic_write(str(f), "one\n")
    atomic_write(str(f), "two\n")
    assert f.read_text() == "two\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_atomic_write_failure_removes_temp_and_reraises(tmp_path):
    target = tmp_path / "out.json"
    target.mkdir()  # the rename onto a directory fails after the write
    with pytest.raises(IsADirectoryError):
        atomic_write(str(target), "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert not any(target.iterdir())


def test_serialization_helpers():
    payload = {"b": np.float64(2.5), "a": np.arange(3),
               "nested": {"x": (np.int64(1), 2)}}
    parsed = json.loads(json_text(payload))
    assert parsed == {"a": [0, 1, 2], "b": 2.5, "nested": {"x": [1, 2]}}
    assert json_text(payload) == json_text(dict(reversed(payload.items())))
    csv = key_value_csv({"z": 1.5, "a": 2, "arr": np.arange(3), "s": "tag"})
    assert csv == "key,value\na,2\ns,tag\nz,1.5\n"


def test_simulate_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--steps", "64", "--seed", "5",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["command"] == "simulate"
    assert summary["seed"] == 5
    assert summary["output"] == str(out)
    assert isinstance(summary["wall_time"], float)
    lines = _read(out)
    assert lines[0] == PRICE_HEADER
    assert len(lines) == 66
    back = ingest_prices(str(out))
    ref = simulate_path(ModelParams(), 64, 1.0, seed=5)
    np.testing.assert_array_equal(back.prices, ref.prices)


def test_simulate_ensemble_and_json(tmp_path):
    wide = tmp_path / "ens.csv"
    assert main(["simulate", "--steps", "16", "--paths", "3",
                 "--out", str(wide)]) == 0
    lines = _read(wide)
    assert lines[0] == "t,price_1,price_2,price_3"
    assert len(lines) == 18
    as_json = tmp_path / "run.json"
    assert main(["simulate", "--steps", "16", "--format", "json",
                 "--out", str(as_json)]) == 0
    doc = json.loads(as_json.read_text())
    assert set(doc) == {"times", "prices", "logvol", "seed"}
    assert len(doc["prices"]) == 17


def test_estimate_report(tmp_path, capsys):
    src = tmp_path / "prices.csv"
    assert main(["simulate", "--steps", "600", "--seed", "2",
                 "--out", str(src)]) == 0
    out = tmp_path / "report.json"
    assert main(["estimate", str(src), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"hurst_hat", "hurst_stderr", "beta_hat",
                        "trend_intercept", "n_floored", "acf", "leverage"}
    assert 0.0 < doc["hurst_hat"] < 1.0
    assert np.array(doc["acf"]).shape == (20, 2)
    capsys.readouterr()


def test_estimate_failures(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["estimate", str(tmp_path / "absent.csv"),
                 "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"

    uneven = tmp_path / "uneven.csv"
    uneven.write_text("t,price\n0.0,1.0\n1.0,1.1\n2.5,1.2\n")
    assert main(["estimate", str(uneven), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GridMismatchError"
    assert "step 2" in err["message"]

    single = tmp_path / "single.csv"
    single.write_text("t,price\n0.0,1.0\n")
    assert main(["estimate", str(single), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InsufficientDataError"
    assert not out.exists()


def test_estimate_rejects_nan_price(tmp_path, capsys):
    rows = ["t,price"] + [f"{i}.0,{1.0 + 0.01 * (i % 7)}" for i in range(60)]
    rows[31] = "30.0,nan"
    src = tmp_path / "nan.csv"
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r.json"
    assert main(["estimate", str(src), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "IngestionError" and "line 32" in doc["message"]
    assert not out.exists()


def test_pdf_grid(tmp_path, capsys):
    out = tmp_path / "pdf.csv"
    assert main(["pdf", "--tau", "2.0", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = _read(out)
    assert lines[0] == "r,pdf,cdf"
    assert len(lines) == 1 + 513
    table = np.array([[float(v) for v in line.split(",")]
                      for line in lines[1:]])
    assert np.all(table[:, 1] >= 0)
    assert np.all(np.diff(table[:, 2]) >= 0)
    assert table[0, 2] < 0.01 and table[-1, 2] > 0.99


def test_price_payload(tmp_path, capsys):
    out = tmp_path / "price.json"
    assert main(["price", "--alpha-disp", "0.3", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert set(doc) == {"value", "black_scholes", "implied_vol", "alpha",
                        "spot", "strike", "rate", "sigma", "tau"}
    assert doc["alpha"] == 0.3
    assert doc["value"] > doc["black_scholes"] > 0
    assert doc["implied_vol"] > doc["sigma"]
    flat = tmp_path / "flat.json"
    assert main(["price", "--out", str(flat)]) == 0
    capsys.readouterr()
    doc = json.loads(flat.read_text())
    assert doc["value"] == doc["black_scholes"]


def test_smile_table(tmp_path, capsys):
    out = tmp_path / "smile.csv"
    assert main(["smile", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = _read(out)
    assert lines[0] == "moneyness,tau,price,implied_vol,delta_vs_bs"
    assert len(lines) == 1 + 21 * 20
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.5 and first[1] == 5.0


def test_abm_csv_artifacts(tmp_path, capsys):
    cfg = tmp_path / "market.cfg"
    cfg.write_text(
        "# demo market\n"
        "population = 72:30, 60:30\n"
        "steps = 400\n"
        "impact.lambda0 = 8000\n"
        "evolution.period = 100\n"
        "evolution.copiers = 5\n"
        "evolution.mutation_prob = 0.2\n"
        "noise_sigma = 0.02\n")
    out = tmp_path / "run.csv"
    assert main(["abm", "--config", str(cfg), "--steps", "600",
                 "--seed", "7", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 7  # CLI wins over the config file
    lines = _read(out)
    assert lines[0] == PRICE_HEADER
    assert len(lines) == 602  # --steps overrode the file's 400
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert len(report["final_codes"]) == 60
    assert "hurst_hat" in report


def test_abm_seed_from_config(tmp_path, capsys):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 3\nsteps = 600\n")
    out = tmp_path / "run.json"
    assert main(["abm", "--config", str(cfg), "--format", "json",
                 "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3
    doc = json.loads(out.read_text())
    assert set(doc) == {"path", "report"}
    assert len(doc["path"]["prices"]) == 601
    assert not (tmp_path / "run.report.json").exists()


def test_abm_config_errors(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for body in ("myst = 1\n", "evolution.random_selection = maybe\n",
                 "population = 72\n", "just a line\n", "impact.foo = 1\n",
                 "evolution.bar = 2\n", "n_steps = 5\n", "scaling_lags = 2\n",
                 "impact = 1\n", "evolution = 1\n"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        assert main(["abm", "--config", str(cfg), "--steps", "600",
                     "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"


# every accepted abm config key, each set to its dataclass default
_DEFAULT_CONFIG = """\
population = 72:50, 60:50
steps = 10000
seed = 0
unit_investment = 1.0
noise_sigma = 0.02
value_walk_sigma = 0.01
f_choice = step
beta_f = 25.0
price0 = 1.0
cash0 = 0.0
stock0 = 0.0
window = 21
impact.lambda0 = 9000.0
impact.lambda1 = 100.0
impact.alpha_exponent = 0.5
"""
_DEFAULT_EVOLUTION = """\
evolution.period = 50
evolution.copiers = 10
evolution.mutation_prob = 0.1
evolution.random_selection = false
"""


def test_abm_config_of_defaults_changes_no_byte(tmp_path, capsys):
    keys = {line.partition(" =")[0]
            for line in (_DEFAULT_CONFIG + _DEFAULT_EVOLUTION).splitlines()}
    assert keys == ({"steps" if f.name == "n_steps" else f.name
                     for f in dataclasses.fields(ExperimentConfig)
                     if f.name not in ("impact", "evolution", "scaling_lags")}
                    | {f"impact.{f.name}" for f in dataclasses.fields(ImpactParams)}
                    | {f"evolution.{f.name}" for f in dataclasses.fields(EvolutionParams)})
    # any evolution.* key enables the tournament, so the evolution defaults
    # are compared with a config that sets only one of them
    bodies = {"none": None, "defaults": _DEFAULT_CONFIG,
              "evolution": "evolution.period = 50\n",
              "defaults-evolution": _DEFAULT_CONFIG + _DEFAULT_EVOLUTION}
    written = {}
    for name, body in bodies.items():
        out = tmp_path / f"{name}.json"
        argv = ["abm", "--format", "json", "--out", str(out)]
        if body is not None:
            (tmp_path / f"{name}.cfg").write_text(body)
            argv += ["--config", str(tmp_path / f"{name}.cfg")]
        assert main(argv) == 0
        written[name] = out.read_bytes()
    capsys.readouterr()
    assert written["defaults"] == written["none"]
    assert written["defaults-evolution"] == written["evolution"] != written["none"]


@pytest.mark.parametrize("key, body", [
    ("population", "population = 72:abc\n"),
    ("impact.lambda0", "impact.lambda0 = x\n"),
    ("steps", "steps = ten\n"),
], ids=["population", "impact.lambda0", "steps"])
def test_abm_malformed_number_names_its_key(tmp_path, capsys, key, body):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    out = tmp_path / "x.csv"
    assert main(["abm", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ParameterError" and key in doc["message"]
    assert not out.exists()


def test_abm_price_past_float_range_exits_1(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("unit_investment = 1e300\n")
    out = tmp_path / "x.csv"
    assert main(["abm", "--steps", "100", "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "GenerationError"
    assert "at step 1 (seed 0)" in doc["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["simulate", "--k", "nan"], None),
    (["pdf", "--k", "nan"], None),
    (["lob", "--order-size", "nan", "--steps", "300"], None),
    (["abm", "--steps", "600"], "noise_sigma = nan\n"),
    (["abm", "--steps", "600"], "impact.lambda0 = inf\n"),
    (["abm", "--steps", "600"], "cash0 = nan\n"),
], ids=["simulate-k", "pdf-k", "lob-order_size", "abm-noise_sigma",
        "abm-impact.lambda0", "abm-cash0"])
def test_non_finite_parameters_rejected(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
    assert not out.exists()


def test_lob_with_trace(tmp_path, capsys):
    out = tmp_path / "lob.csv"
    tr = tmp_path / "events.csv"
    assert main(["lob", "--steps", "300", "--out", str(out),
                 "--book-trace", str(tr)]) == 0
    capsys.readouterr()
    path_lines = _read(out)
    trace_lines = _read(tr)
    assert len(path_lines) == 302
    assert trace_lines[0] == "step,event,slot,price"
    assert len(trace_lines) == 301
    steps, names, trace_prices = [], set(), []
    for line in trace_lines[1:]:
        step, event, slot, price = line.split(",")
        steps.append(int(step))
        names.add(event)
        int(slot)
        trace_prices.append(price)
    assert steps == list(range(1, 301))
    assert names <= set(EVENT_NAMES)
    # post-event trace prices are exactly the recorded path rows
    path_prices = [line.split(",")[1] for line in path_lines[2:]]
    assert trace_prices == path_prices


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


_FLAGS = {
    "simulate": "--seed --out --format --hurst --k --beta --delta --mu --steps --paths",
    "estimate": "--seed --out --format",
    "pdf": "--seed --out --format --hurst --k --beta --delta --mu --tau",
    "price": "--seed --out --format --spot --strike --rate --sigma --tau --alpha-disp",
    "smile": "--seed --out --format --hurst --k --beta --delta --spot --rate --sigma "
             "--alpha-disp",
    "abm": "--seed --out --format --steps --config",
    "lob": "--seed --out --format --width --order-size --steps --book-trace",
}


@pytest.mark.parametrize("command", list(_FLAGS))
def test_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", *_FLAGS[command].split()}


def _fresh_python(code, cwd):
    # a fresh interpreter, as every CLI call starts one; the package root
    # goes first on PYTHONPATH because a relative entry does not resolve
    # from cwd
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(fracvol.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
                          cwd=cwd)


_LOADED_SCIPY = "[m for m in sorted(sys.modules) if m.split('.')[0] == 'scipy']"
# fgn's cached loader has run and found fracvol.pypocketfft
_LOADED_POCKETFFT = ("'fracvol.fgn' in sys.modules and "
                     "sys.modules['fracvol.fgn']._pocketfft.cache_info().currsize == 1 and "
                     "sys.modules['fracvol.fgn']._pocketfft() is not None")


def test_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    proc = _fresh_python(f"import fracvol, sys; print({_LOADED_SCIPY})", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # simulate, estimate, lob and abm (either signal rule) need numpy only,
    # but simulate's one-row draw of 2 * 601 points loads scipy's pocketfft
    # extension alone; pdf, price and smile load its ufunc extension alone,
    # no scipy module; none loads numpy.ma (np.unique imports it, 13 ms of a
    # cold start)
    (tmp_path / "step.cfg").write_text("steps = 600\n")
    (tmp_path / "logistic.cfg").write_text("steps = 600\nf_choice = logistic\n")
    runs = [
        ["simulate", "--steps", "600", "--out", "path.csv"],
        ["estimate", "path.csv", "--out", "report.json"],
        ["lob", "--steps", "600", "--out", "lob.csv"],
        ["abm", "--config", "step.cfg", "--out", "step.csv"],
        ["abm", "--config", "logistic.cfg", "--out", "logistic.csv"],
        ["pdf", "--out", "pdf.csv"],
        ["price", "--out", "price.json"],
        ["smile", "--out", "smile.csv"],
    ]
    for argv in runs:
        proc = _fresh_python(
            "import sys; from fracvol.cli import main; "
            f"code = main({argv!r}); print(code, {_LOADED_SCIPY}, 'numpy.ma' in sys.modules, "
            f"{_LOADED_POCKETFFT})", tmp_path)
        assert proc.returncode == 0, proc.stderr
        pocketfft = argv[0] == "simulate"
        assert proc.stdout.splitlines()[-1] == f"0 [] False {pocketfft}", (argv, proc.stdout)


def test_runs_leave_only_artifacts(tmp_path, capsys):
    out = tmp_path / "only.csv"
    assert main(["simulate", "--steps", "32", "--out", str(out)]) == 0
    capsys.readouterr()
    assert [p.name for p in tmp_path.iterdir()] == ["only.csv"]


@pytest.mark.parametrize("argv, config, error", [
    (["pdf", "--k", "27"], None, "ParameterError"),
    (["price", "--rate", "-3", "--tau", "237"], None, "ParameterError"),
    (["price", "--spot", "1e-300", "--strike", "1e300"], None, "ParameterError"),
    (["smile", "--sigma", "1e300"], None, "NoSolutionError"),
    (["abm", "--steps", "100"], "population = 0:100\nunit_investment = 1e300\n",
     "GenerationError"),
    (["simulate", "--steps", "10", "--delta", "1e-310", "--hurst", "0.001"], None,
     "ParameterError"),
    (["smile", "--delta", "1e-310", "--hurst", "0.001"], None, "ParameterError"),
    (["simulate", "--steps", "5", "--beta", "700"], None, "GenerationError"),
    # 2^57 steps: within MAX_CELLS, but numpy refuses the 1 EiB time grid at
    # once, as its private MemoryError subclass
    (["simulate", "--steps", str(2**57)], None, "MemoryError"),
], ids=["pdf-k-past-exp-range", "price-discount-past-exp-range",
        "price-moneyness-underflow", "smile-sigma-underflowing-u-star",
        "abm-log-price-below-float-range", "simulate-subnormal-delta",
        "smile-subnormal-delta", "simulate-vol-past-float-range",
        "simulate-steps-past-memory"])
def test_float_range_failures_exit_1(tmp_path, capsys, argv, config, error):
    if config is not None:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a second line
        assert main(argv + ["--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert not out.exists()



@pytest.mark.parametrize("argv, name, config", [
    (["pdf", "--beta=-800"], "beta=-800.0", None),
    (["pdf", "--beta=-744", "--k", "0"], "beta=-744.0", None),
    (["pdf", "--k", "1e-320"], "k=1e-320", None),
    (["price", "--alpha-disp", "1e3"], "alpha=1000.0", None),
    (["simulate", "--steps", "2000", "--k", "0", "--beta=-400", "--delta", "1e308"],
     "dt=1e+308", None),
    # theta^2 = e^(2 beta): a raw OverflowError from central_return at 700, and
    # an exp overflow RuntimeWarning before the error line from 709.8
    (["pdf", "--beta", "700"], "beta=700.0", None),
    (["pdf", "--beta", "709.8"], "beta=709.8", None),
    (["pdf", "--beta", "710"], "beta=710.0", None),
    (["pdf", "--beta", "745"], "beta=745.0", None),
    # spot / moneyness warned with an overflow, then named strike
    (["smile", "--spot=1.7e308"], "spot=1.7e+308 over moneyness=0.5", None),
    (["smile", "--spot=-1.7e308"], "spot must be positive and finite, got -1.7e+308", None),
    # drift / sigma and sigma sqrt(tau) warned with an overflow, then named a
    # symptom: a no-arbitrage band, a nan target price or the kernel's a and b
    (["price", "--rate", "1e300"], "rate sqrt(tau) reaches 4.47213595499958e+300", None),
    (["price", "--sigma", "1.7e308"], "sigma=1.7e+308", None),
    # a = 0 and b = sigma sqrt(tau)/2 = 5e-311 put M(b, 0) past the float
    # range, and the message blamed alpha=0.3
    (["price", "--sigma", "1e-305", "--tau", "1e-10", "--rate", "0", "--alpha-disp", "0.3"],
     "raise sigma or tau", None),
    (["price", "--rate=-1.7e308"], "at rate=-1.7e+308", None),
    (["smile", "--rate", "1e300"], "rate sqrt(tau) reaches 1e+301", None),
    (["smile", "--sigma", "1.7e308"], "sigma=1.7e+308", None),
    (["smile", "--rate=-1.7e308"], "at rate=-1.7e+308", None),
    # S/K overflowed, then named a no-arbitrage band
    (["price", "--strike", "5e-324"], "spot=1.0, strike=5e-324", None),
    # order / price overflowed the agents' stock, and the run exited 0
    (["abm", "--steps", "2000", "--seed", "1"], "raise price0 or lower unit_investment",
     "population = 72:50, 60:50\nsteps = 2000\nprice0 = 5e-324\n"),
    # the scaled normal draws overflowed: a warning, then an error naming
    # unit_investment, or an exit 0
    (["abm", "--steps", "2000", "--seed", "1"], "noise_sigma=1.7e+308",
     "noise_sigma = 1.7e308\n"),
    (["abm", "--steps", "2000", "--seed", "1"], "value_walk_sigma=1.7e+308",
     "value_walk_sigma = 1.7e308\n"),
], ids=["pdf-return-sd-underflow", "pdf-density-peak-overflow",
        "pdf-logvol-peak-overflow",
        "price-kernel-weight-overflow",
        "simulate-time-stamps-overflow",
        "pdf-theta-squared-overflow-700", "pdf-theta-squared-overflow-709.8",
        "pdf-theta-squared-overflow-710", "pdf-theta-squared-overflow-745",
        "smile-strike-overflow", "smile-spot-negative-past-range",
        "price-rate-1e300", "price-sigma-1.7e308", "price-m-kernel-past-float-range",
        "price-rate-negative-1.7e308",
        "smile-rate-1e300", "smile-sigma-1.7e308", "smile-rate-negative-1.7e308",
        "price-strike-subnormal", "abm-price0-subnormal",
        "abm-noise-sigma-past-range", "abm-value-walk-sigma-past-range"])
def test_outside_float_range_is_a_parameter_error_naming_it(tmp_path, capsys, argv,
                                                            name, config):
    if config is not None:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ParameterError" and name in doc["message"]
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["50", "88", "92.7"])
def test_price_with_zero_a_and_wide_dispersion(tmp_path, capsys, alpha):
    # a = 0 at S = K e^(-rate tau); past alpha = 5 the kernel is off by 1e-9
    # to 1e-3 relative, so the dispersion is refused before it is priced
    out = tmp_path / "p.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["price", "--rate", "0", "--alpha-disp", alpha, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc == {"error": "ParameterError",
                   "message": f"alpha={float(alpha)!r} is outside the M-kernel's domain: "
                              "0 or a normal float up to 5.0"}
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    (["simulate", "--steps", "64", "--beta"], "-1e-3"),
    (["simulate", "--steps", "64", "--mu"], "-.5"),
    (["pdf", "--beta"], "-4.5E+0"),
    (["price", "--rate"], "-1e-3"),
    (["smile", "--rate"], "-1e-4"),
])
def test_negative_value_in_the_spaced_form(tmp_path, capsys, flag, value):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(flag + [value, "--out", str(spaced)]) == 0
    flag = flag[:-1] + [f"{flag[-1]}={value}"]
    assert main(flag + ["--out", str(joined)]) == 0
    capsys.readouterr()
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
def test_spaced_non_finite_value_is_a_parameter_error(tmp_path, capsys, value):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--beta", value, "--out", str(out)]) == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ParameterError" and "beta" in doc["message"]
    assert not out.exists()


# SHA-256 of every artifact a small run of each command writes, csv and json;
# abm in csv also writes out.report.json, and lob writes the --book-trace log
_GOLDEN_RUNS = {
    "simulate": ["simulate", "--steps", "200", "--seed", "7"],
    "simulate-3": ["simulate", "--steps", "100", "--paths", "3"],
    "estimate": ["estimate", "{input}"],
    "pdf": ["pdf", "--tau", "2.0"],
    "pdf-k0": ["pdf", "--k", "0"],
    "price": ["price", "--alpha-disp", "0.3", "--strike", "1.1"],
    "smile": ["smile"],
    "abm": ["abm", "--steps", "600", "--seed", "7", "--config", "{config}"],
    "lob": ["lob", "--steps", "2000", "--book-trace", "{trace}"],
}
_GOLDEN_DIGESTS = {
    "simulate-csv/out.csv":
        "a669f034572c6a8f82764be20d67e2b66bcf8279e05b7f72f4a89b4f9d2394e1",
    "simulate-json/out.json":
        "28c6912e3fb7a3d5acf699b47170a8e8f4d9722731bcbe392f8dc3edfe6f382b",
    "simulate-3-csv/out.csv":
        "35671160a818cd5150a31ca03a465527e98669f7b70ac20dc77716d26549a981",
    "simulate-3-json/out.json":
        "e693eea7800ed5caa0f56127416b233552a784a339f54f1c52d11716d1cbed79",
    "estimate-csv/out.csv":
        "d89b9c502bc67c4f8cecd82e7560c3beeee3ac065bc2874724eacaa624619b7d",
    "estimate-json/out.json":
        "1fda5b14fa72c7c2e1a5da70eec3d28896daa9897fcf63a33b39a49d4ccd3a2d",
    "pdf-csv/out.csv":
        "1e434850e87e0293d9f689d93d3ba4e30395574bd6755e0a446e5d8e866a9579",
    "pdf-json/out.json":
        "a58dfa42dc87b6c098bf88845477853364517e062b516ac9289f78416ef3b106",
    "pdf-k0-csv/out.csv":
        "78bf72bd741e9654890de150bc31602f4a0de2a0e59e483b62790d5af83655e6",
    "pdf-k0-json/out.json":
        "6389f97b6b7717b16da8172f10bf7664a9d7137d7caad9e80b131c2114b83f43",
    "price-csv/out.csv":
        "df9566dc9d8ed4f8274425c464e542112e86458726d2f74bd97d1b0ab8197e85",
    "price-json/out.json":
        "1c5f4e9aee71ec620609b22eb99c0057f3ec89d2bb459e6ceb24f50f4b403d26",
    "smile-csv/out.csv":
        "3c88fb2561954c57d5b396e298dfdeb863754b82ef44bf792fef12e7779b278f",
    "smile-json/out.json":
        "66bbbce71c30b4f399a8fe06a6bad9997e47fd06154a9d8b93ccbedf0775c9c2",
    "abm-csv/out.csv":
        "ebe3d5cd8a01bc207c49ed190ca2604291f5a32f0040b64553b9ba19bab5aed1",
    "abm-csv/out.report.json":
        "5a361af672b62d15981afb4223af0fb450707585e16c9681c633ee168195aff9",
    "abm-json/out.json":
        "475763c6b4f20d6366f724a92ab9ee7b375d0f0158a17fd9b590039af7c42042",
    "lob-csv/out.csv":
        "b72c760254125f4c75c2fe6bf283eca478b3ecc7461768051c78fb57623ca361",
    "lob-csv/trace.csv":
        "59d631f40d05ef55de1770b488fe369e8a62976676cc90b990e5f709d032b910",
    "lob-json/out.json":
        "b7e11bb6b456ef158108c3d4caac85bdbaca24a340bb49f88e14f68e664738f0",
    "lob-json/trace.csv":
        "59d631f40d05ef55de1770b488fe369e8a62976676cc90b990e5f709d032b910",
}


def test_artifact_bytes_golden(tmp_path, capsys):
    src = tmp_path / "input.csv"
    assert main(["simulate", "--steps", "600", "--seed", "2", "--out", str(src)]) == 0
    cfg = tmp_path / "logistic.cfg"
    cfg.write_text("population = 72:30, 60:30\nf_choice = logistic\n"
                   "evolution.period = 100\nevolution.copiers = 5\n"
                   "evolution.mutation_prob = 0.2\n")
    digests = {}
    for name, argv in _GOLDEN_RUNS.items():
        for fmt in ("csv", "json"):
            run = tmp_path / f"{name}-{fmt}"
            run.mkdir()
            args = [a.format(input=src, config=cfg, trace=run / "trace.csv")
                    for a in argv]
            assert main(args + ["--format", fmt, "--out", str(run / f"out.{fmt}")]) == 0
            for f in sorted(run.iterdir()):
                digests[f"{run.name}/{f.name}"] = hashlib.sha256(
                    f.read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == _GOLDEN_DIGESTS
