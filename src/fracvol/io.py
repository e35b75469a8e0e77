"""Artifact plumbing: price-series CSV exchange, report JSON, atomic writes.

CSV is the exchange format for price paths (header `t,price`, full-precision
floats, so export -> ingest round-trips bit-identically). Reports serialize
to JSON with sorted keys so identical runs produce identical bytes. All
writes go through a temp file and an atomic rename; readers never see a
partial artifact.
"""
from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import IngestionError
from .estimation import EstimationReport
from .simulate import MarketPath

PRICE_HEADER = "t,price"


def atomic_write(path: str, text: str) -> None:
    """Write text to path via temp file + rename in the target directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fracvol-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: str, *columns) -> str:
    """The header line, then row i joins element i of every column with ","
    (str of a Python float is its full-precision repr), ending in a newline."""
    rows = map(",".join, zip(*[map(str, column) for column in columns]))
    return "\n".join([header, *rows]) + "\n"


def market_path_csv(path: MarketPath) -> str:
    """Two-column CSV of a price path; floats keep full precision."""
    return csv_text(PRICE_HEADER, np.asarray(path.times, float).tolist(),
                    np.asarray(path.prices, float).tolist())


def ensemble_csv(times: np.ndarray, prices: np.ndarray) -> str:
    """Wide CSV for a path ensemble: t,price_1,...,price_n."""
    header = "t," + ",".join(f"price_{j + 1}" for j in range(prices.shape[0]))
    return csv_text(header, np.asarray(times, float).tolist(),
                    *np.asarray(prices, float).tolist())


def ingest_prices(file_path: str) -> MarketPath:
    """Read a `t,price` CSV into a MarketPath.

    t must be numeric and strictly increasing, prices strictly positive.
    All malformed rows are collected and the first 10 are reported with
    their line numbers. The result's logvol is NaN (unknown for ingested
    data) and its seed is 0.

    A well-formed file is parsed in bulk: one np.array(fields, dtype=float),
    which accepts the same strings as float(), and vectorised checks. Any
    other file goes through the row-by-row validator, which names its rows.
    """
    with open(file_path, "r") as handle:
        raw = handle.read().splitlines()
    if not raw or raw[0].strip() != PRICE_HEADER:
        found = raw[0].strip() if raw else ""
        raise IngestionError(
            f"line 1: expected header {PRICE_HEADER!r}, got {found!r}",
            lines=[(1, f"bad header {found!r}")])
    rows = [text for text in map(str.strip, raw[1:]) if text]
    # one comma per row, or the joined fields would pair across rows
    if rows and all(text.count(",") == 1 for text in rows):
        try:
            values = np.array(",".join(rows).split(","), dtype=float)
        except ValueError:  # a field that float() rejects
            return _ingest_rows(raw)
        times, prices = values.reshape(-1, 2).T.copy()
        if (np.isfinite(values).all() and (times[1:] > times[:-1]).all()
                and (prices > 0).all()):
            return MarketPath(times=times, prices=prices,
                              logvol=np.full(len(times), np.nan), seed=0)
    return _ingest_rows(raw)


def _ingest_rows(raw: list[str]) -> MarketPath:
    """ingest_prices row by row, after the header: each bad row is named."""
    times, prices, bad = [], [], []
    prev_t = -math.inf
    for lineno, line in enumerate(raw[1:], start=2):
        text = line.strip()
        if not text:
            continue
        fields = text.split(",")
        if len(fields) != 2:
            bad.append((lineno, f"expected 2 fields, got {len(fields)}"))
            continue
        try:
            t, p = float(fields[0]), float(fields[1])
        except ValueError:
            bad.append((lineno, f"non-numeric row {text!r}"))
            continue
        if not math.isfinite(t) or not math.isfinite(p):
            bad.append((lineno, "non-finite value"))
            continue
        if t <= prev_t:
            bad.append((lineno, f"t={t!r} not increasing"))
            continue
        if p <= 0:
            bad.append((lineno, f"price={p!r} not positive"))
            continue
        prev_t = t
        times.append(t)
        prices.append(p)
    if bad:
        shown = "; ".join(f"line {n}: {why}" for n, why in bad[:10])
        more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
        raise IngestionError(f"{len(bad)} malformed rows: {shown}{more}",
                             lines=bad[:10])
    if not times:
        raise IngestionError("no data rows", lines=[])
    return MarketPath(times=np.array(times), prices=np.array(prices),
                      logvol=np.full(len(times), np.nan), seed=0)


def report_to_dict(report: EstimationReport) -> dict:
    """Report scalars plus the acf and leverage tables.

    The bulk series (induced_vol, r_sigma) stay out of the artifact; they
    are recomputable from the price CSV.
    """
    return {
        "hurst_hat": float(report.hurst_hat),
        "hurst_stderr": float(report.hurst_stderr),
        "beta_hat": float(report.beta_hat),
        "trend_intercept": float(report.trend_intercept),
        "n_floored": int(report.n_floored),
        "acf": report.acf,
        "leverage": report.leverage,
    }


def json_text(payload: dict) -> str:
    """Sorted-key JSON; arrays and numpy scalars go through tolist()."""
    return json.dumps(payload, sort_keys=True, default=lambda v: v.tolist()) + "\n"


def key_value_csv(payload: dict) -> str:
    """Flat key,value CSV of the payload's scalar (int, float, str) entries."""
    scalars = sorted((k, v) for k, v in payload.items()
                     if isinstance(v, (int, float, str)))
    return csv_text("key,value", *zip(*scalars))
