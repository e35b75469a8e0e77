"""Correctness checks on the outputs of the benchmark workloads.

Each check raises CheckFailed with a reason when an output is wrong. They
use invariants and independent oracles rather than stored digests, so a
change that moves results by round-off still passes. The self-test feeds
each one a perturbed output to show it trips.
"""
from __future__ import annotations

import json
import math

import numpy as np

# recovery tolerances: the mean of 8 seeds has sd about 0.004 (hurst) and
# 0.035 (beta) around a known +0.03 beta bias
HURST_TRUE, HURST_TOL = 0.83, 0.05
BETA_TRUE, BETA_TOL = -5.0, 0.2
IV_ROUND_TRIP_TOL = 1e-8
PRICE_ROUNDOFF = 1e-12  # kernel vs Black-Scholes at intrinsic value
MC_SE_LIMIT = 3.0
PDF_MASS_TOL = 1e-6


class CheckFailed(Exception):
    """A workload output failed a correctness check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def same_series(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Bit-identical arrays (shape and every float)."""
    expect(a.shape == b.shape and a.tobytes() == b.tobytes(),
           f"{what}: arrays differ")


def finite_length(values: np.ndarray, n: int, what: str) -> None:
    expect(values.shape == (n,) and bool(np.all(np.isfinite(values))),
           f"{what}: expected {n} finite values")


def positive_prices(prices: np.ndarray, what: str) -> None:
    expect(prices.size > 0 and bool(np.all(np.isfinite(prices)))
           and bool(np.all(prices > 0)), f"{what}: prices must be positive")


def recovery_near_truth(hursts: list[float], betas: list[float]) -> None:
    h, b = float(np.mean(hursts)), float(np.mean(betas))
    expect(abs(h - HURST_TRUE) <= HURST_TOL,
           f"mean hurst_hat {h:.4f} not within {HURST_TOL} of {HURST_TRUE}")
    expect(abs(b - BETA_TRUE) <= BETA_TOL,
           f"mean beta_hat {b:.4f} not within {BETA_TOL} of {BETA_TRUE}")


def ensemble_csv_matches(text: str, times: np.ndarray, prices: np.ndarray) -> None:
    """Header, row count and the last row of a wide ensemble CSV."""
    lines = text.rstrip("\n").split("\n")
    n_paths = prices.shape[0]
    expect(lines[0] == "t," + ",".join(f"price_{j + 1}" for j in range(n_paths)),
           "ensemble csv: bad header")
    expect(len(lines) == times.size + 1, "ensemble csv: wrong row count")
    last = np.array([float(x) for x in lines[-1].split(",")])
    same_series(last, np.concatenate([[times[-1]], prices[:, -1]]),
                "ensemble csv last row")


def price_at_least_bs(value: float, bs_value: float, what: str) -> None:
    expect(value >= bs_value - PRICE_ROUNDOFF,
           f"{what}: price {value!r} below Black-Scholes {bs_value!r}")


def iv_round_trip(value: float, bs_at_iv: float, what: str) -> None:
    gap = abs(bs_at_iv - value)
    expect(gap <= IV_ROUND_TRIP_TOL,
           f"{what}: implied-vol round trip off by {gap:.3e}")


def pdf_cdf_consistent(r: np.ndarray, pdf: np.ndarray, cdf: np.ndarray,
                       what: str) -> None:
    """pdf mass on the grid plus the cdf's tail mass is 1; cdf monotone in [0, 1]."""
    expect(bool(np.all(np.diff(cdf) >= 0)), f"{what}: cdf not monotone")
    expect(bool(cdf[0] >= 0 and cdf[-1] <= 1), f"{what}: cdf outside [0, 1]")
    mass = float(np.trapezoid(pdf, r)) + float(cdf[0]) + (1.0 - float(cdf[-1]))
    expect(abs(mass - 1.0) <= PDF_MASS_TOL,
           f"{what}: pdf integrates to {mass!r}, not 1")


def mc_agrees(mc: float, stderr: float, kernel: float) -> None:
    expect(stderr > 0 and abs(mc - kernel) <= MC_SE_LIMIT * stderr,
           f"Monte Carlo {mc!r} +- {stderr!r} vs kernel {kernel!r}: "
           f"more than {MC_SE_LIMIT} standard errors apart")


def lob_trace_matches(trace: list, prices: np.ndarray) -> None:
    """One trace entry per recorded step, carrying the post-event price."""
    expect(len(trace) == prices.size - 1, "lob trace: wrong length")
    same_series(np.array([entry[2] for entry in trace]), prices[1:],
                "lob trace prices")


def cli_summary(returncode: int, stdout: str, command: str) -> dict:
    """Exit code 0 and a one-line JSON summary naming the command."""
    expect(returncode == 0, f"cli {command}: exit code {returncode}")
    lines = stdout.strip().splitlines()
    expect(len(lines) == 1, f"cli {command}: expected one summary line")
    try:
        summary = json.loads(lines[0])
    except json.JSONDecodeError:
        raise CheckFailed(f"cli {command}: summary is not JSON")
    expect(isinstance(summary, dict) and summary.get("command") == command
           and isinstance(summary.get("wall_time"), (int, float))
           and math.isfinite(summary["wall_time"]),
           f"cli {command}: summary lacks command or wall_time")
    return summary
