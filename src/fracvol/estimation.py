"""Volatility statistics reconstructed from a price series.

The pipeline is: windowed variance of the log price (induced volatility),
cumulative sum of its logarithm split into a linear trend plus a residual
process, and the scaling exponent of that residual from the growth of its
mean absolute increments. Leverage (the cross-correlation between returns
and later squared returns) and the plain return autocorrelation complete the
report.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (GridMismatchError, InsufficientDataError, ParameterError,
                     grid_ratio, integer, positive)

WINDOW = 21  # default induced-volatility window, in price points
_LEVERAGE_LAGS = 10  # estimate_report's leverage runs over tau in [-10, 10]
_ACF_LAGS = 20  # and its return autocorrelation over lags 1..20


def _finite_values(name: str, values, positive: bool = False) -> np.ndarray:
    """values as a float array once each entry is finite (and > 0 with positive),
    else ParameterError naming the first offender and its flat index."""
    x = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(x) & (x > 0)) if positive else ~np.isfinite(x))
    if bad.size:
        raise ParameterError(f"{name} must be finite{' and strictly positive' * positive}; "
                             f"first offender {float(x.flat[bad[0]])!r} at index {bad[0]}")
    return x


def integer_lags(lags, name: str = "lags") -> np.ndarray:
    """lags as int64 once each is an integer: 1.5, nan or "2" raise rather than
    truncate, and one past the int64 range, longer than any series, is clipped."""
    values = np.asarray(lags)
    out = []
    for i, lag in enumerate(values.ravel().tolist()):
        try:
            out.append(min(max(operator.index(lag), -2**63), 2**63 - 1))
        except TypeError:
            raise ParameterError(f"{name} must be integers; first offender {lag!r} "
                                 f"at index {i}") from None
    return np.array(out, dtype=np.int64).reshape(values.shape)


def _sliding_sums(x: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    c1 = np.concatenate([[0.0], np.cumsum(x)])
    c2 = np.concatenate([[0.0], np.cumsum(x * x)])
    return c1[window:] - c1[:-window], c2[window:] - c2[:-window]


def induced_volatility(log_prices, window: int, dt: float = 1.0) -> np.ndarray:
    """Window-variance volatility estimate, one value per window center.

    The raw statistic is the sample variance of the log price over a sliding
    window of `window` points, divided by the window length window*dt. For a
    diffusive path that statistic underestimates sigma^2 by the exact factor
    (window + 1)/(6*window) (the within-window random-walk wander is much
    smaller than the increment scale), so the output is rescaled by its
    inverse to make the estimator unbiased for constant-volatility diffusion.
    """
    x = _finite_values("log_prices", log_prices)
    integer(8, window=window)
    positive(dt=dt)
    w = int(window)
    if len(x) <= w:
        raise InsufficientDataError(
            f"need more than window={w} samples, got {len(x)}"
        )
    s1, s2 = _sliding_sums(x, w)
    ss = s2 - s1 * s1 / w
    var = np.clip(ss, 0.0, None) / (w - 1.0)
    scale = var / (w * dt)
    scale *= 6.0 * w / (w + 1.0)
    return np.sqrt(scale)


def _floor_zeros(vol: np.ndarray) -> tuple[np.ndarray, int]:
    """(vol with zeros floored at its smallest positive value, zero count)."""
    above = vol[vol > 0]
    if above.size == 0:
        raise InsufficientDataError("volatility is identically zero")
    n_floored = int(np.sum(vol == 0))
    return (np.where(vol > 0, vol, above.min()) if n_floored else vol), n_floored


def pipeline_logvol(vol: np.ndarray, n_points: int, window: int) -> np.ndarray:
    """Align a window-volatility series with a price grid of n_points.

    Each estimate is stamped at its window's last point; the pre-window head
    repeats the first value. Zero estimates are floored at the smallest
    positive one before taking logs.
    """
    v, _ = _floor_zeros(vol)
    if len(v) + window - 1 != n_points:
        raise ParameterError(
            f"{len(v)} window estimates cannot align with {n_points} prices"
        )
    out = np.empty(n_points)
    out[:window - 1] = np.log(v[0])
    out[window - 1:] = np.log(v)
    return out


class LogvolDecomposition(NamedTuple):
    beta_hat: float
    r_sigma: np.ndarray
    intercept: float


def integrated_logvol_decompose(vol) -> LogvolDecomposition:
    """Split the cumulative log-volatility into trend plus residual.

    The cumulative sums of log vol are regressed on time in delta-step units
    (the i-th partial sum sits at t = i + 1, so a constant volatility gives a
    zero intercept and slope log sigma). beta_hat is the fitted slope per
    delta step; r_sigma holds the residuals, which have exactly zero mean.
    The fitted line plus r_sigma reconstructs the cumulative series exactly.
    """
    v = _finite_values("volatility", vol, positive=True)
    c = np.cumsum(np.log(v))
    t = np.arange(1.0, len(c) + 1.0)
    t_c = t - t.mean()
    slope = (t_c @ (c - c.mean())) / (t_c @ t_c)
    intercept = c.mean() - slope * t.mean()
    return LogvolDecomposition(
        beta_hat=float(slope),
        r_sigma=c - slope * t - intercept,
        intercept=float(intercept),
    )


def default_scaling_lags(n: int) -> np.ndarray:
    """Powers of two from 1 up to n//64."""
    top = n // 64
    if top < 8:
        raise InsufficientDataError(f"series of {n} points is too short to scale")
    return 2 ** np.arange(0, int(np.log2(top)) + 1)


def scaling_exponent(r_sigma, lags=None) -> tuple[float, float]:
    """Slope of log E|R(t + lag) - R(t)| against log lag, with its stderr."""
    r = _finite_values("r_sigma", r_sigma)
    n = len(r)
    # sorted, in range, each once; np.unique would import numpy.ma
    lags = np.sort(default_scaling_lags(n) if lags is None else integer_lags(lags), axis=None)
    lags = lags[(lags >= 1) & (lags < n)]
    lags = lags[np.diff(lags, prepend=0) > 0]
    if len(lags) < 4:
        raise InsufficientDataError(
            f"need at least 4 usable lags below the series length {n}"
        )
    mean_abs = np.array([np.mean(np.abs(r[lag:] - r[:-lag])) for lag in lags])
    if np.any(mean_abs <= 0):
        raise InsufficientDataError("degenerate residual: zero mean increment")
    x = np.log(lags.astype(float))
    y = np.log(mean_abs)
    x_c = x - x.mean()
    slope = (x_c @ (y - y.mean())) / (x_c @ x_c)
    resid = y - y.mean() - slope * x_c
    dof = len(lags) - 2
    stderr = float(np.sqrt((resid @ resid) / dof / (x_c @ x_c))) if dof else np.inf
    return float(slope), stderr


def leverage(returns, max_lag: int) -> np.ndarray:
    """Cross-moment <|r(t+tau)|^2 r(t)> - <|r(t+tau)|^2><r(t)> per lag.

    `returns` is one series or a (paths, time) ensemble; the average runs
    over time and paths. Rows are columns of (tau, L) for tau in
    [-max_lag, max_lag].
    """
    integer(0, max_lag=max_lag)
    r = np.atleast_2d(_finite_values("returns", returns))
    n = r.shape[1]
    if n <= 2 * max_lag:
        raise InsufficientDataError(
            f"series length {n} must exceed twice max_lag={max_lag}"
        )
    r2 = r * r
    out = np.empty((2 * max_lag + 1, 2))
    for i, tau in enumerate(range(-max_lag, max_lag + 1)):
        h = abs(tau)
        if tau >= 0:
            a, b = r[:, : n - h], r2[:, h:]
        else:
            a, b = r[:, h:], r2[:, : n - h]
        out[i] = tau, np.mean(a * b) - np.mean(a) * np.mean(b)
    return out


def autocorrelation(series, lags) -> np.ndarray:
    """Sample autocorrelation normalized by the lag-0 variance."""
    x = _finite_values("series", series)
    x = x - x.mean()
    n = len(x)
    denom = x @ x
    if denom == 0.0:
        raise ParameterError("series has zero variance; autocorrelation undefined")
    lags = integer_lags(lags)
    if np.any(lags >= n / 2) or np.any(lags < 0):
        raise ParameterError("lags must lie in [0, length/2)")
    out = np.empty((len(lags), 2))
    for i, k in enumerate(lags):
        out[i] = k, (x[: n - k] @ x[k:]) / denom if k else 1.0
    return out


@dataclass(frozen=True)
class EstimationReport:
    induced_vol: np.ndarray
    beta_hat: float
    trend_intercept: float
    r_sigma: np.ndarray
    hurst_hat: float
    hurst_stderr: float
    leverage: np.ndarray
    acf: np.ndarray
    n_floored: int


def uniform_step(times) -> float:
    """The step dt of a time grid of at least 2 points that is uniform to
    within 1e-9 relative, as estimate_report's prices must lie on."""
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        raise InsufficientDataError("need at least 2 rows to estimate")
    diffs = np.diff(t)
    close = np.isclose(diffs, diffs[0], rtol=1e-9, atol=0.0)
    if not close.all():
        uneven = int(np.argmax(~close))
        raise GridMismatchError(f"time grid must be uniform; step {uneven + 1} is "
                                f"{float(diffs[uneven])!r} vs {float(diffs[0])!r}")
    return float(diffs[0])


def estimate_report(prices, dt: float = 1.0, window: int = WINDOW,
                    delta: float = 1.0, scaling_lags=None) -> EstimationReport:
    """Run the full pipeline on a price series.

    Windows with zero variance (as flat stretches of quantized prices
    produce) would make the log-volatility sum diverge, so they are floored
    at the smallest positive estimate; n_floored reports how many. Leverage
    covers lags -10..10 and the return autocorrelation lags 1..20.
    """
    positive(dt=dt, delta=delta)
    log_p = np.log(_finite_values("prices", prices, positive=True))
    sigma = induced_volatility(log_p, window, dt)
    step = grid_ratio(delta, dt)
    if step is None:
        raise GridMismatchError(
            f"volatility spacing delta={delta!r} is not an integer multiple of dt={dt!r}"
        )
    vol, n_floored = _floor_zeros(sigma[::step])
    decomp = integrated_logvol_decompose(vol)
    hurst_hat, hurst_stderr = scaling_exponent(decomp.r_sigma, scaling_lags)
    returns = np.diff(log_p)
    lev = leverage(returns, _LEVERAGE_LAGS)
    acf = autocorrelation(returns, np.arange(1, _ACF_LAGS + 1))
    return EstimationReport(
        induced_vol=sigma,
        beta_hat=decomp.beta_hat,
        trend_intercept=decomp.intercept,
        r_sigma=decomp.r_sigma,
        hurst_hat=hurst_hat,
        hurst_stderr=hurst_stderr,
        leverage=lev,
        acf=acf,
        n_floored=n_floored,
    )
