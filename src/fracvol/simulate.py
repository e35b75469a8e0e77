"""Path simulation for the fractional-volatility price model.

ModelParams extends fgn.LogVolParams, the model's log-vol law, by how the
price meets the volatility driver. Two constructions are provided.

``simulate_path`` draws log-volatility as exact fractional Gaussian noise at
the observation spacing delta,

    log sigma_t = beta + (k / delta) * (B_H(t) - B_H(t - delta)),

holds it piecewise-constant on the price grid, and advances the log price by
the exact conditional-Gaussian step. The volatility and price drivers are
always independent streams here.

``simulate_identified`` builds log-volatility as a truncated moving average
of past Brownian increments with the power-law kernel (t - s)^(H - 3/2). The
price equation can reuse the volatility increments (identified drivers, the
configuration that produces a leverage effect) or draw its own (independent
drivers, no leverage).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GenerationError, GridMismatchError, ParameterError, grid_ratio,
                     integer, one_of, positive, within_cells)
from .fgn import LogVolParams, _sample_unit_fgn
from .rng import _ENS_PRICE, _ENS_VOL, _PRICE, _VOL, substream

INDEPENDENT_DRIVERS = "independent_drivers"
IDENTIFIED_DRIVERS = "identified_drivers"

_CHUNK = 256  # fixed ensemble chunk size; part of the determinism contract
_BLOCK_CELLS = 1 << 16  # cells per row block of path_ensemble; no size changes a bit
_HISTORY = 4096  # moving-average kernel length, in dt steps


@dataclass(frozen=True)
class ModelParams(LogVolParams):
    """Parameters of the fractional volatility model."""

    coupling: str = INDEPENDENT_DRIVERS

    def validate(self) -> None:
        super().validate()
        one_of("coupling", self.coupling, (INDEPENDENT_DRIVERS, IDENTIFIED_DRIVERS))


@dataclass(frozen=True)
class MarketPath:
    """A simulated (or ingested) price path with aligned log-volatility. A
    result: its builder calls validate(), so a test can replace it with bad prices."""

    times: np.ndarray
    prices: np.ndarray
    logvol: np.ndarray
    seed: int

    def validate(self) -> None:
        n = len(self.times)
        if len(self.prices) != n or len(self.logvol) != n:
            raise ParameterError("times, prices and logvol must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("times must be strictly increasing")
        prices = np.asarray(self.prices)
        if not np.all((prices > 0) & (prices < np.inf)):
            raise ParameterError("prices must be positive and finite")


def logvol_marginal_moments(params: ModelParams) -> tuple[float, float]:
    """Mean and variance of log sigma_t: (beta, k^2 delta^(2H - 2))."""
    # not sigma_logvol**2: mean_variance_fit's bits depend on this rounding
    return params.beta, params.k**2 * params.delta ** (2.0 * params.hurst - 2.0)


def _logvol_sampler(params: ModelParams, n_values: int, dt: float, n_paths: int):
    """Check the grids of an n_paths ensemble; return the fGn length sampled per
    row and a function drawing (rows, n_values) samples of log sigma on the dt
    grid from rng.

    The underlying noise lives at spacing delta. For dt < delta each value is
    held for delta/dt grid steps; for dt > delta the delta-grid noise is
    subsampled every dt/delta values, which is exact because the subsampled
    entries are themselves the delta-increments at the coarse times. A held
    value is repeated at most n_values times, since one may cover the path.
    """
    if params.k == 0.0:
        return n_values, lambda rng, rows: np.full((rows, n_values), params.beta)
    scale = params.sigma_logvol
    hold = grid_ratio(params.delta, dt)
    if hold is not None:
        n_vol = -(-n_values // hold)  # ceil
        return n_vol, lambda rng, rows: params.beta + scale * np.repeat(
            _sample_unit_fgn(n_vol, params.hurst, rng, rows),
            min(hold, n_values), axis=1)[:, :n_values]
    sub = grid_ratio(dt, params.delta)
    if sub is not None:
        n_fine = (int(n_values) - 1) * sub + 1
        within_cells(**{"n_paths * (n_steps * dt/delta + 1)": int(n_paths) * n_fine})
        return n_fine, lambda rng, rows: params.beta + scale * _sample_unit_fgn(
            n_fine, params.hurst, rng, rows)[:, ::sub]
    raise GridMismatchError(
        f"dt={dt!r} and delta={params.delta!r} have no integer ratio either way"
    )


def _advance_prices(logvol: np.ndarray, eps: np.ndarray, mu: float, dt: float,
                    s0: float, seed: int, first: int = 0) -> np.ndarray:
    """Exact log-Euler: eps are the Brownian increments over each dt step.
    A price that is not positive and finite is a GenerationError naming its
    path, counted from first, the ensemble row of logvol's row 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        sig = np.exp(logvol[..., :-1])
        incr = (mu - 0.5 * sig**2) * dt + sig * eps
        log_s = np.concatenate(
            [np.zeros(incr.shape[:-1] + (1,)), np.cumsum(incr, axis=-1)], axis=-1
        )
        prices = s0 * np.exp(log_s)
    rows = np.atleast_2d(prices)
    if not 0.0 < rows.min() <= rows.max() < np.inf:
        path, step = np.argwhere(~((rows > 0) & (rows < np.inf)))[0]
        raise GenerationError(f"price {float(rows[path, step])!r} on path {first + path} at "
                              f"step {step} (seed {seed}): the log price left the float range")
    return prices


def _time_grid(n_steps: int, dt: float) -> np.ndarray:
    """Time stamps i dt; the last, n_steps dt, must be a finite float."""
    if not math.isfinite(float(n_steps) * float(dt)):
        raise ParameterError(f"dt={dt!r}: the last time stamp n_steps * dt "
                             f"({n_steps} steps) is past the float range")
    return np.arange(n_steps + 1) * dt


def simulate_path(params: ModelParams, n_steps: int, dt: float, s0: float = 1.0,
                  seed: int = 0) -> MarketPath:
    """Simulate one path of the fGn-form model: row 0 of path_ensemble.

    This form has no mechanism to share drivers, so identified coupling is
    rejected; use simulate_identified for leverage studies.
    """
    times, prices, logvol = path_ensemble(params, n_steps, dt, s0, seed, n_paths=1)
    return MarketPath(times=times, prices=prices[0], logvol=logvol[0], seed=int(seed))


def _path_blocks(params: ModelParams, n_steps: int, dt: float, s0: float, seed: int,
                 n_paths: int):
    """Check path_ensemble's inputs; return its time stamps and an iterator of
    (first row, logvol, prices) over successive blocks of its rows.

    A block holds about _BLOCK_CELLS cells of the wider of the sampled fGn and
    the path. Both substreams are drawn in row order, so the blocks are the
    ensemble's rows bit for bit at any block size.
    """
    integer(1, n_steps=n_steps, n_paths=n_paths)
    within_cells(**{"n_paths * (n_steps + 1)": int(n_paths) * (int(n_steps) + 1)})
    positive(dt=dt, s0=s0)
    if params.coupling == IDENTIFIED_DRIVERS:
        raise ParameterError(
            "identified drivers require the moving-average form; "
            "use simulate_identified or identified_return_ensemble"
        )
    times = _time_grid(n_steps, dt)
    width, sample = _logvol_sampler(params, n_steps + 1, dt, n_paths)
    rows = max(1, _BLOCK_CELLS // max(width, n_steps + 1))
    rng_vol, rng_price = substream(seed, _VOL), substream(seed, _PRICE)

    def blocks():
        for first in range(0, n_paths, rows):
            count = min(rows, n_paths - first)
            logvol = sample(rng_vol, count)
            eps = np.sqrt(dt) * rng_price.standard_normal((count, n_steps))
            yield first, logvol, _advance_prices(logvol, eps, params.mu, dt, s0, seed, first)

    return times, blocks()


def path_ensemble(params: ModelParams, n_steps: int, dt: float, s0: float = 1.0,
                  seed: int = 0, n_paths: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ensemble of fGn-form paths: (times, prices, logvol).

    prices and logvol have shape (n_paths, n_steps + 1), filled block by
    block of rows; beyond the two outputs only one block's draws are held,
    so keep n_paths * n_steps within budget for the outputs themselves.
    """
    times, blocks = _path_blocks(params, n_steps, dt, s0, seed, n_paths)
    prices = np.empty((n_paths, n_steps + 1))
    logvol = np.empty((n_paths, n_steps + 1))
    for first, block_logvol, block_prices in blocks:
        logvol[first : first + len(block_logvol)] = block_logvol
        prices[first : first + len(block_prices)] = block_prices
    return times, prices, logvol


def _kernel(dt: float, hurst: float) -> np.ndarray:
    return (np.arange(1, _HISTORY + 1) * dt) ** (hurst - 1.5)


def calibrated_kprime(params: ModelParams, dt: float) -> float:
    """Kernel amplitude k' matching the fGn-form stationary log-vol variance
    k^2 delta^(2H-2)."""
    positive(dt=dt)
    return params.sigma_logvol / np.sqrt(np.sum(_kernel(dt, params.hurst)**2) * dt)


def _valid_convolve(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of x convolved with w, keeping only the fully overlapped part.

    out[:, j] = sum_i w[i] x[:, j + len(w) - 1 - i]. A circular FFT
    convolution of length >= x.shape[1] wraps only into the discarded head.
    """
    size = 1 << (x.shape[1] - 1).bit_length()
    full = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(w, size), size)
    return full[:, len(w) - 1 : x.shape[1]]


def _identified_logvol_eps(params: ModelParams, n_steps: int, dt: float,
                           rng_vol: np.random.Generator,
                           rng_price: np.random.Generator | None,
                           n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Moving-average log-vol plus the matching price increments.

    The kernel needs _HISTORY increments of warm-up before t = 0; they are
    generated and discarded internally, so outputs start fully warmed up.
    """
    e = np.sqrt(dt) * rng_vol.standard_normal((n_paths, _HISTORY + n_steps))
    core = _valid_convolve(e, _kernel(dt, params.hurst))  # (n_paths, n_steps + 1)
    logvol = params.beta + calibrated_kprime(params, dt) * core
    if rng_price is None:
        # Identified drivers: the price is pushed by the negative of the
        # volatility driver, which is what makes rising volatility accompany
        # falling prices (the leverage effect).
        eps = -e[:, _HISTORY:]
    else:
        eps = np.sqrt(dt) * rng_price.standard_normal((n_paths, n_steps))
    return logvol, eps


def simulate_identified(params: ModelParams, n_steps: int, dt: float,
                        s0: float = 1.0, seed: int = 0) -> MarketPath:
    """Simulate one path of the moving-average form.

    With coupling = identified_drivers the price shares the volatility
    driver; with independent_drivers the two streams are separate and the
    model is statistically equivalent to simulate_path up to kernel
    truncation.
    """
    integer(1, n_steps=n_steps)
    within_cells(**{"history + n_steps": _HISTORY + int(n_steps)})
    positive(dt=dt, s0=s0)
    times = _time_grid(n_steps, dt)
    rng_price = substream(seed, _PRICE) if params.coupling == INDEPENDENT_DRIVERS else None
    logvol, eps = _identified_logvol_eps(params, n_steps, dt, substream(seed, _VOL),
                                         rng_price, 1)
    prices = _advance_prices(logvol[0], eps[0], params.mu, dt, s0, seed)
    return MarketPath(times=times, prices=prices, logvol=logvol[0], seed=int(seed))


def identified_return_ensemble(params: ModelParams, n_steps: int, dt: float,
                               seed: int = 0, n_paths: int = 1) -> np.ndarray:
    """(n_paths, n_steps) log-returns from the moving-average form.

    Paths are generated in fixed-size chunks with per-chunk substreams, so
    the output depends only on (params, n_steps, dt, seed, n_paths).
    """
    integer(1, n_steps=n_steps, n_paths=n_paths)
    within_cells(**{"n_paths * (history + n_steps)": int(n_paths) * (_HISTORY + int(n_steps))})
    positive(dt=dt)
    out = np.empty((n_paths, n_steps))
    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        idx = start // _CHUNK
        rng_price = (substream(seed, _ENS_PRICE, idx)
                     if params.coupling == INDEPENDENT_DRIVERS else None)
        logvol, eps = _identified_logvol_eps(params, n_steps, dt, substream(seed, _ENS_VOL, idx),
                                             rng_price, stop - start)
        sig = np.exp(logvol[:, :-1])
        out[start:stop] = (params.mu - 0.5 * sig**2) * dt + sig * eps
    return out
