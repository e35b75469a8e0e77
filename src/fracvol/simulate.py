"""Path simulation for the fractional-volatility price model.

Two constructions are provided.

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

from .errors import (GenerationError, GridMismatchError, ParameterError, finite,
                     grid_ratio, integer, nonnegative, one_of, positive)
from .fgn import _sample_unit_fgn, check_hurst, check_logvol_scale
from .rng import substream

INDEPENDENT_DRIVERS = "independent_drivers"
IDENTIFIED_DRIVERS = "identified_drivers"

# substream ids: volatility driver, price driver, per-chunk ensemble variants
_VOL, _PRICE, _ENS_VOL, _ENS_PRICE = 0, 1, 2, 3
_CHUNK = 256  # fixed ensemble chunk size; part of the determinism contract


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the fractional volatility model."""

    mu: float = 0.0
    beta: float = -5.0
    k: float = 0.59
    delta: float = 1.0
    hurst: float = 0.83
    coupling: str = INDEPENDENT_DRIVERS
    # Kernel amplitude of the moving-average form. None means "calibrate so
    # the stationary variance of log sigma matches the fGn form", k^2 d^(2H-2).
    kprime: float | None = None

    def validate(self) -> None:
        check_hurst(self.hurst)
        finite(mu=self.mu, beta=self.beta)
        positive(delta=self.delta)
        nonnegative(k=self.k)
        check_logvol_scale(self.k, self.delta, self.hurst)
        if self.kprime is not None:
            nonnegative(kprime=self.kprime)
        one_of("coupling", self.coupling, (INDEPENDENT_DRIVERS, IDENTIFIED_DRIVERS))


@dataclass(frozen=True)
class MarketPath:
    """A simulated (or ingested) price path with aligned log-volatility."""

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
        if not np.all((self.prices > 0) & (self.prices < np.inf)):
            raise ParameterError("prices must be positive and finite")


def logvol_marginal_moments(params: ModelParams) -> tuple[float, float]:
    """Mean and variance of log sigma_t: (beta, k^2 delta^(2H - 2))."""
    params.validate()
    return params.beta, params.k**2 * params.delta ** (2.0 * params.hurst - 2.0)


def _logvol_grid(params: ModelParams, n_values: int, dt: float,
                 rng: np.random.Generator, n_paths: int) -> np.ndarray:
    """(n_paths, n_values) samples of log sigma on the dt grid.

    The underlying noise lives at spacing delta. For dt < delta each value is
    held for delta/dt grid steps; for dt > delta the delta-grid noise is
    subsampled every dt/delta values, which is exact because the subsampled
    entries are themselves the delta-increments at the coarse times. A held
    value is repeated at most n_values times, since one may cover the path.
    """
    if params.k == 0.0:
        return np.full((n_paths, n_values), params.beta)
    scale = params.k * params.delta ** (params.hurst - 1.0)
    hold = grid_ratio(params.delta, dt)
    if hold is not None:
        n_vol = -(-n_values // hold)  # ceil
        g = _sample_unit_fgn(n_vol, params.hurst, rng, n_paths)
        return params.beta + scale * np.repeat(g, min(hold, n_values), axis=1)[:, :n_values]
    sub = grid_ratio(dt, params.delta)
    if sub is not None:
        n_fine = (n_values - 1) * sub + 1
        g = _sample_unit_fgn(n_fine, params.hurst, rng, n_paths)
        return params.beta + scale * g[:, ::sub]
    raise GridMismatchError(
        f"dt={dt!r} and delta={params.delta!r} have no integer ratio either way"
    )


def _advance_prices(logvol: np.ndarray, eps: np.ndarray, mu: float, dt: float,
                    s0: float, seed: int) -> np.ndarray:
    """Exact log-Euler: eps are the Brownian increments over each dt step.
    A price that is not positive and finite is a GenerationError."""
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
        raise GenerationError(f"price {float(rows[path, step])!r} on path {path} at step "
                              f"{step} (seed {seed}): the log price left the float range")
    return prices


def _check_path_args(params: ModelParams, n_steps: int, dt: float, s0: float,
                     **counts: int) -> None:
    params.validate()
    integer(1, n_steps=n_steps, **counts)
    positive(dt=dt, s0=s0)


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


def path_ensemble(params: ModelParams, n_steps: int, dt: float, s0: float = 1.0,
                  seed: int = 0, n_paths: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ensemble of fGn-form paths: (times, prices, logvol).

    prices and logvol have shape (n_paths, n_steps + 1). Everything is held
    in memory, so keep n_paths * n_steps within budget.
    """
    _check_path_args(params, n_steps, dt, s0, n_paths=n_paths)
    if params.coupling == IDENTIFIED_DRIVERS:
        raise ParameterError(
            "identified drivers require the moving-average form; "
            "use simulate_identified or identified_return_ensemble"
        )
    times = _time_grid(n_steps, dt)
    logvol = _logvol_grid(params, n_steps + 1, dt, substream(seed, _VOL), n_paths)
    eps = np.sqrt(dt) * substream(seed, _PRICE).standard_normal((n_paths, n_steps))
    prices = _advance_prices(logvol, eps, params.mu, dt, s0, seed)
    return times, prices, logvol


def _kernel(history: int, dt: float, hurst: float) -> np.ndarray:
    return (np.arange(1, history + 1) * dt) ** (hurst - 1.5)


def calibrated_kprime(params: ModelParams, dt: float, history: int) -> float:
    """Kernel amplitude matching the fGn-form stationary log-vol variance."""
    w = _kernel(history, dt, params.hurst)
    return params.k * params.delta ** (params.hurst - 1.0) / np.sqrt(np.sum(w**2) * dt)


def _valid_convolve(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of x convolved with w, keeping only the fully overlapped part.

    out[:, j] = sum_i w[i] x[:, j + len(w) - 1 - i]. A circular FFT
    convolution of length >= x.shape[1] wraps only into the discarded head.
    """
    size = 1 << (x.shape[1] - 1).bit_length()
    full = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(w, size), size)
    return full[:, len(w) - 1 : x.shape[1]]


def _identified_logvol_eps(params: ModelParams, n_steps: int, dt: float,
                           history: int, rng_vol: np.random.Generator,
                           rng_price: np.random.Generator | None,
                           n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Moving-average log-vol plus the matching price increments.

    The kernel needs `history` increments of warm-up before t = 0; they are
    generated and discarded internally, so outputs start fully warmed up.
    """
    kp = params.kprime
    if kp is None:
        kp = calibrated_kprime(params, dt, history)
    e = np.sqrt(dt) * rng_vol.standard_normal((n_paths, history + n_steps))
    w = _kernel(history, dt, params.hurst)
    core = _valid_convolve(e, w)  # (n_paths, n_steps + 1)
    logvol = params.beta + kp * core
    if rng_price is None:
        # Identified drivers: the price is pushed by the negative of the
        # volatility driver, which is what makes rising volatility accompany
        # falling prices (the leverage effect).
        eps = -e[:, history:]
    else:
        eps = np.sqrt(dt) * rng_price.standard_normal((n_paths, n_steps))
    return logvol, eps


def simulate_identified(params: ModelParams, n_steps: int, dt: float,
                        s0: float = 1.0, history: int = 4096,
                        seed: int = 0) -> MarketPath:
    """Simulate one path of the moving-average form.

    With coupling = identified_drivers the price shares the volatility
    driver; with independent_drivers the two streams are separate and the
    model is statistically equivalent to simulate_path up to kernel
    truncation.
    """
    _check_path_args(params, n_steps, dt, s0, history=history)
    times = _time_grid(n_steps, dt)
    rng_price = substream(seed, _PRICE) if params.coupling == INDEPENDENT_DRIVERS else None
    logvol, eps = _identified_logvol_eps(
        params, n_steps, dt, history, substream(seed, _VOL), rng_price, 1
    )
    prices = _advance_prices(logvol[0], eps[0], params.mu, dt, s0, seed)
    return MarketPath(times=times, prices=prices, logvol=logvol[0], seed=int(seed))


def identified_return_ensemble(params: ModelParams, n_steps: int, dt: float,
                               history: int = 4096, seed: int = 0,
                               n_paths: int = 1) -> np.ndarray:
    """(n_paths, n_steps) log-returns from the moving-average form.

    Paths are generated in fixed-size chunks with per-chunk substreams, so
    the output depends only on (params, n_steps, dt, history, seed, n_paths).
    """
    _check_path_args(params, n_steps, dt, 1.0, history=history, n_paths=n_paths)
    out = np.empty((n_paths, n_steps))
    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        idx = start // _CHUNK
        rng_price = (substream(seed, _ENS_PRICE, idx)
                     if params.coupling == INDEPENDENT_DRIVERS else None)
        logvol, eps = _identified_logvol_eps(
            params, n_steps, dt, history, substream(seed, _ENS_VOL, idx),
            rng_price, stop - start,
        )
        sig = np.exp(logvol[:, :-1])
        out[start:stop] = (params.mu - 0.5 * sig**2) * dt + sig * eps
    return out
