"""Fractional Gaussian noise and fractional Brownian motion.

Fractional Brownian motion with Hurst exponent H is the zero-mean Gaussian
process with covariance

    cov(B(s), B(t)) = (|t|^(2H) + |s|^(2H) - |t - s|^(2H)) / 2,

and fractional Gaussian noise (fGn) is its stationary increment sequence on a
regular grid. The generator here is exact in distribution: circulant
embedding of the fGn covariance (O(n log n)). The embedding is nonnegative
definite for every 0 < H <= 1 (Dietrich & Newsam 1997; Craigmile 2003), so
its computed eigenvalues go negative only through round-off in the
autocovariance. Those above a round-off bound derived from n and H are
clipped to zero; anything lower raises GenerationError. Each transform is
a complex FFT run in place on one buffer of 2n complex values (32 MiB at
n = 2^20), so no complex cast or separate output array is allocated.

pocketfft runs a length with a large prime factor (2n = 2 x 65,537 for a
2^16-step path) by Bluestein's algorithm, whose plan, a chirp and its FFT,
np.fft.fft builds again on every call: about half of a one-row transform
there (some 10 of 20 ms on a 2-vCPU host). So a one-row draw whose length
is not a power of two goes through scipy's fft/_pocketfft/pypocketfft
extension, loaded alone on the first such draw, which keeps its plans in a
cache and gives the same bits; the 131,074-point plan stays resident, about
9 MiB. Powers of two stay on numpy: their plans are cheap, and a cached
2^21-point plan would hold 32 MiB for the life of the process. So do calls
of several rows, which share one numpy plan across their rows already, and
the one eigenvalue transform per (n, H). Without the extension every draw
uses np.fft.fft.

The n + 1 spectral weights the sampler multiplies its normals by depend only
on (n, H), so they are computed once per key and kept in a bounded LRU cache
of _WEIGHT_CACHE entries (read-only arrays of 8(n + 1) bytes each: 8 MiB at
n = 2^20). A failed embedding is not cached; the next call checks it again.

LogVolParams is the model's log-vol law, log sigma ~ N(beta, (k delta^(H-1))^2)
over fGn at spacing delta, with the paper's defaults; simulate and returns extend it.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import (Checked, GenerationError, ParameterError, finite, integer, nonnegative,
                     positive, within_cells)
from .rng import substream

_WEIGHT_CACHE = 8  # (n, H) keys kept; the forward-and-back loop uses 3


def _scipy_extension(*parts: str):
    """The compiled module at scipy/<parts><suffix>, loaded alone by an
    ExtensionFileLoader (no scipy package module is imported) as
    fracvol.<parts[-1]>, the name its init symbol carries; None where it is
    missing or does not load."""
    spec = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, *parts) + suffix
            ext = importlib.util.spec_from_file_location(f"fracvol.{parts[-1]}", path)
            try:  # a missing file raises ImportError too
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return module
            except ImportError:
                continue
    return None


@cache
def _pocketfft():
    """pypocketfft's c2c, whose plans persist between calls; None without it."""
    module = _scipy_extension("fft", "_pocketfft", "pypocketfft")
    return getattr(module, "c2c", None)


def check_hurst(hurst: float) -> float:
    """Validate 0 < H <= 1 and return H as a float."""
    finite(hurst=hurst)
    if not 0.0 < hurst <= 1.0:
        raise ParameterError(f"Hurst exponent must satisfy 0 < H <= 1, got {hurst!r}")
    return float(hurst)


@dataclass(frozen=True)
class LogVolParams(Checked):
    """log sigma ~ N(beta, (k delta^(H-1))^2), price drift mu: the paper's model."""

    mu: float = 0.0
    beta: float = -5.0
    k: float = 0.59
    delta: float = 1.0
    hurst: float = 0.83

    @property
    def sigma_logvol(self) -> float:
        """Standard deviation of log sigma: k delta^(H-1)."""
        return float(self.k) * math.pow(self.delta, self.hurst - 1.0)

    def validate(self) -> None:
        check_hurst(self.hurst)
        finite(mu=self.mu, beta=self.beta)
        positive(delta=self.delta)
        nonnegative(k=self.k)
        try:  # for k > 0, the log-vol variance must be a finite float
            var = self.sigma_logvol ** 2 if self.k else 0.0
        except OverflowError:  # delta^(H-1) or its square is past the float range
            var = math.inf
        finite(**{"log-vol variance k^2 delta^(2H-2)": var})


def fgn_autocovariance(lag, hurst: float, spacing: float = 1.0):
    """Autocovariance of fGn at integer lag(s) for the given grid spacing.

    gamma(k) = (spacing^(2H) / 2) (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H))
    """
    h = check_hurst(hurst)
    positive(spacing=spacing)
    k = np.asarray(lag, dtype=float)
    if not np.all((k >= 0) & (k < np.inf)):
        raise ParameterError("lag must be finite and >= 0")
    two_h = 2.0 * h
    scale = 0.5 * spacing**two_h
    if not k.ndim:  # numpy's scalar power; its last bits differ from the array loop's
        return float(scale * (abs(k + 1) ** two_h - 2.0 * abs(k) ** two_h
                              + abs(k - 1) ** two_h))

    def abs_power(buf):  # |buf| ** 2H, in place
        np.abs(buf, out=buf)
        buf **= two_h
        return buf

    # the formula's operations, in its order (so its bits), on two reused buffers
    out = abs_power(k + 1)
    term = abs_power(k.copy())
    term *= 2.0
    out -= term
    out += abs_power(np.subtract(k, 1, out=term))
    out *= scale
    return out


@dataclass(frozen=True)
class FgnSeries:
    """A realization of fractional Gaussian noise on a regular grid."""

    values: np.ndarray
    spacing: float
    hurst: float
    seed: int


@dataclass(frozen=True)
class FbmSeries:
    """A fractional Brownian motion path; values[0] is always 0."""

    values: np.ndarray
    spacing: float
    hurst: float


def _circulant_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """Eigenvalues of the 2n-circulant embedding, clipped at zero.

    The first row is the even extension [gamma(0..n), gamma(n-1..1)] of the
    unit-spacing autocovariance, written into the real part of the buffer
    that is transformed; its DFT is real. Each gamma(k) cancels
    terms of size (k+1)^(2H), so its absolute error is about
    eps (k+1)^(2H) and an eigenvalue's is at most 2 eps sum_row
    (|lag|+1)^(2H) <= 4 eps (n+2)^(2H+1) / (2H+1). Negative eigenvalues
    within that bound are round-off; one below it is a genuine failure.
    """
    row = np.zeros(2 * n, dtype=complex)  # transformed in place
    row.real[: n + 1] = fgn_autocovariance(np.arange(n + 1, dtype=float), hurst)
    row.real[n + 1 :] = row.real[n - 1 : 0 : -1]
    eigs = np.fft.fft(row, out=row).real
    two_h1 = 2.0 * hurst + 1.0
    bound = 4.0 * np.finfo(float).eps * (n + 2.0) ** two_h1 / two_h1
    lowest = float(eigs.min())
    if lowest < -bound:
        raise GenerationError(
            f"circulant embedding is not nonnegative definite for n={n}, "
            f"H={hurst!r}: eigenvalue {lowest:.6g} is below the round-off "
            f"bound {-bound:.6g}"
        )
    return np.maximum(eigs, 0.0, out=eigs)


@lru_cache(maxsize=_WEIGHT_CACHE)
def _spectral_weights(n: int, hurst: float) -> np.ndarray:
    """Read-only sqrt(eigs[0]/m), sqrt(eigs[1:n]/(2m)), sqrt(eigs[n]/m), m = 2n:
    the sd of the real parts at frequencies 0 and n and of each half of the
    conjugate pairs in between, so that E|v_j|^2 = eigs[j] / m."""
    eigs = _circulant_eigenvalues(n, hurst)
    m = 2 * n
    weights = np.empty(n + 1)
    weights[0] = np.sqrt(eigs[0] / m)
    weights[1:n] = np.sqrt(eigs[1:n] / (2.0 * m))
    weights[n] = np.sqrt(eigs[n] / m)
    weights.flags.writeable = False
    return weights


def _fgn_circulant(n: int, weights: np.ndarray, rng: np.random.Generator,
                   n_paths: int) -> np.ndarray:
    """Sample (n_paths, n) unit-spacing fGn given the spectral weights."""
    m = 2 * n
    z = rng.standard_normal((n_paths, m))
    v = np.empty((n_paths, m), dtype=complex)
    re, im = v.real, v.imag
    # Hermitian spectral vector: real at frequencies 0 and n, conjugate pairs
    # elsewhere, so that fft(v) has covariance gamma. Written in place.
    re[:, [0, n]] = weights[[0, n]] * z[:, :2]
    im[:, [0, n]] = 0.0
    np.multiply(weights[1:n], z[:, 2 : n + 1], out=re[:, 1:n])
    np.multiply(weights[1:n], z[:, n + 1 : m], out=im[:, 1:n])
    del z
    re[:, n + 1 :] = re[:, n - 1 : 0 : -1]
    np.negative(im[:, n - 1 : 0 : -1], out=im[:, n + 1 :])
    if n_paths == 1 and m & (m - 1) and (c2c := _pocketfft()) is not None:
        c2c(v, (1,), True, 0, v, 1)  # forward, unnormalised, in place, one thread
    else:
        np.fft.fft(v, axis=1, out=v)
    return v.real[:, :n]


def _sample_unit_fgn(n: int, hurst: float, rng: np.random.Generator,
                     n_paths: int) -> np.ndarray:
    if hurst == 1.0:
        # Perfectly correlated noise: one normal repeated along the path.
        return np.repeat(rng.standard_normal((n_paths, 1)), n, axis=1)
    return _fgn_circulant(n, _spectral_weights(n, hurst), rng, n_paths)


def generate_fgn(n: int, hurst: float, spacing: float = 1.0,
                 seed: int = 0) -> FgnSeries:
    """Generate n samples of fGn with the requested Hurst exponent.

    Output is deterministic in (n, hurst, spacing, seed). Spacing enters only
    through the self-similar scale factor spacing^H.
    """
    h = check_hurst(hurst)
    integer(1, n=n)
    within_cells(n=n)
    positive(spacing=spacing)
    rng = substream(seed)
    values = _sample_unit_fgn(int(n), h, rng, 1)[0] * spacing**h
    return FgnSeries(values=values, spacing=float(spacing), hurst=h, seed=int(seed))


def fbm_from_fgn(noise: FgnSeries) -> FbmSeries:
    """Accumulate noise increments into an fBm path starting at 0.

    The output has the same length as the input, so the final partial sum
    (the full displacement sum(noise.values)) is dropped; differencing the
    output recovers noise.values[:-1] up to summation rounding.
    """
    if len(noise.values) == 0:
        raise ParameterError("noise series is empty")
    values = np.concatenate([[0.0], np.cumsum(noise.values)[:-1]])
    return FbmSeries(values=values, spacing=noise.spacing, hurst=noise.hurst)
