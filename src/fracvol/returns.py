"""Return distribution of the fractional volatility model.

Over a horizon lag, the log-volatility is Gaussian, so the return is a
lognormal mixture of Gaussians: condition on sigma = e^u with
u ~ N(beta, (k delta^(H-1))^2), and the return is
N((mu - sigma^2/2) * lag, sigma^2 * lag). The density, CDF and sampler
integrate or draw over that mixture; the large-return tail follows
exp(-log^2(lambda) / C) with C = 8 k^2 delta^(2H-2) up to a slowly varying
prefactor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .errors import OutOfRegimeError, ParameterError, finite, integer, nonnegative, positive
from .fgn import check_hurst, check_logvol_scale
from .rng import substream

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class ReturnDistParams:
    """Distribution parameters over a fixed horizon `lag`."""

    beta: float = -5.0
    k: float = 0.59
    delta: float = 1.0
    hurst: float = 0.83
    mu: float = 0.0
    lag: float = 1.0

    def validate(self) -> None:
        check_hurst(self.hurst)
        finite(beta=self.beta, mu=self.mu)
        nonnegative(k=self.k)
        positive(delta=self.delta, lag=self.lag)
        check_logvol_scale(self.k, self.delta, self.hurst)

    @property
    def theta(self) -> float:
        """Central volatility e^beta."""
        return float(np.exp(self.beta))

    @property
    def sigma_logvol(self) -> float:
        """Standard deviation of log sigma: k delta^(H-1)."""
        return self.k * self.delta ** (self.hurst - 1.0)

    @property
    def tail_coefficient(self) -> float:
        """C = 8 k^2 delta^(2H-2), the scale of log^2 in the tail."""
        return 8.0 * self.sigma_logvol**2


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gaussian_pdf(x, mean, sd):
    z = (x - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)


def _mixture_nodes(params: ReturnDistParams, nodes: int, halfwidth_sds: float):
    """Log-vol quadrature nodes and their mixture weights."""
    integer(1, nodes=nodes)
    positive(halfwidth_sds=halfwidth_sds)
    s = params.sigma_logvol
    x, w = _leggauss(nodes)
    u = params.beta + halfwidth_sds * s * x
    weights = w * halfwidth_sds * s * _gaussian_pdf(u, params.beta, s)
    return np.exp(u), weights


def _conditional_moments(params: ReturnDistParams, sigma):
    mean = (params.mu - 0.5 * sigma**2) * params.lag
    sd = sigma * np.sqrt(params.lag)
    return mean, sd


def _density_moments(params: ReturnDistParams, sigma):
    """_conditional_moments for pdf and cdf, which divide by the sd."""
    mean, sd = _conditional_moments(params, sigma)
    if not np.min(sd) > 0.0:  # e^u sqrt(lag) underflows at some log-vol node u
        raise ParameterError(f"beta={params.beta!r} puts the return sd e^u sqrt(lag) "
                             "below the float range; raise beta")
    return mean, sd


def pdf(r, params: ReturnDistParams, nodes: int = 256,
        halfwidth_sds: float = 12.0):
    """Density of the return over params.lag; r may be an array.

    The mixture integral runs over log sigma within halfwidth_sds standard
    deviations of beta with a fixed Gauss-Legendre rule. The default width
    covers the saddle point of returns out to lambda ~ 1e6, far beyond where
    the density underflows.
    """
    params.validate()
    r_arr = np.asarray(r, dtype=float)
    if params.k == 0.0:
        mean, sd = _density_moments(params, params.theta)
        out = _gaussian_pdf(r_arr, mean, sd)
        return out if out.ndim else float(out)
    sigma, weights = _mixture_nodes(params, nodes, halfwidth_sds)
    mean, sd = _density_moments(params, sigma)
    out = _gaussian_pdf(r_arr[..., None], mean, sd) @ weights
    return out if out.ndim else float(out)


def cdf(r, params: ReturnDistParams, nodes: int = 256,
        halfwidth_sds: float = 12.0):
    """Mixture CDF, the same quadrature as pdf."""
    params.validate()
    r_arr = np.asarray(r, dtype=float)
    if params.k == 0.0:
        mean, sd = _density_moments(params, params.theta)
        out = ndtr((r_arr - mean) / sd)
        return out if out.ndim else float(out)
    sigma, weights = _mixture_nodes(params, nodes, halfwidth_sds)
    mean, sd = _density_moments(params, sigma)
    out = ndtr((r_arr[..., None] - mean) / sd) @ weights
    # weights integrate the truncated Gaussian; renormalize so cdf(+inf) -> 1
    out = out / weights.sum()
    return out if out.ndim else float(out)


def sample_returns(params: ReturnDistParams, n: int, seed: int = 0) -> np.ndarray:
    """Draw n returns: sigma from the lognormal, then the Gaussian return."""
    params.validate()
    integer(1, n=n)
    rng = substream(seed)
    sigma = np.exp(params.beta + params.sigma_logvol * rng.standard_normal(n))
    mean, sd = _conditional_moments(params, sigma)
    return mean + sd * rng.standard_normal(n)


def central_return(params: ReturnDistParams) -> float:
    """r0 = (mu - theta^2/2) * lag, the center used by the tail variable."""
    return (params.mu - 0.5 * params.theta**2) * params.lag


def tail_lambda(r, params: ReturnDistParams):
    """lambda = (r - r0)^2 / (2 lag theta^2), the squared scaled distance."""
    r_arr = np.asarray(r, dtype=float)
    out = (r_arr - central_return(params)) ** 2 / (
        2.0 * params.lag * params.theta**2
    )
    return out if out.ndim else float(out)


def return_for_lambda(lam, params: ReturnDistParams):
    """The positive-side return at a given tail variable lambda."""
    lam_arr = np.asarray(lam, dtype=float)
    out = central_return(params) + np.sqrt(2.0 * params.lag * params.theta**2 * lam_arr)
    return out if out.ndim else float(out)


def tail_asymptotic(r, params: ReturnDistParams, prefactor: float = 1.0):
    """Large-return form prefactor * (lag*lambda)^(-1/2) exp(-log^2 lambda / C).

    Only valid for lambda > 1; smaller values raise, since the expansion is
    meaningless near the center.
    """
    params.validate()
    if params.k == 0.0:
        raise ParameterError("tail form degenerates at k = 0 (Gaussian tail)")
    lam = np.asarray(tail_lambda(r, params), dtype=float)
    if np.any(lam <= 1.0):
        raise OutOfRegimeError(
            "tail form requires lambda > 1; got lambda as small as "
            f"{lam.min() if lam.ndim else float(lam):.3g}"
        )
    log_lam = np.log(lam)
    out = prefactor * (params.lag * lam) ** -0.5 * np.exp(
        -log_lam * log_lam / params.tail_coefficient
    )
    return out if out.ndim else float(out)


def calibrate_tail_prefactor(params: ReturnDistParams, lam_lo: float = 1e3,
                             lam_hi: float = 1e5, n: int = 40) -> float:
    """Constant matching the tail form to the quadrature pdf on average."""
    lam = np.geomspace(lam_lo, lam_hi, n)
    r = return_for_lambda(lam, params)
    ratio = np.log(pdf(r, params)) - np.log(tail_asymptotic(r, params))
    return float(np.exp(np.mean(ratio)))
