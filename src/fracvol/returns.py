"""Return distribution of the fractional volatility model.

Over a horizon lag, the log-volatility is Gaussian, so the return is a
lognormal mixture of Gaussians: condition on sigma = e^u with
u ~ N(beta, (k delta^(H-1))^2) (fgn.LogVolParams), and the return is
N((mu - sigma^2/2) * lag, sigma^2 * lag). pdf and cdf share one quadrature over
it (one node at k = 0), the sampler draws from it; the large-return tail is
exp(-log^2(lambda) / C), C = 8 k^2 delta^(2H-2), up to a slowly varying factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRegimeError, ParameterError, integer, positive
from .fgn import LogVolParams, _scipy_extension
from .rng import substream


def _special_ufuncs():
    """scipy's erf, erfc and ndtr from its special/_special_ufuncs extension alone,
    as the scipy.special package adds about 290 modules to a fresh process;
    scipy.special's own where that file or a name is missing."""
    module = _scipy_extension("special", "_special_ufuncs")
    try:
        return module.erf, module.erfc, module.ndtr
    except AttributeError:  # no such extension (None), or a name missing
        from scipy.special import erf, erfc, ndtr
        return erf, erfc, ndtr


erf, erfc, ndtr = _special_ufuncs()

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_NODES = 256  # Gauss-Legendre nodes over log sigma
_HALFWIDTH_SDS = 12.0  # half-width of the log-sigma window, in its sds
_GRID_POINTS = 513  # points of return_grid
_GRID_SPAN_SDS = 8.0  # its half-width, in return sds
_TAIL_LAMBDAS = (1e3, 1e5, 40)  # the geometric lambda grid of calibrate_tail_prefactor


@dataclass(frozen=True)
class ReturnDistParams(LogVolParams):
    """Distribution parameters over a fixed horizon `lag`."""

    lag: float = 1.0

    def validate(self) -> None:
        super().validate()
        positive(lag=self.lag)
        with np.errstate(over="ignore"):  # the overflow is what is checked
            theta = self.theta
        try:  # central_return's theta**2, a Python float power, raises past the range
            square = theta**2
        except OverflowError:
            square = np.inf
        if not square < np.inf:
            raise ParameterError(f"beta={self.beta!r} puts theta^2 = e^(2 beta) past the "
                                 "float range; lower beta")

    @property
    def theta(self) -> float:
        """Central volatility e^beta."""
        return float(np.exp(self.beta))

    @property
    def tail_coefficient(self) -> float:
        """C = 8 k^2 delta^(2H-2), the scale of log^2 in the tail."""
        return 8.0 * self.sigma_logvol**2


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _standard(x, mean, sd):
    with np.errstate(over="ignore"):  # |z| past the float range: pdf 0, cdf 0 or 1, exactly
        return (x - mean) / sd


def _gaussian_pdf(x, mean, sd):
    z = _standard(x, mean, sd)
    with np.errstate(over="ignore"):  # z*z past the float range: exp(-inf) is an exact 0
        kernel = np.exp(-0.5 * z * z)
    return kernel / (sd * _SQRT_2PI)


def _points(name: str, x) -> np.ndarray:
    """x as a float array without NaN; +-inf stay, where pdf and cdf take their limits."""
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        index = int(np.isnan(arr).argmax())
        raise ParameterError(f"{name} must not be nan, got nan at flat index {index}")
    return arr


def _mixture_nodes(params: ReturnDistParams):
    """Nodes e^u and weights of the log-vol quadrature; e^beta alone at k = 0."""
    if params.k == 0.0:
        return np.array([params.theta]), np.ones(1)
    s = params.sigma_logvol
    with np.errstate(over="ignore", divide="ignore"):  # the overflow is what is checked
        if not np.isfinite(1.0 / (s * _SQRT_2PI)):  # s is subnormal or 0
            raise ParameterError(f"k={params.k!r} puts the peak log-vol density 1/(k "
                                 "delta^(H-1) sqrt(2 pi)) past the float range; raise k")
    x, w = _leggauss(_NODES)
    u = params.beta + _HALFWIDTH_SDS * s * x
    weights = w * _HALFWIDTH_SDS * s * _gaussian_pdf(u, params.beta, s)
    with np.errstate(over="ignore"):  # the overflow is what is checked
        sigma = np.exp(u)
    if not np.isfinite(sigma[-1]):  # the top node
        raise ParameterError(f"k={params.k!r} puts the top log-vol node e^u past the float "
                             "range; lower k or beta")
    return sigma, weights


def _conditional_moments(params: ReturnDistParams, sigma):
    mean = (params.mu - 0.5 * sigma**2) * params.lag
    sd = sigma * np.sqrt(params.lag)
    return mean, sd


def _density_moments(params: ReturnDistParams, sigma, peak: bool = False):
    """_conditional_moments for pdf and cdf, which divide by the sd; with
    peak (pdf), the density's peak 1/(sd sqrt(2 pi)) must be a float too."""
    # sigma^2 past the float range makes a node's mean -inf, so its density is
    # exactly 0 and its cdf exactly 1, the right limit
    with np.errstate(over="ignore"):
        mean, sd = _conditional_moments(params, sigma)
    if not np.max(sd) < np.inf:  # the over="ignore" above must not hide this one
        raise ParameterError(f"lag={params.lag!r} with k={params.k!r} puts the return sd "
                             "e^u sqrt(lag) past the float range; lower lag or k")
    low = np.min(sd)
    if not low > 0.0:  # e^u sqrt(lag) underflows at some log-vol node u
        raise ParameterError(f"beta={params.beta!r} puts the return sd e^u sqrt(lag) "
                             "below the float range; raise beta")
    if peak:
        with np.errstate(over="ignore"):  # the overflow is what is checked
            top = 1.0 / (low * _SQRT_2PI)
        if not np.isfinite(top):
            raise ParameterError(f"beta={params.beta!r} puts the peak return density "
                                 "1/(sd sqrt(2 pi)) past the float range; raise beta")
    return mean, sd


def pdf(r, params: ReturnDistParams):
    """Density of the return over params.lag; r may be an array.

    The mixture integral runs over log sigma within 12 standard deviations
    of beta with a fixed 256-node Gauss-Legendre rule. That width covers the
    saddle point of returns out to lambda ~ 1e6, far beyond where the
    density underflows.
    """
    r_arr = _points("r", r)
    sigma, weights = _mixture_nodes(params)
    mean, sd = _density_moments(params, sigma, peak=True)
    out = _gaussian_pdf(r_arr[..., None], mean, sd) @ weights
    return out if out.ndim else float(out)


def cdf(r, params: ReturnDistParams):
    """Mixture CDF, the same quadrature as pdf."""
    r_arr = _points("r", r)
    sigma, weights = _mixture_nodes(params)
    mean, sd = _density_moments(params, sigma)
    out = ndtr(_standard(r_arr[..., None], mean, sd)) @ weights
    # weights integrate the truncated Gaussian: renormalize, and hold the
    # rounding of the two sums inside [0, 1] with cdf(+inf) = 1 exactly
    out = np.where(r_arr == np.inf, 1.0, np.minimum(out / weights.sum(), 1.0))
    return out if out.ndim else float(out)


def sample_returns(params: ReturnDistParams, n: int, seed: int = 0) -> np.ndarray:
    """Draw n returns: sigma from the lognormal, then the Gaussian return."""
    integer(1, n=n)
    rng = substream(seed)
    with np.errstate(over="ignore"):  # the overflow is what is checked
        sigma = np.exp(params.beta + params.sigma_logvol * rng.standard_normal(n))
        mean, sd = _conditional_moments(params, sigma)
    if not np.isfinite(mean).all():  # sigma^2 past the float range at some draw
        raise ParameterError(f"beta={params.beta!r} with k={params.k!r} draws a sigma^2 = "
                             "e^(2u) past the float range; lower beta or k")
    return mean + sd * rng.standard_normal(n)


def central_return(params: ReturnDistParams) -> float:
    """r0 = (mu - theta^2/2) * lag, the center used by the tail variable."""
    return (params.mu - 0.5 * params.theta**2) * params.lag


def return_grid(params: ReturnDistParams) -> np.ndarray:
    """513 returns evenly over central_return +- 8 sd, where the return sd is
    theta e^(k^2 delta^(2H-2)) sqrt(lag): the grid of the pdf command."""
    center = central_return(params)
    try:
        sd = params.theta * math.exp(params.sigma_logvol ** 2) * math.sqrt(params.lag)
    except OverflowError:
        sd = math.inf
    if not math.isfinite(abs(center) + _GRID_SPAN_SDS * sd):
        raise ParameterError(f"the return grid (sd {sd!r}) is past the float range; "
                             "lower k or beta")
    return np.linspace(center - _GRID_SPAN_SDS * sd, center + _GRID_SPAN_SDS * sd,
                       _GRID_POINTS)


def tail_lambda(r, params: ReturnDistParams):
    """lambda = (r - r0)^2 / (2 lag theta^2), the squared scaled distance."""
    r_arr = _points("r", r)
    out = (r_arr - central_return(params)) ** 2 / (2.0 * params.lag * params.theta**2)
    return out if out.ndim else float(out)


def return_for_lambda(lam, params: ReturnDistParams):
    """The positive-side return at a given tail variable lambda."""
    lam_arr = _points("lam", lam)
    if (lam_arr < 0).any():
        raise ParameterError(f"lam must be nonnegative, got {float(lam_arr.min())!r}")
    out = central_return(params) + np.sqrt(2.0 * params.lag * params.theta**2 * lam_arr)
    return out if out.ndim else float(out)


def tail_asymptotic(r, params: ReturnDistParams, prefactor: float = 1.0):
    """Large-return form prefactor * (lag*lambda)^(-1/2) exp(-log^2 lambda / C).

    Only valid for lambda > 1; smaller values raise, since the expansion is
    meaningless near the center.
    """
    if params.k == 0.0:
        raise ParameterError("tail form degenerates at k = 0 (Gaussian tail)")
    lam = np.asarray(tail_lambda(r, params), dtype=float)
    if np.any(lam <= 1.0):
        raise OutOfRegimeError("tail form requires lambda > 1; got lambda as small "
                               f"as {lam.min():.3g}")
    log_lam = np.log(lam)
    out = prefactor * (params.lag * lam) ** -0.5 * np.exp(
        -log_lam * log_lam / params.tail_coefficient)
    return out if out.ndim else float(out)


def calibrate_tail_prefactor(params: ReturnDistParams) -> float:
    """Constant matching the tail form to the quadrature pdf over _TAIL_LAMBDAS."""
    lam = np.geomspace(*_TAIL_LAMBDAS)
    r = return_for_lambda(lam, params)
    ratio = np.log(pdf(r, params)) - np.log(tail_asymptotic(r, params))
    return float(np.exp(np.mean(ratio)))
