"""European call pricing under lognormal volatility dispersion.

The risk-neutral price is a mixture of Black-Scholes prices over a
lognormal volatility: sigma_t e^u with u ~ N(0, alpha^2). The mixture
collapses to a single integral against the M-function

    M(alpha, a, b) = (1/(4 alpha)) sqrt(2/pi)
        * int_0^inf dx exp(-log^2 x / (2 alpha^2)) erfc(-c/sqrt(2)) / c,
    c(x) = a x + b / x,

evaluated here in u = log x with a fixed Gauss-Legendre rule. For mixed
signs (a b < 0) the denominator c vanishes at u* = log(b/|a|)/2; the 1/c
part of the integrand is odd around u*, so nodes placed symmetrically
about u* cancel it exactly and only the smooth even part is summed.

alpha is not pinned down by the model: the default maps the marginal
log-vol dispersion k delta^(H-1); `mean_variance_fit` provides the
horizon-adjusted fit used when comparing against Monte Carlo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, erfc, ndtr

from .errors import GridMismatchError, NoSolutionError, ParameterError
from .fgn import fgn_autocovariance
from .returns import _leggauss
from .simulate import ModelParams, path_ensemble

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SPREAD_SDS = 8.0  # quadrature window, in units of alpha

# implied-vol bisection bracket and price tolerance
_IV_LO, _IV_HI = 1e-8, 5.0
_IV_TOL = 1e-10


@dataclass(frozen=True)
class OptionInputs:
    """European call contract terms plus the current volatility."""

    spot: float
    strike: float
    rate: float
    sigma_t: float
    tau: float

    def validate(self) -> None:
        for name in ("spot", "strike", "sigma_t", "tau"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ParameterError(f"{name} must be positive, got {value!r}")
        if not np.isfinite(self.rate):
            raise ParameterError(f"rate must be finite, got {self.rate!r}")

    @property
    def log_moneyness_rate(self) -> float:
        """a = (log(S/K)/sqrt(tau) + r sqrt(tau)) / sigma_t."""
        root = math.sqrt(self.tau)
        return (math.log(self.spot / self.strike) / root + self.rate * root) / self.sigma_t

    @property
    def half_vol_horizon(self) -> float:
        """b = (sigma_t / 2) sqrt(tau); always positive."""
        return 0.5 * self.sigma_t * math.sqrt(self.tau)


@dataclass(frozen=True)
class VolDispersion:
    """Dispersion alpha of the log of the mixing volatility."""

    alpha: float

    def validate(self) -> None:
        if not (self.alpha >= 0 and np.isfinite(self.alpha)):
            raise ParameterError(f"alpha must be >= 0, got {self.alpha!r}")

    @classmethod
    def from_model(cls, params: ModelParams, horizon: float | None = None) -> "VolDispersion":
        """Marginal log-vol dispersion k delta^(H-1), or, given a horizon,
        the dispersion of the log-vol averaged over horizon/delta steps."""
        params.validate()
        alpha = params.k * params.delta ** (params.hurst - 1.0)
        if horizon is not None:
            if not (horizon > 0 and math.isfinite(horizon)):
                raise ParameterError(
                    f"horizon must be positive and finite, got {horizon!r}")
            alpha *= max(horizon / params.delta, 1.0) ** (params.hurst - 1.0)
        return cls(alpha)


def _gauss_exp(u: np.ndarray, alpha: float) -> np.ndarray:
    """N(u; 0, alpha^2) * e^u, the smooth part of the integrand."""
    return np.exp(u - 0.5 * (u / alpha) ** 2) / (alpha * _SQRT_2PI)


def _m_plain(alpha: float, a: float, b: float, lo: float, hi: float,
             nodes: int) -> float:
    x, w = _leggauss(nodes)
    rad = 0.5 * (hi - lo)
    u = 0.5 * (hi + lo) + rad * x
    c = a * np.exp(u) + b * np.exp(-u)
    # e^u / c rewritten to stay finite when e^u overflows
    smooth = np.exp(-0.5 * (u / alpha) ** 2) / (a + b * np.exp(-2.0 * u))
    vals = 0.5 * smooth * erfc(-c / _SQRT2) / (alpha * _SQRT_2PI)
    return rad * float(w @ vals)


def _m_split(alpha: float, a: float, b: float, ustar: float, lo: float,
             hi: float, nodes: int) -> float:
    """Integrate across the zero of c at u* with symmetric node pairs.

    Writing h(u) = N(u; 0, alpha^2) e^u and c+ = c(u* + v), the pair sum is
        f(u*+v) + f(u*-v) = [(h+ - h-)/c+ + (h+ + h-) erf(c+/sqrt 2)/c+] / 2
    because c(u*-v) = -c(u*+v) exactly. Both terms are smooth through v = 0,
    so plain Gauss-Legendre in v converges; the leftover asymmetric piece of
    the window has |c| bounded away from zero and is integrated directly.
    """
    d = min(ustar - lo, hi - ustar)
    x, w = _leggauss(nodes)
    v = 0.5 * d * (x + 1.0)
    c = math.copysign(2.0 * math.sqrt(-a * b), a) * np.sinh(v)
    h_plus = _gauss_exp(ustar + v, alpha)
    h_minus = _gauss_exp(ustar - v, alpha)
    pair = (h_plus - h_minus) / c + (h_plus + h_minus) * erf(c / _SQRT2) / c
    total = 0.25 * d * float(w @ pair)
    if ustar - lo > d:
        total += _m_plain(alpha, a, b, lo, ustar - d, nodes)
    elif hi - ustar > d:
        total += _m_plain(alpha, a, b, ustar + d, hi, nodes)
    return total


def m_function(alpha: float, a: float, b: float, nodes: int = 512) -> float:
    """M(alpha, a, b); the alpha = 0 limit is Phi(a + b) / (a + b)."""
    if not (alpha >= 0 and np.isfinite(alpha)):
        raise ParameterError(f"alpha must be >= 0, got {alpha!r}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ParameterError(f"a and b must be finite, got {a!r}, {b!r}")
    if a == 0.0 and b == 0.0:
        raise ParameterError("a = b = 0 makes the integrand singular everywhere")
    if nodes < 2:
        raise ParameterError(f"node count must be >= 2, got {nodes}")
    if alpha == 0.0:
        d = a + b
        if d == 0.0:
            raise ParameterError(
                "a + b = 0: the alpha -> 0 limit Phi(a+b)/(a+b) diverges"
            )
        return float(ndtr(d) / d)
    half = _SPREAD_SDS * alpha
    if a * b < 0:
        ustar = 0.5 * math.log(-b / a)
        if -half < ustar < half:
            return _m_split(alpha, a, b, ustar, -half, half, nodes)
    return _m_plain(alpha, a, b, -half, half, nodes)


def black_scholes(opt: OptionInputs) -> float:
    """Classical call price S Phi(a+b) - K e^(-r tau) Phi(a-b)."""
    opt.validate()
    a, b = opt.log_moneyness_rate, opt.half_vol_horizon
    discounted = opt.strike * math.exp(-opt.rate * opt.tau)
    return float(opt.spot * ndtr(a + b) - discounted * ndtr(a - b))


def price(opt: OptionInputs, disp: VolDispersion, nodes: int = 512) -> float:
    """Call value under a lognormal vol mixture of dispersion disp.alpha."""
    opt.validate()
    disp.validate()
    if disp.alpha == 0.0:
        return black_scholes(opt)
    a, b = opt.log_moneyness_rate, opt.half_vol_horizon
    alpha = disp.alpha
    spot_leg = a * m_function(alpha, a, b, nodes) + b * m_function(alpha, b, a, nodes)
    strike_leg = a * m_function(alpha, a, -b, nodes) - b * m_function(alpha, -b, a, nodes)
    discounted = opt.strike * math.exp(-opt.rate * opt.tau)
    return float(opt.spot * spot_leg - discounted * strike_leg)


def implied_vol(target_price: float, opt: OptionInputs) -> float:
    """Volatility whose Black-Scholes price hits target_price.

    opt supplies spot, strike, rate and tau; its sigma_t field is ignored.
    Bracketed bisection on [1e-8, 5], stopping at 1e-10 absolute in price.
    """
    opt.validate()
    intrinsic = max(0.0, opt.spot - opt.strike * math.exp(-opt.rate * opt.tau))
    if not intrinsic < target_price < opt.spot:
        raise NoSolutionError(
            f"target price {target_price!r} outside the no-arbitrage band "
            f"({intrinsic!r}, {opt.spot!r})"
        )

    def bs(sigma: float) -> float:
        return black_scholes(replace(opt, sigma_t=sigma))

    lo, hi = _IV_LO, _IV_HI
    if bs(lo) >= target_price:
        return lo  # below the bracket; the degenerate band edge
    if bs(hi) < target_price:
        raise NoSolutionError(
            f"target price {target_price!r} needs volatility above {hi}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        diff = bs(mid) - target_price
        if abs(diff) <= _IV_TOL or hi - lo <= 1e-15:
            return mid
        if diff < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SmileSurface:
    """Grid outputs: arrays of shape (len(moneyness), len(taus))."""

    moneyness: np.ndarray
    taus: np.ndarray
    price: np.ndarray
    implied_vol: np.ndarray
    delta_vs_bs: np.ndarray


def smile_surface(model: ModelParams, sigma_t: float,
                  moneyness: np.ndarray | None = None,
                  taus: np.ndarray | None = None,
                  spot: float = 1.0, rate: float = 0.001,
                  alpha: float | None = None, nodes: int = 512) -> SmileSurface:
    """Price, implied vol and deviation from Black-Scholes over a grid.

    moneyness is S/K at fixed spot; the defaults cover S/K in [0.5, 1.5]
    and tau in [5, 100]. Grid points are evaluated one at a time, row by
    row in moneyness.
    """
    model.validate()
    disp = VolDispersion(alpha) if alpha is not None else VolDispersion.from_model(model)
    mgrid = np.linspace(0.5, 1.5, 21) if moneyness is None else np.asarray(moneyness, float)
    tgrid = np.linspace(5.0, 100.0, 20) if taus is None else np.asarray(taus, float)
    if mgrid.ndim != 1 or tgrid.ndim != 1 or mgrid.size == 0 or tgrid.size == 0:
        raise ParameterError("moneyness and taus must be nonempty 1-d grids")
    if np.any(mgrid <= 0) or np.any(tgrid <= 0):
        raise ParameterError("moneyness and taus must be positive")

    out = np.empty((mgrid.size, tgrid.size, 3))
    for i, m in enumerate(mgrid):
        for j, tau in enumerate(tgrid):
            opt = OptionInputs(spot=spot, strike=spot / m, rate=rate,
                               sigma_t=sigma_t, tau=tau)
            value = price(opt, disp, nodes)
            out[i, j] = value, implied_vol(value, opt), value - black_scholes(opt)
    return SmileSurface(moneyness=mgrid, taus=tgrid, price=out[..., 0],
                        implied_vol=out[..., 1], delta_vs_bs=out[..., 2])


def mean_variance_fit(params: ModelParams, tau: float) -> tuple[float, float]:
    """Lognormal (sigma, alpha) fit of the mean variance over tau.

    The simulated price over tau = N delta steps sees the mean variance
    V = (1/N) sum_i sigma_i^2, whose first two moments are closed-form for
    jointly Gaussian log sigma_i. Matching them to sigma^2 e^(2u),
    u ~ N(0, alpha^2), gives the (sigma_t, alpha) pair that makes `price`
    comparable with the Monte Carlo oracle.
    """
    params.validate()
    n = _horizon_steps(params, tau)
    s2 = params.k**2 * params.delta ** (2.0 * params.hurst - 2.0)
    lags = np.arange(1, n)
    rho = fgn_autocovariance(lags, params.hurst)  # unit-spacing correlation
    mean = math.exp(2.0 * params.beta + 2.0 * s2)  # E[V]
    # Var(V)/E[V]^2 from the pairwise lognormal covariances
    ratio = (n * math.expm1(4.0 * s2)
             + 2.0 * float((n - lags) @ np.expm1(4.0 * s2 * rho))) / n**2
    alpha_sq = 0.25 * math.log1p(ratio)
    sigma = math.sqrt(mean) * math.exp(-alpha_sq)
    return sigma, math.sqrt(alpha_sq)


def _horizon_steps(params: ModelParams, tau: float) -> int:
    if not (tau > 0 and math.isfinite(tau)):
        raise ParameterError(f"tau must be positive and finite, got {tau!r}")
    steps = round(tau / params.delta)
    if steps < 1 or abs(tau / params.delta - steps) > 1e-9 * steps:
        raise GridMismatchError(
            f"tau={tau!r} is not an integer multiple of delta={params.delta!r}"
        )
    return int(steps)


def monte_carlo_price(opt: OptionInputs, params: ModelParams,
                      n_paths: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """Risk-neutral Monte Carlo call price: (estimate, standard error).

    Simulates params with drift forced to opt.rate over tau/delta steps of
    size delta starting from opt.spot, and discounts the terminal payoff.
    The volatility level comes from params.beta; opt.sigma_t is not used.
    """
    opt.validate()
    n_steps = _horizon_steps(params, opt.tau)
    rn = replace(params, mu=opt.rate)
    _, prices, _ = path_ensemble(rn, n_steps, params.delta, s0=opt.spot,
                                 seed=seed, n_paths=n_paths)
    payoff = np.maximum(prices[:, -1] - opt.strike, 0.0)
    value = math.exp(-opt.rate * opt.tau) * payoff
    stderr = float(np.std(value, ddof=1) / math.sqrt(n_paths))
    return float(np.mean(value)), stderr
