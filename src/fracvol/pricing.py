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
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, erfc, ndtr

from .errors import (GridMismatchError, NoSolutionError, ParameterError, finite,
                     grid_ratio, integer, nonnegative, positive)
from .fgn import fgn_autocovariance
from .returns import _leggauss
from .simulate import ModelParams, logvol_marginal_moments, path_ensemble

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SPREAD_SDS = 8.0  # quadrature window, in units of alpha

# implied-vol bisection bracket and price tolerance
_IV_LO, _IV_HI = 1e-8, 5.0
_IV_TOL = 1e-10
_BLOCK = 64  # kernel rows per pass: each (rows, nodes) temporary stays near 256 kB


@dataclass(frozen=True)
class OptionInputs:
    """European call contract terms plus the current volatility."""

    spot: float
    strike: float
    rate: float
    sigma_t: float
    tau: float

    def validate(self) -> None:
        positive(spot=self.spot, strike=self.strike, sigma_t=self.sigma_t, tau=self.tau)
        finite(rate=self.rate)


@dataclass(frozen=True)
class VolDispersion:
    """Dispersion alpha of the log of the mixing volatility."""

    alpha: float

    def validate(self) -> None:
        nonnegative(alpha=self.alpha)

    @classmethod
    def from_model(cls, params: ModelParams, horizon: float | None = None) -> "VolDispersion":
        """Marginal log-vol dispersion k delta^(H-1), or, given a horizon,
        the dispersion of the log-vol averaged over horizon/delta steps."""
        params.validate()
        alpha = params.k * params.delta ** (params.hurst - 1.0)
        if horizon is not None:
            positive(horizon=horizon)
            alpha *= max(horizon / params.delta, 1.0) ** (params.hurst - 1.0)
        return cls(alpha)


def _terms(spot: float, strike, rate: float, tau) -> tuple[np.ndarray, ...]:
    """(drift, sqrt(tau), K e^(-r tau)) per (strike, tau), where a = drift/sigma
    and b = sigma sqrt(tau)/2; math per point, so grid and scalar agree."""
    root = [math.sqrt(t) for t in tau]
    try:  # log(S/K) and e^(-r tau) raise past the float range
        drift = [math.log(spot / k) / r + rate * r for k, r in zip(strike, root)]
        discounted = [k * math.exp(-rate * t) for k, t in zip(strike, tau)]
    except (OverflowError, ValueError):
        raise ParameterError(f"S/K or e^(-r tau) overflows at rate={rate!r}") from None
    return np.array([drift, root, discounted])


def _contract(opt: OptionInputs) -> tuple[np.ndarray, ...]:
    opt.validate()
    return _terms(opt.spot, [opt.strike], opt.rate, [opt.tau])


def _bs(spot, drift, root, discounted, sigma):
    """Black-Scholes call S Phi(a+b) - K e^(-r tau) Phi(a-b), elementwise."""
    a, b = drift / sigma, 0.5 * sigma * root
    return spot * ndtr(a + b) - discounted * ndtr(a - b)


def _gauss_exp(u: np.ndarray, alpha: float) -> np.ndarray:
    """N(u; 0, alpha^2) * e^u, the smooth part of the integrand."""
    return np.exp(u - 0.5 * (u / alpha) ** 2) / (alpha * _SQRT_2PI)


def _m_plain(alpha, a, b, lo, hi, x, w) -> np.ndarray:
    """M rows for columns a, b on [lo, hi], bounds given per row or shared;
    shared scalar bounds compute the window's exponentials once for all rows."""
    rad = 0.5 * (hi - lo)
    u = 0.5 * (hi + lo) + rad * x
    c = a * np.exp(u) + b * np.exp(-u)
    # e^u / c rewritten to stay finite when e^u overflows
    smooth = np.exp(-0.5 * (u / alpha) ** 2) / (a + b * np.exp(-2.0 * u))
    vals = 0.5 * smooth * erfc(-c / _SQRT2) / (alpha * _SQRT_2PI)
    # one dot per row: a matrix-vector product may add in another order
    return np.ravel(rad) * np.array([w @ row for row in vals])


def _m_split(alpha, a, b, ustar, half, x, w) -> np.ndarray:
    """Integrate across the zero of c at u* with symmetric node pairs.

    Writing h(u) = N(u; 0, alpha^2) e^u and c+ = c(u* + v), the pair sum is
        f(u*+v) + f(u*-v) = [(h+ - h-)/c+ + (h+ + h-) erf(c+/sqrt 2)/c+] / 2
    because c(u*-v) = -c(u*+v) exactly. Both terms are smooth through v = 0,
    so plain Gauss-Legendre in v converges; the leftover asymmetric piece of
    the window has |c| bounded away from zero and is integrated directly.
    Columns a, b, u* hold one row each.
    """
    lo, hi = -half, half
    d = np.minimum(ustar - lo, hi - ustar)
    v = 0.5 * d * (x + 1.0)
    c = np.copysign(2.0 * np.sqrt(-a * b), a) * np.sinh(v)
    h_plus = _gauss_exp(ustar + v, alpha)
    h_minus = _gauss_exp(ustar - v, alpha)
    pair = (h_plus - h_minus) / c + (h_plus + h_minus) * erf(c / _SQRT2) / c
    total = 0.25 * d.ravel() * np.array([w @ row for row in pair])
    # the leftover piece lies below u* - d, else above u* + d (empty at u* = 0)
    low = ustar - lo > d
    return total + _m_plain(alpha, a, b, np.where(low, lo, ustar + d),
                            np.where(low, ustar - d, hi), x, w)


def _m_rows(alpha: float, a: np.ndarray, b: np.ndarray, nodes: int) -> np.ndarray:
    """M(alpha, a_i, b_i) for alpha > 0, in blocks of _BLOCK rows."""
    ok = np.isfinite(a) & np.isfinite(b)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ParameterError(f"a and b must be finite, got {float(a[i])!r}, {float(b[i])!r}")
    integer(2, nodes=nodes)
    x, w = _leggauss(nodes)
    half = _SPREAD_SDS * alpha
    out = np.empty(a.size)
    for start in range(0, a.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        ab, bb, res = a[rows, None], b[rows, None], out[rows]
        # u* = log(-b/a)/2, where c = a e^u + b e^-u changes sign (a b < 0);
        # when b/a underflows to 0, u* lies far below any window: plain rule
        ustar = np.array([0.5 * math.log(-q / p) if p * q < 0 and q / p else math.nan
                          for p, q in zip(a[rows].tolist(), b[rows].tolist())])[:, None]
        split = ((-half < ustar) & (ustar < half)).ravel()
        # e^u, e^-2u and sinh(v) pass the float range at the window edges once
        # 16 alpha > log(max float), where their terms vanish; h(u) past it
        # leaves a row non-finite, which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            if split.any():
                res[split] = _m_split(alpha, ab[split], bb[split], ustar[split], half, x, w)
            if not split.all():
                res[~split] = _m_plain(alpha, ab[~split], bb[~split], -half, half, x, w)
    if not np.isfinite(out).all():
        limit = (math.log(sys.float_info.max) + 0.5 * _SPREAD_SDS**2) / _SPREAD_SDS
        raise ParameterError(
            f"alpha={alpha!r} puts the M-kernel past the float range: its weight "
            f"e^(u - u^2/(2 alpha^2)) / (alpha sqrt(2 pi)) on |u| <= {_SPREAD_SDS:g} alpha "
            f"needs a normal float alpha below {limit:.6g}")
    return out


def m_function(alpha: float, a: float, b: float, nodes: int = 512) -> float:
    """M(alpha, a, b); the alpha = 0 limit is Phi(a + b) / (a + b)."""
    nonnegative(alpha=alpha)
    if a == 0.0 and b == 0.0:
        raise ParameterError("a = b = 0 makes the integrand singular everywhere")
    if alpha == 0.0:
        d = a + b
        if not np.isfinite(d) or d == 0.0:
            raise ParameterError(f"a + b = {d!r}: the alpha -> 0 limit "
                                 "Phi(a+b)/(a+b) needs a finite nonzero sum")
        return float(ndtr(d) / d)
    return float(_m_rows(alpha, np.array([a], float), np.array([b], float), nodes)[0])


def _mixture(alpha, spot, drift, root, discounted, sigma, nodes):
    """Calls under dispersion alpha > 0: S (a M(a,b) + b M(b,a))
    - K e^(-r tau) (a M(a,-b) - b M(-b,a)), one kernel pass for all legs."""
    a, b = drift / sigma, 0.5 * sigma * root
    first = np.concatenate([a, b, a, -b])  # each leg's coefficient is its first argument
    legs = first * _m_rows(alpha, first, np.concatenate([b, a, -b, a]), nodes)
    legs = legs.reshape(4, -1)
    return spot * (legs[0] + legs[1]) - discounted * (legs[2] + legs[3])


def _implied_vols(target, spot, drift, root, discounted, label) -> np.ndarray:
    """Bisection on [1e-8, 5] for every point, stopping each at 1e-10 in
    price; label(i) prefixes the error for the first point without one."""
    intrinsic = np.maximum(0.0, spot - discounted)
    band = ~((intrinsic < target) & (target < spot))
    edge = _bs(spot, drift, root, discounted, _IV_LO) >= target
    high = _bs(spot, drift, root, discounted, _IV_HI) < target
    bad = band | (~edge & high)
    if bad.any():
        i = int(np.argmax(bad))
        reason = (f"outside the no-arbitrage band ({float(intrinsic[i])!r}, "
                  f"{float(spot)!r})" if band[i] else f"needs volatility above {_IV_HI}")
        raise NoSolutionError(f"{label(i)}target price {float(target[i])!r} {reason}")
    # a point that stops is frozen at lo = hi = mid, so it keeps that mid;
    # band-edge points start frozen at the bracket floor
    lo = np.full(target.shape, _IV_LO)
    hi = np.where(edge, _IV_LO, _IV_HI)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        diff = _bs(spot, drift, root, discounted, mid) - target
        stop = (np.abs(diff) <= _IV_TOL) | (hi - lo <= 1e-15)
        if stop.all():
            return mid
        below = diff < 0
        lo, hi = np.where(stop | below, mid, lo), np.where(stop | ~below, mid, hi)
    return 0.5 * (lo + hi)


def black_scholes(opt: OptionInputs) -> float:
    """Classical call price S Phi(a+b) - K e^(-r tau) Phi(a-b)."""
    return float(_bs(opt.spot, *_contract(opt), opt.sigma_t)[0])


def price(opt: OptionInputs, disp: VolDispersion, nodes: int = 512) -> float:
    """Call value under a lognormal vol mixture of dispersion disp.alpha."""
    terms = _contract(opt)
    disp.validate()
    if disp.alpha == 0.0:
        return black_scholes(opt)
    return float(_mixture(disp.alpha, opt.spot, *terms, opt.sigma_t, nodes)[0])


def implied_vol(target_price: float, opt: OptionInputs) -> float:
    """Volatility whose Black-Scholes price hits target_price.

    opt supplies spot, strike, rate and tau; its sigma_t field is ignored.
    Bracketed bisection on [1e-8, 5], stopping at 1e-10 absolute in price.
    """
    return float(_implied_vols(np.array([target_price], float), opt.spot,
                               *_contract(opt), lambda i: "")[0])


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
    and tau in [5, 100]. The whole grid goes through one array pass each
    for the price, the implied vols and Black-Scholes; every value equals
    the scalar `price`, `implied_vol` and `black_scholes` at that point.
    """
    model.validate()
    disp = VolDispersion(alpha) if alpha is not None else VolDispersion.from_model(model)
    disp.validate()
    mgrid = np.linspace(0.5, 1.5, 21) if moneyness is None else np.asarray(moneyness, float)
    tgrid = np.linspace(5.0, 100.0, 20) if taus is None else np.asarray(taus, float)
    if mgrid.ndim != 1 or tgrid.ndim != 1 or mgrid.size == 0 or tgrid.size == 0:
        raise ParameterError("moneyness and taus must be nonempty 1-d grids")
    if np.any(mgrid <= 0) or np.any(tgrid <= 0):
        raise ParameterError("moneyness and taus must be positive")
    for m in (mgrid.min(), mgrid.max()):  # the strike spot/m is monotone in m
        OptionInputs(spot, spot / m, rate, sigma_t, tgrid.max()).validate()

    shape = (mgrid.size, tgrid.size)
    terms = _terms(spot, np.repeat(spot / mgrid, shape[1]).tolist(), rate,
                   np.tile(tgrid, shape[0]).tolist())
    bs = _bs(spot, *terms, sigma_t)
    value = bs if disp.alpha == 0.0 else _mixture(disp.alpha, spot, *terms, sigma_t, nodes)
    vols = _implied_vols(value, spot, *terms, lambda i: (
        f"smile point moneyness={float(mgrid[i // shape[1]])!r}, "
        f"tau={float(tgrid[i % shape[1]])!r}, alpha={float(disp.alpha)!r}: "))
    return SmileSurface(moneyness=mgrid, taus=tgrid, price=value.reshape(shape),
                        implied_vol=vols.reshape(shape),
                        delta_vs_bs=(value - bs).reshape(shape))


def mean_variance_fit(params: ModelParams, tau: float) -> tuple[float, float]:
    """Lognormal (sigma, alpha) fit of the mean variance over tau.

    The simulated price over tau = N delta steps sees the mean variance
    V = (1/N) sum_i sigma_i^2, whose first two moments are closed-form for
    jointly Gaussian log sigma_i. Matching them to sigma^2 e^(2u),
    u ~ N(0, alpha^2), gives the (sigma_t, alpha) pair that makes `price`
    comparable with the Monte Carlo oracle.
    """
    _, s2 = logvol_marginal_moments(params)  # validates params
    n = _horizon_steps(params, tau)
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
    positive(tau=tau)
    steps = grid_ratio(tau, params.delta)
    if steps is None:
        raise GridMismatchError(
            f"tau={tau!r} is not an integer multiple of delta={params.delta!r}"
        )
    return steps


def monte_carlo_price(opt: OptionInputs, params: ModelParams,
                      n_paths: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """Risk-neutral Monte Carlo call price: (estimate, standard error).

    Simulates params with drift forced to opt.rate over tau/delta steps of
    size delta starting from opt.spot, and discounts the terminal payoff.
    The volatility level comes from params.beta; opt.sigma_t is not used.
    """
    opt.validate()
    integer(2, n_paths=n_paths)  # the standard error needs two payoffs
    n_steps = _horizon_steps(params, opt.tau)
    rn = replace(params, mu=opt.rate)
    _, prices, _ = path_ensemble(rn, n_steps, params.delta, s0=opt.spot,
                                 seed=seed, n_paths=n_paths)
    payoff = np.maximum(prices[:, -1] - opt.strike, 0.0)
    value = math.exp(-opt.rate * opt.tau) * payoff
    stderr = float(np.std(value, ddof=1) / math.sqrt(n_paths))
    return float(np.mean(value)), stderr
