"""European call pricing under lognormal volatility dispersion.

The risk-neutral price is a mixture of Black-Scholes prices over a
lognormal volatility: sigma_t e^u with u ~ N(0, alpha^2). The mixture
collapses to a single integral against the M-function

    M(alpha, a, b) = (1/(4 alpha)) sqrt(2/pi)
        * int_0^inf dx exp(-log^2 x / (2 alpha^2)) erfc(-c/sqrt(2)) / c,
    c(x) = a x + b / x,

evaluated here in u = log x with 512 Gauss-Legendre nodes on |u| <= 8 alpha,
for alpha = 0 or a normal float up to _ALPHA_MAX (VolDispersion).
For mixed signs (a b < 0) the denominator c vanishes at u* = log(b/|a|)/2;
the 1/c part of the integrand is odd around u*, so nodes placed symmetrically
about u* cancel it exactly and only the smooth even part is summed.

A call's legs M(a, b), M(b, a), M(a, -b), M(-b, a) form two mirrored pairs
M(p, q), M(q, p). Gauss-Legendre nodes are exactly antisymmetric, so on the
shared window e^u[::-1] == e^-u bit for bit and, as float + and * commute,
c for (q, p) at node j is c for (p, q) at node n-1-j: a pair with no split
row needs one erfc pass. Split rows do not share: log(-p/q) != -log(-q/p).

alpha is not pinned down by the model: the default maps the marginal
log-vol dispersion k delta^(H-1); `mean_variance_fit` provides the
horizon-adjusted fit used when comparing against Monte Carlo.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (Checked, GridMismatchError, NoSolutionError, ParameterError, finite,
                     grid_ratio, integer, nonnegative, positive)
from .fgn import fgn_autocovariance
from .returns import _leggauss, erf, erfc, ndtr
from .simulate import ModelParams, _path_blocks, logvol_marginal_moments

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SPREAD_SDS = 8.0  # quadrature window, in units of alpha

# implied-vol bisection bracket and price tolerance
_IV_LO, _IV_HI = 1e-8, 5.0
_IV_TOL = 1e-10
_BLOCK = 32  # mirrored pairs per pass: each (2, pairs, nodes) temporary stays near 256 kB
_NODES = 512  # Gauss-Legendre nodes of the M-kernel
_ALPHA_MAX = 5.0  # largest alpha pricing within 1e-10 of quadrature (scripts/kernel_accuracy.py)


@dataclass(frozen=True)
class OptionInputs(Checked):
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
class VolDispersion(Checked):
    """Dispersion alpha of the log of the mixing volatility: 0, or a normal float
    up to _ALPHA_MAX."""

    alpha: float

    def validate(self) -> None:
        nonnegative(alpha=self.alpha)
        if self.alpha and not sys.float_info.min <= self.alpha <= _ALPHA_MAX:
            raise ParameterError(f"alpha={self.alpha!r} is outside the M-kernel's domain: "
                                 f"0 or a normal float up to {_ALPHA_MAX}")

    @classmethod
    def from_model(cls, params: ModelParams, horizon: float | None = None) -> "VolDispersion":
        """Marginal log-vol dispersion k delta^(H-1), or, given a horizon,
        the dispersion of the log-vol averaged over horizon/delta steps."""
        alpha = params.sigma_logvol
        if horizon is not None:
            positive(horizon=horizon)
            alpha *= max(horizon / params.delta, 1.0) ** (params.hurst - 1.0)
        try:
            return cls(alpha)
        except ParameterError as err:  # name the fields a caller set, not alpha
            raise ParameterError(f"the model's k delta^(H-1) at k={params.k!r}, delta="
                                 f"{params.delta!r}, hurst={params.hurst!r}: {err}") from None


def _terms(spot: float, strike, rate: float, tau) -> tuple[np.ndarray, ...]:
    """(drift, sqrt(tau), K e^(-r tau)) per (strike, tau), where a = drift/sigma
    and b = sigma sqrt(tau)/2; math per point, so grid and scalar agree."""
    root = [math.sqrt(t) for t in tau]
    ratio = [spot / k for k in strike]
    outside = [k for k, m in zip(strike, ratio) if not 0.0 < m < math.inf]
    if outside:
        raise ParameterError(f"S/K leaves the float range at spot={spot!r}, "
                             f"strike={outside[0]!r}; bring spot and strike closer")
    try:  # e^(-r tau) raises past the float range; r sqrt(tau) and K e^(-r tau) may be inf
        drift = [math.log(m) / r + rate * r for m, r in zip(ratio, root)]
        discounted = [k * math.exp(-rate * t) for k, t in zip(strike, tau)]
        terms = np.array([drift, root, discounted])
        if not np.isfinite(terms).all():
            raise OverflowError
    except OverflowError:
        raise ParameterError(f"rate sqrt(tau) or K e^(-rate tau) leaves the float range "
                             f"at rate={rate!r}") from None
    return terms


def _contract(opt: OptionInputs) -> tuple[np.ndarray, ...]:
    return _terms(opt.spot, [opt.strike], opt.rate, [opt.tau])


def _ab(drift, root, sigma):
    """The Black-Scholes arguments a = drift/sigma and b = sigma sqrt(tau)/2."""
    with np.errstate(over="ignore"):  # the overflow is what is checked
        a, b = drift / sigma, 0.5 * sigma * root
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError(
            f"a = drift/sigma or b = sigma sqrt(tau)/2 leaves the float range at "
            f"sigma={sigma!r}, where drift = log(S/K)/sqrt(tau) + rate sqrt(tau) "
            f"reaches {float(np.abs(drift).max())!r}; bring rate or sigma into range")
    return a, b


def _call(spot, discounted, a, b):
    """Black-Scholes call S Phi(a+b) - K e^(-r tau) Phi(a-b), elementwise."""
    return spot * ndtr(a + b) - discounted * ndtr(a - b)


def _bs(spot, drift, root, discounted, sigma):
    """_call at volatility sigma, its arguments checked by _ab."""
    return _call(spot, discounted, *_ab(drift, root, sigma))


def _gauss_exp(u: np.ndarray, alpha: float) -> np.ndarray:
    """N(u; 0, alpha^2) * e^u, the smooth part of the integrand."""
    return np.exp(u - 0.5 * (u / alpha) ** 2) / (alpha * _SQRT_2PI)


def _dot_rows(vals, w) -> np.ndarray:
    """w @ row per row, as stacked 1 x n by n x 1 products: the same dot, unlike vals @ w."""
    return (vals[..., None, :] @ w[:, None])[..., 0, 0]


def _m_plain(alpha, a, b, lo, hi, x, w) -> np.ndarray:
    """M rows for columns a, b on per-row bounds [lo, hi]."""
    rad = 0.5 * (hi - lo)
    u = 0.5 * (hi + lo) + rad * x
    c = a * np.exp(u) + b * np.exp(-u)
    # e^u / c, rewritten to stay finite when a e^u overflows
    smooth = np.exp(-0.5 * (u / alpha) ** 2) / (a + b * np.exp(-2.0 * u))
    vals = 0.5 * smooth * erfc(-c / _SQRT2) / (alpha * _SQRT_2PI)
    return rad.ravel() * _dot_rows(vals, w)


def _m_pair(alpha, pq, half, x, w) -> np.ndarray:
    """Rows M(p, q), M(q, p) for rows p, q of pq on [-half, half] from one erfc
    pass: c for (q, p) is c for (p, q) read backwards (module docs)."""
    u = half * x
    eu, e2, gauss = np.exp(u), np.exp(-2.0 * u), np.exp(-0.5 * (u / alpha) ** 2)
    tail = erfc(-(pq[0, :, None] * eu + pq[1, :, None] * eu[::-1]) / _SQRT2)
    smooth = gauss / (pq[..., None] + pq[::-1, :, None] * e2)
    vals = 0.5 * smooth * np.concatenate((tail[None], tail[None, :, ::-1]))
    return half * _dot_rows(vals / (alpha * _SQRT_2PI), w)


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
    total = 0.25 * d.ravel() * _dot_rows(pair, w)
    # the leftover piece lies below u* - d, else above u* + d (empty at u* = 0)
    low = ustar - lo > d
    return total + _m_plain(alpha, a, b, np.where(low, lo, ustar + d),
                            np.where(low, ustar - d, hi), x, w)


def _m_rows(alpha: float, pairs: np.ndarray) -> np.ndarray:
    """Rows M(alpha, p, q) and M(alpha, q, p) for the finite rows p, q of pairs,
    alpha > 0 in VolDispersion's domain."""
    x, w = _leggauss(_NODES)
    half = _SPREAD_SDS * alpha
    out = np.empty(pairs.shape)
    for start in range(0, pairs.shape[1], _BLOCK):
        rows = slice(start, start + _BLOCK)
        pq, res = pairs[:, rows], out[:, rows]
        # u* = log(-b/a)/2, where c = a e^u + b e^-u changes sign (a b < 0);
        # when b/a underflows to 0, u* lies far below any window: plain rule
        args = pq.tolist()
        ustar = np.array([[0.5 * math.log(-t / s) if s * t < 0 and t / s else math.nan
                           for s, t in zip(*pair)] for pair in (args, args[::-1])])
        split = (-half < ustar) & (ustar < half)
        # on |u| <= 8 alpha <= 40, e^u, e^-2u and h(u) are floats; a or b near the
        # float range's ends may still over- or underflow a row, which _finite
        # reports if asked for
        with np.errstate(all="ignore"):
            plain = ~(split[0] & split[1])  # pairs with a plain row
            if plain.any():  # a split partner's row is redone below
                res[:, plain] = _m_pair(alpha, pq[:, plain], half, x, w)
            if split.any():
                res[split] = _m_split(alpha, pq[split, None], pq[::-1][split, None],
                                      ustar[split, None], half, x, w)
    return out


def _finite(m):
    """m, the M values a caller uses, once found finite: a mirror row it drops need not be."""
    if not np.isfinite(m).all():
        raise ParameterError("M(alpha, a, b) is past the float range, as a and b are both near "
                             "0; in a price, a = drift/sigma and b = sigma sqrt(tau)/2: raise "
                             "sigma or tau")
    return m


def m_function(alpha: float, a: float, b: float) -> float:
    """M(alpha, a, b); the alpha = 0 limit is Phi(a + b) / (a + b)."""
    VolDispersion(alpha)  # built to be checked
    finite(a=a, b=b)
    if a == 0.0 and b == 0.0:
        raise ParameterError("a = b = 0 makes the integrand singular everywhere")
    if alpha == 0.0:
        d = a + b
        if not np.isfinite(d) or d == 0.0:
            raise ParameterError(f"a + b = {d!r}: the alpha -> 0 limit "
                                 "Phi(a+b)/(a+b) needs a finite nonzero sum")
        return float(ndtr(d) / d)
    return float(_finite(_m_rows(alpha, np.array([[a], [b]], float))[0, 0]))


def _mixture(alpha, spot, drift, root, discounted, sigma):
    """Calls under dispersion alpha > 0: S (a M(a,b) + b M(b,a))
    - K e^(-r tau) (a M(a,-b) - b M(-b,a)), one kernel pass for the mirrored
    pairs (a, b) and (a, -b); each leg's coefficient is its first argument."""
    a, b = _ab(drift, root, sigma)
    pq = np.stack((np.concatenate([a, a]), np.concatenate([b, -b])))
    m = _m_rows(alpha, pq)
    m[(pq == 0.0) & ~np.isfinite(m)] = 0.0  # a leg with coefficient 0 adds exactly 0
    legs = (pq * _finite(m)).reshape(2, 2, -1)
    return spot * (legs[0, 0] + legs[1, 0]) - discounted * (legs[0, 1] + legs[1, 1])


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
    # unchecked: mid lies inside the bracket whose ends passed _bs's check
    return _bisect(lambda mid: _call(spot, discounted, drift / mid, 0.5 * mid * root) - target,
                   np.full(target.shape, _IV_LO), np.where(edge, _IV_LO, _IV_HI), _IV_TOL)


def _bisect(excess, lo, hi, tol):
    """Bisection of each point's increasing excess(mid) to |excess| <= tol or a 1e-15
    bracket; a point that stops (or starts with lo = hi) is frozen at lo = hi = mid."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        diff = excess(mid)
        stop = (np.abs(diff) <= tol) | (hi - lo <= 1e-15)
        if stop.all():
            return mid
        below = diff < 0
        lo, hi = np.where(stop | below, mid, lo), np.where(stop | ~below, mid, hi)
    return 0.5 * (lo + hi)


def _put(spot, discounted, a, b):
    """Black-Scholes put K e^(-r tau) Phi(b-a) - S Phi(-a-b), elementwise."""
    return discounted * ndtr(b - a) - spot * ndtr(-a - b)


def _put_vols(alpha, sigma_t, spot, drift, root, discounted, label) -> np.ndarray:
    """Vols of the calls at or below intrinsic value S - K e^(-r tau) > 0: the
    out-of-the-money put, the normalized sum w_i BS_put(sigma_t e^u_i) on the
    M-kernel's nodes (one at alpha = 0), inverted against the Black-Scholes put by
    bisection in log sigma (unchecked inside _ab's bracket) to 1e-12 relative."""
    x, w = _leggauss(_NODES if alpha else 1)  # N(u; 0, alpha^2) at u = 8 alpha x
    weights = w * np.exp(-0.5 * (_SPREAD_SDS * x) ** 2)
    sigma = sigma_t * np.exp(_SPREAD_SDS * alpha * x)
    with np.errstate(over="ignore", divide="ignore"):  # a = +inf: the put is 0
        a, b = drift[:, None] / sigma, 0.5 * sigma * root[:, None]
    target = _put(spot, discounted[:, None], a, b) @ weights / weights.sum()
    lo, hi = (_put(spot, discounted, *_ab(drift, root, v)) for v in (_IV_LO, _IV_HI))
    bad = ~((lo < target) & (target < hi))
    if bad.any():
        i = int(np.argmax(bad))
        raise NoSolutionError(f"{label(i)}out-of-the-money put price {float(target[i])!r} "
                              f"has no volatility in [{_IV_LO}, {_IV_HI}]")
    return np.exp(_bisect(lambda mid: _put(spot, discounted, drift / np.exp(mid),
                                           0.5 * np.exp(mid) * root) - target,
                          np.full(target.shape, math.log(_IV_LO)),
                          np.full(target.shape, math.log(_IV_HI)), 1e-12 * target))


def black_scholes(opt: OptionInputs) -> float:
    """Classical call price S Phi(a+b) - K e^(-r tau) Phi(a-b)."""
    return float(_bs(opt.spot, *_contract(opt), opt.sigma_t)[0])


def price(opt: OptionInputs, disp: VolDispersion) -> float:
    """Call value under a lognormal vol mixture of dispersion disp.alpha."""
    terms = _contract(opt)
    if disp.alpha == 0.0:
        return float(_bs(opt.spot, *terms, opt.sigma_t)[0])
    return float(_mixture(disp.alpha, opt.spot, *terms, opt.sigma_t)[0])


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
                  alpha: float | None = None) -> SmileSurface:
    """Price, implied vol and deviation from Black-Scholes over a grid.

    moneyness is S/K at fixed spot; the defaults cover S/K in [0.5, 1.5]
    and tau in [5, 100]. The whole grid goes through one array pass each
    for the price, the implied vols and Black-Scholes; every value equals
    the scalar `price`, `implied_vol` and `black_scholes` at that point, but for
    a call that round-off puts at or below intrinsic value S - K e^(-r tau) > 0,
    with no `implied_vol`: its vol inverts the out-of-the-money put (_put_vols).
    """
    positive(spot=spot)
    disp = VolDispersion(alpha) if alpha is not None else VolDispersion.from_model(model)
    mgrid = np.linspace(0.5, 1.5, 21) if moneyness is None else np.asarray(moneyness, float)
    tgrid = np.linspace(5.0, 100.0, 20) if taus is None else np.asarray(taus, float)
    if mgrid.ndim != 1 or tgrid.ndim != 1 or mgrid.size == 0 or tgrid.size == 0:
        raise ParameterError("moneyness and taus must be nonempty 1-d grids")
    for name, grid in (("moneyness", mgrid), ("taus", tgrid)):
        bad = ~(np.isfinite(grid) & (grid > 0))
        if bad.any():
            raise ParameterError(
                f"{name} must be positive and finite, got {float(grid[bad.argmax()])!r}")
    with np.errstate(over="ignore"):  # the overflow is what is checked
        strikes = spot / mgrid
    if np.isinf(strikes).any():
        raise ParameterError(f"spot={spot!r} over moneyness={float(mgrid.min())!r} puts the "
                             "strike spot/moneyness past the float range; lower spot")
    for strike in (strikes.min(), strikes.max()):
        OptionInputs(spot, strike, rate, sigma_t, tgrid.max())  # built to be checked

    shape = (mgrid.size, tgrid.size)
    terms = _terms(spot, np.repeat(strikes, shape[1]).tolist(), rate,
                   np.tile(tgrid, shape[0]).tolist())
    bs = _bs(spot, *terms, sigma_t)
    value = bs if disp.alpha == 0.0 else _mixture(disp.alpha, spot, *terms, sigma_t)

    def label(i):  # the error prefix of grid point i
        return (f"smile point moneyness={float(mgrid[i // shape[1]])!r}, "
                f"tau={float(tgrid[i % shape[1]])!r}, alpha={float(disp.alpha)!r}: ")

    routed = (value <= spot - terms[2]) & (spot > terms[2])
    keep, put = np.flatnonzero(~routed), np.flatnonzero(routed)
    vols = np.empty(value.shape)
    vols[keep] = _implied_vols(value[keep], spot, *terms[:, keep], lambda i: label(keep[i]))
    vols[put] = _put_vols(disp.alpha, sigma_t, spot, *terms[:, put], lambda i: label(put[i]))
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
    _, s2 = logvol_marginal_moments(params)
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
    size delta starting from opt.spot, and discounts the terminal payoff:
    path_ensemble's paths, one block of rows at a time, keeping last prices.
    The volatility level comes from params.beta; opt.sigma_t is not used.
    """
    integer(2, n_paths=n_paths)  # the standard error needs two payoffs
    n_steps = _horizon_steps(params, opt.tau)
    rn = replace(params, mu=opt.rate)
    _, blocks = _path_blocks(rn, n_steps, params.delta, opt.spot, seed, n_paths)
    terminal = np.empty(n_paths)
    for first, _, prices in blocks:
        terminal[first : first + len(prices)] = prices[:, -1]
    payoff = np.maximum(terminal - opt.strike, 0.0)
    value = math.exp(-opt.rate * opt.tau) * payoff
    stderr = float(np.std(value, ddof=1) / math.sqrt(n_paths))
    return float(np.mean(value)), stderr
