"""Independent reference implementations used to cross-check the package.

Everything here is written from the documented transition rules in the
plainest possible style, deliberately sharing no transition code with the
package: the agent-market reference borrows only its state containers,
`evolve` and the seeded substream.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy import stats
from scipy.special import erf, erfc, ndtr

from fracvol.agents import MarketEnv, Population, evolve
from fracvol.errors import NoSolutionError
from fracvol.lob import LIMIT_ASK, LIMIT_BID, MARKET_BUY, MARKET_SELL, BookState
from fracvol.rng import substream


def excess_kurtosis(x) -> float:
    return float(stats.kurtosis(np.asarray(x, dtype=float), fisher=True, bias=True))


def fgn_durbin_levinson(n: int, hurst: float, rng: np.random.Generator,
                        n_paths: int) -> np.ndarray:
    """(n_paths, n) unit-spacing fGn from the exact sequential recursion.

    O(n^2), exact for every 0 < H < 1; the reference the circulant sampler
    is compared against.
    """
    k = np.arange(n, dtype=float)
    two_h = 2.0 * hurst
    gamma = 0.5 * (np.abs(k + 1) ** two_h - 2.0 * k ** two_h
                   + np.abs(k - 1) ** two_h)
    z = rng.standard_normal((n_paths, n))
    out = np.empty((n_paths, n))
    out[:, 0] = np.sqrt(gamma[0]) * z[:, 0]
    phi = np.zeros(n)
    var = gamma[0]
    for i in range(1, n):
        reflect = (gamma[i] - phi[1:i] @ gamma[i - 1 : 0 : -1]) / var
        phi[i] = reflect
        phi[1:i] -= reflect * phi[i - 1 : 0 : -1]
        var *= 1.0 - reflect * reflect
        if var <= 0.0:
            raise ValueError(f"recursion lost positive definiteness at step {i}")
        out[:, i] = out[:, :i] @ phi[i:0:-1] + np.sqrt(var) * z[:, i]
    return out


def book_as_dict(book: BookState) -> dict:
    return {
        "price": book.price_slot,
        "w": book.half_width,
        "asks": dict(book.asks),
        "bids": dict(book.bids),
        "pending_buys": book.pending_buys,
        "pending_sells": book.pending_sells,
    }


def ref_lob_apply(state: dict, event: int, slot, order_size: float) -> dict:
    """One order-book transition on a plain dict state.

    Rules: a limit order first serves the opposing pending register and the
    price jumps to its arrival slot if anything matched; the remainder rests
    at that slot. A market order takes one unit from the closest opposing
    slot (buy ties prefer the lower slot, sell ties the higher), moves the
    price to the traded slot and parks any shortfall in its register; an
    empty opposing side parks the whole unit. After any price move, resting
    orders outside price +- w are dropped.
    """
    s = {
        "price": state["price"],
        "w": state["w"],
        "asks": dict(state["asks"]),
        "bids": dict(state["bids"]),
        "pending_buys": state["pending_buys"],
        "pending_sells": state["pending_sells"],
    }

    def move(target: int) -> None:
        if target == s["price"]:
            return
        s["price"] = target
        lo, hi = target - s["w"], target + s["w"]
        for side in ("asks", "bids"):
            s[side] = {k: v for k, v in s[side].items() if lo <= k <= hi}

    if event in (LIMIT_ASK, LIMIT_BID):
        pend = "pending_buys" if event == LIMIT_ASK else "pending_sells"
        rest = "asks" if event == LIMIT_ASK else "bids"
        size = order_size
        if s[pend] > 0:
            matched = min(size, s[pend])
            s[pend] -= matched
            size -= matched
            move(slot)
        if size > 0:
            s[rest][slot] = s[rest].get(slot, 0.0) + size
    elif event in (MARKET_BUY, MARKET_SELL):
        opp = "asks" if event == MARKET_BUY else "bids"
        pend = "pending_buys" if event == MARKET_BUY else "pending_sells"
        if not s[opp]:
            s[pend] += 1.0
        else:
            best = None
            for cand in sorted(s[opp]):
                if best is None:
                    best = cand
                    continue
                dc, db = abs(cand - s["price"]), abs(best - s["price"])
                if dc < db:
                    best = cand
                elif dc == db and event == MARKET_SELL and cand > best:
                    best = cand
                # equal-distance buy keeps the lower slot already held
            take = min(1.0, s[opp][best])
            if s[opp][best] - take > 0:
                s[opp][best] = s[opp][best] - take
            else:
                del s[opp][best]
            if take < 1.0:
                s[pend] += 1.0 - take
            move(best)
    else:
        raise ValueError(f"unknown event {event!r}")
    return s


# ----------------------------------------------------------------- pricing
# The scalar M-kernel, Black-Scholes and implied-vol bisection, one contract
# and one M-function leg at a time: the reference the broadcast kernel in
# fracvol.pricing must match to the bit.

@functools.lru_cache(maxsize=4)
def _ref_leggauss(nodes):
    return np.polynomial.legendre.leggauss(nodes)


def _ref_gauss_exp(u, alpha):
    return np.exp(u - 0.5 * (u / alpha) ** 2) / (alpha * math.sqrt(2.0 * math.pi))


def _ref_m_plain(alpha, a, b, lo, hi, nodes):
    x, w = _ref_leggauss(nodes)
    rad = 0.5 * (hi - lo)
    u = 0.5 * (hi + lo) + rad * x
    c = a * np.exp(u) + b * np.exp(-u)
    smooth = np.exp(-0.5 * (u / alpha) ** 2) / (a + b * np.exp(-2.0 * u))
    vals = (0.5 * smooth * erfc(-c / math.sqrt(2.0))
            / (alpha * math.sqrt(2.0 * math.pi)))
    return rad * float(w @ vals)


def _ref_m_split(alpha, a, b, ustar, lo, hi, nodes):
    # node pairs symmetric about the zero u* of c cancel the odd 1/c part
    d = min(ustar - lo, hi - ustar)
    x, w = _ref_leggauss(nodes)
    v = 0.5 * d * (x + 1.0)
    c = math.copysign(2.0 * math.sqrt(-a * b), a) * np.sinh(v)
    h_plus = _ref_gauss_exp(ustar + v, alpha)
    h_minus = _ref_gauss_exp(ustar - v, alpha)
    pair = (h_plus - h_minus) / c + (h_plus + h_minus) * erf(c / math.sqrt(2.0)) / c
    total = 0.25 * d * float(w @ pair)
    if ustar - lo > d:
        total += _ref_m_plain(alpha, a, b, lo, ustar - d, nodes)
    elif hi - ustar > d:
        total += _ref_m_plain(alpha, a, b, ustar + d, hi, nodes)
    return total


def ref_m_function(alpha, a, b, nodes=512):
    """M(alpha, a, b) on the window [-8 alpha, 8 alpha], split at u* when
    a b < 0 puts it inside; Phi(a + b) / (a + b) at alpha = 0."""
    if alpha == 0.0:
        return float(ndtr(a + b) / (a + b))
    half = 8.0 * alpha
    if a * b < 0:
        ustar = 0.5 * math.log(-b / a)
        if -half < ustar < half:
            return _ref_m_split(alpha, a, b, ustar, -half, half, nodes)
    return _ref_m_plain(alpha, a, b, -half, half, nodes)


def _ref_ab(spot, strike, rate, sigma, tau):
    root = math.sqrt(tau)
    a = (math.log(spot / strike) / root + rate * root) / sigma
    return a, 0.5 * sigma * math.sqrt(tau)


def ref_black_scholes(spot, strike, rate, sigma, tau):
    a, b = _ref_ab(spot, strike, rate, sigma, tau)
    discounted = strike * math.exp(-rate * tau)
    return float(spot * ndtr(a + b) - discounted * ndtr(a - b))


def ref_price(spot, strike, rate, sigma, tau, alpha, nodes=512):
    """Call value as a * M legs: S (a M(a, b) + b M(b, a)) - K e^(-r tau)
    (a M(a, -b) - b M(-b, a))."""
    if alpha == 0.0:
        return ref_black_scholes(spot, strike, rate, sigma, tau)
    a, b = _ref_ab(spot, strike, rate, sigma, tau)
    m = lambda p, q: ref_m_function(alpha, p, q, nodes)  # noqa: E731
    spot_leg = a * m(a, b) + b * m(b, a)
    strike_leg = a * m(a, -b) - b * m(-b, a)
    discounted = strike * math.exp(-rate * tau)
    return float(spot * spot_leg - discounted * strike_leg)


def ref_implied_vol(target, spot, strike, rate, tau):
    """Bisection on [1e-8, 5] to 1e-10 in price, at most 200 halvings."""
    intrinsic = max(0.0, spot - strike * math.exp(-rate * tau))
    if not intrinsic < target < spot:
        raise NoSolutionError("outside the no-arbitrage band")
    bs = lambda s: ref_black_scholes(spot, strike, rate, s, tau)  # noqa: E731
    lo, hi = 1e-8, 5.0
    if bs(lo) >= target:
        return lo
    if bs(hi) < target:
        raise NoSolutionError("needs volatility above the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        diff = bs(mid) - target
        if abs(diff) <= 1e-10 or hi - lo <= 1e-15:
            return mid
        if diff < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_smile(moneyness, taus, sigma_t, alpha, spot=1.0, rate=0.001, nodes=512):
    """(price, implied vol, price - Black-Scholes) grids, point by point."""
    out = np.empty((len(moneyness), len(taus), 3))
    for i, m in enumerate(moneyness):
        for j, tau in enumerate(taus):
            strike = spot / m
            value = ref_price(spot, strike, rate, sigma_t, tau, alpha, nodes)
            out[i, j] = (value, ref_implied_vol(value, spot, strike, rate, tau),
                         value - ref_black_scholes(spot, strike, rate, sigma_t, tau))
    return out[..., 0], out[..., 1], out[..., 2]


# ------------------------------------------------------------------ agents
# The agent market one tick at a time: a dense four-weight signal vector,
# an int8 x float order matmul and two scalar normal draws per step. The
# reference the epoch kernel behind fracvol.agents.run_experiment must
# match to the bit.

def _ref_signal(x, f_choice, beta_f):
    if f_choice == "step":
        return 1.0 if x >= 0.0 else 0.0
    try:
        return 1.0 / (1.0 + math.exp(-beta_f * x))
    except OverflowError:
        return 0.0


def ref_abm_step(env, agents, rng, unit_investment):
    """One tick: orders from the signals, impact plus noise on the log
    price, the value walk, then settlement at the new price."""
    fm = _ref_signal(env.xi - env.z, env.f_choice, env.beta_f)
    ft = _ref_signal(env.z - env.z_prev, env.f_choice, env.beta_f)
    gamma = np.array([fm * ft, fm * (1.0 - ft), (1.0 - fm) * ft,
                      (1.0 - fm) * (1.0 - ft)])
    orders = unit_investment * (agents.strategies @ gamma)
    total = float(orders.sum())
    eta = rng.normal(0.0, env.noise_sigma)
    imp = env.impact
    move = 0.0
    if total != 0.0:
        move = total / (imp.lambda0 + imp.lambda1 * abs(total) ** imp.alpha_exponent)
    env.z_prev = env.z
    env.z = env.z + move + eta
    env.xi += rng.normal(0.0, env.value_walk_sigma)
    price = math.exp(env.z)
    agents.cash -= orders
    agents.stock += orders / price


def ref_run_abm(config):
    """(prices, final_codes, payoffs) of an ExperimentConfig, one
    ref_abm_step per tick and evolve after every period-th tick."""
    rng = substream(config.seed, 4)
    z0 = math.log(config.price0)
    env = MarketEnv(z=z0, z_prev=z0, xi=z0, impact=config.impact,
                    noise_sigma=config.noise_sigma,
                    value_walk_sigma=config.value_walk_sigma,
                    f_choice=config.f_choice, beta_f=config.beta_f)
    agents = Population.from_counts(config.population, price0=config.price0,
                                    cash0=config.cash0, stock0=config.stock0)
    z = [z0]
    for j in range(1, config.n_steps + 1):
        ref_abm_step(env, agents, rng, config.unit_investment)
        z.append(env.z)
        if config.evolution is not None and j % config.evolution.period == 0:
            evolve(agents, config.evolution, rng, math.exp(env.z))
    prices = np.exp(np.array(z))
    return prices, agents.strategy_codes(), agents.payoffs(float(prices[-1]))
