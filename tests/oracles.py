"""Independent reference implementations used to cross-check the package.

Everything here is written from the documented transition rules in the
plainest possible style, deliberately sharing no code with the package.
"""
from __future__ import annotations

import numpy as np
from scipy import stats

from fracvol.lob import LIMIT_ASK, LIMIT_BID, MARKET_BUY, MARKET_SELL, BookState


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
