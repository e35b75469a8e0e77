"""The package's order-book transition on one event of a dict book, so that
worked examples and the dict reference in oracles.py can drive it. It lives
apart from oracles.py, which shares no transition code with the package."""
from fracvol.lob import LIMIT_BID, _transition


def apply_window(state: dict, event: int, slot, order_size: float) -> dict:
    """lob._transition on one arrival, over a book in oracles.ref_lob_apply's
    dict form: the dicts become window lists centred on the price and back.
    Every resting order must lie inside the window with a positive size."""
    p, w = state["price"], state["w"]
    asks = [state["asks"].get(s, 0.0) for s in range(p - w, p + w + 1)]
    bids = [state["bids"].get(s, 0.0) for s in range(p - w, p + w + 1)]
    index = slot - (p - w) if event <= LIMIT_BID else 0
    asks, bids, _, _, pending_buys, pending_sells, p = _transition(
        (asks, bids, len(state["asks"]), len(state["bids"]), state["pending_buys"],
         state["pending_sells"], p), iter([(event, index)]), 1, float(order_size))
    return {"price": p, "w": w, "asks": {p - w + j: v for j, v in enumerate(asks) if v},
            "bids": {p - w + j: v for j, v in enumerate(bids) if v},
            "pending_buys": pending_buys, "pending_sells": pending_sells}
