"""Random limit-order-book market on a moving price window.

Limit asks and bids arrive at uniformly random slots inside a window of
half_width slots around the current price; market orders of unit size eat
the closest resting liquidity and drag the price to the slot they trade at.
Market orders that find an empty opposite side accumulate in pending
registers and are served by the next arriving limit liquidity. Whenever the
price moves, the window recenters and resting orders left outside it are
dropped.

Everything is driven by a single event draw per step, so a run is fully
determined by its parameters and seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agents import pipeline_logvol
from .errors import GenerationError, ParameterError
from .estimation import induced_volatility
from .rng import substream
from .simulate import MarketPath

LIMIT_ASK, LIMIT_BID, MARKET_BUY, MARKET_SELL = 0, 1, 2, 3
EVENT_NAMES = ("limit_ask", "limit_bid", "market_buy", "market_sell")

TWO_SIDED = "two_sided"
SIDES_ONLY = "sides_only"

_LOB_STREAM = 5
_PIPELINE_WINDOW = 21  # placeholder log-volatility window for emitted paths


@dataclass
class BookState:
    """Resting liquidity, pending market orders and the current price slot."""

    price_slot: int = 0
    slot_size: float = 0.1
    half_width: int = 10
    asks: dict = field(default_factory=dict)
    bids: dict = field(default_factory=dict)
    pending_buys: float = 0.0
    pending_sells: float = 0.0

    def validate(self) -> None:
        if self.half_width < 1:
            raise ParameterError(f"half_width must be at least 1, got {self.half_width!r}")
        if self.slot_size <= 0:
            raise ParameterError(f"slot_size must be positive, got {self.slot_size!r}")
        if self.pending_buys < 0 or self.pending_sells < 0:
            raise ParameterError("pending registers must be nonnegative")
        lo, hi = self.price_slot - self.half_width, self.price_slot + self.half_width
        for name, side in (("ask", self.asks), ("bid", self.bids)):
            for slot, size in side.items():
                if not lo <= slot <= hi:
                    raise ParameterError(f"{name} at slot {slot} outside window [{lo}, {hi}]")
                if size <= 0:
                    raise ParameterError(f"{name} at slot {slot} has size {size!r}")


@dataclass(frozen=True)
class LobParams:
    """Run parameters. event_probs orders the four arrival types as
    (limit ask, limit bid, market buy, market sell)."""

    half_width: int = 10
    order_size: float = 2.0
    event_probs: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    steps: int = 2 ** 17
    seed: int = 0
    slot_size: float = 0.1
    initial_price: float = 100.0
    placement: str = TWO_SIDED

    def validate(self) -> None:
        if self.half_width < 1:
            raise ParameterError(f"half_width must be at least 1, got {self.half_width!r}")
        for name in ("order_size", "slot_size", "initial_price"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ParameterError(f"{name} must be positive, got {value!r}")
        p = self.event_probs
        if len(p) != 4 or not all(q >= 0 for q in p) or not abs(sum(p) - 1.0) <= 1e-12:
            raise ParameterError(
                f"event_probs must be 4 nonnegative values summing to 1, got {p!r}"
            )
        if self.steps < 1:
            raise ParameterError(f"steps must be at least 1, got {self.steps!r}")
        if self.placement not in (TWO_SIDED, SIDES_ONLY):
            raise ParameterError(f"unknown placement {self.placement!r}")


def _move_price(book: BookState, new_slot: int) -> None:
    # recenter in slot jumps; anything left outside the window is dropped
    if new_slot == book.price_slot:
        return
    book.price_slot = int(new_slot)
    lo, hi = book.price_slot - book.half_width, book.price_slot + book.half_width
    book.asks = {s: v for s, v in book.asks.items() if lo <= s <= hi}
    book.bids = {s: v for s, v in book.bids.items() if lo <= s <= hi}


def _closest_slot(side: dict, price_slot: int, prefer_low: bool) -> int:
    if prefer_low:
        return min(side, key=lambda s: (abs(s - price_slot), s))
    return min(side, key=lambda s: (abs(s - price_slot), -s))


def apply_event(book: BookState, event: int, slot, order_size: float) -> BookState:
    """Deterministic transition for one arrival; slot is the placement for
    limit events and ignored for market orders.

    A limit order first serves the opposing pending register (price moves to
    the arrival slot when anything matches), and only the remainder rests. A
    market order takes up to one unit from the closest opposing slot (ties
    resolve to the price-improving side), moves the price there, and parks
    any unfilled remainder in its register.
    """
    if event == LIMIT_ASK:
        size = float(order_size)
        if book.pending_buys > 0:
            matched = min(size, book.pending_buys)
            book.pending_buys -= matched
            size -= matched
            _move_price(book, slot)
        if size > 0:
            book.asks[slot] = book.asks.get(slot, 0.0) + size
    elif event == LIMIT_BID:
        size = float(order_size)
        if book.pending_sells > 0:
            matched = min(size, book.pending_sells)
            book.pending_sells -= matched
            size -= matched
            _move_price(book, slot)
        if size > 0:
            book.bids[slot] = book.bids.get(slot, 0.0) + size
    elif event == MARKET_BUY:
        if not book.asks:
            book.pending_buys += 1.0
        else:
            s = _closest_slot(book.asks, book.price_slot, prefer_low=True)
            take = min(1.0, book.asks[s])
            left = book.asks[s] - take
            if left > 0:
                book.asks[s] = left
            else:
                del book.asks[s]
            if take < 1.0:
                book.pending_buys += 1.0 - take
            _move_price(book, s)
    elif event == MARKET_SELL:
        if not book.bids:
            book.pending_sells += 1.0
        else:
            s = _closest_slot(book.bids, book.price_slot, prefer_low=False)
            take = min(1.0, book.bids[s])
            left = book.bids[s] - take
            if left > 0:
                book.bids[s] = left
            else:
                del book.bids[s]
            if take < 1.0:
                book.pending_sells += 1.0 - take
            _move_price(book, s)
    else:
        raise ParameterError(f"unknown event {event!r}")
    return book


def _placement_range(book: BookState, placement: str, event: int) -> tuple[int, int]:
    p, w = book.price_slot, book.half_width
    if placement == TWO_SIDED:
        return p - w, p + w
    if event == LIMIT_ASK:
        return p + 1, p + w
    return p - w, p - 1


def lob_step(book: BookState, params: LobParams, rng: np.random.Generator,
             trace: list | None = None) -> BookState:
    """Draw one arrival and apply it, mutating the book in place.

    Consumes one uniform for the event type and, for limit arrivals, one
    integer for the placement slot. When trace is a list, appends one
    (event, slot, price) tuple: slot is the arrival slot for limit orders
    and the post-event price slot for market orders (the matched slot, or
    unchanged if the side was empty); price is the post-event price.
    """
    u = float(rng.random())
    pa, pb, pm, _ = params.event_probs
    if u < pa:
        event = LIMIT_ASK
    elif u < pa + pb:
        event = LIMIT_BID
    elif u < pa + pb + pm:
        event = MARKET_BUY
    else:
        event = MARKET_SELL
    slot = None
    if event in (LIMIT_ASK, LIMIT_BID):
        lo, hi = _placement_range(book, params.placement, event)
        slot = lo + int(rng.integers(hi - lo + 1))
    apply_event(book, event, slot, params.order_size)
    if trace is not None:
        used = slot if slot is not None else book.price_slot
        price = params.initial_price + params.slot_size * book.price_slot
        trace.append((event, int(used), float(price)))
    return book


def run_lob(params: LobParams, trace: list | None = None) -> MarketPath:
    """Run the book and emit the recorded price path.

    The book starts empty; 10*(2*half_width + 1) warm-up arrivals are
    discarded before recording begins. Recorded prices are
    initial_price + slot * slot_size with slot counted from the warm-up
    start, and the path's logvol is the estimation pipeline's window
    estimate stamped at each window end (pipeline_logvol). A trace list
    collects (event, slot, price) tuples for the recorded steps only;
    entry i describes the arrival between path rows i and i+1.
    """
    params.validate()
    rng = substream(params.seed, _LOB_STREAM)
    book = BookState(price_slot=0, slot_size=params.slot_size,
                     half_width=params.half_width)
    for _ in range(10 * (2 * params.half_width + 1)):
        lob_step(book, params, rng)
    slots = np.empty(params.steps + 1, dtype=np.int64)
    slots[0] = book.price_slot
    for i in range(1, params.steps + 1):
        lob_step(book, params, rng, trace)
        slots[i] = book.price_slot
    prices = params.initial_price + params.slot_size * slots
    if np.any(prices <= 0):
        raise GenerationError(
            "price walked below zero; raise initial_price for this configuration"
        )
    vol = induced_volatility(np.log(prices), _PIPELINE_WINDOW)
    logvol = pipeline_logvol(vol, len(prices), _PIPELINE_WINDOW)
    path = MarketPath(times=np.arange(params.steps + 1, dtype=float),
                      prices=prices, logvol=logvol, seed=params.seed)
    path.validate()
    return path
