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

from .errors import (Checked, GenerationError, ParameterError, integer, nonnegative, one_of,
                     positive)
from .estimation import WINDOW, induced_volatility, pipeline_logvol
from .rng import _LOB_STREAM, substream
from .simulate import MarketPath

LIMIT_ASK, LIMIT_BID, MARKET_BUY, MARKET_SELL = 0, 1, 2, 3
EVENT_NAMES = ("limit_ask", "limit_bid", "market_buy", "market_sell")

TWO_SIDED = "two_sided"
SIDES_ONLY = "sides_only"

# keeps every placement span within numpy's 32-bit bounded-integer path,
# which _arrivals replays; warm-up alone is 2*10**7 arrivals at this width
_MAX_HALF_WIDTH = 2 ** 20
_RAW_BLOCK = 1 << 12  # raw Philox words per numpy call; small keeps peak RSS flat
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class LobParams(Checked):
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
        integer(1, _MAX_HALF_WIDTH, half_width=self.half_width)
        integer(1, steps=self.steps)
        positive(order_size=self.order_size, slot_size=self.slot_size,
                 initial_price=self.initial_price)
        p = self.event_probs
        if len(p) != 4 or not all(q >= 0 for q in p) or not abs(sum(p) - 1.0) <= 1e-12:
            raise ParameterError(
                f"event_probs must be 4 nonnegative values summing to 1, got {p!r}"
            )
        one_of("placement", self.placement, (TWO_SIDED, SIDES_ONLY))


@dataclass
class BookState(Checked):
    """Resting liquidity, pending market orders and the current price slot."""

    price_slot: int = 0
    slot_size: float = LobParams.slot_size
    half_width: int = LobParams.half_width
    asks: dict = field(default_factory=dict)
    bids: dict = field(default_factory=dict)
    pending_buys: float = 0.0
    pending_sells: float = 0.0

    def validate(self) -> None:
        integer(1, half_width=self.half_width)
        positive(slot_size=self.slot_size)
        nonnegative(pending_buys=self.pending_buys, pending_sells=self.pending_sells)
        lo, hi = self.price_slot - self.half_width, self.price_slot + self.half_width
        for name, side in (("ask", self.asks), ("bid", self.bids)):
            for slot, size in side.items():
                if not lo <= slot <= hi:
                    raise ParameterError(f"{name} at slot {slot} outside window [{lo}, {hi}]")
                positive(**{f"{name} size at slot {slot}": size})


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

    This is the single-event reference that run_lob reproduces bit for bit.
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


def _arrivals(rng: np.random.Generator, event_probs, span: int):
    """Yield (event, offset) pairs: the draws of successive lob_step calls.

    lob_step draws rng.random() for the event and, for a limit event,
    rng.integers(span) for the placement offset. Neither depends on the
    book, so the stream is replayed here from raw 64-bit Philox words, read
    in blocks: random() is (word >> 11) * 2**-53, and integers(span) is
    numpy's 32-bit Lemire draw (Lemire 2019), which takes the low half of a
    fresh word and keeps the high half for the next call, redraws while the
    low word of the product is below 2**32 % span, and draws nothing when
    span is 1. Market events carry offset 0.
    """
    from itertools import chain, repeat

    blocks = map(lambda size: rng.bit_generator.random_raw(size).tolist(),
                 repeat(_RAW_BLOCK))
    word = chain.from_iterable(blocks).__next__
    pa, pb, pm, _ = event_probs
    c_ask, c_bid, c_buy = pa, pa + pb, pa + pb + pm
    reject_below = (1 << 32) % span
    spare = None  # high half of the last word split by integers()
    while True:
        u = (word() >> 11) * 2.0 ** -53
        if u >= c_bid:
            yield (MARKET_BUY if u < c_buy else MARKET_SELL), 0
            continue
        offset = 0
        if span > 1:
            while True:
                if spare is None:
                    w64 = word()
                    low, spare = w64 & _MASK32, w64 >> 32
                else:
                    low, spare = spare, None
                m = low * span
                if m & _MASK32 >= reject_below:
                    break
            offset = m >> 32
        yield (LIMIT_ASK if u < c_ask else LIMIT_BID), offset


def _recenter(side: list, shift: int) -> tuple[list, int]:
    """Recenter a window list on the price `shift` slots away; return the
    new list and the number of resting orders that fell out of it."""
    if shift > 0:
        gone = side[:shift]
        side = side[shift:] + [0.0] * shift
    else:
        gone = side[shift:]
        side = [0.0] * -shift + side[:shift]
    return side, len(gone) - gone.count(0.0)


def run_lob(params: LobParams, trace: list | None = None) -> MarketPath:
    """Run the book and emit the recorded price path.

    The book starts empty; 10*(2*half_width + 1) warm-up arrivals are
    discarded before recording begins. Recorded prices are
    initial_price + slot * slot_size with slot counted from the warm-up
    start, and the path's logvol is the estimation pipeline's window
    estimate stamped at each window end (pipeline_logvol). A trace list
    collects (event, slot, price) tuples for the recorded steps only;
    entry i describes the arrival between path rows i and i+1.

    The result is bit for bit that of a loop of lob_step from an empty
    BookState: the draws come from _arrivals, and each side of the book is
    a list over the window whose index j holds slot price_slot - w + j, so
    index w is the price slot. A limit order that serves a pending register
    rests at its arrival slot before the window recenters on it, which
    leaves the same book as apply_event's move-then-rest.
    """
    from itertools import islice

    w = params.half_width
    n = 2 * w + 1
    sides_only = params.placement == SIDES_ONLY
    arrivals = _arrivals(substream(params.seed, _LOB_STREAM), params.event_probs,
                         w if sides_only else n)
    ask_base = w + 1 if sides_only else 0
    # closest-first scans; ties go to the lower slot for buys, higher for sells
    buy_scan, sell_scan = [w], [w]
    for k in range(1, w + 1):
        buy_scan += (w - k, w + k)
        sell_scan += (w + k, w - k)
    order_size = float(params.order_size)
    x0, dx = params.initial_price, params.slot_size
    asks, bids = [0.0] * n, [0.0] * n
    n_asks = n_bids = 0
    pending_buys = pending_sells = 0.0
    p = 0
    slots = []
    record = slots.append
    tracing = trace is not None
    for count, recording in ((10 * n, False), (params.steps, True)):
        if recording:
            record(p)
        for event, j in islice(arrivals, count):
            move = w
            if event == LIMIT_ASK:
                j += ask_base
                slot = p - w + j
                size = order_size
                if pending_buys > 0:
                    matched = min(size, pending_buys)
                    pending_buys -= matched
                    size -= matched
                    move = j
                if size > 0:
                    if not asks[j]:
                        n_asks += 1
                    asks[j] += size
            elif event == LIMIT_BID:
                slot = p - w + j
                size = order_size
                if pending_sells > 0:
                    matched = min(size, pending_sells)
                    pending_sells -= matched
                    size -= matched
                    move = j
                if size > 0:
                    if not bids[j]:
                        n_bids += 1
                    bids[j] += size
            elif event == MARKET_BUY:
                if n_asks:
                    for move in buy_scan:
                        if asks[move]:
                            break
                    size = asks[move]  # take one unit, park the shortfall
                    if size > 1.0:
                        asks[move] = size - 1.0
                    else:
                        asks[move] = 0.0
                        n_asks -= 1
                        pending_buys += 1.0 - size
                else:
                    pending_buys += 1.0
            else:
                if n_bids:
                    for move in sell_scan:
                        if bids[move]:
                            break
                    size = bids[move]  # take one unit, park the shortfall
                    if size > 1.0:
                        bids[move] = size - 1.0
                    else:
                        bids[move] = 0.0
                        n_bids -= 1
                        pending_sells += 1.0 - size
                else:
                    pending_sells += 1.0
            if move != w:
                shift = move - w
                p += shift
                if n_asks:
                    asks, gone = _recenter(asks, shift)
                    n_asks -= gone
                if n_bids:
                    bids, gone = _recenter(bids, shift)
                    n_bids -= gone
            if recording:
                record(p)
                if tracing:
                    trace.append((event, slot if event <= LIMIT_BID else p,
                                  float(x0 + dx * p)))
    prices = x0 + dx * np.array(slots, dtype=np.int64)
    below = np.flatnonzero(prices <= 0)
    if below.size:
        step = int(below[0])
        raise GenerationError(
            f"price walked to {float(prices[step])!r} at recorded step {step} "
            f"(seed {params.seed}); raise initial_price for this configuration"
        )
    vol = induced_volatility(np.log(prices), WINDOW)  # a placeholder logvol
    logvol = pipeline_logvol(vol, len(prices), WINDOW)
    path = MarketPath(times=np.arange(params.steps + 1, dtype=float),
                      prices=prices, logvol=logvol, seed=params.seed)
    path.validate()
    return path
