"""Random limit-order-book market on a moving price window.

Limit asks and bids arrive at uniformly random slots inside a window of
half_width slots around the current price; market orders of unit size eat
the closest resting liquidity and drag the price to the slot they trade at.
Market orders that find an empty opposite side accumulate in pending
registers and are served by the next arriving limit liquidity. Whenever the
price moves, the window recenters and resting orders left outside it are
dropped.

These rules are written once, in _transition, over a book kept as two lists
across the window: run_lob feeds it a whole run of arrivals, apply_event a
single one. Everything is driven by a single event draw per step, so a run
is fully determined by its parameters and seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, repeat

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


def apply_event(book: BookState, event: int, slot, order_size: float) -> BookState:
    """Apply one arrival to the book in place and return it; slot is the
    placement for limit events and ignored for market orders.

    The book's dicts become window lists centred on price_slot, run_lob's
    transition (_transition) runs on this one event, and the lists become
    dicts again. A limit slot outside the window [price_slot - half_width,
    price_slot + half_width] is a ParameterError.
    """
    p, w = book.price_slot, book.half_width
    lo, hi = p - w, p + w
    if event not in (LIMIT_ASK, LIMIT_BID, MARKET_BUY, MARKET_SELL):
        raise ParameterError(f"unknown event {event!r}")
    if event <= LIMIT_BID:
        integer(lo, hi, slot=slot)
    asks = [book.asks.get(s, 0.0) for s in range(lo, hi + 1)]
    bids = [book.bids.get(s, 0.0) for s in range(lo, hi + 1)]
    n_asks, n_bids = len(asks) - asks.count(0.0), len(bids) - bids.count(0.0)
    if n_asks + n_bids != len(book.asks) + len(book.bids):
        book.validate()  # names the order outside the window or of size 0
    arrival = (event, slot - lo if event <= LIMIT_BID else 0)
    asks, bids, _, _, book.pending_buys, book.pending_sells, p = _transition(
        (asks, bids, n_asks, n_bids, book.pending_buys, book.pending_sells, p),
        iter([arrival]), 1, float(order_size))
    book.price_slot, lo = p, p - w
    book.asks = {lo + i: size for i, size in enumerate(asks) if size}
    book.bids = {lo + i: size for i, size in enumerate(bids) if size}
    return book


def lob_step(book: BookState, params: LobParams, rng: np.random.Generator,
             trace: list | None = None) -> BookState:
    """Draw one arrival and apply it, mutating the book in place.

    A loop of lob_step from an empty book equals run_lob bit for bit.
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
        p, w = book.price_slot, book.half_width
        if params.placement == TWO_SIDED:
            slot = p - w + int(rng.integers(2 * w + 1))
        else:  # asks above the price, bids below
            slot = (p + 1 if event == LIMIT_ASK else p - w) + int(rng.integers(w))
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


def _transition(book: tuple, arrivals, count: int, order_size: float, record=None,
                trace: list | None = None, x0: float = 0.0, dx: float = 1.0) -> tuple:
    """The book's one transition: apply `count` (event, window index) pairs
    from the iterator `arrivals` and return the book after the last one.

    The book is (asks, bids, n_asks, n_bids, pending_buys, pending_sells, p).
    Each side is a list over the window whose index j holds slot p - w + j,
    so index w is the price slot p; n_asks and n_bids count the nonzero
    entries. A limit order first serves the opposing pending register and
    the price moves to its arrival slot when anything matched; the rest
    rests there, before the window recenters on it. A market order takes up
    to one unit from the closest opposing slot (ties resolve to the
    price-improving side), moves the price there and parks any shortfall in
    its register. After each event, record (a callable) gets p, and a trace
    list gets the (event, slot, x0 + dx * p) tuple that lob_step documents.
    """
    asks, bids, n_asks, n_bids, pending_buys, pending_sells, p = book
    w = len(asks) // 2
    # closest-first scans; ties go to the lower slot for buys, higher for sells
    buy_scan, sell_scan = [w], [w]
    for k in range(1, w + 1):
        buy_scan += (w - k, w + k)
        sell_scan += (w + k, w - k)
    for event, j in islice(arrivals, count):
        move = w
        if event == LIMIT_ASK:
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
        if record:
            record(p)
            if trace is not None:
                trace.append((event, slot if event <= LIMIT_BID else p, float(x0 + dx * p)))
    return asks, bids, n_asks, n_bids, pending_buys, pending_sells, p


def run_lob(params: LobParams, trace: list | None = None) -> MarketPath:
    """Run the book and emit the recorded price path.

    The book starts empty; 10*(2*half_width + 1) warm-up arrivals are
    discarded before recording begins. Recorded prices are
    initial_price + slot * slot_size with slot counted from the warm-up
    start, and the path's logvol is the estimation pipeline's window
    estimate stamped at each window end (pipeline_logvol). A trace list
    collects (event, slot, price) tuples for the recorded steps only;
    entry i describes the arrival between path rows i and i+1.

    The draws come from _arrivals and go through _transition, which
    apply_event runs too, in two calls (warm-up, then recording), so the
    result equals a loop of lob_step from an empty BookState bit for bit.
    """
    w = params.half_width
    n = 2 * w + 1
    sides_only = params.placement == SIDES_ONLY
    arrivals = _arrivals(substream(params.seed, _LOB_STREAM), params.event_probs,
                         w if sides_only else n)
    if sides_only:  # an ask's offset counts from the slot above the price
        arrivals = ((e, j + w + 1 if e == LIMIT_ASK else j) for e, j in arrivals)
    order_size = float(params.order_size)
    x0, dx = params.initial_price, params.slot_size
    book = _transition(([0.0] * n, [0.0] * n, 0, 0, 0.0, 0.0, 0), arrivals, 10 * n,
                       order_size)
    slots = [book[-1]]
    _transition(book, arrivals, params.steps, order_size, slots.append, trace, x0, dx)
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
