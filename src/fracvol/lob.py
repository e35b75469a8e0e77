"""Random limit-order-book market on a moving price window.

Limit asks and bids arrive at uniformly random slots inside a window of
half_width slots around the current price; market orders of unit size eat
the closest resting liquidity and drag the price to the slot they trade at.
Market orders that find an empty opposite side accumulate in pending
registers and are served by the next arriving limit liquidity. Whenever the
price moves, the window recenters and resting orders left outside it are
dropped.

These rules are written once, in _transition, over a book kept as two lists
across the window; run_lob is the only entry point. Limit events have the
codes below 2, and the low bit of a code is the event's side: asks and
pending buys for limit asks and market buys, bids and pending sells for the
other two, so each rule is one branch for both sides. Each arrival takes one
rng.random() for its event and, for a limit event, one rng.integers(span)
for its slot: span is 2*half_width + 1 across the window two-sided, or
half_width slots above the price for asks and below it for bids sides-only.
So a run is fully determined by its parameters and seed.

_arrivals replays these draws from raw Philox words in numpy blocks. Each
raw word is in one of three states: an event word, an event word while an
accepted spare half waits, or a fresh word drawn for a placement offset. A
scan of composed transition tables settles the states of a whole block at
once. A limit event whose offset word lies past the block's end, or a spare
that outlives it, carries into the next block.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice, product, starmap

import numpy as np

from .errors import (Checked, GenerationError, holds, integer, one_of, positive,
                     within_cells)
from .estimation import WINDOW, induced_volatility, pipeline_logvol
from .rng import _LOB_STREAM, SEEDS, substream
from .simulate import MarketPath

LIMIT_ASK, LIMIT_BID, MARKET_BUY, MARKET_SELL = 0, 1, 2, 3
EVENT_NAMES = ("limit_ask", "limit_bid", "market_buy", "market_sell")

TWO_SIDED = "two_sided"
SIDES_ONLY = "sides_only"

# keeps every placement span within numpy's 32-bit bounded-integer path,
# which _arrivals replays; warm-up alone is 2*10**7 arrivals at this width
_MAX_HALF_WIDTH = 2 ** 20
_RAW_BLOCK = 1 << 14  # raw Philox words per numpy call; small keeps peak RSS flat
_MASK32 = 0xFFFFFFFF

# The states of a raw word in _arrivals: an event word with no usable spare
# half, an event word with an accepted spare half, a fresh offset word. A
# transition f between them is coded f(_EVENT)*9 + f(_SPARE)*3 + f(_FRESH):
# a word's code is _ON_LIMIT or _ON_MARKET by its event class, plus the
# f(_FRESH) that its own halves decide.
_EVENT, _SPARE, _FRESH = 0, 1, 2
_ON_LIMIT = _FRESH * 9 + _EVENT * 3
_ON_MARKET = _EVENT * 9 + _SPARE * 3
_IDENTITY = _EVENT * 9 + _SPARE * 3 + _FRESH
_TABLES = np.array(list(product(range(3), repeat=3)))  # row f holds f(0), f(1), f(2)
_APPLY = _TABLES.ravel()  # [3 f + s] is f(s)
_APPLY_LIST = _APPLY.tolist()
_COMPOSE = (_TABLES[:, _TABLES] @ [9, 3, 1]).ravel()  # [27 g + f] is g after f
_SCAN = 16  # words per row of the state scan; _RAW_BLOCK is a multiple


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
        integer(*SEEDS, seed=self.seed)
        within_cells(steps=self.steps)
        positive(order_size=self.order_size, slot_size=self.slot_size,
                 initial_price=self.initial_price)
        holds(self.event_probs,
              lambda p: len(p) == 4 and all(q >= 0 for q in p) and abs(sum(p) - 1.0) <= 1e-12,
              "event_probs must be 4 nonnegative values summing to 1")
        one_of("placement", self.placement, (TWO_SIDED, SIDES_ONLY))


def _word_states(codes: np.ndarray, state: int) -> tuple[np.ndarray, int]:
    """The state before each word, entering in `state`, and the state after
    the last word. codes holds each word's transition as a function code
    f(0)*9 + f(1)*3 + f(2). A blocked scan (Blelloch 1990) composes the
    tables of _SCAN words per row across all rows at once, then runs the
    rows' totals in order."""
    # widened before the multiply: 27 * 26 overflows the int8 codes
    rows = 27 * codes.reshape(-1, _SCAN).astype(np.intp)
    prefix = [np.full(len(rows), _IDENTITY)]
    for j in range(_SCAN):
        prefix.append(_COMPOSE[rows[:, j] + prefix[-1]])
    starts = list(accumulate(prefix.pop().tolist(),
                             lambda s, f: _APPLY_LIST[3 * f + s], initial=state))
    end = starts.pop()
    return _APPLY[3 * np.stack(prefix, axis=1) + np.array(starts)[:, None]].ravel(), end


def _arrivals(rng: np.random.Generator, event_probs, span: int, ask_base: int = 0):
    """Yield successive arrivals' draws in blocks: per block of _RAW_BLOCK
    raw words, an (events, offsets) pair of lists; a limit ask's offset
    comes with ask_base added, a market event's is 0.

    Each arrival draws u = rng.random() and is the first event type whose
    cumulative event_probs exceeds u (a market sell past all three), then a
    limit event draws rng.integers(span) for its offset. Neither depends on
    the book, so the stream is replayed here from raw 64-bit Philox words:
    random() is (word >> 11) * 2**-53, and integers(span) is numpy's 32-bit
    Lemire draw (Lemire 2019), which takes the low half of a fresh word and
    keeps the high half as a spare for the next call, redraws while the low
    word of the product is below 2**32 % span, and draws nothing when span
    is 1. A rejected spare is spent without effect, so it counts as none.

    numpy decodes every word of a block three ways at once (event class,
    and the offset and acceptance of both halves); which of them applies
    follows from the word's state: an event word with no spare (_EVENT), an
    event word with an accepted spare (_SPARE), or a fresh offset word
    (_FRESH). _word_states settles the states of a whole block. A block that
    ends in _FRESH holds back its last limit event until the next block
    draws its offset; one that ends in _SPARE hands the spare's offset on.
    """
    pa, pb, pm, _ = event_probs
    c_ask, c_bid, c_buy = pa, pa + pb, pa + pb + pm
    reject_below = (1 << 32) % span
    # the pending limit event in _FRESH, the spare's offset in _SPARE
    state, carry = _EVENT, 0
    while True:
        raw = rng.bit_generator.random_raw(_RAW_BLOCK)
        u = (raw >> 11) * 2.0 ** -53
        event = sum((u >= c).view(np.int8) for c in (c_ask, c_bid, c_buy))
        low, high = (raw & _MASK32) * span, (raw >> 32) * span
        low_ok, high_ok = (low & _MASK32) >= reject_below, (high & _MASK32) >= reject_below
        limit = event <= LIMIT_BID if span > 1 else np.zeros(raw.size, bool)
        both, neither = low_ok & high_ok, ~(low_ok | high_ok)
        # a fresh word goes to _SPARE, _EVENT (one half accepted) or _FRESH
        words, end = _word_states(_ON_MARKET + (_ON_LIMIT - _ON_MARKET) * limit.view(np.int8)
                                  + _SPARE * both.view(np.int8)
                                  + _FRESH * neither.view(np.int8), state)
        fresh = words == _FRESH
        done = np.flatnonzero(fresh & ~neither)  # fresh words that draw an offset
        drawn = np.where(low_ok[done], low[done], high[done]) >> 32
        spares = high[fresh & both] >> 32
        waits = np.flatnonzero(limit & (words == _EVENT))  # for the next drawn offset
        takes = np.flatnonzero(limit & (words == _SPARE))  # the last spare's offset
        offset = np.zeros(raw.size, np.uint64)
        head = state == _FRESH and drawn.size > 0
        if head:
            head_event, head_offset, drawn = carry, drawn[0], drawn[1:]
        offset[waits[:drawn.size]] = drawn[:waits.size]
        if state == _SPARE:
            spares = np.concatenate([np.array([carry], np.uint64), spares])
        offset[takes] = spares[:takes.size]
        keep = ~fresh
        if waits.size > drawn.size:  # the block ends before this one's offset
            keep[waits[-1]] = False
            carry = int(event[waits[-1]])
        elif end == _SPARE:
            carry = int(spares[-1])
        state = end
        events, offsets = event[keep], offset[keep]
        if head:
            events = np.concatenate([[head_event], events])
            offsets = np.concatenate([[head_offset], offsets])
        yield events.tolist(), (offsets + np.uint64(ask_base) * (events == LIMIT_ASK)).tolist()


def _recenter(side: list, shift: int, zeros: list) -> int:
    """Recenter a window list in place on the price `shift` slots away,
    filling from `zeros`; return the number of resting orders that fell out."""
    if shift > 0:
        gone = side[:shift]
        del side[:shift]
        side += zeros[:shift]
    else:
        gone = side[shift:]
        del side[shift:]
        side[:0] = zeros[:-shift]
    return len(gone) - gone.count(0.0)


def _transition(book: tuple, arrivals, count: int, order_size: float, record=None,
                trace: list | None = None, x0: float = 0.0, dx: float = 1.0) -> tuple:
    """The book's one transition: apply `count` (event, window index) pairs
    from the iterator `arrivals` and return the book after the last one.

    The book is (asks, bids, n_asks, n_bids, pending_buys, pending_sells, p).
    Each side is a list over the window whose index j holds slot p - w + j,
    so index w is the price slot p; n_asks and n_bids count the nonzero
    entries. An event's side s = event & 1 pairs asks, pending_buys and the
    buy scan order (0) or bids, pending_sells and the sell scan order (1). A
    limit order first serves its side's register and the price moves to its
    arrival slot when anything matched; the rest rests there, before the
    window recenters on it. A market order takes up to one unit from its
    side's closest slot (ties resolve to the price-improving side), moves the
    price there and parks any shortfall in its side's register. After each
    event, record (a callable) gets p, and a trace list gets an (event,
    slot, x0 + dx * p) tuple: slot is the arrival slot of a limit order and
    the post-event price slot p of a market order.
    """
    sides, counts, pending, p = book[:2], list(book[2:4]), list(book[4:6]), book[6]
    w = len(sides[0]) // 2
    zeros = [0.0] * w
    # closest-first scan orders; ties go to the lower slot for buys, the higher
    # for sells, whose order mirrors the buys' about w
    buy_scan = [w] + [i for k in range(1, w + 1) for i in (w - k, w + k)]
    scans = (buy_scan, [2 * w - i for i in buy_scan])
    for event, j in islice(arrivals, count):
        s = event & 1
        side = sides[s]
        move = w
        if event < 2:  # limit order
            size = order_size
            if pending[s] > 0.0:
                matched = min(size, pending[s])
                pending[s] -= matched
                size -= matched
                move = j
            if size > 0.0:
                if not side[j]:
                    counts[s] += 1
                side[j] += size
        elif counts[s]:  # market order against resting orders
            for move in scans[s]:
                if side[move]:
                    break
            size = side[move]  # take one unit, park the shortfall
            if size > 1.0:
                side[move] = size - 1.0
            else:
                side[move] = 0.0
                counts[s] -= 1
                pending[s] += 1.0 - size
        else:  # market order on an empty side: it waits in the register
            pending[s] += 1.0
        if move != w:
            shift = move - w
            p += shift
            if counts[0]:
                counts[0] -= _recenter(sides[0], shift, zeros)
            if counts[1]:
                counts[1] -= _recenter(sides[1], shift, zeros)
        if record:
            record(p)
            if trace is not None:
                # p moved by move - w, so a limit order arrived at slot p - move + j
                trace.append((event, p - move + j if event < 2 else p, float(x0 + dx * p)))
    return (*sides, *counts, *pending, p)


def run_lob(params: LobParams, trace: list | None = None) -> MarketPath:
    """Run the book and emit the recorded price path.

    The book starts empty; 10*(2*half_width + 1) warm-up arrivals are
    discarded before recording begins. Recorded prices are
    initial_price + slot * slot_size with slot counted from the warm-up
    start, and the path's logvol is the estimation pipeline's window
    estimate stamped at each window end (pipeline_logvol). A trace list
    collects one (event, slot, price) tuple per recorded step: the event
    code, the arrival slot of a limit order or the post-event price slot of
    a market order, and the post-event price. Entry i describes the arrival
    between path rows i and i+1.

    The draws, in the order the module docstring states, come from
    _arrivals and go through _transition in two calls (warm-up, then
    recording).
    """
    w = params.half_width
    n = 2 * w + 1
    # sides only: asks count from the slot above the price, bids from p - w
    span, ask_base = (w, w + 1) if params.placement == SIDES_ONLY else (n, 0)
    arrivals = chain.from_iterable(starmap(zip, _arrivals(
        substream(params.seed, _LOB_STREAM), params.event_probs, span, ask_base)))
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
