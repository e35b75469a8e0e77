"""Order-book transitions against worked examples and a reference engine."""
import hashlib
import itertools
import math

import numpy as np
import pytest

from fracvol import lob
from fracvol.errors import GenerationError, ParameterError
from fracvol.lob import (_LOB_STREAM, _RAW_BLOCK, LIMIT_ASK, LIMIT_BID,
                         MARKET_BUY, MARKET_SELL, SIDES_ONLY, BookState,
                         LobParams, _arrivals, _word_states, apply_event, lob_step,
                         run_lob)
from fracvol.rng import substream

from oracles import book_as_dict, ref_lob_apply


def test_market_order_on_empty_book_waits():
    book = BookState()
    apply_event(book, MARKET_BUY, None, 2.0)
    assert book.pending_buys == 1.0
    assert book.price_slot == 0 and not book.asks
    apply_event(book, MARKET_SELL, None, 2.0)
    assert book.pending_sells == 1.0


def test_market_order_fill_moves_price():
    book = BookState(asks={2: 0.4})
    apply_event(book, MARKET_BUY, None, 2.0)
    assert book.price_slot == 2
    assert not book.asks
    assert book.pending_buys == pytest.approx(0.6)
    book = BookState(asks={2: 2.0})
    apply_event(book, MARKET_BUY, None, 2.0)
    assert book.asks == {2: 1.0}
    assert book.pending_buys == 0.0
    assert book.price_slot == 2


def test_tie_breaking_improves_price():
    book = BookState(asks={2: 1.0, -2: 1.0})
    apply_event(book, MARKET_BUY, None, 2.0)
    assert book.price_slot == -2  # buyer takes the cheaper ask
    book = BookState(bids={2: 1.0, -2: 1.0})
    apply_event(book, MARKET_SELL, None, 2.0)
    assert book.price_slot == 2  # seller hits the higher bid


def test_limit_order_serves_pending_register():
    book = BookState(pending_buys=1.5)
    apply_event(book, LIMIT_ASK, 3, 2.0)
    assert book.pending_buys == 0.0
    assert book.asks == {3: 0.5}
    assert book.price_slot == 3
    book = BookState(pending_buys=3.0)
    apply_event(book, LIMIT_ASK, -1, 2.0)
    assert book.pending_buys == 1.0
    assert not book.asks
    assert book.price_slot == -1


def test_price_move_evicts_stale_orders():
    book = BookState(half_width=3, asks={3: 1.0}, bids={-3: 1.0})
    apply_event(book, MARKET_BUY, None, 2.0)
    assert book.price_slot == 3
    assert not book.bids  # slot -3 fell out of [0, 6]
    book.validate()


def test_exhaustive_small_states_match_reference():
    # slots at the window's edges, so a price move evicts resting orders
    sizes = [None, 0.5, 1.0, 2.0]
    slots = [-4, -2, 0, 2, 4]
    events = [(MARKET_BUY, None), (MARKET_SELL, None)]
    events += [(e, s) for e in (LIMIT_ASK, LIMIT_BID) for s in slots]
    checked = 0
    for a_slot, a_sz, b_slot, b_sz in itertools.product(slots, sizes,
                                                        slots, sizes):
        asks = {a_slot: a_sz} if a_sz else {}
        bids = {b_slot: b_sz} if b_sz else {}
        for pb, ps in itertools.product((0.0, 0.7, 1.3), repeat=2):
            # pendings coexist only with an empty opposite side
            if (pb > 0 and asks) or (ps > 0 and bids):
                continue
            for event, slot in events:
                book = BookState(price_slot=0, half_width=4, slot_size=0.1,
                                 asks=dict(asks), bids=dict(bids),
                                 pending_buys=pb, pending_sells=ps)
                ref = ref_lob_apply(book_as_dict(book), event, slot, 1.3)
                apply_event(book, event, slot, 1.3)
                assert book_as_dict(book) == ref
                checked += 1
    assert checked == 10800


def test_book_invariants_hold_under_stepping():
    params = LobParams(half_width=5, steps=1, seed=2)
    book = BookState(half_width=5)
    rng = substream(2, 99)
    for i in range(2000):
        lob_step(book, params, rng)
        if i % 100 == 0:
            book.validate()
    book.validate()


def test_symmetric_events_leave_no_drift():
    finals = []
    for s in range(40):
        path = run_lob(LobParams(steps=2000, seed=s))
        finals.append((path.prices[-1] - path.prices[0]) / 0.1)
    finals = np.array(finals)
    assert abs(finals.mean()) < 4 * finals.std(ddof=1) / np.sqrt(40)


def test_run_shapes_and_determinism():
    params = LobParams(steps=500, seed=3)
    a = run_lob(params)
    b = run_lob(params)
    assert len(a.prices) == 501
    np.testing.assert_array_equal(a.times, np.arange(501.0))
    np.testing.assert_array_equal(a.prices, b.prices)
    assert not np.array_equal(a.prices, run_lob(LobParams(steps=500, seed=4)).prices)


def test_trace_aligns_with_path():
    params = LobParams(steps=400, seed=6)
    trace = []
    traced = run_lob(params, trace)
    untraced = run_lob(params)
    np.testing.assert_array_equal(traced.prices, untraced.prices)
    assert len(trace) == 400
    for (event, slot, price), row_price in zip(trace, traced.prices[1:]):
        assert event in (0, 1, 2, 3)
        assert isinstance(slot, int)
        assert price == row_price


def test_one_sided_placement_keeps_sides_apart():
    params = LobParams(placement=SIDES_ONLY, steps=1, seed=5)
    book = BookState(half_width=10)
    rng = substream(5, 21)
    for _ in range(1500):
        before = book.price_slot
        asks0, bids0 = dict(book.asks), dict(book.bids)
        lob_step(book, params, rng)
        new_asks = set(book.asks) - set(asks0)
        new_bids = set(book.bids) - set(bids0)
        assert all(s > before for s in new_asks)
        assert all(s < before for s in new_bids)


def test_price_floor_guard():
    with pytest.raises(GenerationError):
        run_lob(LobParams(initial_price=0.5, steps=5000, seed=0))


def test_price_floor_error_names_seed_step_and_price():
    # default parameters at seed 24 walk down 1000 slots to a price of 0.0
    with pytest.raises(GenerationError,
                       match=r"price walked to 0\.0 at recorded step 87664 "
                             r"\(seed 24\)"):
        run_lob(LobParams(seed=24))
    path = run_lob(LobParams(seed=24, steps=87663))
    assert path.prices.min() > 0  # so step 87664 is the first bad one


def _lob_step_run(params):
    """run_lob's prices and trace, rebuilt from a loop of lob_step."""
    rng = substream(params.seed, _LOB_STREAM)
    book = BookState(slot_size=params.slot_size, half_width=params.half_width)
    for _ in range(10 * (2 * params.half_width + 1)):
        lob_step(book, params, rng)
    slots, trace = [book.price_slot], []
    for _ in range(params.steps):
        lob_step(book, params, rng, trace)
        slots.append(book.price_slot)
    return params.initial_price + params.slot_size * np.array(slots), trace


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("config", [
    {},
    {"placement": SIDES_ONLY},
    {"half_width": 1},
    {"half_width": 1, "placement": SIDES_ONLY},
    {"event_probs": (0.3, 0.2, 0.1, 0.4), "order_size": 0.7},
    {"half_width": 3, "order_size": 1.3},
], ids=["defaults", "sides_only", "w1", "w1-sides_only", "skewed-0.7",
        "w3-1.3"])
def test_run_lob_equals_lob_step_loop(config, seed):
    params = LobParams(steps=1500, seed=seed, **config)
    trace = []
    path = run_lob(params, trace)
    ref_prices, ref_trace = _lob_step_run(params)
    np.testing.assert_array_equal(path.prices, ref_prices)
    assert trace == ref_trace


def _words_drawn(rng):
    """Raw 64-bit words a Philox generator has handed out since seeding."""
    state = rng.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4


# the mixed case keeps the bare span as its id
_REPLAY_PROBS = {"": (0.3, 0.2, 0.1, 0.4), "limit-only": (0.5, 0.5, 0.0, 0.0),
                 "market-only": (0.0, 0.0, 0.5, 0.5)}
_REPLAY_CASES = [(span, probs, block)
                 for block in (_RAW_BLOCK, 32) for probs in _REPLAY_PROBS
                 for span in (1, 2, 21, 2**21 + 1, 2**31 + 1)]


@pytest.mark.parametrize("span, probs, block", _REPLAY_CASES, ids=[
    "-".join(filter(None, (str(span), probs, "" if block == _RAW_BLOCK else f"block{block}")))
    for span, probs, block in _REPLAY_CASES])
def test_arrival_replay_matches_scalar_draws(monkeypatch, span, probs, block):
    # the module's block crossed 3 times; 32-word blocks crossed about 60
    # times, where the block ends below are certain to occur
    monkeypatch.setattr(lob, "_RAW_BLOCK", block)
    count = 3 * block + 1 if block == _RAW_BLOCK else 2000
    reject_below = (1 << 32) % span
    if span == 2**31 + 1:
        # numpy redraws while the low product word is below 2**32 % span,
        # which here is about half of all draws
        assert reject_below > 2**30
    probs = pa, pb, pm, _ = _REPLAY_PROBS[probs]
    rng = substream(9, 1)
    blocks = _arrivals(substream(9, 1), probs, span)
    replay = itertools.islice(itertools.chain.from_iterable(itertools.starmap(zip, blocks)),
                              count)
    # block ends that fall between a limit event's word and its offset word,
    # and block ends that an accepted spare half crosses
    words = split = carried = 0  # words: raw words before the current arrival
    for event, offset in replay:
        if words and words % block == 0:
            state = rng.bit_generator.state
            spare = (state["uinteger"] * span) & 0xFFFFFFFF >= reject_below
            carried += state["has_uint32"] and spare
        u = rng.random()
        expect = (LIMIT_ASK if u < pa else LIMIT_BID if u < pa + pb
                  else MARKET_BUY if u < pa + pb + pm else MARKET_SELL)
        assert event == expect
        if expect in (LIMIT_ASK, LIMIT_BID):
            assert offset == int(rng.integers(span))
            last = _words_drawn(rng) - 1
            split += last // block > words // block
            words = last + 1
        else:
            assert offset == 0
            words += 1
    assert words > 3 * block  # each arrival takes at least one word
    if block != _RAW_BLOCK:
        draws = span > 1 and pa + pb > 0
        assert (split > 0, carried > 0) == (draws, draws)


@pytest.mark.parametrize("start", [0, 1, 2])
def test_word_states_match_a_scalar_walk(start):
    # int8 codes, as _arrivals builds them, over all 27 transitions; codes
    # of 5 and up times 27 leave the int8 range
    codes = np.random.default_rng(start).integers(27, size=64 * lob._SCAN).astype(np.int8)
    codes[:27] = np.arange(27)
    expect, state = [], start
    for code in codes.tolist():  # code f(0)*9 + f(1)*3 + f(2)
        expect.append(state)
        state = code // 3 ** (2 - state) % 3
    states, end = _word_states(codes, start)
    assert states.tolist() == expect and end == state


def test_run_lob_draws_raw_words_in_bounded_blocks(monkeypatch):
    # the replay's memory stays flat however many arrivals a run takes
    sizes = []

    class Spy:  # a generator as _arrivals uses it: bit_generator.random_raw only
        def __init__(self, rng):
            self.bit_generator, self.rng = self, rng

        def random_raw(self, size):
            sizes.append(size)
            return self.rng.bit_generator.random_raw(size)

    params = LobParams(steps=2**17)
    expect = run_lob(params).prices
    monkeypatch.setattr(lob, "substream", lambda *key: Spy(substream(*key)))
    np.testing.assert_array_equal(run_lob(params).prices, expect)
    assert len(sizes) > 1 and max(sizes) <= _RAW_BLOCK


@pytest.mark.parametrize("seed, digest", [
    (0, "78b8d49e9e8d1f50f0301552d086af02708760d63573b059d25a7d174c16dcc2"),
    (7, "139cebfd9a6b97eaf6ccf0834d2a5be3560e659e751fa7301fe2a12e887daef5"),
])
def test_run_lob_golden_digest(seed, digest):
    # prices and trace of the dict-book implementation, pinned byte for byte
    trace = []
    path = run_lob(LobParams(steps=4096, seed=seed), trace)
    h = hashlib.sha256(path.prices.tobytes())
    h.update(repr(trace).encode())
    assert h.hexdigest() == digest


def test_params_validation():
    for bad in (dict(half_width=0), dict(order_size=0.0),
                dict(steps=0), dict(slot_size=0.0),
                dict(initial_price=-1.0), dict(placement="x"),
                dict(event_probs=(0.3, 0.3, 0.3, 0.3)),
                dict(half_width=2**20 + 1), dict(half_width=2.5),
                dict(steps=10.5)):
        with pytest.raises(ParameterError):
            LobParams(**bad)
    LobParams(half_width=2**20)
    for bad in (dict(half_width=2.5), dict(steps=10.5)):
        with pytest.raises(ParameterError):
            run_lob(LobParams(**bad))
    for bad in (dict(asks={99: 1.0}), dict(pending_buys=-1.0),
                dict(asks={0: math.nan}), dict(bids={0: math.inf}),
                dict(pending_buys=math.nan), dict(pending_sells=math.inf),
                dict(slot_size=math.nan), dict(slot_size=math.inf)):
        with pytest.raises(ParameterError):
            BookState(**bad)
    for event, slot, match in ((7, None, "unknown event 7"),
                               (LIMIT_ASK, 50, r"slot must be an integer in \[-2, 2\], got 50")):
        with pytest.raises(ParameterError, match=match):
            apply_event(BookState(half_width=2), event, slot, 1.0)
