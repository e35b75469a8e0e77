"""Order-book transitions against worked examples and a reference engine."""
import hashlib
import itertools

import numpy as np
import pytest

from fracvol import lob
from fracvol.errors import GenerationError, ParameterError
from fracvol.lob import (_RAW_BLOCK, LIMIT_ASK, LIMIT_BID, MARKET_BUY, MARKET_SELL,
                         SIDES_ONLY, LobParams, _arrivals, _transition, _word_states,
                         run_lob)
from fracvol.rng import substream

from lob_window import apply_window
from oracles import ref_lob_apply, ref_run_lob


def _book(w=10, asks=(), bids=(), pending_buys=0.0, pending_sells=0.0):
    """A book at price slot 0 in oracles.ref_lob_apply's dict form."""
    return {"price": 0, "w": w, "asks": dict(asks), "bids": dict(bids),
            "pending_buys": pending_buys, "pending_sells": pending_sells}


def test_market_order_on_empty_book_waits():
    book = apply_window(_book(), MARKET_BUY, None, 2.0)
    assert book["pending_buys"] == 1.0
    assert book["price"] == 0 and not book["asks"]
    book = apply_window(book, MARKET_SELL, None, 2.0)
    assert book["pending_sells"] == 1.0


def test_market_order_fill_moves_price():
    book = apply_window(_book(asks={2: 0.4}), MARKET_BUY, None, 2.0)
    assert book["price"] == 2
    assert not book["asks"]
    assert book["pending_buys"] == pytest.approx(0.6)
    book = apply_window(_book(asks={2: 2.0}), MARKET_BUY, None, 2.0)
    assert book["asks"] == {2: 1.0}
    assert book["pending_buys"] == 0.0
    assert book["price"] == 2


def test_tie_breaking_improves_price():
    book = apply_window(_book(asks={2: 1.0, -2: 1.0}), MARKET_BUY, None, 2.0)
    assert book["price"] == -2  # buyer takes the cheaper ask
    book = apply_window(_book(bids={2: 1.0, -2: 1.0}), MARKET_SELL, None, 2.0)
    assert book["price"] == 2  # seller hits the higher bid


def test_limit_order_serves_pending_register():
    book = apply_window(_book(pending_buys=1.5), LIMIT_ASK, 3, 2.0)
    assert book["pending_buys"] == 0.0
    assert book["asks"] == {3: 0.5}
    assert book["price"] == 3
    book = apply_window(_book(pending_buys=3.0), LIMIT_ASK, -1, 2.0)
    assert book["pending_buys"] == 1.0
    assert not book["asks"]
    assert book["price"] == -1


def test_price_move_evicts_stale_orders():
    book = apply_window(_book(3, asks={3: 1.0}, bids={-3: 1.0}), MARKET_BUY, None, 2.0)
    assert book["price"] == 3
    assert not book["bids"]  # slot -3 fell out of [0, 6]
    assert all(0 <= slot <= 6 for slot in book["asks"])


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
                book = _book(4, asks, bids, pb, ps)
                ref = ref_lob_apply(book, event, slot, 1.3)
                assert apply_window(book, event, slot, 1.3) == ref
                checked += 1
    assert checked == 10800


def test_book_invariants_hold_under_stepping():
    # run_lob's kernel on its own arrival stream, checked after every block
    params = LobParams(half_width=5, order_size=0.7)
    n = 2 * params.half_width + 1
    arrivals = itertools.chain.from_iterable(itertools.starmap(zip, _arrivals(
        substream(2, 99), params.event_probs, n)))
    book = ([0.0] * n, [0.0] * n, 0, 0, 0.0, 0.0, 0)
    for _ in range(20):
        book = _transition(book, arrivals, 100, params.order_size)
        asks, bids, n_asks, n_bids, pending_buys, pending_sells, _ = book
        assert len(asks) == len(bids) == n
        assert (n_asks, n_bids) == (np.count_nonzero(asks), np.count_nonzero(bids))
        sizes = np.array(asks + bids)
        assert np.isfinite(sizes).all() and (sizes >= 0).all()
        assert pending_buys >= 0 and pending_sells >= 0


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
    # sides only, run_lob draws w offsets, asks counted from the slot above the price
    w = 10
    events, offsets = next(_arrivals(substream(5, 21), LobParams.event_probs, w, w + 1))
    placed = {event: {j for e, j in zip(events, offsets) if e == event}
              for event in (LIMIT_ASK, LIMIT_BID, MARKET_BUY, MARKET_SELL)}
    assert placed[LIMIT_ASK] == set(range(w + 1, 2 * w + 1))
    assert placed[LIMIT_BID] == set(range(w))
    assert placed[MARKET_BUY] == placed[MARKET_SELL] == {0}


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
    ref_prices, ref_trace = ref_run_lob(params)
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
