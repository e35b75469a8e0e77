"""Agent-market mechanics: codes, signals, impact, settlement, evolution."""
import hashlib
import math

import numpy as np
import pytest
from oracles import ref_run_abm

from fracvol.agents import (FUNDAMENTAL, FUNDAMENTAL_CODE, TREND_FOLLOWING,
                            TREND_FOLLOWING_CODE, EvolutionParams,
                            ExperimentConfig, ImpactParams, MarketEnv,
                            Population, Strategy, evolve, info_vector,
                            market_impact, pipeline_logvol, read_config,
                            run_experiment, _CONFIG_KEYS, _signal_weight, step,
                            strategy_code, strategy_decode)
from fracvol.errors import GenerationError, InsufficientDataError, ParameterError
from fracvol.rng import substream


def test_code_round_trip_covers_all_81():
    for code in range(81):
        assert strategy_code(strategy_decode(code)) == code
    with pytest.raises(ParameterError):
        strategy_decode(-1)
    with pytest.raises(ParameterError):
        strategy_decode(81)


def test_named_codes():
    assert FUNDAMENTAL_CODE == 72 and FUNDAMENTAL.entries == (1, 1, -1, -1)
    assert TREND_FOLLOWING_CODE == 60 and TREND_FOLLOWING.entries == (1, -1, 1, -1)
    assert strategy_decode(45).entries == (0, 1, -1, -1)
    assert strategy_decode(18).entries == (-1, 1, -1, -1)
    assert strategy_decode(73).entries == (1, 1, -1, 0)
    assert strategy_decode(75).entries == (1, 1, 0, -1)


def test_strategy_validation():
    with pytest.raises(ParameterError):
        strategy_code(Strategy((2, 0, 0, 0)))
    with pytest.raises(ParameterError):
        Strategy((1, 1, 1))


def test_step_weights_are_one_hot():
    np.testing.assert_array_equal(info_vector(0.1, 0.1), [1, 0, 0, 0])
    np.testing.assert_array_equal(info_vector(0.1, -0.1), [0, 1, 0, 0])
    np.testing.assert_array_equal(info_vector(-0.1, 0.1), [0, 0, 1, 0])
    np.testing.assert_array_equal(info_vector(-0.1, -0.1), [0, 0, 0, 1])
    # zero signal takes the up branch, so a flat start still trades
    np.testing.assert_array_equal(info_vector(0.0, 0.0), [1, 0, 0, 0])


def test_logistic_weights():
    v = info_vector(0.0, 0.0, f_choice="logistic")
    np.testing.assert_allclose(v, 0.25)
    v = info_vector(0.03, -0.02, f_choice="logistic", beta_f=500.0)
    assert v.sum() == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(v, [0, 1, 0, 0], atol=1e-4)
    with pytest.raises(ParameterError):
        info_vector(0.0, 0.0, f_choice="nope")


def test_market_impact_shape():
    imp = ImpactParams()
    assert market_impact(0.0, imp) == 0.0
    for w in (0.5, 3.0, 1e4):
        assert market_impact(-w, imp) == -market_impact(w, imp)
    grid = [market_impact(w, imp) for w in (1.0, 10.0, 100.0, 1e4)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    # linear regime: the saturation term is ~0.1% of lambda0 here
    assert market_impact(0.01, imp) == pytest.approx(0.01 / 9000.0, rel=0.01)
    # saturated regime follows the square-root law
    assert market_impact(1e12, imp) == pytest.approx(1e6 / 100.0, rel=0.01)
    with pytest.raises(ParameterError):
        ImpactParams(lambda0=0.0)
    with pytest.raises(ParameterError):
        ImpactParams(alpha_exponent=1.5)


def test_single_agent_step_is_exact():
    env = MarketEnv(z=0.0, z_prev=0.0, xi=0.1, noise_sigma=0.0,
                    value_walk_sigma=0.0)
    pop = Population.from_counts([(FUNDAMENTAL_CODE, 1)])
    step(env, pop, substream(0, 99))
    # underpriced + flat trend -> buy one unit of cash
    assert env.z == 1.0 / 9100.0
    assert pop.cash[0] == -1.0
    assert pop.stock[0] == 1.0 / math.exp(env.z)
    assert env.z_prev == 0.0


def test_settlement_conserves_cash_plus_stock_value():
    env = MarketEnv(z=0.3, z_prev=0.25, xi=0.4)
    pop = Population.from_counts([(72, 30), (60, 30), (45, 20)],
                                 cash0=5.0, stock0=1.0)
    rng = substream(7, 55)
    for _ in range(50):
        c0, s0 = pop.cash.sum(), pop.stock.sum()
        step(env, pop, rng)
        p = math.exp(env.z)
        assert abs((pop.cash.sum() - c0) + p * (pop.stock.sum() - s0)) < 1e-10


def test_evolve_copies_from_best():
    strategies = [strategy_decode(c).entries for c in (10, 20, 30, 40)]
    pop = Population(strategies, cash=[0.0, 1.0, 2.0, 3.0],
                     stock=np.zeros(4), wealth0=np.zeros(4))
    evolve(pop, EvolutionParams(period=1, copiers=2, mutation_prob=0.0),
           substream(3, 77), price=1.0)
    codes = pop.strategy_codes()
    assert codes[2] == 30 and codes[3] == 40
    assert codes[0] in (30, 40) and codes[1] in (30, 40)


def test_evolve_mutation_touches_one_entry():
    strategies = [strategy_decode(c).entries for c in (10, 20, 30, 40)]
    pop = Population(strategies, cash=[0.0, 1.0, 2.0, 3.0],
                     stock=np.zeros(4), wealth0=np.zeros(4))
    evolve(pop, EvolutionParams(period=1, copiers=2, mutation_prob=1.0),
           substream(5, 77), price=1.0)
    sources = np.array(strategies[2:])
    for row in pop.strategies[:2]:
        dist = min(int((row != src).sum()) for src in sources)
        assert dist <= 1


def test_evolve_random_selection_and_errors():
    strategies = [strategy_decode(c).entries for c in (10, 20, 30, 40)]

    def build():
        return Population(strategies, cash=[0.0, 1.0, 2.0, 3.0],
                          stock=np.zeros(4), wealth0=np.zeros(4))

    evo = EvolutionParams(period=1, copiers=2, mutation_prob=0.0,
                          random_selection=True)
    a = evolve(build(), evo, substream(11, 77), price=1.0)
    b = evolve(build(), evo, substream(11, 77), price=1.0)
    np.testing.assert_array_equal(a.strategies, b.strategies)
    changed = (a.strategies != np.array(strategies)).any(axis=1).sum()
    assert changed <= 2
    with pytest.raises(ParameterError):
        evolve(build(), EvolutionParams(copiers=5), substream(0), price=1.0)
    with pytest.raises(ParameterError):
        EvolutionParams(period=0)
    with pytest.raises(ParameterError):
        EvolutionParams(mutation_prob=1.5)


def test_population_bookkeeping():
    pop = Population.from_counts([(72, 3), (60, 2)], price0=1.5,
                                 cash0=10.0, stock0=2.0)
    assert len(pop) == 5
    np.testing.assert_array_equal(pop.strategy_codes(), [72, 72, 72, 60, 60])
    np.testing.assert_allclose(pop.wealth0, 13.0)
    np.testing.assert_allclose(pop.payoffs(1.5), 0.0)
    with pytest.raises(ParameterError):
        Population.from_counts([])
    with pytest.raises(ParameterError):
        Population.from_counts([(72, 0)])
    with pytest.raises(ParameterError, match=r"^strategy entries must be in \{-1,0,1\}$"):
        Population([[1, 0, 2, -1]], [0.0], [0.0], [0.0])


def test_step_past_the_float_range_raises_overflow_and_settles_nothing():
    # all-hold agents place no orders, so the log price stays past exp's range
    env = MarketEnv(z=710.0, z_prev=710.0, xi=710.0, noise_sigma=0.0,
                    value_walk_sigma=0.0)
    pop = Population.from_counts([(40, 3)])
    with pytest.raises(OverflowError, match=r"^log price 710\.0 is past the float range$"):
        step(env, pop, substream(0, 99))
    assert pop.cash.tolist() == [0.0] * 3 and pop.stock.tolist() == [0.0] * 3


def test_pipeline_logvol_alignment():
    out = pipeline_logvol(np.array([1.0, 2.0, 4.0]), 5, 3)
    np.testing.assert_allclose(out, np.log([1.0, 1.0, 1.0, 2.0, 4.0]))
    floored = pipeline_logvol(np.array([0.0, 2.0, 4.0]), 5, 3)
    np.testing.assert_allclose(floored, np.log([2.0, 2.0, 2.0, 2.0, 4.0]))
    with pytest.raises(ParameterError):
        pipeline_logvol(np.ones(3), 6, 3)
    with pytest.raises(InsufficientDataError):
        pipeline_logvol(np.zeros(3), 5, 3)


def test_run_experiment_replay_and_shapes():
    cfg = ExperimentConfig(n_steps=600)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    np.testing.assert_array_equal(a.path.prices, b.path.prices)
    np.testing.assert_array_equal(a.final_codes, b.final_codes)
    np.testing.assert_array_equal(a.payoffs, b.payoffs)
    assert len(a.path.prices) == 601
    assert len(a.report.induced_vol) == 601 - 20
    assert len(a.path.logvol) == 601
    assert np.ptp(a.path.logvol[:20]) == 0.0
    c = run_experiment(ExperimentConfig(n_steps=600, seed=1))
    assert not np.array_equal(a.path.prices, c.path.prices)


def test_run_experiment_evolution_reshapes_population():
    evo = EvolutionParams(period=50, copiers=10, mutation_prob=0.5)
    res = run_experiment(ExperimentConfig(n_steps=1000, evolution=evo))
    initial = sorted([72] * 50 + [60] * 50)
    assert sorted(res.final_codes.tolist()) != initial
    plain = run_experiment(ExperimentConfig(n_steps=1000))
    assert sorted(plain.final_codes.tolist()) == initial


def test_config_validation():
    for bad in (lambda: ExperimentConfig(n_steps=0),
                lambda: ExperimentConfig(unit_investment=0.0),
                lambda: ExperimentConfig(price0=-1.0),
                lambda: ExperimentConfig(evolution=EvolutionParams(period=0))):
        with pytest.raises(ParameterError):
            bad()
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig(n_steps=100, f_choice="nope"))


def test_logistic_weight_is_scipy_expit_bit_for_bit():
    from scipy.special import expit

    rng = np.random.default_rng(20)
    edge = np.linspace(700.0, 750.0, 2001)
    xs = np.concatenate([
        rng.standard_normal(20_000) * 10.0 ** rng.uniform(-4, 3, 20_000),
        edge, -edge, [1e308, -1e308, 0.0, -0.0, 5e-324, -5e-324],
    ])
    for beta_f in (1.0, 25.0, 500.0):
        ours = np.array([_signal_weight(float(x), "logistic", beta_f) for x in xs])
        ref = np.array([float(expit(beta_f * float(x))) for x in xs])
        np.testing.assert_array_equal(ours.view(np.uint64), ref.view(np.uint64))


_README_EVOLUTION = EvolutionParams(period=50, mutation_prob=0.1)


@pytest.mark.parametrize("config", [
    ExperimentConfig(),
    ExperimentConfig(population=((72, 1000), (60, 1000)), n_steps=3000, seed=2,
                     evolution=_README_EVOLUTION),
    ExperimentConfig(n_steps=3000, seed=3, f_choice="logistic", beta_f=40.0,
                     evolution=_README_EVOLUTION),
    ExperimentConfig(n_steps=3000, seed=4, unit_investment=0.1,
                     evolution=_README_EVOLUTION),
    ExperimentConfig(population=((72, 20), (60, 15), (45, 12)), n_steps=3000,
                     seed=5, unit_investment=0.37, price0=2.5, cash0=3.0,
                     stock0=0.5, evolution=EvolutionParams(
                         period=37, copiers=5, mutation_prob=0.3,
                         random_selection=True)),
    ExperimentConfig(population=((72, 30), (18, 10)), n_steps=2 * 4096 + 3,
                     seed=6, unit_investment=0.37),
], ids=["default", "readme-2000", "logistic-evolving", "u-0.1",
        "three-strategies-random-selection", "no-evolution-three-blocks"])
def test_run_experiment_equals_reference_step_loop(config):
    prices, codes, payoffs = ref_run_abm(config)
    res = run_experiment(config)
    np.testing.assert_array_equal(res.path.prices.view(np.uint64),
                                  prices.view(np.uint64))
    np.testing.assert_array_equal(res.final_codes, codes)
    np.testing.assert_array_equal(res.payoffs.view(np.uint64),
                                  payoffs.view(np.uint64))


# sha256 of prices then final_codes (little-endian int64) of the run below,
# taken when the logistic weight still called scipy.special.expit
_LOGISTIC_RUN_SHA256 = (
    "b4c2558128105dee4bce8466ce5af6ed7682b417e54605366667d7749308541f")


def test_logistic_run_golden_digest():
    res = run_experiment(ExperimentConfig(n_steps=2000, f_choice="logistic",
                                          evolution=EvolutionParams()))
    digest = hashlib.sha256(res.path.prices.tobytes()
                            + res.final_codes.astype("<i8").tobytes())
    assert digest.hexdigest() == _LOGISTIC_RUN_SHA256


def test_price_past_float_range_is_a_generation_error():
    cfg = ExperimentConfig(n_steps=100, seed=5, unit_investment=1e300)
    with pytest.raises(GenerationError,
                       match=r"log price 1e\+149 at step 1 \(seed 5\)"):
        run_experiment(cfg)


def test_read_config_builds_the_experiment_then_applies_overrides(tmp_path):
    cfg = tmp_path / "market.cfg"
    cfg.write_text("# a market\n\npopulation = 72:30, 60:30\nsteps = 400\nseed = 3\n"
                   "f_choice = logistic\nimpact.lambda0 = 8000\n"
                   "evolution.random_selection = yes\n")
    assert read_config(str(cfg), {"n_steps": 600}) == ExperimentConfig(
        population=((72, 30), (60, 30)), n_steps=600, seed=3, f_choice="logistic",
        impact=ImpactParams(lambda0=8000.0),
        evolution=EvolutionParams(random_selection=True))
    assert read_config(None, {}) == ExperimentConfig()
    cfg.write_text("steps = 400\nmyst = 1\n")
    with pytest.raises(ParameterError, match=r"^unknown config key 'myst'$"):
        read_config(str(cfg), {})


def test_read_config_documents_exactly_the_keys_it_accepts():
    listed = read_config.__doc__.split("EvolutionParams:\n\n")[1].split("\n\n")[0]
    assert sorted(listed.split()) == sorted(_CONFIG_KEYS)
    assert "steps" in _CONFIG_KEYS and "n_steps" not in _CONFIG_KEYS
