"""Parameter checks: the shared rules in errors.py and every entry point
that uses them."""
import math
import re
import warnings

import numpy as np
import pytest

from fracvol.agents import (EvolutionParams, ExperimentConfig, ImpactParams,
                            MarketEnv, Population, Strategy, run_experiment,
                            strategy_decode)
from fracvol.errors import (MAX_CELLS, GenerationError, GridMismatchError,
                            ParameterError, finite, grid_ratio, holds, integer,
                            nonnegative, one_of, positive, within_cells)
from fracvol.estimation import (autocorrelation, estimate_report, induced_volatility,
                                integrated_logvol_decompose, leverage, scaling_exponent)
from fracvol.fgn import check_hurst, fgn_autocovariance, generate_fgn
from fracvol.lob import LobParams
from fracvol.rng import substream
from fracvol.pricing import (OptionInputs, VolDispersion, m_function,
                             mean_variance_fit, monte_carlo_price, smile_surface)
from fracvol.returns import (ReturnDistParams, central_return, pdf,
                             return_for_lambda, sample_returns, tail_lambda)
from fracvol.simulate import (MarketPath, ModelParams, calibrated_kprime,
                              identified_return_ensemble, path_ensemble,
                              simulate_identified, simulate_path)

NOT_REAL = [None, "1.0", math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
@pytest.mark.parametrize("check", [finite, positive, nonnegative])
def test_real_checks_reject_non_numbers(check, bad):
    with pytest.raises(ParameterError, match=r"^x must be .*finite, got "):
        check(ok=1.0, x=bad)


def test_real_checks_bounds_and_wording():
    finite(a=-1e308, b=0, c=np.float64(2.5), d=True)
    positive(a=5e-324, b=np.float32(1.0))
    nonnegative(a=0.0, b=0)
    with pytest.raises(ParameterError, match=r"^dt must be positive and finite, got 0\.0$"):
        positive(dt=0.0)
    with pytest.raises(ParameterError,
                       match=r"^k must be nonnegative and finite, got -1e-300$"):
        nonnegative(k=-1e-300)
    with pytest.raises(ParameterError, match="^b "):  # the first bad keyword
        finite(a=1.0, b=math.nan, c=None)


@pytest.mark.parametrize("bad", [4096.0, 2.5, math.nan, None, "3", np.float64(3.0)],
                         ids=repr)
def test_integer_rejects_non_integers(bad):
    with pytest.raises(ParameterError, match=r"^n must be an integer >= 1, got "):
        integer(1, n=bad)


def test_integer_accepts_numpy_integers_within_bounds():
    integer(1, n=np.int64(4096), m=np.uint8(1), b=True)
    integer(0, 80, code=0, top=np.int32(80))
    with pytest.raises(ParameterError, match=r"^code must be an integer in \[0, 80\], got 81$"):
        integer(0, 80, code=81)
    with pytest.raises(ParameterError, match=r"^window must be an integer >= 8, got 7$"):
        integer(8, window=7)


def test_holds_keeps_the_wording_and_fails_wrong_types():
    def in_unit(q):
        return 0.0 <= q <= 1.0

    holds(0.5, in_unit, "q must lie in [0, 1]")
    for bad in (1.5, math.nan, None, "0.5"):  # the last two raise TypeError in the test
        wording = rf"^q must lie in \[0, 1\], got {re.escape(repr(bad))}$"
        with pytest.raises(ParameterError, match=wording):
            holds(bad, in_unit, "q must lie in [0, 1]")


def test_one_of_and_grid_ratio():
    one_of("mode", "a", ("a", "b"))
    with pytest.raises(ParameterError, match=r"^mode must be one of \('a', 'b'\), got 'c'$"):
        one_of("mode", "c", ("a", "b"))
    assert grid_ratio(3.0, 1.0) == 3 and grid_ratio(1.0, 1 / 3) == 3
    for num, den in ((2.5, 1.0), (1.0, 2.0), (1e300, 1e-300), (1e-300, 1e300)):
        assert grid_ratio(num, den) is None


MODEL = ModelParams()
OPT = OptionInputs(spot=1.0, strike=1.0, rate=0.001, sigma_t=0.01, tau=20.0)
RDP = ReturnDistParams()
PRICES = simulate_path(MODEL, 1500, 1.0, seed=3).prices
NORMAL = np.random.default_rng(0).standard_normal(2000)
R_SIGMA = np.cumsum(NORMAL)


def _with(x, value, at=100):
    """A copy of x with x[at] = value."""
    y = x.copy()
    y[at] = value
    return y


# (entry point, bad value) pairs; at the parent design each of these either
# raised something other than ParameterError or was silently accepted
BAD_CALLS = {
    "check_hurst-None": lambda: check_hurst(None),
    "generate_fgn-n-2.5": lambda: generate_fgn(2.5, 0.7),
    "generate_fgn-n-4096.0": lambda: generate_fgn(4096.0, 0.7),
    "generate_fgn-spacing-None": lambda: generate_fgn(8, 0.7, spacing=None),
    "fgn_autocovariance-spacing-str": lambda: fgn_autocovariance(1, 0.7, spacing="1"),
    "ModelParams-mu-None": lambda: ModelParams(mu=None),
    "ModelParams-k-str": lambda: ModelParams(k="0.5"),
    "simulate_path-n_steps-2.5": lambda: simulate_path(MODEL, 2.5, 1.0),
    "simulate_path-dt-None": lambda: simulate_path(MODEL, 10, None),
    "simulate_path-s0-str": lambda: simulate_path(MODEL, 10, 1.0, s0="1"),
    "path_ensemble-n_paths-2.5": lambda: path_ensemble(MODEL, 10, 1.0, n_paths=2.5),
    "identified_return_ensemble-n_paths-2.0":
        lambda: identified_return_ensemble(MODEL, 10, 1.0, n_paths=2.0),
    "induced_volatility-window-8.5": lambda: induced_volatility(np.log(PRICES), 8.5),
    "estimate_report-window-21.5": lambda: estimate_report(PRICES, window=21.5),
    "estimate_report-dt-None": lambda: estimate_report(PRICES, dt=None),
    "estimate_report-delta-str": lambda: estimate_report(PRICES, delta="1"),
    "leverage-max_lag-2.5": lambda: leverage(np.ones(50), 2.5),
    # a non-finite entry gave NaN estimates, or a RuntimeWarning for +inf
    "induced_volatility-nan": lambda: induced_volatility(_with(NORMAL, math.nan), 21),
    "induced_volatility-inf": lambda: induced_volatility(_with(NORMAL, math.inf), 21),
    "scaling_exponent-nan": lambda: scaling_exponent(_with(R_SIGMA, math.nan)),
    "scaling_exponent-inf": lambda: scaling_exponent(_with(R_SIGMA, math.inf)),
    "leverage-nan": lambda: leverage(_with(NORMAL, math.nan), 3),
    "leverage-inf": lambda: leverage(_with(NORMAL, math.inf), 3),
    "autocorrelation-nan": lambda: autocorrelation(_with(NORMAL, math.nan), [1, 2]),
    "autocorrelation-inf": lambda: autocorrelation(_with(NORMAL, math.inf), [1, 2]),
    "integrated_logvol_decompose-inf":
        lambda: integrated_logvol_decompose(_with(np.ones(200), math.inf)),
    # a lag that is not an integer was truncated, or escaped as a raw
    # ValueError or OverflowError
    "autocorrelation-lags-1.5": lambda: autocorrelation(NORMAL, [1.5, 2.7]),
    "autocorrelation-lags-nan": lambda: autocorrelation(NORMAL, [1, math.nan]),
    "autocorrelation-lags-2**70": lambda: autocorrelation(NORMAL, [1, 2**70]),
    "scaling_exponent-lags-1.5":
        lambda: scaling_exponent(R_SIGMA, [1.5, 2.5, 4.5, 8.5, 16.5]),
    "scaling_exponent-lags-inf": lambda: scaling_exponent(R_SIGMA, [1, 2, 4, 8, math.inf]),
    "estimate_report-scaling_lags-1.5":
        lambda: estimate_report(PRICES, scaling_lags=[1.5, 2.5, 4.5, 8.5]),
    "ExperimentConfig-scaling_lags-1.5":
        lambda: ExperimentConfig(scaling_lags=(1.5, 2.5, 4.5, 8.5)),
    "ExperimentConfig-scaling_lags-nan": lambda: ExperimentConfig(scaling_lags=(1, math.nan)),
    "OptionInputs-spot-None": lambda: OptionInputs(None, 1.0, 0.0, 0.1, 1.0),
    "VolDispersion-alpha-None": lambda: VolDispersion(None),
    "from_model-horizon-str": lambda: VolDispersion.from_model(MODEL, horizon="5"),
    "mean_variance_fit-tau-None": lambda: mean_variance_fit(MODEL, None),
    "monte_carlo_price-n_paths-1": lambda: monte_carlo_price(OPT, MODEL, n_paths=1),
    "monte_carlo_price-n_paths-2.5": lambda: monte_carlo_price(OPT, MODEL, n_paths=2.5),
    "m_function-alpha-None": lambda: m_function(None, 0.5, 0.3),
    # a non-finite moneyness named the strike spot/moneyness
    "smile_surface-moneyness-nan":
        lambda: smile_surface(MODEL, 0.01, moneyness=np.array([np.nan, 1.0])),
    "smile_surface-moneyness-inf":
        lambda: smile_surface(MODEL, 0.01, moneyness=np.array([np.inf, 1.0])),
    "ReturnDistParams-beta-None": lambda: ReturnDistParams(beta=None),
    "ReturnDistParams-mu-None": lambda: ReturnDistParams(mu=None),
    "ReturnDistParams-k-str": lambda: ReturnDistParams(k="0.5"),
    "sample_returns-n-2.5": lambda: sample_returns(RDP, 2.5),
    "strategy_decode-3.7": lambda: strategy_decode(3.7),
    "from_counts-count-2.5": lambda: Population.from_counts([(72, 2.5)]),
    "ExperimentConfig-n_steps-2.5": lambda: ExperimentConfig(n_steps=2.5),
    "ExperimentConfig-window-21.5": lambda: ExperimentConfig(window=21.5),
    "ExperimentConfig-window-4": lambda: ExperimentConfig(window=4),
    "EvolutionParams-period-2.5": lambda: EvolutionParams(period=2.5),
    "EvolutionParams-copiers-None": lambda: EvolutionParams(copiers=None),
    "ImpactParams-lambda0-None": lambda: ImpactParams(lambda0=None),
    "MarketEnv-noise_sigma-str": lambda: MarketEnv(noise_sigma="0.1"),
    "LobParams-order_size-None": lambda: LobParams(order_size=None),
    # k^2 delta^(2H-2) past the float range; a raw OverflowError before
    "ModelParams-logvol-variance":
        lambda: ModelParams(delta=1e-310, hurst=0.001),
    "ReturnDistParams-logvol-variance":
        lambda: ReturnDistParams(delta=1e-310, hurst=0.001),
    "simulate_path-logvol-variance":
        lambda: simulate_path(ModelParams(delta=1e-310, hurst=0.001), 10, 1e-310),
    "from_model-logvol-variance":
        lambda: VolDispersion.from_model(ModelParams(delta=1e-310, hurst=0.001)),
    "mean_variance_fit-logvol-variance":
        lambda: mean_variance_fit(ModelParams(delta=1e-200, hurst=0.001), 1e-200),
    "pdf-logvol-variance": lambda: pdf(0.0, ReturnDistParams(delta=1e-310, hurst=0.001)),
    "ModelParams-k-squared-overflow": lambda: ModelParams(k=1e200),
    "ReturnDistParams-k-squared-overflow": lambda: ReturnDistParams(k=1e200),
    # a parameter object that was never validated gave garbage, not an error
    "calibrated_kprime-k-nan": lambda: calibrated_kprime(ModelParams(k=math.nan), 1.0),
    "calibrated_kprime-hurst-5": lambda: calibrated_kprime(ModelParams(hurst=5.0), 1.0),
    "central_return-mu-nan": lambda: central_return(ReturnDistParams(mu=math.nan)),
    "tail_lambda-lag-negative": lambda: tail_lambda(0.1, ReturnDistParams(lag=-1.0)),
    "return_for_lambda-lag-negative":
        lambda: return_for_lambda(10.0, ReturnDistParams(lag=-1.0)),
    # the square root of a negative lambda gave NaN and a RuntimeWarning
    "return_for_lambda-lam-negative": lambda: return_for_lambda(-1.0, RDP),
    "MarketPath-list-prices-negative": lambda: MarketPath(
        times=[0.0, 1.0], prices=[1, -1], logvol=[0.0, 0.0], seed=0).validate(),
    "calibrated_kprime-dt-nan": lambda: calibrated_kprime(MODEL, math.nan),
    # a seed that is not an integer, or that wraps onto another seed's key
    "substream-seed-1.5": lambda: substream(1.5),
    "substream-seed-nan": lambda: substream(math.nan),
    "substream-seed-2**64": lambda: substream(2**64),
    "substream-seed-below-int64": lambda: substream(-2**63 - 1),
    "generate_fgn-seed-2**64": lambda: generate_fgn(8, 0.7, seed=2**64),
    "simulate_path-seed-1.5": lambda: simulate_path(MODEL, 8, 1.0, seed=1.5),
    "LobParams-seed-1.5": lambda: LobParams(seed=1.5),
    "ExperimentConfig-seed-1.5": lambda: ExperimentConfig(seed=1.5),
    # market and population fields that failed only in run_experiment
    "ExperimentConfig-noise_sigma-negative": lambda: ExperimentConfig(noise_sigma=-1.0),
    "ExperimentConfig-value_walk_sigma-nan":
        lambda: ExperimentConfig(value_walk_sigma=math.nan),
    "ExperimentConfig-f_choice-bogus": lambda: ExperimentConfig(f_choice="bogus"),
    "ExperimentConfig-beta_f-negative": lambda: ExperimentConfig(beta_f=-1.0),
    "ExperimentConfig-population-code-99": lambda: ExperimentConfig(population=((99, 1),)),
    "ExperimentConfig-population-count-0": lambda: ExperimentConfig(population=((72, 0),)),
    "ExperimentConfig-population-empty": lambda: ExperimentConfig(population=()),
    "smile_surface-taus-nan":
        lambda: smile_surface(MODEL, 0.01, taus=np.array([5.0, math.nan])),
    "smile_surface-moneyness-2d":
        lambda: smile_surface(MODEL, 0.01, moneyness=np.ones((2, 3))),
    "smile_surface-taus-empty": lambda: smile_surface(MODEL, 0.01, taus=[]),
    # a non-number in a hand-written range raised a raw TypeError
    "ImpactParams-alpha_exponent-str": lambda: ImpactParams(alpha_exponent="0.5"),
    "EvolutionParams-mutation_prob-str": lambda: EvolutionParams(mutation_prob="0.1"),
    "LobParams-event_probs-str": lambda: LobParams(event_probs=("0.25",) * 4),
    "LobParams-event_probs-None": lambda: LobParams(event_probs=None),
    "Strategy-entries-None": lambda: Strategy(entries=None),
    # a wrong type was accepted when built: a truthy string turned random
    # selection on, and run_experiment failed with a raw AttributeError
    "EvolutionParams-random_selection-str": lambda: EvolutionParams(random_selection="no"),
    "ExperimentConfig-evolution-str": lambda: ExperimentConfig(evolution="x"),
    "ExperimentConfig-impact-None": lambda: ExperimentConfig(impact=None),
    "MarketEnv-impact-None": lambda: MarketEnv(impact=None),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_entry_point_rejects_bad_value(call):
    with pytest.raises(ParameterError):
        call()


def test_numpy_integer_counts_accepted():
    n = np.int64
    a = simulate_path(MODEL, n(64), 1.0, seed=2)
    b = simulate_path(MODEL, 64, 1.0, seed=2)
    np.testing.assert_array_equal(a.prices, b.prices)
    assert generate_fgn(n(32), 0.7).values.tolist() == generate_fgn(32, 0.7).values.tolist()
    assert strategy_decode(n(72)) == strategy_decode(72)


def test_finite_logvol_scale_still_accepted():
    # k = 0 ignores the scale, and a tiny k keeps k delta^(H-1) finite
    for params in (ModelParams(k=0.0, delta=1e-310, hurst=0.001),
                   ModelParams(k=1e-200, delta=1e-200, hurst=0.001)):
        path = simulate_path(params, 10, params.delta, seed=1)
        assert np.all(np.isfinite(path.prices))
    ReturnDistParams(k=0.0, delta=1e-310, hurst=0.001).validate()


def test_grid_ratio_overflow_is_a_grid_mismatch():
    with pytest.raises(GridMismatchError, match="delta=1e"):
        estimate_report(PRICES, dt=1e-300, delta=1e300)


def test_m_function_with_underflowing_root_uses_the_plain_rule():
    # b/a underflows to 0, so u* = log(-b/a)/2 lies far below the window;
    # there c ~ a e^u and M(alpha, a, b) ~ 1/a, whatever the sign of b
    value = m_function(0.3, 1e200, -1e-200)
    assert value == m_function(0.3, 1e200, 1e-200)
    assert value == pytest.approx(1e-200, rel=1e-12)


def test_price_below_float_range_is_a_generation_error():
    cfg = ExperimentConfig(population=((0, 100),), n_steps=100, unit_investment=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero on the way
        with pytest.raises(GenerationError,
                           match=r"log price -1e\+149 at step 1 \(seed 0\)"):
            run_experiment(cfg)


def test_seeds_in_range_map_as_before():
    # the key word is the seed mod 2**64, so -1 and 2**64 - 1 share a stream
    assert substream(-1).random() == substream(2**64 - 1).random()
    assert substream(np.uint64(2**64 - 1)).random() == substream(2**64 - 1).random()
    assert substream(np.int64(-2**63)).random() == substream(2**63).random()
    with pytest.raises(ParameterError, match=r"^seed must be an integer in "
                                             r"\[-9223372036854775808, 18446744073709551615\], "
                                             r"got 1\.5$"):
        LobParams(seed=1.5)


def test_nan_tau_is_named_as_a_float():
    with pytest.raises(ParameterError, match=r"^taus must be positive and finite, got nan$"):
        smile_surface(MODEL, 0.01, taus=np.array([5.0, math.nan]))


@pytest.mark.parametrize("call, name", [
    (lambda: path_ensemble(MODEL, 10**20, 1.0), "n_paths * (n_steps + 1)"),
    (lambda: simulate_path(MODEL, 2**58, 1.0), "n_paths * (n_steps + 1)"),
    (lambda: path_ensemble(MODEL, 4096, 1.0, n_paths=10**20), "n_paths * (n_steps + 1)"),
    (lambda: path_ensemble(MODEL, 2**29, 1.0, n_paths=2**29), "n_paths * (n_steps + 1)"),
    (lambda: path_ensemble(MODEL, np.int64(10), 1e20), "n_paths * (n_steps * dt/delta + 1)"),
    # 10**12 + 1 fine cells fit one row; the whole ensemble is checked, not a block
    (lambda: path_ensemble(MODEL, 1, 1e12, n_paths=10**6), "n_paths * (n_steps * dt/delta + 1)"),
    (lambda: generate_fgn(10**20, 0.7), "n"),
    (lambda: simulate_identified(MODEL, 10**20, 1.0), "history + n_steps"),
    (lambda: identified_return_ensemble(MODEL, 10, 1.0, n_paths=10**20),
     "n_paths * (history + n_steps)"),
    (lambda: LobParams(steps=10**20), "steps"),
    (lambda: ExperimentConfig(n_steps=10**20), "n_steps"),
], ids=["path_ensemble-n_steps", "simulate_path-n_steps", "path_ensemble-n_paths",
        "path_ensemble-product", "path_ensemble-fine-grid", "path_ensemble-fine-grid-paths",
        "generate_fgn-n", "simulate_identified-n_steps", "identified_return_ensemble-product",
        "LobParams-steps", "ExperimentConfig-n_steps"])
def test_count_past_the_array_size_limit_names_it(call, name):
    # numpy raised a raw ValueError ("Maximum allowed size exceeded"), a numpy
    # integer n_steps a raw OverflowError, and run_lob would have recorded
    # steps until memory ran out
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} must be at most "):
        call()


def test_max_cells_is_where_numpy_refuses_the_fgn_spectrum():
    within_cells(n=MAX_CELLS, m=np.int64(1))
    with pytest.raises(ParameterError, match=rf"^n must be at most {MAX_CELLS}, the cells "
                                             rf"an array may hold, got {MAX_CELLS + 1}$"):
        within_cells(n=MAX_CELLS + 1)
    with pytest.raises(ValueError):  # numpy refuses the fGn spectrum one cell past it
        np.empty((1, 2 * (MAX_CELLS + 1)), complex)
