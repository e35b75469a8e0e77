"""Fractional-noise stochastic volatility toolkit.

Simulation of a long-memory stochastic-volatility price model, estimation
of its parameters from price series, semi-analytic return distributions,
option pricing under dispersed volatility, and two market microstructure
generators (an agent game and a random limit-order book) that produce the
same stylized facts.
"""
from .agents import (EvolutionParams, ExperimentConfig, ExperimentResult,
                     ImpactParams, MarketEnv, Population, Strategy, evolve,
                     info_vector, market_impact, run_experiment, step,
                     strategy_code, strategy_decode)
from .errors import (FracvolError, GenerationError, GridMismatchError,
                     IngestionError, InsufficientDataError, NoSolutionError,
                     OutOfRegimeError, ParameterError)
from .estimation import (EstimationReport, autocorrelation, estimate_report,
                         induced_volatility, integrated_logvol_decompose,
                         leverage, scaling_exponent)
from .fgn import (FbmSeries, FgnSeries, fbm_from_fgn, fgn_autocovariance,
                  generate_fgn)
from .io import ingest_prices
from .lob import BookState, LobParams, apply_event, lob_step, run_lob
from .pricing import (OptionInputs, SmileSurface, VolDispersion,
                      black_scholes, implied_vol, m_function,
                      monte_carlo_price, price, smile_surface)
from .returns import ReturnDistParams, cdf, pdf, sample_returns, tail_asymptotic
from .simulate import (MarketPath, ModelParams, path_ensemble,
                       simulate_identified, simulate_path)

__all__ = [
    "BookState", "EstimationReport", "EvolutionParams",
    "ExperimentConfig", "ExperimentResult", "FracvolError", "GenerationError",
    "GridMismatchError", "ImpactParams", "IngestionError",
    "InsufficientDataError", "LobParams", "MarketEnv", "MarketPath",
    "ModelParams", "NoSolutionError", "OptionInputs", "OutOfRegimeError",
    "ParameterError", "Population", "ReturnDistParams", "SmileSurface",
    "Strategy", "VolDispersion", "apply_event", "autocorrelation",
    "FbmSeries", "FgnSeries", "black_scholes", "cdf", "estimate_report",
    "evolve", "fbm_from_fgn", "fgn_autocovariance", "generate_fgn",
    "implied_vol", "induced_volatility", "info_vector", "ingest_prices",
    "integrated_logvol_decompose", "leverage", "lob_step", "m_function",
    "market_impact", "monte_carlo_price", "path_ensemble", "pdf", "price",
    "run_experiment", "run_lob", "sample_returns", "scaling_exponent",
    "simulate_identified", "simulate_path", "smile_surface", "step",
    "strategy_code", "strategy_decode", "tail_asymptotic",
]

__version__ = "0.1.0"
