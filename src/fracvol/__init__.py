"""Fractional-noise stochastic volatility toolkit.

Simulation of a long-memory stochastic-volatility price model, estimation
of its parameters from price series, semi-analytic return distributions,
option pricing under dispersed volatility, and two market microstructure
generators (an agent game and a random limit-order book) that produce the
same stylized facts. Only the error classes load with the package; every
other name and submodule is imported on first access (PEP 562).
"""
from importlib import import_module

from .errors import (FracvolError, GenerationError, GridMismatchError,
                     IngestionError, InsufficientDataError, NoSolutionError,
                     OutOfRegimeError, ParameterError)

# public name -> defining submodule; this table is the export list
_SOURCE = {name: module for module, names in {
    "agents": "EvolutionParams ExperimentConfig ExperimentResult ImpactParams "
              "MarketEnv Population Strategy evolve info_vector market_impact "
              "run_experiment step strategy_code strategy_decode",
    "errors": "FracvolError GenerationError GridMismatchError IngestionError "
              "InsufficientDataError NoSolutionError OutOfRegimeError ParameterError",
    "estimation": "EstimationReport autocorrelation estimate_report induced_volatility "
                  "integrated_logvol_decompose leverage scaling_exponent",
    "fgn": "FbmSeries FgnSeries fbm_from_fgn fgn_autocovariance generate_fgn",
    "io": "ingest_prices",
    "lob": "LobParams run_lob",
    "pricing": "OptionInputs SmileSurface VolDispersion black_scholes implied_vol "
               "m_function monte_carlo_price price smile_surface",
    "returns": "ReturnDistParams cdf pdf sample_returns tail_asymptotic",
    "simulate": "MarketPath ModelParams path_ensemble simulate_identified "
                "simulate_path",
}.items() for name in names.split()}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in {*_SOURCE.values(), "rng"}:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return list(__all__)
