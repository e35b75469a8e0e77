"""Strategy-agent market with nonlinear price impact.

A population of agents watches two public signals: the gap between a
perceived value and the log price (mispricing) and the last log-price move
(trend). Each agent holds a four-entry rule assigning buy/hold/sell to the
four sign patterns of those signals. Orders are cash amounts; the aggregate
flow moves the log price through a saturating impact function, and trades
settle at the post-impact price. Optionally the worst performers copy (and
sometimes mutate) the strategies of the best at fixed intervals.

`run_experiment` wires a full run into the volatility-estimation pipeline so
the emergent series can be compared against the fractional-volatility model
on the same statistics; `read_config` reads its ExperimentConfig from a
key = value file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .errors import (Checked, GenerationError, ParameterError, finite, holds, integer,
                     nonnegative, one_of, positive, within_cells)
from .estimation import (WINDOW, EstimationReport, estimate_report, integer_lags,
                         pipeline_logvol)
from .rng import _ABM_STREAM, SEEDS, substream
from .simulate import MarketPath

STEP_F = "step"
LOGISTIC_F = "logistic"

_CODE_WEIGHTS = np.array([27, 9, 3, 1])
_BLOCK = 4096  # most steps per kernel call, so a run's draws stay O(block)


@dataclass(frozen=True)
class Strategy(Checked):
    """Investment rule: one position per (mispricing, trend) sign pattern.

    entries[0] applies when both signals fire, entries[1] when only the
    mispricing signal fires, entries[2] when only the trend signal fires and
    entries[3] when neither does. Each entry is -1 (sell), 0 (stay out) or
    +1 (buy).
    """

    entries: tuple[int, int, int, int]

    def validate(self) -> None:
        holds(self.entries, lambda s: len(s) == 4 and all(e in (-1, 0, 1) for e in s),
              "strategy entries must be four values in {-1,0,1}")


def strategy_code(strategy: Strategy) -> int:
    """Base-3 label in [0, 80], most significant digit first."""
    return int(sum(w * (e + 1) for w, e in zip(_CODE_WEIGHTS, strategy.entries)))


def strategy_decode(code: int) -> Strategy:
    """Inverse of strategy_code."""
    integer(0, 80, code=code)
    c = int(code)
    digits = []
    for w in _CODE_WEIGHTS:
        digits.append(c // int(w) - 1)
        c %= int(w)
    return Strategy(tuple(digits))


# Buys when underpriced regardless of trend; sells when overpriced.
FUNDAMENTAL = Strategy((1, 1, -1, -1))
# Buys when rising regardless of value; sells when falling.
TREND_FOLLOWING = Strategy((1, -1, 1, -1))

FUNDAMENTAL_CODE = strategy_code(FUNDAMENTAL)  # 72
TREND_FOLLOWING_CODE = strategy_code(TREND_FOLLOWING)  # 60


@dataclass(frozen=True)
class ImpactParams(Checked):
    """Aggregate-flow price impact omega / (lambda0 + lambda1 |omega|^a).

    Linear in the flow while |omega| << (lambda0/lambda1)^(1/a), saturating
    to a power law above it. Larger lambda0 means a deeper market.
    """

    lambda0: float = 9000.0
    lambda1: float = 100.0
    alpha_exponent: float = 0.5

    def validate(self) -> None:
        positive(lambda0=self.lambda0)
        nonnegative(lambda1=self.lambda1)
        holds(self.alpha_exponent, lambda a: 0.0 < a <= 1.0, "alpha_exponent must lie in (0, 1]")


@dataclass
class MarketEnv(Checked):
    """Mutable market state plus the knobs that drive it.

    z is the current log price, z_prev the previous one (their difference is
    the trend signal) and xi the log perceived value. Each step adds
    Gaussian noise of scale noise_sigma to the log price and lets xi walk
    with scale value_walk_sigma (zero freezes the perceived value).
    """

    z: float = 0.0
    z_prev: float = 0.0
    xi: float = 0.0
    impact: ImpactParams = field(default_factory=ImpactParams)
    noise_sigma: float = 0.02
    value_walk_sigma: float = 0.01
    f_choice: str = STEP_F
    beta_f: float = 25.0

    def validate(self) -> None:
        finite(z=self.z, z_prev=self.z_prev, xi=self.xi)
        holds(self.impact, lambda i: isinstance(i, ImpactParams),
              "impact must be an ImpactParams")
        nonnegative(noise_sigma=self.noise_sigma, value_walk_sigma=self.value_walk_sigma)
        one_of("f_choice", self.f_choice, (STEP_F, LOGISTIC_F))
        positive(beta_f=self.beta_f)


@dataclass(frozen=True)
class EvolutionParams(Checked):
    """Every `period` steps the `copiers` worst performers adopt strategies
    drawn uniformly from the `copiers` best, each adoption mutating one
    uniformly chosen component to a uniform {-1,0,1} value with probability
    mutation_prob.

    random_selection swaps "worst" for a uniformly random set of agents;
    the copy source stays the best performers either way.
    """

    period: int = 50
    copiers: int = 10
    mutation_prob: float = 0.1
    random_selection: bool = False

    def validate(self) -> None:
        integer(1, period=self.period, copiers=self.copiers)
        one_of("random_selection", self.random_selection, (False, True))
        holds(self.mutation_prob, lambda q: 0.0 <= q <= 1.0, "mutation_prob must lie in [0, 1]")


def _signal_weight(x: float, f_choice: str, beta_f: float) -> float:
    if f_choice == STEP_F:
        return 1.0 if x >= 0.0 else 0.0  # tie goes to the up branch
    if f_choice == LOGISTIC_F:
        try:  # equals scipy.special.expit bit for bit, overflow included
            return 1.0 / (1.0 + math.exp(-beta_f * x))
        except OverflowError:
            return 0.0
    raise ParameterError(f"unknown f_choice {f_choice!r}")


def info_vector(misprice: float, trend: float, f_choice: str = STEP_F,
                beta_f: float = MarketEnv.beta_f) -> np.ndarray:
    """Weights of the four signal patterns; always sums to 1.

    With the step choice the vector is one-hot; the logistic choice blends
    the branches smoothly and approaches the step output as beta_f grows.
    """
    finite(misprice=misprice, trend=trend)
    return _info(misprice, trend, f_choice, beta_f)


def _info(misprice: float, trend: float, f_choice: str, beta_f: float) -> np.ndarray:
    fm = _signal_weight(misprice, f_choice, beta_f)
    ft = _signal_weight(trend, f_choice, beta_f)
    return np.array([fm * ft, fm * (1.0 - ft), (1.0 - fm) * ft,
                     (1.0 - fm) * (1.0 - ft)])


def _impact(omega: float, lambda0: float, lambda1: float, a: float) -> float:
    if omega == 0.0:
        return 0.0
    return omega / (lambda0 + lambda1 * abs(omega) ** a)


def market_impact(omega: float, impact: ImpactParams) -> float:
    """Log-price move caused by net order flow omega."""
    finite(omega=omega)
    return _impact(omega, impact.lambda0, impact.lambda1, impact.alpha_exponent)


class Population:
    """Agents stored as parallel arrays, one row per agent."""

    def __init__(self, strategies, cash, stock, wealth0):
        self.strategies = np.array(strategies, dtype=np.int8).reshape(-1, 4)
        if self.strategies.size and not np.isin(self.strategies, (-1, 0, 1)).all():
            raise ParameterError("strategy entries must be in {-1,0,1}")
        n = len(self.strategies)
        self.cash = np.array(cash, dtype=float).reshape(n)
        self.stock = np.array(stock, dtype=float).reshape(n)
        self.wealth0 = np.array(wealth0, dtype=float).reshape(n)

    @classmethod
    def from_counts(cls, mix: Iterable[tuple[int, int]], price0: float = 1.0,
                    cash0: float = 0.0, stock0: float = 0.0) -> "Population":
        """Build a population from (strategy_code, count) pairs."""
        rows = []
        for code, count in mix:
            integer(1, count=count)
            rows.extend([strategy_decode(code).entries] * int(count))
        if not rows:
            raise ParameterError("population must not be empty")
        n = len(rows)
        w0 = cash0 + price0 * stock0
        return cls(rows, np.full(n, float(cash0)), np.full(n, float(stock0)),
                   np.full(n, w0))

    def __len__(self) -> int:
        return len(self.strategies)

    def strategy_codes(self) -> np.ndarray:
        return (self.strategies.astype(np.int64) + 1) @ _CODE_WEIGHTS

    def payoffs(self, price: float) -> np.ndarray:
        return self.cash + price * self.stock - self.wealth0


def _advance(env: MarketEnv, agents: Population, rng: np.random.Generator,
             unit_investment: float, m: int) -> list[float]:
    """Run up to m ticks of `step`; return their log prices, fewer only when
    the next price left the float range (env.z then holds its log, and none
    of its trades settled). One normal block replays the two scalar draws
    per tick; under the step rule every tick orders one of the rows
    u * S[:, k], whose totals and impacts are computed once."""
    draws = rng.standard_normal(2 * m)
    with np.errstate(over="ignore"):  # the overflow is what is checked
        noise = 0.0 + env.noise_sigma * draws[0::2]  # = normal(0, sigma)
        walk = 0.0 + env.value_walk_sigma * draws[1::2]
    for name, scaled in (("noise_sigma", noise), ("value_walk_sigma", walk)):
        if not np.isfinite(scaled).all():
            raise ParameterError(f"{name}={getattr(env, name)!r} scales a normal draw "
                                 f"past the float range; lower {name}")
    noise, walk = noise.tolist(), walk.tolist()
    lam = (env.impact.lambda0, env.impact.lambda1, env.impact.alpha_exponent)
    s, cash, stock, buf = agents.strategies, agents.cash, agents.stock, np.empty(len(agents))
    rows = unit_investment * np.ascontiguousarray(s.T, dtype=float)
    one_hot = env.f_choice == STEP_F
    z, z_prev, xi, zs = env.z, env.z_prev, env.xi, []
    with np.errstate(over="ignore", invalid="ignore"):  # the books are checked below
        moves = [_impact(float(row.sum()), *lam) for row in rows]
        for eta, dxi in zip(noise, walk):
            if one_hot:
                k = (0 if xi - z >= 0.0 else 2) + (0 if z - z_prev >= 0.0 else 1)
                orders, move = rows[k], moves[k]
            else:
                orders = unit_investment * (s @ _info(xi - z, z - z_prev, env.f_choice,
                                                      env.beta_f))
                move = _impact(float(orders.sum()), *lam)
            z_prev, z = z, z + move + eta
            xi += dxi
            try:
                price = math.exp(z)
            except OverflowError:
                break
            if price == 0.0:
                break
            cash -= orders
            stock += np.divide(orders, price, out=buf)
            zs.append(z)
    env.z, env.z_prev, env.xi = z, z_prev, xi
    if not (np.isfinite(cash).all() and np.isfinite(stock).all()):
        raise ParameterError(
            f"orders of unit_investment={unit_investment!r} by log price {z!r} put the "
            "agents' cash or stock past the float range; raise price0 or lower "
            "unit_investment")
    return zs


def step(env: MarketEnv, agents: Population, rng: np.random.Generator,
         unit_investment: float = 1.0) -> tuple[MarketEnv, Population]:
    """Advance the market one tick in place: the run kernel over one tick.

    Orders are cash amounts unit_investment * (strategy . info_vector); their
    net flow moves the log price through market_impact plus noise, then the
    perceived value walks, and trades settle at the new price (cash falls by
    the order, stock rises by order/price). A price past the float range
    raises OverflowError before any trade settles.
    """
    env.validate()  # a MarketEnv is mutable: it may have changed since it was built
    if not _advance(env, agents, rng, unit_investment, 1):
        raise OverflowError(f"log price {env.z!r} is past the float range")
    return env, agents


def evolve(agents: Population, evo: EvolutionParams, rng: np.random.Generator,
           price: float) -> Population:
    """Copy-the-best tournament, mutating the population in place.

    Payoffs are marked to `price`; ties rank by agent index. The replaced
    set (the worst copiers, or a uniformly random set when
    evo.random_selection) each draw a source uniformly from the best
    copiers' pre-update strategies.
    """
    n = len(agents)
    if evo.copiers > n:
        raise ParameterError(
            f"copiers={evo.copiers} exceeds population size {n}"
        )
    order = np.argsort(agents.payoffs(price), kind="stable")
    best_rows = agents.strategies[order[n - evo.copiers:]].copy()
    if evo.random_selection:
        replaced = rng.choice(n, size=evo.copiers, replace=False)
    else:
        replaced = order[:evo.copiers]
    for idx in replaced:
        row = best_rows[int(rng.integers(evo.copiers))].copy()
        if rng.random() < evo.mutation_prob:
            row[int(rng.integers(4))] = int(rng.integers(-1, 2))
        agents.strategies[idx] = row
    return agents


@dataclass(frozen=True)
class ExperimentConfig(Checked):
    """A complete market run: population mix, market knobs, optional
    evolution, and the estimation-window settings for the report."""

    population: tuple[tuple[int, int], ...] = ((FUNDAMENTAL_CODE, 50),
                                               (TREND_FOLLOWING_CODE, 50))
    n_steps: int = 10_000
    seed: int = 0
    unit_investment: float = 1.0
    impact: ImpactParams = field(default_factory=ImpactParams)
    noise_sigma: float = MarketEnv.noise_sigma
    value_walk_sigma: float = MarketEnv.value_walk_sigma
    f_choice: str = MarketEnv.f_choice
    beta_f: float = MarketEnv.beta_f
    evolution: EvolutionParams | None = None
    price0: float = 1.0
    cash0: float = 0.0
    stock0: float = 0.0
    window: int = WINDOW
    scaling_lags: tuple[int, ...] | None = None

    def validate(self) -> None:
        integer(1, n_steps=self.n_steps)
        integer(*SEEDS, seed=self.seed)
        within_cells(n_steps=self.n_steps)
        integer(8, window=self.window)
        if self.scaling_lags is not None:
            integer_lags(self.scaling_lags, "scaling_lags")
        positive(unit_investment=self.unit_investment, price0=self.price0)
        finite(cash0=self.cash0, stock0=self.stock0)
        holds(self.evolution, lambda e: e is None or isinstance(e, EvolutionParams),
              "evolution must be an EvolutionParams or None")
        # built to be checked: run_experiment builds both from these fields
        MarketEnv(impact=self.impact, noise_sigma=self.noise_sigma,
                  value_walk_sigma=self.value_walk_sigma, f_choice=self.f_choice,
                  beta_f=self.beta_f)
        # a one-shot iterable would be consumed here, before run_experiment reads it
        holds(self.population, lambda mix: isinstance(mix, (tuple, list))
              and all(len(entry) == 2 for entry in mix),
              "population must be a tuple or list of (strategy code, count) pairs")
        Population.from_counts(self.population)


# read_config's key -> (section, field name, default), for the fields whose
# default is a value rather than None or a factory
_CONFIG_CLASSES = {"": ExperimentConfig, "impact": ImpactParams, "evolution": EvolutionParams}
_CONFIG_KEYS = {f"{section}.{f.name}".lstrip("."): (section, f.name, f.default)
                for section, cls in _CONFIG_CLASSES.items() for f in fields(cls)
                if type(f.default) in (tuple, bool, int, float, str)}
_CONFIG_KEYS["steps"] = _CONFIG_KEYS.pop("n_steps")


def _config_value(key: str, default, text: str):
    """text read as the type of the field default it replaces, population as
    code:count pairs; a malformed value is a ParameterError naming key."""
    kind = type(default)
    if kind is tuple:  # population
        mix = []
        for part in text.split(","):
            code, sep, count = part.strip().partition(":")
            if not sep:
                raise ParameterError(
                    f"population entries are code:count, got {part.strip()!r}")
            mix.append((_config_value(key, 0, code), _config_value(key, 0, count)))
        return tuple(mix)
    if kind is bool:
        if text.lower() in ("true", "1", "yes", "false", "0", "no"):
            return text.lower() in ("true", "1", "yes")
        raise ParameterError(f"{key} must be a boolean, got {text!r}")
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(
            f"{key} must be {'an integer' if kind is int else 'a number'}, "
            f"got {text!r}") from None


def read_config(file_path: str | None, overrides: dict) -> ExperimentConfig:
    """The ExperimentConfig of a key = value file (none when file_path is
    None or empty), then of overrides, a {field name: value} dict.

    The keys are the fields of ExperimentConfig, with steps for n_steps, and
    impact.* / evolution.* for the fields of ImpactParams / EvolutionParams:

        population  steps  seed  unit_investment  noise_sigma  value_walk_sigma
        f_choice  beta_f  price0  cash0  stock0  window
        impact.lambda0  impact.lambda1  impact.alpha_exponent
        evolution.period  evolution.copiers  evolution.mutation_prob
        evolution.random_selection

    A value is read as the type of the field's default (a boolean as
    true/false, yes/no or 1/0), and population as strategy code : agent
    count pairs such as "72:30, 60:30". Any evolution.* key enables the
    tournament. Blank lines and lines starting with # are ignored; a line
    without "=", an unknown key or a malformed value is a ParameterError.
    """
    pairs = {}
    if file_path:
        with open(file_path, "r") as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ParameterError(
                        f"{file_path} line {lineno}: expected key = value, got {text!r}")
                key, _, value = text.partition("=")
                pairs[key.strip()] = value.strip()
    groups = {section: {} for section in _CONFIG_CLASSES}
    for key, text in pairs.items():
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"unknown config key {key!r}")
        section, name, default = _CONFIG_KEYS[key]
        groups[section][name] = _config_value(key, default, text)
    values = groups.pop("")
    values.update({section: _CONFIG_CLASSES[section](**given)
                   for section, given in groups.items() if given})
    return ExperimentConfig(**{**values, **overrides})


@dataclass(frozen=True)
class ExperimentResult:
    path: MarketPath
    report: EstimationReport
    final_codes: np.ndarray
    payoffs: np.ndarray


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the market and push the price series through estimation.

    Evolution, when enabled, fires after every `period`-th step using the
    post-step price. Replaying the same config and seed is bit-identical.
    """
    rng = substream(config.seed, _ABM_STREAM)
    z0 = math.log(config.price0)
    env = MarketEnv(z=z0, z_prev=z0, xi=z0, impact=config.impact,
                    noise_sigma=config.noise_sigma,
                    value_walk_sigma=config.value_walk_sigma,
                    f_choice=config.f_choice, beta_f=config.beta_f)
    agents = Population.from_counts(config.population, price0=config.price0,
                                    cash0=config.cash0, stock0=config.stock0)
    evo = config.evolution
    z = np.empty(config.n_steps + 1)
    z[0] = z0
    j = 0  # ticks done; each kernel call runs to the next evolution or block end
    while j < config.n_steps:
        m = min(config.n_steps - j, _BLOCK, evo.period - j % evo.period if evo else _BLOCK)
        zs = _advance(env, agents, rng, config.unit_investment, m)
        z[j + 1:j + 1 + len(zs)] = zs
        j += len(zs)
        if len(zs) < m:
            raise GenerationError(
                f"log price {env.z!r} at step {j + 1} (seed {config.seed}) is past the "
                "float range; lower unit_investment for this configuration")
        if evo is not None and j % evo.period == 0:
            evolve(agents, evo, rng, math.exp(env.z))
    prices = np.exp(z)
    report = estimate_report(prices, window=config.window,
                             scaling_lags=config.scaling_lags)
    path = MarketPath(times=np.arange(config.n_steps + 1, dtype=float),
                      prices=prices,
                      logvol=pipeline_logvol(report.induced_vol, len(prices),
                                             config.window),
                      seed=config.seed)
    path.validate()
    return ExperimentResult(path=path, report=report,
                            final_codes=agents.strategy_codes(),
                            payoffs=agents.payoffs(float(prices[-1])))
