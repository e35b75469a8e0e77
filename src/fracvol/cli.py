"""Command-line front end.

Commands: simulate, estimate, pdf, price, smile, abm, lob. Each writes a
single artifact (CSV or JSON, atomic temp + rename) to --out and prints a
one-line JSON run summary (command, seed, wall_time, output) to stdout.
Exit codes: 0 success, 1 domain error (bad parameters or data, reported as
one JSON line on stderr), 2 usage error. Artifacts are byte-identical
across runs with the same arguments. Each handler imports its own module:
only pdf, price and smile load scipy; the other commands need numpy only.

The abm command reads an optional key = value config file:

    population = 72:50, 60:50      strategy code : agent count pairs
    steps = 10000                  overridden by --steps
    seed = 0                       overridden by --seed
    unit_investment = 1.0
    noise_sigma = 0.02
    value_walk_sigma = 0.01
    f_choice = step                or logistic
    beta_f = 25.0
    impact.lambda0 = 9000.0
    impact.lambda1 = 100.0
    impact.alpha_exponent = 0.5
    evolution.period = 50          evolution.* enables the tournament
    evolution.copiers = 10
    evolution.mutation_prob = 0.1
    evolution.random_selection = false
    price0 = 1.0
    cash0 = 0.0
    stock0 = 0.0
    window = 21

Blank lines and lines starting with # are ignored; unknown keys are errors.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

import numpy as np

from .errors import FracvolError, GridMismatchError, InsufficientDataError, ParameterError
from .estimation import estimate_report
from .io import (atomic_write, csv_text, ensemble_csv, ingest_prices, json_text,
                 key_value_csv, market_path_csv, report_to_dict)

FORMATS = ("csv", "json")

_PDF_POINTS = 513
_PDF_SPAN_SDS = 8.0


def _path_payload(path) -> dict:
    return {"times": path.times, "prices": path.prices,
            "logvol": path.logvol, "seed": path.seed}


def _run_simulate(args: argparse.Namespace) -> None:
    from . import simulate
    params = simulate.ModelParams(mu=args.mu, beta=args.beta, k=args.k,
                                  delta=args.delta, hurst=args.hurst)
    # price grid at the volatility observation spacing
    dt = args.delta
    if args.paths == 1:
        path = simulate.simulate_path(params, args.steps, dt, seed=args.seed)
        text = (market_path_csv(path) if args.format == "csv"
                else json_text(_path_payload(path)))
    else:
        times, prices, logvol = simulate.path_ensemble(
            params, args.steps, dt, seed=args.seed, n_paths=args.paths)
        text = (ensemble_csv(times, prices) if args.format == "csv"
                else json_text({"times": times, "prices": prices,
                                "logvol": logvol, "seed": args.seed}))
    atomic_write(args.out, text)


def _run_estimate(args: argparse.Namespace) -> None:
    path = ingest_prices(args.input)
    if path.times.size < 2:
        raise InsufficientDataError("need at least 2 rows to estimate")
    diffs = np.diff(path.times)
    if not np.allclose(diffs, diffs[0], rtol=1e-9, atol=0.0):
        uneven = int(np.argmax(~np.isclose(diffs, diffs[0], rtol=1e-9, atol=0.0)))
        raise GridMismatchError(
            f"time grid must be uniform; step {uneven + 1} is "
            f"{diffs[uneven]!r} vs {diffs[0]!r}")
    dt = float(diffs[0])
    report = estimate_report(path.prices, dt=dt, delta=dt)
    payload = report_to_dict(report)
    text = (key_value_csv(payload) if args.format == "csv"
            else json_text(payload))
    atomic_write(args.out, text)


def _run_pdf(args: argparse.Namespace) -> None:
    from . import returns
    params = returns.ReturnDistParams(beta=args.beta, k=args.k, delta=args.delta,
                                      hurst=args.hurst, mu=args.mu, lag=args.tau)
    params.validate()
    center = returns.central_return(params)
    try:  # sd of the lognormal-mixture return at this horizon
        sd = params.theta * math.exp(params.sigma_logvol ** 2) * math.sqrt(params.lag)
    except OverflowError:
        sd = math.inf
    if not math.isfinite(abs(center) + _PDF_SPAN_SDS * sd):
        raise ParameterError(f"the return grid (sd {sd!r}) is past the float range; "
                             "lower k or beta")
    r = np.linspace(center - _PDF_SPAN_SDS * sd, center + _PDF_SPAN_SDS * sd,
                    _PDF_POINTS)
    pdf_vals = returns.pdf(r, params)
    cdf_vals = returns.cdf(r, params)
    text = (csv_text("r,pdf,cdf", r.tolist(), pdf_vals.tolist(), cdf_vals.tolist())
            if args.format == "csv"
            else json_text({"r": r, "pdf": pdf_vals, "cdf": cdf_vals}))
    atomic_write(args.out, text)


def _run_price(args: argparse.Namespace) -> None:
    from . import pricing
    opt = pricing.OptionInputs(spot=args.spot, strike=args.strike,
                               rate=args.rate, sigma_t=args.sigma, tau=args.tau)
    disp = pricing.VolDispersion(args.alpha_disp)
    value = pricing.price(opt, disp)
    payload = {
        "value": value,
        "black_scholes": pricing.black_scholes(opt),
        "implied_vol": pricing.implied_vol(value, opt),
        "alpha": disp.alpha,
        "spot": args.spot, "strike": args.strike, "rate": args.rate,
        "sigma": args.sigma, "tau": args.tau,
    }
    text = (key_value_csv(payload) if args.format == "csv"
            else json_text(payload))
    atomic_write(args.out, text)


def _run_smile(args: argparse.Namespace) -> None:
    from . import pricing, simulate
    model = simulate.ModelParams(mu=0.0, beta=args.beta, k=args.k,
                                 delta=args.delta, hurst=args.hurst)
    surf = pricing.smile_surface(model, sigma_t=args.sigma, spot=args.spot,
                                 rate=args.rate, alpha=args.alpha_disp)
    if args.format == "csv":
        n_m, n_tau = surf.price.shape
        text = csv_text("moneyness,tau,price,implied_vol,delta_vs_bs",
                        np.repeat(surf.moneyness, n_tau).tolist(),
                        np.tile(surf.taus, n_m).tolist(),
                        *(a.ravel().tolist() for a in
                          (surf.price, surf.implied_vol, surf.delta_vs_bs)))
    else:
        text = json_text({"moneyness": surf.moneyness, "taus": surf.taus,
                          "price": surf.price, "implied_vol": surf.implied_vol,
                          "delta_vs_bs": surf.delta_vs_bs})
    atomic_write(args.out, text)


def _parse_kv_file(file_path: str) -> dict:
    """key = value lines; # comments and blank lines skipped."""
    pairs = {}
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
    return pairs


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ParameterError(f"{key} must be a boolean, got {value!r}")


def _parse_number(kind, key: str, value: str):
    """kind(value) for kind int or float; a malformed value names its key."""
    try:
        return kind(value)
    except ValueError:
        raise ParameterError(
            f"{key} must be {'an integer' if kind is int else 'a number'}, "
            f"got {value!r}") from None


def _parse_population(value: str) -> tuple:
    mix = []
    for part in value.split(","):
        code, sep, count = part.strip().partition(":")
        if not sep:
            raise ParameterError(
                f"population entries are code:count, got {part.strip()!r}")
        mix.append((_parse_number(int, "population", code),
                    _parse_number(int, "population", count)))
    return tuple(mix)


_ABM_FLOAT_KEYS = ("unit_investment", "noise_sigma", "value_walk_sigma",
                   "beta_f", "price0", "cash0", "stock0")


def _experiment_config(kv: dict, steps: int | None, seed: int | None):
    """Merge a key-value config with CLI overrides into an ExperimentConfig."""
    from . import agents
    fields = {}
    impact = {}
    evolution = {}
    for key, value in kv.items():
        if key == "population":
            fields["population"] = _parse_population(value)
        elif key == "steps":
            fields["n_steps"] = _parse_number(int, key, value)
        elif key == "seed":
            fields["seed"] = _parse_number(int, key, value)
        elif key == "window":
            fields["window"] = _parse_number(int, key, value)
        elif key == "f_choice":
            fields["f_choice"] = value
        elif key in _ABM_FLOAT_KEYS:
            fields[key] = _parse_number(float, key, value)
        elif key.startswith("impact."):
            impact[key[len("impact."):]] = _parse_number(float, key, value)
        elif key.startswith("evolution."):
            sub = key[len("evolution."):]
            if sub == "random_selection":
                evolution[sub] = _parse_bool(value, key)
            elif sub == "mutation_prob":
                evolution[sub] = _parse_number(float, key, value)
            else:
                evolution[sub] = _parse_number(int, key, value)
        else:
            raise ParameterError(f"unknown config key {key!r}")
    try:
        if impact:
            fields["impact"] = agents.ImpactParams(**impact)
        if evolution:
            fields["evolution"] = agents.EvolutionParams(**evolution)
    except TypeError as err:
        raise ParameterError(f"bad config sub-key: {err}")
    if steps is not None:
        fields["n_steps"] = steps
    if seed is not None:
        fields["seed"] = seed
    return agents.ExperimentConfig(**fields)


def _run_abm(args: argparse.Namespace) -> None:
    from . import agents
    kv = _parse_kv_file(args.config) if args.config else {}
    ecfg = _experiment_config(kv, args.steps, args.seed)
    args.seed = ecfg.seed  # --seed, else the config file's, else 0
    result = agents.run_experiment(ecfg)
    report = report_to_dict(result.report)
    report["final_codes"] = result.final_codes
    if args.format == "json":
        atomic_write(args.out, json_text({"path": _path_payload(result.path),
                                          "report": report}))
        return
    # csv: price path at --out, report next to it
    atomic_write(args.out, market_path_csv(result.path))
    report_path = os.path.splitext(args.out)[0] + ".report.json"
    atomic_write(report_path, json_text(report))


def _run_lob(args: argparse.Namespace) -> None:
    from . import lob
    params = lob.LobParams(half_width=args.width, order_size=args.order_size,
                           steps=args.steps, seed=args.seed)
    trace = [] if args.book_trace else None
    path = lob.run_lob(params, trace)
    text = (market_path_csv(path) if args.format == "csv"
            else json_text(_path_payload(path)))
    atomic_write(args.out, text)
    if trace is not None:
        events, slots, prices = zip(*trace)  # steps >= 1, so never empty
        atomic_write(args.book_trace, csv_text(
            "step,event,slot,price", range(1, len(trace) + 1),
            [lob.EVENT_NAMES[e] for e in events], slots, prices))


_HANDLERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "pdf": _run_pdf,
    "price": _run_price,
    "smile": _run_smile,
    "abm": _run_abm,
    "lob": _run_lob,
}


def _add_common(parser, fmt_default: str, seed_default=0) -> None:
    parser.add_argument("--seed", type=int, default=seed_default,
                        help="random seed")
    parser.add_argument("--out", required=True, help="output artifact path")
    parser.add_argument("--format", choices=FORMATS, default=fmt_default,
                        help="artifact format")


def _add_model_flags(parser) -> None:
    parser.add_argument("--hurst", type=float, default=0.83,
                        help="memory exponent of the volatility driver")
    parser.add_argument("--k", type=float, default=0.59,
                        help="volatility coupling strength")
    parser.add_argument("--beta", type=float, default=-5.0,
                        help="mean log volatility")
    parser.add_argument("--delta", type=float, default=1.0,
                        help="volatility observation spacing")


class _Parser(argparse.ArgumentParser):
    """Reads '-1e-3', '-.5', '-inf' or '-nan' after a flag as its value (no
    fracvol option looks like a number); argparse's own pattern takes only
    '-12' and '-1.5'."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracvol",
        description="Simulation and analytics for a long-memory "
                    "stochastic-volatility market model.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command",
                                parser_class=_Parser)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("simulate", formatter_class=fmt,
                       help="simulate price paths; CSV t,price or wide ensemble")
    _add_common(p, "csv")
    _add_model_flags(p)
    p.add_argument("--mu", type=float, default=0.0, help="price drift")
    p.add_argument("--steps", type=int, default=4096, help="steps per path")
    p.add_argument("--paths", type=int, default=1, help="number of paths")

    p = sub.add_parser("estimate", formatter_class=fmt,
                       help="estimation report for an ingested t,price CSV")
    _add_common(p, "json")
    p.add_argument("input", help="price CSV with header t,price")

    p = sub.add_parser("pdf", formatter_class=fmt,
                       help="return density and cdf on a grid; CSV r,pdf,cdf")
    _add_common(p, "csv")
    _add_model_flags(p)
    p.add_argument("--mu", type=float, default=0.0, help="price drift")
    p.add_argument("--tau", type=float, default=1.0, help="return horizon")

    p = sub.add_parser("price", formatter_class=fmt,
                       help="European call under dispersed volatility")
    _add_common(p, "json")
    p.add_argument("--spot", type=float, default=1.0, help="spot price")
    p.add_argument("--strike", type=float, default=1.0, help="strike")
    p.add_argument("--rate", type=float, default=0.001, help="risk-free rate")
    p.add_argument("--sigma", type=float, default=0.01,
                   help="current volatility")
    p.add_argument("--tau", type=float, default=20.0, help="time to maturity")
    p.add_argument("--alpha-disp", type=float, default=0.0,
                   help="log-volatility dispersion; 0 recovers Black-Scholes")

    p = sub.add_parser("smile", formatter_class=fmt,
                       help="implied-vol surface over moneyness and maturity")
    _add_common(p, "csv")
    _add_model_flags(p)
    p.add_argument("--spot", type=float, default=1.0, help="spot price")
    p.add_argument("--rate", type=float, default=0.001, help="risk-free rate")
    p.add_argument("--sigma", type=float, default=0.01,
                   help="current volatility")
    p.add_argument("--alpha-disp", type=float, default=None,
                   help="log-volatility dispersion; default derives it "
                        "from the model flags")

    p = sub.add_parser("abm", formatter_class=fmt,
                       help="agent market run; price CSV plus estimation "
                            "report JSON (csv format writes the report to "
                            "<out-stem>.report.json)")
    _add_common(p, "csv", seed_default=None)
    p.add_argument("--steps", type=int, default=None,
                   help="market steps; overrides the config file")
    p.add_argument("--config", default=None,
                   help="key = value config file (see module docs)")

    p = sub.add_parser("lob", formatter_class=fmt,
                       help="limit-order-book market; price CSV")
    _add_common(p, "csv")
    p.add_argument("--width", type=int, default=10,
                   help="book half-width in price slots")
    p.add_argument("--order-size", type=float, default=2.0,
                   help="limit order size")
    p.add_argument("--steps", type=int, default=2 ** 17,
                   help="recorded arrivals")
    p.add_argument("--book-trace", default=None, metavar="FILE",
                   help="also write a per-step event log "
                        "(step,event,slot,price)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse argv, run one command and return the process exit code."""
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        _HANDLERS[args.command](args)
    except (FracvolError, OSError) as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
        return 1
    summary = {"command": args.command, "seed": args.seed,
               "wall_time": round(time.perf_counter() - start, 6),
               "output": args.out}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
