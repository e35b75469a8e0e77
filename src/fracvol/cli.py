"""Command-line front end.

Commands: simulate, estimate, pdf, price, smile, abm, lob. Each writes a
single artifact (CSV or JSON, atomic temp + rename) to --out and prints a
one-line JSON run summary (command, seed, wall_time, output) to stdout.
Exit codes: 0 success, 1 domain error (bad parameters or data, reported as
one JSON line on stderr), 2 usage error. Artifacts are byte-identical
across runs with the same arguments. Each handler imports its own module:
only pdf, price and smile load scipy; the other commands need numpy only.

The abm command reads an optional key = value config file. Its keys are the
fields of agents.ExperimentConfig, with steps for n_steps, and impact.* /
evolution.* for the fields of ImpactParams / EvolutionParams:

    population  steps  seed  unit_investment  noise_sigma  value_walk_sigma
    f_choice  beta_f  price0  cash0  stock0  window
    impact.lambda0  impact.lambda1  impact.alpha_exponent
    evolution.period  evolution.copiers  evolution.mutation_prob
    evolution.random_selection

A value is read as the type of the field's default (a boolean as true/false,
yes/no or 1/0), and population as strategy code : agent count pairs such as
"72:30, 60:30". Any evolution.* key enables the tournament; --steps and
--seed override the file. Blank lines and lines starting with # are ignored;
unknown keys are errors. Likewise a flag that sets a parameter dataclass
field (--hurst, --tau, --width, ...) takes its default from that field.
"""
from __future__ import annotations

import argparse
import dataclasses
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
_OWNED = argparse.SUPPRESS  # no default here: the parameter dataclass owns it

_PDF_POINTS = 513
_PDF_SPAN_SDS = 8.0


def _given(args: argparse.Namespace, cls) -> dict:
    """The given flags that name a field of the dataclass cls."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if hasattr(args, f.name)}


def _path_payload(path) -> dict:
    return {"times": path.times, "prices": path.prices,
            "logvol": path.logvol, "seed": path.seed}


def _run_simulate(args: argparse.Namespace) -> None:
    from . import simulate
    params = simulate.ModelParams(**_given(args, simulate.ModelParams))
    dt = params.delta  # price grid at the volatility observation spacing
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
    params = returns.ReturnDistParams(**_given(args, returns.ReturnDistParams))
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
    model = simulate.ModelParams(**_given(args, simulate.ModelParams))
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


def _experiment_config(kv: dict, given: dict):
    """ExperimentConfig from config lines (see the module docs), then the
    given flags."""
    from . import agents
    classes = {"": agents.ExperimentConfig, "impact": agents.ImpactParams,
               "evolution": agents.EvolutionParams}
    table = {f"{section}.{f.name}".lstrip("."): (section, f.name, f.default)
             for section, cls in classes.items() for f in dataclasses.fields(cls)}
    table["steps"] = table.pop("n_steps")
    groups = {section: {} for section in classes}
    for key, text in kv.items():
        section, name, default = table.get(key, ("", "", None))
        if type(default) not in (tuple, bool, int, float, str):  # None or a factory
            raise ParameterError(f"unknown config key {key!r}")
        groups[section][name] = _config_value(key, default, text)
    fields = groups.pop("")
    fields.update({section: classes[section](**values)
                   for section, values in groups.items() if values})
    return agents.ExperimentConfig(**{**fields, **given})


def _run_abm(args: argparse.Namespace) -> None:
    from . import agents
    kv = _parse_kv_file(args.config) if args.config else {}
    ecfg = _experiment_config(kv, _given(args, agents.ExperimentConfig))
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
    params = lob.LobParams(**_given(args, lob.LobParams))
    args.seed = params.seed
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


def _add_model_flags(parser, *extra: str) -> None:
    helps = {"hurst": "memory exponent of the volatility driver",
             "k": "volatility coupling strength", "beta": "mean log volatility",
             "delta": "volatility observation spacing", "mu": "price drift"}
    for name in ("hurst", "k", "beta", "delta", *extra):
        parser.add_argument(f"--{name}", type=float, default=_OWNED, help=helps[name])


def _add_option_flags(parser, alpha_default, alpha_help: str) -> None:
    """The contract and dispersion flags of price and smile."""
    parser.add_argument("--spot", type=float, default=1.0, help="spot price")
    parser.add_argument("--rate", type=float, default=0.001, help="risk-free rate")
    parser.add_argument("--sigma", type=float, default=0.01,
                        help="current volatility")
    parser.add_argument("--alpha-disp", type=float, default=alpha_default,
                        help=f"log-volatility dispersion; {alpha_help}")


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
    _add_model_flags(p, "mu")
    p.add_argument("--steps", type=int, default=4096, help="steps per path")
    p.add_argument("--paths", type=int, default=1, help="number of paths")

    p = sub.add_parser("estimate", formatter_class=fmt,
                       help="estimation report for an ingested t,price CSV")
    _add_common(p, "json")
    p.add_argument("input", help="price CSV with header t,price")

    p = sub.add_parser("pdf", formatter_class=fmt,
                       help="return density and cdf on a grid; CSV r,pdf,cdf")
    _add_common(p, "csv")
    _add_model_flags(p, "mu")
    p.add_argument("--tau", type=float, default=_OWNED, dest="lag", metavar="TAU",
                   help="return horizon")

    p = sub.add_parser("price", formatter_class=fmt,
                       help="European call under dispersed volatility")
    _add_common(p, "json")
    _add_option_flags(p, 0.0, "0 recovers Black-Scholes")
    p.add_argument("--strike", type=float, default=1.0, help="strike")
    p.add_argument("--tau", type=float, default=20.0, help="time to maturity")

    p = sub.add_parser("smile", formatter_class=fmt,
                       help="implied-vol surface over moneyness and maturity")
    _add_common(p, "csv")
    _add_model_flags(p)
    _add_option_flags(p, None, "default derives it from the model flags")

    p = sub.add_parser("abm", formatter_class=fmt,
                       help="agent market run; price CSV plus estimation "
                            "report JSON (csv format writes the report to "
                            "<out-stem>.report.json)")
    _add_common(p, "csv", seed_default=_OWNED)
    p.add_argument("--steps", type=int, default=_OWNED, dest="n_steps",
                   metavar="STEPS", help="market steps; overrides the config file")
    p.add_argument("--config", default=None,
                   help="key = value config file (see module docs)")

    p = sub.add_parser("lob", formatter_class=fmt,
                       help="limit-order-book market; price CSV")
    _add_common(p, "csv", seed_default=_OWNED)
    p.add_argument("--width", type=int, default=_OWNED, dest="half_width",
                   metavar="WIDTH", help="book half-width in price slots")
    p.add_argument("--order-size", type=float, default=_OWNED,
                   help="limit order size")
    p.add_argument("--steps", type=int, default=_OWNED, help="recorded arrivals")
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
