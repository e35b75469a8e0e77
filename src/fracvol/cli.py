"""Command-line front end: each command parses its flags, builds the
parameter dataclass, calls one library function and writes the artifact.

Commands: simulate, estimate, pdf, price, smile, abm, lob. Each writes a
single artifact (CSV or JSON, atomic temp + rename) to --out and prints a
one-line JSON run summary (command, seed, wall_time, output) to stdout.
Exit codes: 0 success, 1 domain error (bad parameters or data, or a size
that cannot be allocated, reported as one JSON line on stderr), 2 usage
error. Artifacts are byte-identical across runs with the same arguments.
Each handler imports its own module, and none loads a scipy package
module: pdf, price and smile load scipy's one ufunc extension alone, and
simulate loads its pocketfft extension alone for a one-path transform
whose length is not a power of two (see fgn).

The abm command reads an optional key = value config file, in the format
that agents.read_config documents; --steps and --seed override the file.
Likewise a flag that sets a parameter dataclass field (--hurst, --tau,
--width, ...) takes its default from that field.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time

import numpy as np

from .errors import FracvolError
from .estimation import estimate_report, uniform_step
from .io import (atomic_write, csv_text, ensemble_csv, ingest_prices, json_text,
                 key_value_csv, market_path_csv, report_to_dict)

FORMATS = ("csv", "json")
_OWNED = argparse.SUPPRESS  # no default here: the parameter dataclass owns it


def _given(args: argparse.Namespace, cls) -> dict:
    """The given flags that name a field of the dataclass cls."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if hasattr(args, f.name)}


def _write(args: argparse.Namespace, payload: dict, csv) -> None:
    """The artifact at --out: the text csv() returns in csv format, else
    payload as JSON (a path's payload is vars(path), all its fields)."""
    atomic_write(args.out, csv() if args.format == "csv" else json_text(payload))


def _run_simulate(args: argparse.Namespace) -> None:
    from . import simulate
    params = simulate.ModelParams(**_given(args, simulate.ModelParams))
    dt = params.delta  # price grid at the volatility observation spacing
    if args.paths == 1:
        path = simulate.simulate_path(params, args.steps, dt, seed=args.seed)
        _write(args, vars(path), lambda: market_path_csv(path))
    else:
        times, prices, logvol = simulate.path_ensemble(
            params, args.steps, dt, seed=args.seed, n_paths=args.paths)
        _write(args, {"times": times, "prices": prices, "logvol": logvol,
                      "seed": args.seed}, lambda: ensemble_csv(times, prices))


def _run_estimate(args: argparse.Namespace) -> None:
    path = ingest_prices(args.input)
    dt = uniform_step(path.times)
    payload = report_to_dict(estimate_report(path.prices, dt=dt, delta=dt))
    _write(args, payload, lambda: key_value_csv(payload))


def _run_pdf(args: argparse.Namespace) -> None:
    from . import returns
    params = returns.ReturnDistParams(**_given(args, returns.ReturnDistParams))
    r = returns.return_grid(params)
    pdf_vals, cdf_vals = returns.pdf(r, params), returns.cdf(r, params)
    _write(args, {"r": r, "pdf": pdf_vals, "cdf": cdf_vals}, lambda: csv_text(
        "r,pdf,cdf", r.tolist(), pdf_vals.tolist(), cdf_vals.tolist()))


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
    _write(args, payload, lambda: key_value_csv(payload))


def _run_smile(args: argparse.Namespace) -> None:
    from . import pricing, simulate
    model = simulate.ModelParams(**_given(args, simulate.ModelParams))
    surf = pricing.smile_surface(model, sigma_t=args.sigma, spot=args.spot,
                                 rate=args.rate, alpha=args.alpha_disp)
    n_m, n_tau = surf.price.shape
    _write(args, vars(surf), lambda: csv_text(
        "moneyness,tau,price,implied_vol,delta_vs_bs",
        np.repeat(surf.moneyness, n_tau).tolist(), np.tile(surf.taus, n_m).tolist(),
        *(a.ravel().tolist() for a in (surf.price, surf.implied_vol, surf.delta_vs_bs))))


def _run_abm(args: argparse.Namespace) -> None:
    from . import agents
    ecfg = agents.read_config(args.config, _given(args, agents.ExperimentConfig))
    args.seed = ecfg.seed  # --seed, else the config file's, else 0
    result = agents.run_experiment(ecfg)
    report = {**report_to_dict(result.report), "final_codes": result.final_codes}
    _write(args, {"path": vars(result.path), "report": report},
           lambda: market_path_csv(result.path))
    if args.format == "csv":  # the report goes next to the price path
        atomic_write(os.path.splitext(args.out)[0] + ".report.json", json_text(report))


def _run_lob(args: argparse.Namespace) -> None:
    from . import lob
    params = lob.LobParams(**_given(args, lob.LobParams))
    args.seed = params.seed
    trace = [] if args.book_trace else None
    path = lob.run_lob(params, trace)
    _write(args, vars(path), lambda: market_path_csv(path))
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
    except (FracvolError, OSError, MemoryError) as err:
        # numpy raises a private MemoryError subclass; name the public one
        name = "MemoryError" if isinstance(err, MemoryError) else type(err).__name__
        print(json.dumps({"error": name, "message": str(err)}), file=sys.stderr)
        return 1
    summary = {"command": args.command, "seed": args.seed,
               "wall_time": round(time.perf_counter() - start, 6),
               "output": args.out}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
