"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

A workload is run as a closed loop with one caller: the runner repeats
`run_pass` on the same inputs, and every call starts after the previous one
returns. Each pass returns the timings of the workload's headline task, the
work it did (for the per-layer rates) and its artifacts (for the replay
check and the report-only digest). `check` validates one pass's outputs.

Sizes follow the baseline table in ROADMAP.md; `smoke=True` shrinks them so
every workload runs in seconds.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import fracvol
from fracvol import agents, io, pricing, returns

import checks

_IV_EDGE = 1e-8  # lower end of the implied-vol bracket in fracvol.pricing


@dataclass
class PassResult:
    """What one pass produced."""

    task_s: list[float]  # the workload's headline task, one entry per attempt
    named: dict[str, list[float]]  # workload-specific task timings
    work: dict[str, float]  # work done, for the per-layer rates
    artifacts: list[bytes]  # artifact bytes, for the replay check and digest
    outputs: dict = field(default_factory=dict)


def _timed(samples: list[float], rec, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    out = rec.call(name, fn, *args, **kwargs)
    samples.append(time.perf_counter() - start)
    return out


def _array_bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


# ---------------------------------------------------------------- fsv_recovery

def fsv_inputs(seed: int, smoke: bool, workdir: str) -> dict:
    return {
        "params": fracvol.ModelParams(),
        "fgn_sizes": {"pow2": 2 ** 12 if smoke else 2 ** 20,
                      "prime": 257 if smoke else 65_537},
        "fgn_seed": seed,
        "path_seeds": [seed + i for i in range(8)],
        "n_steps": 2 ** 15 if smoke else 2 ** 16,
        "ensemble": (16, 200) if smoke else (256, 1000),
        "ensemble_seed": seed,
        "csv_file": os.path.join(workdir, "path.csv"),
    }


def fsv_pass(rec, inp: dict) -> PassResult:
    params, n_steps = inp["params"], inp["n_steps"]
    recover: list[float] = []
    fgn_out, rows = {}, []
    for label, n in inp["fgn_sizes"].items():
        fgn_out[label] = rec.call("fgn.generate_fgn", fracvol.generate_fgn, n,
                                  params.hurst, seed=inp["fgn_seed"], label=label)
    bytes_written = 0
    for seed in inp["path_seeds"]:
        sim_s: list[float] = []
        path = _timed(sim_s, rec, "simulate.simulate_path", fracvol.simulate_path,
                      params, n_steps, 1.0, seed=seed)
        if path is None:
            continue
        text = rec.call("io.market_path_csv", io.market_path_csv, path)
        if text is None:
            continue
        bytes_written += len(text)
        rec.call("io.atomic_write", io.atomic_write, inp["csv_file"], text)
        ingested = rec.call("io.ingest_prices", io.ingest_prices, inp["csv_file"])
        if ingested is None:
            continue
        report = _timed(sim_s, rec, "estimation.estimate_report",
                        fracvol.estimate_report, ingested.prices)
        recover.append(sum(sim_s))
        rows.append((path, text, ingested, report))
    n_paths, ens_steps = inp["ensemble"]
    ens = rec.call("simulate.path_ensemble", fracvol.path_ensemble, params,
                   ens_steps, 1.0, seed=inp["ensemble_seed"], n_paths=n_paths)
    ens_text = None if ens is None else rec.call(
        "io.ensemble_csv", io.ensemble_csv, ens[0], ens[1])
    if ens_text is not None:
        bytes_written += len(ens_text)
    artifacts = [_array_bytes(s.values) for s in fgn_out.values() if s is not None]
    for path, text, _, report in rows:
        artifacts.append(text.encode())
        if report is not None:
            artifacts.append(_array_bytes(report.hurst_hat, report.beta_hat,
                                          report.acf, report.leverage))
    if ens_text is not None:
        artifacts.append(ens_text.encode())
    reports = [r[3] for r in rows if r[3] is not None]
    work = {
        "fgn.samples": sum(inp["fgn_sizes"].values()),
        "simulate.steps": len(inp["path_seeds"]) * n_steps + n_paths * ens_steps,
        "estimation.points": len(reports) * (n_steps + 1),
        "estimation.n_floored": sum(r.n_floored for r in reports),
        "io.rows": 2 * len(rows) * (n_steps + 1) + (ens_steps + 1),
        "io.bytes_written": bytes_written,
    }
    return PassResult(task_s=recover, named={"recover_s": recover}, work=work,
                      artifacts=artifacts,
                      outputs={"fgn": fgn_out, "rows": rows, "ensemble": ens,
                               "ensemble_text": ens_text})


def fsv_check(inp: dict, result: PassResult) -> None:
    out = result.outputs
    for label, n in inp["fgn_sizes"].items():
        series = out["fgn"][label]
        checks.expect(series is not None, f"generate_fgn {label} failed")
        checks.finite_length(series.values, n, f"fgn {label}")
    checks.expect(len(out["rows"]) == len(inp["path_seeds"])
                  and all(r[3] is not None for r in out["rows"]),
                  "a recovery seed did not complete")
    for path, _, ingested, _ in out["rows"]:
        checks.same_series(ingested.times, path.times, "csv round trip times")
        checks.same_series(ingested.prices, path.prices, "csv round trip prices")
    checks.recovery_near_truth([r[3].hurst_hat for r in out["rows"]],
                               [r[3].beta_hat for r in out["rows"]])
    checks.expect(out["ensemble_text"] is not None, "ensemble did not complete")
    times, prices, _ = out["ensemble"]
    checks.positive_prices(prices, "ensemble")
    checks.ensemble_csv_matches(out["ensemble_text"], times, prices)


# ------------------------------------------------------------- pricing_surface

SPOT, RATE, SIGMA_T = 1.0, 0.001, 0.01
MC_TAU, MC_STRIKE = 20.0, 1.0


def bs_call(spot: float, strike: float, rate: float, sigma: float,
            tau: float) -> float:
    """Black-Scholes call, written independently of fracvol.pricing."""
    root = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / root
    d2 = d1 - root
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))  # noqa: E731
    return spot * cdf(d1) - strike * math.exp(-rate * tau) * cdf(d2)


def pricing_inputs(seed: int, smoke: bool, workdir: str) -> dict:
    # empty grid: smile_surface's default 21 x 20
    grid = ({"moneyness": np.linspace(0.5, 1.5, 5), "taus": np.array([5.0, 50.0])}
            if smoke else {})
    horizons = []
    for tau in (1.0, 5.0, 20.0, 100.0):
        rp = fracvol.ReturnDistParams(lag=tau)
        sd = rp.theta * math.exp(rp.sigma_logvol ** 2) * math.sqrt(tau)
        center = returns.central_return(rp)
        horizons.append((rp, np.linspace(center - 8 * sd, center + 8 * sd,
                                         513)))
    ladder = [fracvol.OptionInputs(SPOT, float(strike), RATE, SIGMA_T, tau)
              for strike in np.linspace(0.5, 1.5, 11)
              for tau in (5.0, 20.0, 50.0, 100.0)]
    return {
        "params": fracvol.ModelParams(),
        "grid": grid,
        "grid_points": 10 if smoke else 21 * 20,
        "smile_alphas": {"model": None, "a0.3": 0.3, "a0.1": 0.1},
        "ladder": [(opt, alpha) for opt in ladder for alpha in (0.1, 0.3, 0.59)],
        "horizons": horizons,
        "mc_paths": 2_000 if smoke else 100_000,
        "mc_seed": seed,
    }


def pricing_pass(rec, inp: dict) -> PassResult:
    params = inp["params"]
    smile_s: list[float] = []
    surfaces = {}
    for label, alpha in inp["smile_alphas"].items():
        surfaces[label] = _timed(smile_s, rec, "pricing.smile_surface",
                                 fracvol.smile_surface, params, SIGMA_T,
                                 alpha=alpha, label=label, **inp["grid"])
    ladder = []
    for opt, alpha in inp["ladder"]:
        value = rec.call("pricing.price", fracvol.price, opt,
                         fracvol.VolDispersion(alpha))
        iv = None if value is None else rec.call(
            "pricing.implied_vol", fracvol.implied_vol, value, opt)
        ladder.append((opt, value, iv))
    densities = []
    for rp, r in inp["horizons"]:
        densities.append((r, rec.call("returns.pdf", fracvol.pdf, r, rp),
                          rec.call("returns.cdf", fracvol.cdf, r, rp)))
    fit = rec.call("pricing.mean_variance_fit", pricing.mean_variance_fit,
                   params, MC_TAU)
    mc_s: list[float] = []
    kernel = mc = None
    if fit is not None:
        opt = fracvol.OptionInputs(SPOT, MC_STRIKE, RATE, fit[0], MC_TAU)
        kernel = rec.call("pricing.price", fracvol.price, opt,
                          fracvol.VolDispersion(fit[1]))
        mc = _timed(mc_s, rec, "pricing.monte_carlo_price",
                    fracvol.monte_carlo_price, opt, params,
                    inp["mc_paths"], seed=inp["mc_seed"])
    ok_surfaces = [s for s in surfaces.values() if s is not None]
    ivs = [iv for _, _, iv in ladder if iv is not None]
    artifacts = [_array_bytes(s.price, s.implied_vol) for s in ok_surfaces]
    artifacts.append(np.array([np.nan if x is None else x
                               for _, v, iv in ladder for x in (v, iv)]).tobytes())
    artifacts.extend(_array_bytes(f, c) for _, f, c in densities
                     if f is not None and c is not None)
    if mc is not None:
        artifacts.append(_array_bytes(*mc))
    work = {
        "returns.points": 2 * sum(r.size for _, r in inp["horizons"]),
        "pricing.grid_points": inp["grid_points"] * len(surfaces),
        "pricing.iv_attempted": sum(1 for _, v, _ in ladder if v is not None),
        "pricing.iv_ok": len(ivs),
        "pricing.iv_band_edge": (sum(iv == _IV_EDGE for iv in ivs)
                                 + sum(int(np.sum(s.implied_vol == _IV_EDGE))
                                       for s in ok_surfaces)),
    }
    return PassResult(task_s=smile_s, named={"smile_s": smile_s, "mc_check_s": mc_s},
                      work=work, artifacts=artifacts,
                      outputs={"surfaces": surfaces, "ladder": ladder,
                               "densities": densities, "kernel": kernel, "mc": mc})


def pricing_check(inp: dict, result: PassResult) -> None:
    out = result.outputs
    for label, surf in out["surfaces"].items():
        if surf is None:
            continue  # a counted failure
        for i, m in enumerate(surf.moneyness):
            for j, tau in enumerate(surf.taus):
                strike, value = SPOT / m, surf.price[i, j]
                what = f"smile {label} m={m:.3f} tau={tau:g}"
                checks.price_at_least_bs(
                    value, bs_call(SPOT, strike, RATE, SIGMA_T, tau), what)
                checks.iv_round_trip(value, bs_call(
                    SPOT, strike, RATE, surf.implied_vol[i, j], tau), what)
    for opt, value, iv in out["ladder"]:
        what = f"ladder K={opt.strike:.2f} tau={opt.tau:g}"
        checks.expect(value is not None, f"{what}: price failed")
        checks.price_at_least_bs(
            value, bs_call(opt.spot, opt.strike, opt.rate, opt.sigma_t, opt.tau), what)
        if iv is not None:
            checks.iv_round_trip(value, bs_call(opt.spot, opt.strike, opt.rate,
                                                iv, opt.tau), what)
    for (r, f, c), (rp, _) in zip(out["densities"], inp["horizons"]):
        checks.expect(f is not None and c is not None, "pdf/cdf failed")
        checks.pdf_cdf_consistent(r, f, c, f"returns at tau={rp.lag:g}")
    checks.expect(out["mc"] is not None and out["kernel"] is not None,
                  "Monte Carlo cross-check did not complete")
    checks.mc_agrees(out["mc"][0], out["mc"][1], out["kernel"])


# -------------------------------------------------------------- microstructure

def micro_inputs(seed: int, smoke: bool, workdir: str) -> dict:
    # the README abm config: value traders against trend followers
    base = agents.ExperimentConfig(
        n_steps=1000 if smoke else 10_000, noise_sigma=0.02,
        value_walk_sigma=0.01, impact=agents.ImpactParams(lambda0=9000.0),
        evolution=agents.EvolutionParams(period=50, mutation_prob=0.1))
    configs = {f"n{2 * half}": replace(base, population=((72, half), (60, half)),
                                       seed=seed + i)
               for i, half in enumerate((50, 1000))}
    events = 2 ** 12 if smoke else 2 ** 17
    lob_seeds = [seed + i for i in range(4)]
    return {"abm": configs,
            "lob": [fracvol.LobParams(steps=events, seed=s) for s in lob_seeds],
            "trace_seed": lob_seeds[-1]}


def micro_pass(rec, inp: dict) -> PassResult:
    abm_s: list[float] = []
    runs = {}
    for label, config in inp["abm"].items():
        runs[label] = _timed(abm_s, rec, "agents.run_experiment",
                             agents.run_experiment, config, label=label)
    lob_s: list[float] = []
    books = []
    for params in inp["lob"]:
        trace = [] if params.seed == inp["trace_seed"] else None
        name = "lob.run_lob" if trace is None else "lob.run_lob_traced"
        books.append((_timed(lob_s, rec, name, fracvol.run_lob, params, trace),
                      trace))
    artifacts = [_array_bytes(r.path.prices, r.final_codes)
                 for r in runs.values() if r is not None]
    artifacts.extend(_array_bytes(p.prices) for p, _ in books if p is not None)
    steps = next(iter(inp["abm"].values())).n_steps
    work = {
        "agents.steps": steps * len(inp["abm"]),
        "agents.agent_steps": steps * sum(sum(c for _, c in cfg.population)
                                          for cfg in inp["abm"].values()),
        "lob.events": sum(p.steps for p in inp["lob"]),
    }
    return PassResult(task_s=lob_s, named={"abm_s": [sum(abm_s)], "lob_s": lob_s},
                      work=work, artifacts=artifacts,
                      outputs={"abm": runs, "lob": books})


def micro_check(inp: dict, result: PassResult) -> None:
    out = result.outputs
    for label, run in out["abm"].items():
        checks.expect(run is not None, f"abm {label} failed")
        checks.positive_prices(run.path.prices, f"abm {label}")
    for (path, trace), params in zip(out["lob"], inp["lob"]):
        if path is None:
            continue  # a counted failure
        checks.positive_prices(path.prices, f"lob seed {params.seed}")
        if trace is not None:
            checks.lob_trace_matches(trace, path.prices)


# -------------------------------------------------------------------- cli_cold

# the README command lines; {seed} marks the ones that take a seed
CLI_COMMANDS = (
    ("simulate", "simulate --steps 4096 --paths 3 --seed {seed} --out paths.csv"),
    ("estimate", "estimate paths_single.csv --out report.json"),
    ("pdf", "pdf --beta -5 --k 0.59 --tau 1 --out density.csv"),
    ("price", "price --strike 1.05 --alpha-disp 0.3 --out price.json"),
    ("smile", "smile --k 0.59 --out smile.csv"),
    ("abm", "abm --steps 5000 --seed {seed} --config market.cfg --out abm.csv"),
    ("lob", "lob --steps 20000 --book-trace events.csv --out lob.csv"),
)
CLI_ARTIFACTS = {"abm": ("abm.csv", "abm.report.json"),
                 "lob": ("lob.csv", "events.csv")}
README_ABM_CONFIG = """\
population = 72:50, 60:50
steps = 10000
noise_sigma = 0.02
value_walk_sigma = 0.01
impact.lambda0 = 9000
evolution.period = 50
evolution.mutation_prob = 0.1
"""


def cli_env(src_dir: str) -> dict:
    """The caller's environment with the package root on PYTHONPATH and
    FRACVOL_THREADS unset, so the default thread count is measured."""
    env = dict(os.environ)
    env.pop("FRACVOL_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def cli_inputs(seed: int, smoke: bool, workdir: str) -> dict:
    path = fracvol.simulate_path(fracvol.ModelParams(), 4096, 1.0, seed=seed)
    io.atomic_write(os.path.join(workdir, "paths_single.csv"),
                    io.market_path_csv(path))
    io.atomic_write(os.path.join(workdir, "market.cfg"), README_ABM_CONFIG)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(fracvol.__file__)))
    return {"cwd": workdir, "env": cli_env(src_dir),
            "commands": [(name, line.format(seed=seed).split())
                         for name, line in CLI_COMMANDS]}


def run_cli(argv: list[str], cwd: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "fracvol.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def _handler_seconds(stdout: str) -> float:
    try:
        return float(json.loads(stdout)["wall_time"])
    except (ValueError, KeyError, TypeError):
        return 0.0  # cli_check reports the malformed summary


def cli_pass(rec, inp: dict) -> PassResult:
    wall: list[float] = []
    procs = []
    for name, argv in inp["commands"]:
        procs.append((name, _timed(wall, rec, f"cli.{name}", run_cli, argv,
                                   inp["cwd"], inp["env"])))
    handler = sum(_handler_seconds(p.stdout) for _, p in procs if p is not None)
    artifacts = []
    for name, argv in inp["commands"]:
        files = CLI_ARTIFACTS.get(name, (argv[argv.index("--out") + 1],))
        for file_name in files:
            try:
                with open(os.path.join(inp["cwd"], file_name), "rb") as handle:
                    artifacts.append(handle.read())
            except FileNotFoundError:
                artifacts.append(b"")
    return PassResult(task_s=wall, named={"cli_p50_s": wall},
                      work={"cli.handler_s": handler},
                      artifacts=artifacts,
                      outputs={"procs": procs})


def cli_check(inp: dict, result: PassResult) -> None:
    for name, proc in result.outputs["procs"]:
        checks.cli_summary(proc.returncode, proc.stdout, name)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, bool, str], dict]  # (seed, smoke, workdir)
    run_pass: Callable[..., PassResult]  # (recorder, inputs)
    check: Callable[[dict, PassResult], None]  # raises CheckFailed
    task: str  # what task_p50_s times on this workload
    # rescale each call by host-speed probes around it, not around the
    # pass; for passes of a few long calls (the task is one call)
    probe_calls: bool = False


WORKLOADS = {
    "fsv_recovery": Workload(fsv_inputs, fsv_pass, fsv_check,
                             "recover_s: simulate_path + estimate_report per seed"),
    "pricing_surface": Workload(pricing_inputs, pricing_pass, pricing_check,
                                "smile_s: one 21x20 smile surface"),
    "microstructure": Workload(micro_inputs, micro_pass, micro_check,
                               "lob_s: one 2^17-event run_lob"),
    "cli_cold": Workload(cli_inputs, cli_pass, cli_check,
                         "cli_p50_s: one fresh-process CLI invocation",
                         probe_calls=True),
}
