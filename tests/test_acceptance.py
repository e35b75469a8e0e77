"""End-to-end tolerance gates for the whole package.

One test per shipped guarantee. Each records a one-line summary with the
measured value; the conftest hook prints all of them after the run.
Statistical gates use fixed seeds, so these are exact regression checks,
not flaky coin flips.
"""
import itertools
import math
import os
import subprocess
import sys

import numpy as np
from scipy.integrate import quad

import fracvol

from conftest import record
from lob_window import apply_window
from oracles import excess_kurtosis, ref_lob_apply

from fracvol.agents import (EvolutionParams, ExperimentConfig, MarketEnv,
                            Population, run_experiment, step, strategy_code,
                            strategy_decode)
from fracvol.estimation import autocorrelation, estimate_report, leverage
from fracvol.fgn import fgn_autocovariance, generate_fgn
from fracvol.lob import (LIMIT_ASK, LIMIT_BID, MARKET_BUY, MARKET_SELL,
                         LobParams, run_lob)
from fracvol.pricing import (OptionInputs, VolDispersion, black_scholes,
                             implied_vol, m_function, mean_variance_fit,
                             monte_carlo_price, price, smile_surface)
from fracvol.returns import (ReturnDistParams, cdf, pdf, return_for_lambda,
                             sample_returns)
from fracvol.rng import substream
from fracvol.simulate import (IDENTIFIED_DRIVERS, ModelParams,
                              identified_return_ensemble, simulate_path)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _tag(n: int, name: str, detail: str, ok: bool) -> bool:
    record(f"criterion {n} ({name}): {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_fgn_autocovariance():
    lags = np.arange(21)
    n, n_paths = 4096, 200
    worst = 0.0
    for hurst in (0.6, 0.8, 0.9):
        gamma = fgn_autocovariance(lags, hurst)
        est = np.empty((n_paths, len(lags)))
        for s in range(n_paths):
            x = generate_fgn(n, hurst, seed=s).values
            est[s] = [(x[: n - k] @ x[k:]) / n for k in lags]
        z = (est.mean(axis=0) - gamma) / (est.std(axis=0, ddof=1)
                                          / math.sqrt(n_paths))
        worst = max(worst, float(np.max(np.abs(z))))
    ok = _tag(1, "fgn autocovariance",
              f"max |z| = {worst:.3f} over H in {{0.6,0.8,0.9}}, lags 0..20, "
              f"{n_paths} paths of {n} (limit 4)", worst < 4.0)
    assert ok


def test_criterion_02_memory_and_level_recovery():
    passes = 0
    h_errs, b_errs = [], []
    for s in range(10):
        path = simulate_path(ModelParams(), 2 ** 16, 1.0, seed=s)
        rep = estimate_report(path.prices)
        h_errs.append(rep.hurst_hat - 0.83)
        b_errs.append(rep.beta_hat + 5.0)
        if abs(h_errs[-1]) <= 0.07 and abs(b_errs[-1]) <= 0.1:
            passes += 1
    ok = _tag(2, "pipeline recovery",
              f"{passes}/10 seeds within |H-0.83| <= 0.07 and "
              f"|beta+5| <= 0.1 (need >= 8); worst dH = "
              f"{max(abs(e) for e in h_errs):.3f}, worst dbeta = "
              f"{max(abs(e) for e in b_errs):.3f}", passes >= 8)
    assert ok


def test_criterion_03_return_distribution():
    worst_norm = 0.0
    for beta, k, hurst, lag in itertools.product(
            (-5.0, -7.0), (0.3, 0.59, 1.0), (0.7, 0.83), (1.0, 5.0)):
        p = ReturnDistParams(beta=beta, k=k, hurst=hurst, lag=lag)
        total, _ = quad(lambda r: pdf(r, p), -np.inf, np.inf, limit=800)
        worst_norm = max(worst_norm, abs(total - 1.0))

    p = ReturnDistParams()
    rng = np.random.default_rng(2024)
    n = 10 ** 7
    sig = np.exp(p.beta + p.sigma_logvol * rng.standard_normal(n))
    mean = (p.mu - 0.5 * sig ** 2) * p.lag
    sd = sig * math.sqrt(p.lag)
    worst_z = 0.0
    for probe in (0.0, 0.01, 0.05):
        zed = (probe - mean) / sd
        dens = np.exp(-0.5 * zed * zed) / (sd * _SQRT_2PI)
        z = (dens.mean() - pdf(probe, p)) / (dens.std(ddof=1) / math.sqrt(n))
        worst_z = max(worst_z, abs(float(z)))

    x = np.sort(sample_returns(p, 10 ** 5, seed=7))
    m = len(x)
    F = cdf(x, p)
    ks = max(np.max(F - np.arange(m) / m), np.max(np.arange(1, m + 1) / m - F))
    ks_scaled = ks * math.sqrt(m)

    ok = _tag(3, "return distribution",
              f"normalization off by {worst_norm:.2e} (limit 1e-6); "
              f"MC density max |z| = {worst_z:.2f} (limit 3); "
              f"sampler KS*sqrt(n) = {ks_scaled:.3f} (limit 1.358)",
              worst_norm < 1e-6 and worst_z <= 3.0 and ks_scaled < 1.358)
    assert ok


def test_criterion_04_tail_law():
    p = ReturnDistParams(beta=-7.0, k=1.0, delta=1.0, hurst=0.83, lag=1.0)
    lam = np.geomspace(1e3, 1e5, 60)
    y = -np.log(pdf(return_for_lambda(lam, p), p))
    curvature = np.polyfit(np.log(lam), y, 2)[0]
    dev = curvature * p.tail_coefficient - 1.0
    ok = _tag(4, "lognormal tail law",
              f"log^2 curvature off the predicted 1/(8 k^2 d^(2H-2)) by "
              f"{100 * dev:+.2f}% over lambda in [1e3, 1e5] (limit 5%)",
              abs(dev) <= 0.05)
    assert ok


def _m_double_integral(alpha: float, a: float, b: float) -> float:
    cap = 40.0 / (2.0 * math.sqrt(a * b))

    def inner(y):
        f = lambda u: math.exp(
            u - u * u / (2 * alpha * alpha)
            - y * y * (a * math.exp(u) + b * math.exp(-u)) ** 2 / 2)
        return quad(f, -10 * alpha, 10 * alpha, limit=200)[0]

    return quad(inner, -1.0, cap, limit=400)[0] / (2 * math.pi * alpha)


def test_criterion_05_option_pricing():
    worst_m = 0.0
    for alpha, a, b in itertools.product((0.5, 1.0, 2.0), (0.2, 1.0),
                                         (0.1, 0.5)):
        ref = _m_double_integral(alpha, a, b)
        worst_m = max(worst_m, abs(m_function(alpha, a, b) - ref) / ref)

    mgrid = np.linspace(0.5, 1.5, 21)
    taus = (5.0, 20.0, 50.0, 100.0)
    worst_bs = 0.0
    for m, tau in itertools.product(mgrid, taus):
        opt = OptionInputs(spot=1.0, strike=1.0 / m, rate=0.001,
                           sigma_t=0.01, tau=tau)
        gap = abs(price(opt, VolDispersion(1e-8)) - black_scholes(opt))
        worst_bs = max(worst_bs, gap / opt.strike)

    worst_mc = 0.0
    for k in (0.25, 0.5):
        params = ModelParams(mu=0.001, beta=math.log(0.01), k=k,
                             delta=1.0, hurst=0.8)
        sigma_t, alpha = mean_variance_fit(params, 20.0)
        for strike in (0.96, 1.0, 1.05):
            opt = OptionInputs(spot=1.0, strike=strike, rate=0.001,
                               sigma_t=sigma_t, tau=20.0)
            v = price(opt, VolDispersion(alpha))
            mc, se = monte_carlo_price(opt, params, n_paths=100_000, seed=5)
            worst_mc = max(worst_mc, abs(v - mc) / se)

    surf = smile_surface(ModelParams(k=1.0, delta=1.0, hurst=0.8),
                         sigma_t=0.01, taus=np.array(taus))
    amp = surf.implied_vol.max(axis=0) - surf.implied_vol.min(axis=0)
    monotone = bool(np.all(np.diff(amp) < 0))
    worst_rt = 0.0
    for i, m in enumerate(surf.moneyness):
        for j, tau in enumerate(taus):
            opt = OptionInputs(spot=1.0, strike=1.0 / m, rate=0.001,
                               sigma_t=surf.implied_vol[i, j], tau=tau)
            worst_rt = max(worst_rt, abs(black_scholes(opt) - surf.price[i, j]))

    ok = _tag(5, "option pricing",
              f"kernel vs double integral rel {worst_m:.2e} (limit 1e-6); "
              f"degenerate-dispersion gap {worst_bs:.2e} of strike "
              f"(limit 1e-5); Monte Carlo max |z| = {worst_mc:.2f} "
              f"(limit 3); smile amplitude {np.round(amp, 4).tolist()} "
              f"decreasing with maturity: {monotone}; implied round trip "
              f"{worst_rt:.2e} (limit 1e-8)",
              worst_m < 1e-6 and worst_bs < 1e-5 and worst_mc <= 3.0
              and monotone and worst_rt < 1e-8)
    assert ok


def _leverage_z(rets: np.ndarray, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.stack([leverage(r, max_lag)[:, 1] for r in rets])
    taus = leverage(rets[0], max_lag)[:, 0]
    z = rows.mean(axis=0) / (rows.std(axis=0, ddof=1) / math.sqrt(len(rets)))
    return taus, z


def test_criterion_06_leverage_dichotomy():
    n_steps, n_paths = 10 ** 4, 1000
    shared = ModelParams(beta=-6.0, coupling=IDENTIFIED_DRIVERS)
    rets = identified_return_ensemble(shared, n_steps, 1.0, seed=11,
                                      n_paths=n_paths)
    taus, z = _leverage_z(rets, 10)
    fwd = z[taus > 0]
    back = z[taus < 0]
    split = ModelParams(beta=-6.0)
    rets_i = identified_return_ensemble(split, n_steps, 1.0, seed=11,
                                        n_paths=n_paths)
    _, z_i = _leverage_z(rets_i, 10)
    flat = np.max(np.abs(z_i[taus != 0]))
    ok = _tag(6, "leverage dichotomy",
              f"shared drivers: forward z in [{fwd.min():.1f}, {fwd.max():.1f}]"
              f" (all <= -4), backward max |z| = {np.max(np.abs(back)):.2f}"
              f" (limit 4); independent drivers: max |z| = {flat:.2f} (limit 4)",
              bool(np.all(fwd <= -4.0)) and np.max(np.abs(back)) <= 4.0
              and flat <= 4.0)
    assert ok


def test_criterion_07_agent_market():
    mixed = 0
    for s in range(10):
        cfg = ExperimentConfig(n_steps=2 ** 15, seed=s,
                               scaling_lags=(32, 64, 128, 256, 512))
        res = run_experiment(cfg)
        ek = excess_kurtosis(np.diff(res.path.prices))
        if ek > 1.0 and 0.45 <= res.report.hurst_hat <= 0.65:
            mixed += 1

    band = 4.0 * math.sqrt(24.0 / 10 ** 4)
    uniform = 0
    for s in range(10):
        cfg = ExperimentConfig(population=((72, 100),), n_steps=10 ** 4,
                               seed=s, value_walk_sigma=0.0,
                               evolution=EvolutionParams())
        res = run_experiment(cfg)
        ek = excess_kurtosis(np.diff(res.path.prices))
        share = float(np.mean(res.final_codes == 72))
        if abs(ek) < band and share >= 0.5:
            uniform += 1

    ok = _tag(7, "agent market",
              f"mixed population: {mixed}/10 seeds fat-tailed with "
              f"H in [0.45, 0.65]; value-traders only: {uniform}/10 seeds "
              f"near-Gaussian with the majority keeping the value rule "
              f"(need >= 6 each)", mixed >= 6 and uniform >= 6)
    assert ok


def test_criterion_08_order_book_market():
    passes = 0
    details = []
    for s in range(10):
        path = run_lob(LobParams(seed=s))
        r = np.diff(np.log(path.prices))
        traded = r[r != 0.0]
        h = estimate_report(path.prices,
                            scaling_lags=32 * 2 ** np.arange(5)).hurst_hat
        acf = autocorrelation(traded, np.arange(5, 21))
        acf_peak = float(np.max(np.abs(acf[:, 1])))
        band = 3.0 / math.sqrt(len(traded))
        ek = excess_kurtosis(r)
        good = abs(h - 0.96) <= 0.10 and acf_peak < band and ek > 0.0
        passes += good
        details.append(f"{h:.2f}/{acf_peak / band:.2f}/{ek:.1f}")
    ok = _tag(8, "order-book market",
              f"{passes}/10 seeds with drifting level (H near 0.96), "
              f"no traded-return memory at lags 5..20 and fat tails "
              f"(need >= 6); per-seed H/acf-vs-band/kurtosis: "
              f"{'; '.join(details)}", passes >= 6)
    assert ok


def test_criterion_09_exact_identities():
    codes = {72: (1, 1, -1, -1), 60: (1, -1, 1, -1), 45: (0, 1, -1, -1),
             18: (-1, 1, -1, -1), 73: (1, 1, -1, 0), 75: (1, 1, 0, -1)}
    named_ok = all(strategy_decode(c).entries == e for c, e in codes.items())
    bijective = all(strategy_code(strategy_decode(c)) == c for c in range(81))

    env = MarketEnv(z=0.3, z_prev=0.25, xi=0.4)
    pop = Population.from_counts([(72, 30), (60, 30), (45, 20)],
                                 cash0=5.0, stock0=1.0)
    rng = substream(7, 55)
    worst = 0.0
    for _ in range(200):
        c0, s0 = pop.cash.sum(), pop.stock.sum()
        step(env, pop, rng)
        p = math.exp(env.z)
        worst = max(worst, abs((pop.cash.sum() - c0) + p * (pop.stock.sum() - s0)))

    sizes = [None, 0.5, 2.0]
    slots = [-2, 0, 2]
    events = [(MARKET_BUY, None), (MARKET_SELL, None)]
    events += [(e, sl) for e in (LIMIT_ASK, LIMIT_BID) for sl in slots]
    mismatches = 0
    checked = 0
    for a_slot, a_sz, b_slot, b_sz in itertools.product(slots, sizes,
                                                        slots, sizes):
        asks = {a_slot: a_sz} if a_sz else {}
        bids = {b_slot: b_sz} if b_sz else {}
        for pb, ps in itertools.product((0.0, 0.7), repeat=2):
            if (pb > 0 and asks) or (ps > 0 and bids):
                continue
            for event, slot in events:
                book = {"price": 0, "w": 4, "asks": asks, "bids": bids,
                        "pending_buys": pb, "pending_sells": ps}
                ref = ref_lob_apply(book, event, slot, 1.3)
                checked += 1
                mismatches += apply_window(book, event, slot, 1.3) != ref
    ok = _tag(9, "exact identities",
              f"named strategy codes: {named_ok}; 81-code bijection: "
              f"{bijective}; settlement conservation drift {worst:.1e} over "
              f"200 steps; book transitions vs reference: "
              f"{checked - mismatches}/{checked}",
              named_ok and bijective and worst < 1e-10 and mismatches == 0)
    assert ok


def test_criterion_10_thread_count_determinism(tmp_path):
    jobs = {
        "simulate": ["simulate", "--steps", "256", "--paths", "4",
                     "--seed", "3"],
        "smile": ["smile"],
        "abm": ["abm", "--steps", "600", "--seed", "2"],
        "lob": ["lob", "--steps", "2000", "--seed", "4"],
    }
    # The children run in tmp_path, where a relative PYTHONPATH entry does
    # not resolve: put the root of the package this suite imported first.
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(fracvol.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    mismatched = []
    for name, args in jobs.items():
        artifacts = {}
        for threads in ("1", "8"):
            out = tmp_path / f"{name}-{threads}.csv"
            env = dict(os.environ, FRACVOL_THREADS=threads,
                       PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-m", "fracvol.cli", *args,
                 "--out", str(out)],
                capture_output=True, env=env, cwd=tmp_path)
            assert proc.returncode == 0, (
                f"{name} with FRACVOL_THREADS={threads}: "
                f"{proc.stderr.decode()}")
            blob = out.read_bytes()
            if name == "abm":
                blob += (tmp_path / f"{name}-{threads}.report.json").read_bytes()
            artifacts[threads] = blob
        if artifacts["1"] != artifacts["8"]:
            mismatched.append(name)
    ok = _tag(10, "thread-count determinism",
              f"byte-identical artifacts under FRACVOL_THREADS=1 vs 8 for "
              f"{sorted(jobs)}; mismatches: {mismatched or 'none'}",
              not mismatched)
    assert ok
