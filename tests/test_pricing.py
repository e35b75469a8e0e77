"""Option valuation: kernel integrals, mixture identity, smile behavior."""
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from fracvol.errors import GridMismatchError, NoSolutionError, ParameterError
from fracvol.estimation import estimate_report, induced_volatility
from fracvol.fgn import fgn_autocovariance, generate_fgn
from fracvol.pricing import (_BLOCK, OptionInputs, VolDispersion, black_scholes,
                             implied_vol, m_function, mean_variance_fit,
                             monte_carlo_price, price, smile_surface)
from fracvol.simulate import ModelParams

from oracles import ref_implied_vol, ref_m_function, ref_price, ref_smile

ATM = OptionInputs(spot=1.0, strike=1.0, rate=0.001, sigma_t=0.01, tau=20.0)


def test_m_zero_dispersion_limit():
    assert m_function(0.0, 0.5, 0.3) == pytest.approx(norm.cdf(0.8) / 0.8,
                                                      rel=1e-14)
    assert m_function(1e-8, 0.5, 0.3) == pytest.approx(norm.cdf(0.8) / 0.8,
                                                       rel=1e-6)
    with pytest.raises(ParameterError):
        m_function(0.0, 0.5, -0.5)
    with pytest.raises(ParameterError):
        m_function(1.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        m_function(-1.0, 0.5, 0.3)
    with pytest.raises(ParameterError):
        m_function(1.0, 0.5, 0.3, nodes=1)


def test_m_against_double_integral():
    alpha, a, b = 1.0, 0.2, 0.5

    def inner(y):
        f = lambda u: math.exp(u - u * u / (2 * alpha * alpha)
                               - y * y * (a * math.exp(u) + b * math.exp(-u)) ** 2 / 2)
        return quad(f, -10 * alpha, 10 * alpha, limit=200)[0]

    cap = 40.0 / (2.0 * math.sqrt(a * b))
    ref = quad(inner, -1.0, cap, limit=400)[0] / (2 * math.pi * alpha)
    assert m_function(alpha, a, b) == pytest.approx(ref, rel=1e-6)


def test_m_node_convergence():
    for alpha, a, b in [(0.5, 0.2, 0.1), (1.0, 1.0, 0.5),
                        (2.0, 0.2, -0.5), (1.0, -0.3, 0.8)]:
        assert abs(m_function(alpha, a, b, 512)
                   - m_function(alpha, a, b, 1024)) < 1e-8


def test_m_decreasing_in_second_argument():
    vals = [m_function(1.0, 1.0, b) for b in (0.5, 1.0, 1.5)]
    assert vals[0] > vals[1] > vals[2]


def test_black_scholes_against_payoff_integral():
    for opt in (ATM, OptionInputs(1.2, 0.9, 0.01, 0.3, 2.0)):
        s, sig, tau, r = opt.spot, opt.sigma_t, opt.tau, opt.rate

        def f(z):
            st = s * math.exp((r - sig * sig / 2) * tau + sig * math.sqrt(tau) * z)
            return max(st - opt.strike, 0.0) * norm.pdf(z)

        ref = math.exp(-r * tau) * quad(f, -12, 12, limit=400)[0]
        assert black_scholes(opt) == pytest.approx(ref, rel=1e-8)


def test_black_scholes_limits():
    opt = OptionInputs(1.0, 1.0, 0.0, 0.2, 4.0)
    b = 0.5 * 0.2 * 2.0
    assert black_scholes(opt) == pytest.approx(2 * norm.cdf(b) - 1, rel=1e-12)
    itm = OptionInputs(1.5, 1.0, 0.02, 0.2, 1e-10)
    assert black_scholes(itm) == pytest.approx(0.5, abs=1e-6)


def test_price_is_vol_mixture_of_black_scholes():
    alpha = 0.3
    for m in (0.8, 1.0, 1.3):
        opt = replace(ATM, strike=1.0 / m)

        def f(u):
            return (black_scholes(replace(opt, sigma_t=opt.sigma_t * math.exp(u)))
                    * norm.pdf(u, scale=alpha))

        ref = quad(f, -10 * alpha, 10 * alpha, limit=400)[0]
        assert price(opt, VolDispersion(alpha)) == pytest.approx(ref, rel=1e-9)


def test_price_zero_dispersion_is_black_scholes():
    assert price(ATM, VolDispersion(0.0)) == black_scholes(ATM)
    assert price(ATM, VolDispersion(1e-8)) == pytest.approx(
        black_scholes(ATM), rel=1e-6)


def test_price_bounds_and_shape():
    disp = VolDispersion(0.3)
    itm = replace(ATM, spot=1.5)
    assert price(itm, disp) >= itm.spot - itm.strike * math.exp(-0.001 * 20.0)
    assert price(itm, disp) < itm.spot
    spots = [price(replace(ATM, spot=s), disp) for s in (0.9, 1.0, 1.1)]
    assert spots[0] < spots[1] < spots[2]
    k_lo, k_mid, k_hi = (price(replace(ATM, strike=k), disp)
                         for k in (0.95, 1.0, 1.05))
    assert k_lo + k_hi >= 2 * k_mid


def test_implied_vol_round_trip():
    opt = replace(ATM, sigma_t=0.2)
    assert implied_vol(black_scholes(opt), opt) == pytest.approx(0.2, abs=1e-6)


def test_implied_vol_edges():
    with pytest.raises(NoSolutionError):
        implied_vol(0.0, ATM)  # at the intrinsic bound
    with pytest.raises(NoSolutionError):
        implied_vol(1.0, ATM)  # at the spot bound
    with pytest.raises(NoSolutionError):
        implied_vol(0.5, replace(ATM, tau=0.01))  # needs sigma above 5
    flat = replace(ATM, rate=0.0)  # zero intrinsic
    tiny = implied_vol(1e-12, flat)  # below the bracket floor
    assert tiny <= 1e-6


def test_smile_flat_without_coupling():
    surf = smile_surface(ModelParams(k=0.0, hurst=0.8), sigma_t=0.01,
                         moneyness=np.array([0.9, 1.0, 1.1]),
                         taus=np.array([5.0, 20.0]))
    assert surf.price.shape == (3, 2)
    assert np.ptp(surf.implied_vol) < 1e-6
    assert np.max(np.abs(surf.delta_vs_bs)) < 1e-12
    # inversion error scales as price_tol / vega, so off-money is looser
    np.testing.assert_allclose(surf.implied_vol, 0.01, atol=1e-5)


def test_smile_grows_with_coupling():
    grid = dict(moneyness=np.array([0.8, 1.0, 1.25]),
                taus=np.array([5.0, 20.0]), sigma_t=0.01)
    lo = smile_surface(ModelParams(k=1.0, hurst=0.8), **grid)
    hi = smile_surface(ModelParams(k=2.0, hurst=0.8), **grid)
    assert np.all(np.abs(hi.delta_vs_bs) > np.abs(lo.delta_vs_bs))
    assert np.all(lo.price > 0) and np.all(np.isfinite(hi.implied_vol))
    for bad in (dict(moneyness=np.array([-1.0])), dict(moneyness=np.array([1.0, np.nan])),
                dict(taus=np.array([5.0, np.inf])), dict(moneyness=np.array([np.inf]))):
        with pytest.raises(ParameterError):
            smile_surface(ModelParams(), 0.01, **bad)


def test_mean_variance_fit_zero_coupling():
    sig, alpha = mean_variance_fit(ModelParams(k=0.0, beta=-2.0), 20.0)
    assert sig == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert alpha == 0.0


def test_mean_variance_fit_matches_sampled_moments():
    params = ModelParams(beta=math.log(0.01), k=0.5, delta=1.0, hurst=0.8)
    n, n_draws = 20, 4000
    draws = np.empty(n_draws)
    for s in range(n_draws):
        g = generate_fgn(n, 0.8, seed=s).values
        draws[s] = np.mean(np.exp(2.0 * (params.beta + 0.5 * g)))
    sig, alpha = mean_variance_fit(params, 20.0)
    mean_cf = sig ** 2 * math.exp(2 * alpha ** 2)
    var_cf = mean_cf ** 2 * math.expm1(4 * alpha ** 2)
    z = (draws.mean() - mean_cf) / (draws.std(ddof=1) / math.sqrt(n_draws))
    assert abs(z) < 4.0
    assert 0.8 < draws.var(ddof=1) / var_cf < 1.2


def test_monte_carlo_agrees_with_black_scholes_when_vol_is_flat():
    params = ModelParams(k=0.0, beta=math.log(0.02))
    opt = replace(ATM, sigma_t=0.02)
    est, se = monte_carlo_price(opt, params, n_paths=20000, seed=5)
    assert est == pytest.approx(black_scholes(opt), abs=4 * se)
    again = monte_carlo_price(opt, params, n_paths=20000, seed=5)
    assert (est, se) == again


def test_horizon_grid_rules():
    with pytest.raises(GridMismatchError):
        mean_variance_fit(ModelParams(), 10.5)
    with pytest.raises(ParameterError):
        mean_variance_fit(ModelParams(), -1.0)


def test_input_validation():
    with pytest.raises(ParameterError):
        OptionInputs(-1.0, 1.0, 0.0, 0.1, 1.0).validate()
    with pytest.raises(ParameterError):
        OptionInputs(1.0, 1.0, math.inf, 0.1, 1.0).validate()
    with pytest.raises(ParameterError):
        VolDispersion(-0.1).validate()
    with pytest.raises(ParameterError):
        VolDispersion.from_model(ModelParams(), horizon=0.0)
    base = VolDispersion.from_model(ModelParams()).alpha
    scaled = VolDispersion.from_model(ModelParams(), horizon=16.0).alpha
    assert scaled == pytest.approx(base * 16.0 ** (0.83 - 1.0), rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda x: generate_fgn(8, 0.7, spacing=x),
    lambda x: fgn_autocovariance(np.arange(4), 0.7, spacing=x),
    lambda x: VolDispersion.from_model(ModelParams(), horizon=x),
    lambda x: mean_variance_fit(ModelParams(), x),
    lambda x: induced_volatility(np.zeros(40), 21, dt=x),
    lambda x: estimate_report(np.ones(100), delta=x),
], ids=["fgn-spacing", "autocov-spacing", "dispersion-horizon",
        "mean_variance_fit-tau", "induced_vol-dt", "estimate-delta"])
def test_library_entry_points_reject_non_finite(call, bad):
    with pytest.raises(ParameterError):
        call(bad)


def _split_rows(moneyness, taus, sigma_t, alpha, rate=0.001):
    """Kernel rows (leg by leg, then point by point): does a b < 0 put u*
    inside the window?"""
    flags = []
    for leg in range(4):
        for m in moneyness:
            for tau in taus:
                a = (math.log(m) / math.sqrt(tau) + rate * math.sqrt(tau)) / sigma_t
                b = 0.5 * sigma_t * math.sqrt(tau)
                p, q = ((a, b), (b, a), (a, -b), (-b, a))[leg]
                flags.append(p * q < 0 and abs(0.5 * math.log(-q / p)) < 8.0 * alpha)
    return np.array(flags)


NEAR_BOUNDARY = dict(moneyness=np.linspace(0.975, 0.985, 21),
                     taus=np.array([20.0, 50.0]))


@pytest.mark.parametrize("alpha, sigma_t, grid", [
    (None, 0.01, {}), (0.3, 0.01, {}), (0.59, 0.01, {}),
    (0.0, 0.2, {}),  # Black-Scholes path; at sigma 0.01 deep ITM has no vol
    (0.05, 0.01, NEAR_BOUNDARY),
], ids=["model", "a0.3", "a0.59", "a0-bs", "split-boundary"])
def test_smile_surface_equals_scalar_reference(alpha, sigma_t, grid):
    model = ModelParams()
    surf = smile_surface(model, sigma_t, alpha=alpha, **grid)
    disp = VolDispersion.from_model(model).alpha if alpha is None else alpha
    ref = ref_smile(surf.moneyness, surf.taus, sigma_t, disp)
    for got, want in zip((surf.price, surf.implied_vol, surf.delta_vs_bs), ref):
        np.testing.assert_array_equal(got, want)
    if grid is NEAR_BOUNDARY:
        # 168 kernel rows in three blocks, each with split and plain rows
        split = _split_rows(surf.moneyness, surf.taus, sigma_t, disp)
        assert split.size > 2 * _BLOCK
        for start in range(0, split.size, _BLOCK):
            block = split[start:start + _BLOCK]
            assert block.any() and not block.all()


@pytest.mark.parametrize("alpha, digest", [
    (None, "090430cde7a1658485162f1a2d8072aaf73920b4d024586dd3c496ed5814ca63"),
    (0.3, "e35b6d7b748a8f08c2386f39a0c60cb2cc2b9fadaa2cdfc0b4d86c927a1f960b"),
])
def test_smile_golden_digest(alpha, digest):
    surf = smile_surface(ModelParams(), 0.01, alpha=alpha)
    h = hashlib.sha256()
    for arr in (surf.price, surf.implied_vol, surf.delta_vs_bs):
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


def test_scalar_wrappers_equal_reference():
    failed = 0
    for strike in np.linspace(0.5, 1.5, 11):
        for tau in (5.0, 20.0, 50.0, 100.0):
            opt = OptionInputs(1.0, float(strike), 0.001, 0.01, tau)
            for alpha in (0.1, 0.3, 0.59):
                value = price(opt, VolDispersion(alpha))
                assert value == ref_price(1.0, float(strike), 0.001, 0.01, tau, alpha)
                try:
                    want = ref_implied_vol(value, 1.0, float(strike), 0.001, tau)
                except NoSolutionError:
                    failed += 1
                    with pytest.raises(NoSolutionError):
                        implied_vol(value, opt)
                else:
                    assert implied_vol(value, opt) == want
    assert failed == 8
    # u* = 0 (b = -a) leaves no piece of the window outside u* +- d
    for alpha, a, b in [(0.0, 0.5, 0.3), (0.3, 0.2, 0.1), (0.3, 0.2, -0.1),
                        (0.3, -0.2, 0.1), (0.3, 0.2, -50.0), (2.0, -0.3, 0.8),
                        (0.3, 0.2, -0.2), (0.3, -0.2, 0.2)]:
        assert m_function(alpha, a, b) == ref_m_function(alpha, a, b)


def test_no_solution_error_names_the_point():
    with pytest.raises(NoSolutionError) as err:
        smile_surface(ModelParams(), 0.01, alpha=0.1)
    msg = str(err.value)
    assert msg.startswith("smile point moneyness=1.25, tau=5.0, alpha=0.1: ")
    assert "no-arbitrage band (0.20399001664585414, 1.0)" in msg
    opt = OptionInputs(np.float64(1.0), np.float64(2.0), 0.0, 0.01, np.float64(5.0))
    with pytest.raises(NoSolutionError) as err:
        implied_vol(np.float64(0.0), opt)
    assert str(err.value) == "target price 0.0 outside the no-arbitrage band (0.0, 1.0)"


def test_dispersion_past_float_range_names_alpha():
    # the kernel weight e^(u - u^2/(2 alpha^2)) at u = 8 alpha is e^(8 alpha - 32)
    with pytest.raises(ParameterError, match=r"alpha=1000\.0 .*below 92\.72"):
        price(ATM, VolDispersion(1e3))
    with pytest.raises(ParameterError, match=r"alpha=5e-324 "):
        m_function(5e-324, 1.0, 1.0)


def test_wide_dispersion_below_the_limit_is_unchanged():
    # e^u and e^-2u overflow harmlessly at these window edges; the values
    # are the ones computed before those overflows were silenced
    assert repr(price(ATM, VolDispersion(50.0))) == "0.48518188795268846"
    assert repr(price(ATM, VolDispersion(92.0))) == "0.49576456313136685"
    assert repr(m_function(1000.0, 1.0, 1.0)) == "0.49999999999999806"
