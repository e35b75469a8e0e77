"""Option valuation: kernel integrals, mixture identity, smile behavior."""
import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from fracvol import pricing
from fracvol.agents import ImpactParams, info_vector, market_impact
from fracvol.errors import GridMismatchError, NoSolutionError, ParameterError
from fracvol.estimation import estimate_report, induced_volatility
from fracvol.fgn import fgn_autocovariance, generate_fgn
from fracvol.pricing import (_BLOCK, OptionInputs, VolDispersion, black_scholes,
                             implied_vol, m_function, mean_variance_fit,
                             monte_carlo_price, price, smile_surface)
from fracvol.returns import _leggauss
from fracvol.simulate import ModelParams

from oracles import ref_implied_vol, ref_m_function, ref_price, ref_price_quad, ref_smile

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
        assert abs(m_function(alpha, a, b)
                   - ref_m_function(alpha, a, b, nodes=1024)) < 1e-8


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
    for bad, name in ((dict(moneyness=np.array([-1.0])), "moneyness"),
                      (dict(moneyness=np.array([1.0, np.nan])), "moneyness"),
                      (dict(taus=np.array([5.0, np.inf])), "tau"),
                      (dict(moneyness=np.array([np.inf])), "moneyness")):
        with pytest.raises(ParameterError, match=name):
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
        OptionInputs(-1.0, 1.0, 0.0, 0.1, 1.0)
    with pytest.raises(ParameterError):
        OptionInputs(1.0, 1.0, math.inf, 0.1, 1.0)
    with pytest.raises(ParameterError):
        VolDispersion(-0.1)
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
    lambda x: fgn_autocovariance(x, 0.7),
    lambda x: market_impact(x, ImpactParams()),
    lambda x: info_vector(x, 0.0),
], ids=["fgn-spacing", "autocov-spacing", "dispersion-horizon",
        "mean_variance_fit-tau", "induced_vol-dt", "estimate-delta", "autocov-lag",
        "market_impact-omega", "info_vector-misprice"])
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


def _split_pairs(*args):
    """_split_rows as the kernel's mirrored pairs: row 0 holds the legs
    (a, b) then (a, -b) point by point, row 1 their mirrors (b, a), (-b, a)."""
    legs = _split_rows(*args).reshape(4, -1)
    return np.stack((np.concatenate(legs[0::2]), np.concatenate(legs[1::2])))


# a = 0 at S/K = e^(-rate tau): near 0.984 for tau 16 and 0.976 for tau 24,
# so splits of both leg pairs fall in every block of _BLOCK pairs
NEAR_BOUNDARY = dict(moneyness=np.linspace(0.975, 0.985, 21),
                     taus=np.array([16.0, 24.0]))


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
        # 84 mirrored pairs in three blocks, each with split and plain rows
        split = _split_pairs(surf.moneyness, surf.taus, sigma_t, disp)
        assert split.shape[1] > 2 * _BLOCK
        for start in range(0, split.shape[1], _BLOCK):
            block = split[:, start:start + _BLOCK]
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


def test_mirrored_pairs_share_one_erfc_pass(monkeypatch):
    # a pair with no split row evaluates erfc once for both rows; any other
    # row evaluates it once, in its plain pass or its split leftover piece
    counted, erfc = [], pricing.erfc

    def erfc_spy(z):
        counted.append(np.size(z))
        return erfc(z)

    monkeypatch.setattr(pricing, "erfc", erfc_spy)
    surf = smile_surface(ModelParams(), 0.01, alpha=0.3)
    split = _split_pairs(surf.moneyness, surf.taus, 0.01, 0.3)
    plain_pairs = int((~split.any(axis=0)).sum())
    assert split.size == 1680 and plain_pairs == 599
    assert sum(counted) == 512 * (split.size - plain_pairs) == 553_472


@pytest.mark.parametrize("nodes", [2, 3, 64, 511, 512])
def test_legendre_nodes_are_mirrored(nodes):
    x, w = _leggauss(nodes)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_pair_with_one_split_row_equals_reference():
    # u* = log(121.51...)/2 rounds to just inside the window [-2.4, 2.4] and
    # its mirror's log(1/121.51...)/2 to just outside: the plain row runs
    # through the pair pass, whose partner row the split pass replaces
    alpha, a, b = 0.3, 1.0, -121.5104175187348
    half = 8.0 * alpha
    assert 0.5 * math.log(-b / a) < half <= -0.5 * math.log(-a / b)
    for p, q in ((a, b), (b, a)):
        assert m_function(alpha, p, q) == ref_m_function(alpha, p, q)


def test_no_solution_error_names_the_point():
    # at sigma_t = 0.002 the out-of-the-money call at S/K = 0.5, and the put
    # that stands in for the call at S/K = 1.5, underflow to 0
    with pytest.raises(NoSolutionError) as err:
        smile_surface(ModelParams(), 0.002, alpha=0.1)
    msg = str(err.value)
    assert msg.startswith("smile point moneyness=0.5, tau=5.0, alpha=0.1: ")
    assert msg.endswith("target price 0.0 outside the no-arbitrage band (0.0, 1.0)")
    with pytest.raises(NoSolutionError) as err:
        smile_surface(ModelParams(), 0.002, moneyness=[1.5], taus=[5.0], alpha=0.1)
    assert str(err.value) == ("smile point moneyness=1.5, tau=5.0, alpha=0.1: out-of-the-"
                              "money put price 0.0 has no volatility in [1e-08, 5.0]")
    opt = OptionInputs(np.float64(1.0), np.float64(2.0), 0.0, 0.01, np.float64(5.0))
    with pytest.raises(NoSolutionError) as err:
        implied_vol(np.float64(0.0), opt)
    assert str(err.value) == "target price 0.0 outside the no-arbitrage band (0.0, 1.0)"


@pytest.mark.parametrize("alpha, routed", [(0.1, 14), (0.0, 22)])
def test_smile_at_intrinsic_value_inverts_the_put(alpha, routed):
    # deep in the money the call lands on or 1e-15 below S - K e^(-r tau),
    # where no call vol exists; those points invert the out-of-the-money put
    surf = smile_surface(ModelParams(), 0.01, alpha=alpha)
    strikes, taus = np.meshgrid(1.0 / surf.moneyness, surf.taus, indexing="ij")
    at = surf.price <= 1.0 - strikes * np.exp(-0.001 * taus)
    assert at.sum() == routed and np.isfinite(surf.implied_vol).all()
    for k, tau, value, vol in zip(strikes[at], taus[at], surf.price[at], surf.implied_vol[at]):
        assert black_scholes(OptionInputs(1.0, k, 0.001, vol, tau)) == pytest.approx(
            value, rel=0, abs=1e-14)
    if alpha == 0.0:
        np.testing.assert_allclose(surf.implied_vol[at], 0.01, rtol=1e-12)


def test_dispersion_past_float_range_names_alpha():
    # past the cap: at 50 the kernel is 2e-3 off, at 1e3 its weight e^(8 alpha - 32)
    # is past the float range, and a subnormal alpha overflows 1/alpha
    for alpha in (1e3, 50.0, 5e-324, 1e-308):
        for call in (lambda: price(ATM, VolDispersion(alpha)),
                     lambda: m_function(alpha, 1.0, 1.0),
                     lambda: smile_surface(ModelParams(), 0.01, alpha=alpha)):
            with pytest.raises(ParameterError, match=f"^alpha={alpha!r} "):
                call()
        # the model's alpha = k delta^(H-1) names the fields it comes from
        with pytest.raises(ParameterError, match=f"^the model's .* k={alpha!r}, .*: alpha="):
            smile_surface(ModelParams(k=alpha), 0.01)


def test_alpha_cap_is_where_the_kernel_holds_1e_10():
    # both sides of _ALPHA_MAX, the bound scripts/kernel_accuracy.py measures:
    # within 1e-10 relative of adaptive quadrature at it, refused just past it
    cap = pricing._ALPHA_MAX
    for strike, tau in ((1.05, 20.0), (0.8, 5.0), (1.5, 100.0), (1.0, 20.0)):
        value = price(OptionInputs(1.0, strike, 0.0, 0.01, tau), VolDispersion(cap))
        assert value == pytest.approx(ref_price_quad(1.0, strike, 0.0, 0.01, tau, cap),
                                      rel=1e-10, abs=0)
    with pytest.raises(ParameterError, match=r"^alpha=5\.000000000000001 is outside the "
                                             r"M-kernel's domain: 0 or a normal float up to 5\.0$"):
        VolDispersion(math.nextafter(cap, math.inf))
    assert VolDispersion(sys.float_info.min).alpha > 0.0  # the smallest normal alpha


def test_wide_dispersion_below_the_limit_is_unchanged():
    # the bits at the cap are those the kernel gave with its guards for alpha > 44
    assert repr(price(ATM, VolDispersion(5.0))) == "0.27892161544175575"
    assert repr(m_function(5.0, 1.0, 1.0)) == "0.4990277862302225"


def test_zero_coefficient_legs_add_nothing_past_the_float_range():
    # a = 0 at S = K e^(-rate tau), and b = sigma_t sqrt(tau)/2 = 5e-301: the M
    # rows of the two legs with coefficient a leave the float range, but add 0
    b = 0.5 * 1e-300
    with pytest.raises(ParameterError, match=r"raise sigma or tau$"):
        m_function(5.0, 0.0, b)
    assert 0.0 < m_function(5.0, b, 0.0) < math.inf
    assert price(OptionInputs(1.0, 1.0, 0.0, 1e-300, 1.0), VolDispersion(5.0)) == 0.0
