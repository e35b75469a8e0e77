"""Volatility-pipeline estimators checked against synthetic ground truth."""
import numpy as np
import pytest

from fracvol.errors import (GridMismatchError, InsufficientDataError,
                            ParameterError)
from fracvol.estimation import (autocorrelation, default_scaling_lags,
                                estimate_report, induced_volatility,
                                integrated_logvol_decompose, leverage,
                                scaling_exponent, uniform_step)
from fracvol.fgn import fbm_from_fgn, generate_fgn


def _walk(sigma, n, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(sigma * rng.standard_normal(n))


def test_constant_vol_variance_unbiased():
    sigma = 0.02
    x = _walk(sigma, 60000, 42)
    est = induced_volatility(x, 21)
    assert len(est) == 60000 - 20
    # the window statistic is unbiased for sigma^2 (sqrt carries Jensen bias)
    assert (est ** 2).mean() == pytest.approx(sigma ** 2, rel=0.01)


def test_debias_factor_is_exact():
    # the output is the raw window variance over the window length, times 6w/(w+1)
    x, w, dt = _walk(0.1, 500, 1), 21, 0.5
    raw = np.array([np.var(x[i:i + w], ddof=1) for i in range(len(x) - w + 1)]) / (w * dt)
    np.testing.assert_allclose(induced_volatility(x, w, dt) ** 2, raw * 6 * w / (w + 1),
                               rtol=1e-10)


def test_induced_volatility_validation():
    x = _walk(0.1, 100, 0)
    with pytest.raises(ParameterError):
        induced_volatility(x, 4)
    with pytest.raises(ParameterError):
        induced_volatility(x, 21, dt=0.0)
    with pytest.raises(InsufficientDataError):
        induced_volatility(x[:15], 21)


def test_decompose_recovers_constant_level():
    vol = np.full(1000, np.exp(-4.0))
    d = integrated_logvol_decompose(vol)
    assert d.beta_hat == pytest.approx(-4.0, abs=1e-10)
    assert d.intercept == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(d.r_sigma, 0.0, atol=1e-8)


def test_decompose_reconstructs_exactly():
    rng = np.random.default_rng(5)
    vol = np.exp(-5.0 + 0.5 * rng.standard_normal(400))
    d = integrated_logvol_decompose(vol)
    c = np.cumsum(np.log(vol))
    t = np.arange(1.0, 401.0)
    np.testing.assert_allclose(d.beta_hat * t + d.intercept + d.r_sigma, c,
                               rtol=0, atol=1e-9)
    assert abs(d.r_sigma.mean()) < 1e-12
    with pytest.raises(ParameterError):
        integrated_logvol_decompose(np.array([1.0, 0.0, 1.0]))


def test_default_scaling_lags():
    np.testing.assert_array_equal(default_scaling_lags(1024), [1, 2, 4, 8, 16])
    np.testing.assert_array_equal(default_scaling_lags(512), [1, 2, 4, 8])
    for short in (100, 511):
        with pytest.raises(InsufficientDataError):
            default_scaling_lags(short)


def test_scaling_exponent_on_known_processes():
    noise = generate_fgn(2 ** 15, 0.8, seed=0)
    h, se = scaling_exponent(fbm_from_fgn(noise).values)
    assert h == pytest.approx(0.8, abs=0.08)
    assert 0 < se < 0.05
    walk = np.cumsum(np.random.default_rng(7).standard_normal(2 ** 15))
    h_w, _ = scaling_exponent(walk)
    assert h_w == pytest.approx(0.5, abs=0.07)
    with pytest.raises(InsufficientDataError):
        scaling_exponent(walk[:16], lags=[1, 2, 4])
    # integer lags outside [1, n) are dropped, however large
    assert scaling_exponent(walk, [0, 1, 2, 4, 8, 2**15, 2**70]) == scaling_exponent(
        walk, np.array([1, 2, 4, 8], dtype=np.int32))
    with pytest.raises(InsufficientDataError):
        scaling_exponent(np.zeros(4096))


def test_leverage_iid_is_flat():
    r = np.random.default_rng(3).standard_normal(100000)
    lev = leverage(r, 5)
    assert lev.shape == (11, 2)
    np.testing.assert_array_equal(lev[:, 0], np.arange(-5, 6))
    off = lev[lev[:, 0] != 0, 1]
    assert np.abs(off).max() < 5 * np.sqrt(3 / 1e5)


def test_leverage_detects_asymmetric_feedback():
    rng = np.random.default_rng(11)
    eps = rng.standard_normal(200000)
    scale = np.ones(200000)
    scale[1:] = 1.0 + 0.8 * (eps[:-1] < 0)
    lev = leverage(scale * eps, 3)
    vals = dict(zip(lev[:, 0], lev[:, 1]))
    assert vals[1.0] < -1.0
    others = [v for t, v in vals.items() if t != 1.0]
    assert max(abs(v) for v in others) < 0.1
    with pytest.raises(InsufficientDataError):
        leverage(eps[:10], 5)


def test_autocorrelation_small_case():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    out = autocorrelation(x, [0, 1, 2])
    xc = x - x.mean()
    assert out[0, 1] == 1.0
    assert out[1, 1] == pytest.approx((xc[:-1] @ xc[1:]) / (xc @ xc))
    assert out[2, 1] == pytest.approx((xc[:-2] @ xc[2:]) / (xc @ xc))
    with pytest.raises(ParameterError):
        autocorrelation(x, [3])
    with pytest.raises(ParameterError):
        autocorrelation(x, [-1])
    with pytest.raises(ParameterError):
        autocorrelation(np.ones(100), [1])


def test_report_shapes_and_flooring():
    rng = np.random.default_rng(9)
    log_p = np.cumsum(0.01 * rng.standard_normal(2000))
    prices = np.exp(log_p)
    prices[1000:1040] = prices[1000]
    rep = estimate_report(prices)
    assert rep.n_floored > 0
    assert len(rep.induced_vol) == 2000 - 20
    assert rep.acf.shape == (20, 2)
    assert rep.leverage.shape == (21, 2)
    assert len(rep.r_sigma) == len(rep.induced_vol)
    assert np.isfinite(rep.hurst_hat)


def test_report_grid_rules():
    prices = np.exp(_walk(0.01, 2000, 2))
    with pytest.raises(GridMismatchError):
        estimate_report(prices, dt=1.0, delta=2.5)
    rep = estimate_report(prices, dt=0.5, delta=1.0)
    assert len(rep.r_sigma) == (2000 - 20 + 1) // 2
    with pytest.raises(ParameterError):
        estimate_report(-prices)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_report_rejects_non_finite_prices(bad):
    prices = np.r_[np.ones(100), bad, np.ones(100)]
    with pytest.raises(ParameterError, match="finite.*at index 100"):
        estimate_report(prices)


def test_uniform_step_is_the_grid_rule_of_an_ingested_series():
    assert uniform_step([0.0, 0.5, 1.0, 1.5]) == 0.5
    assert uniform_step([0.0, 0.5]) == 0.5  # the shortest grid
    assert uniform_step(np.arange(1000) * 0.1) == 0.1  # steps within 1e-9 relative
    with pytest.raises(GridMismatchError,
                       match=r"^time grid must be uniform; step 2 is 1\.5 vs 1\.0$"):
        uniform_step([0.0, 1.0, 2.5])
    for short in ([], [3.0]):
        with pytest.raises(InsufficientDataError, match=r"^need at least 2 rows"):
            uniform_step(short)
