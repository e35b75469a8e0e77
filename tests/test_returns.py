"""Return-distribution quadrature, sampler, and tail behavior."""
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from fracvol.errors import OutOfRegimeError, ParameterError
from fracvol.returns import (ReturnDistParams, calibrate_tail_prefactor, cdf,
                             central_return, pdf, return_for_lambda,
                             sample_returns, tail_asymptotic, tail_lambda)


def test_zero_coupling_is_gaussian():
    p = ReturnDistParams(beta=-3.0, k=0.0, mu=0.01, lag=4.0)
    sigma = np.exp(-3.0)
    mean = (0.01 - sigma ** 2 / 2) * 4.0
    sd = sigma * 2.0
    r = np.linspace(-0.5, 0.5, 11)
    np.testing.assert_allclose(pdf(r, p), norm.pdf(r, mean, sd), rtol=1e-12)
    np.testing.assert_allclose(cdf(r, p), norm.cdf(r, mean, sd), rtol=1e-12)


def test_pdf_normalizes():
    p = ReturnDistParams()
    total, _ = quad(lambda r: pdf(r, p), -np.inf, np.inf, limit=800)
    assert abs(total - 1.0) < 1e-9


def test_cdf_properties():
    p = ReturnDistParams()
    r = np.linspace(-0.2, 0.2, 201)
    F = cdf(r, p)
    assert np.all(np.diff(F) > 0)
    assert cdf(-5.0, p) < 1e-12
    assert cdf(5.0, p) > 1.0 - 1e-12
    a, b = -0.01, 0.02
    mass, _ = quad(lambda x: pdf(x, p), a, b, limit=200)
    assert cdf(b, p) - cdf(a, p) == pytest.approx(mass, abs=1e-9)


def test_sampler_matches_cdf():
    p = ReturnDistParams()
    x = np.sort(sample_returns(p, 20000, seed=3))
    n = len(x)
    F = cdf(x, p)
    ks = max(np.max(F - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - F))
    assert ks * np.sqrt(n) < 1.63  # 99% Kolmogorov band


def test_sampler_determinism():
    p = ReturnDistParams()
    np.testing.assert_array_equal(sample_returns(p, 100, seed=4),
                                  sample_returns(p, 100, seed=4))
    assert not np.array_equal(sample_returns(p, 100, seed=4),
                              sample_returns(p, 100, seed=5))


def test_mode_sits_at_central_return():
    p = ReturnDistParams()
    grid = np.linspace(-0.05, 0.05, 4001)
    mode = grid[np.argmax(pdf(grid, p))]
    assert abs(mode - central_return(p)) <= 2 * (grid[1] - grid[0])


def test_tail_variable_round_trip():
    p = ReturnDistParams()
    r = central_return(p) + np.geomspace(1e-4, 1.0, 20)
    back = return_for_lambda(tail_lambda(r, p), p)
    np.testing.assert_allclose(back, r, rtol=1e-10)


def test_tail_curvature_in_log_lambda():
    p = ReturnDistParams(beta=-6.0, k=0.8)
    lam = np.geomspace(1e3, 1e5, 60)
    y = -np.log(pdf(return_for_lambda(lam, p), p))
    curvature = np.polyfit(np.log(lam), y, 2)[0]
    assert curvature == pytest.approx(1.0 / p.tail_coefficient, rel=0.05)


def test_tail_asymptotic_tracks_pdf():
    p = ReturnDistParams(beta=-6.0, k=0.8)
    pref = calibrate_tail_prefactor(p)
    lam = np.geomspace(1e3, 1e5, 60)
    r = return_for_lambda(lam, p)
    ratio = pdf(r, p) / tail_asymptotic(r, p, pref)
    # prefactor absorbs the level; slow variation stays within a factor 4
    assert np.exp(np.mean(np.log(ratio))) == pytest.approx(1.0, abs=0.01)
    assert ratio.min() > 0.25 and ratio.max() < 4.0


def test_parameter_errors():
    with pytest.raises(ParameterError):
        pdf(0.0, ReturnDistParams(lag=0.0))
    with pytest.raises(ParameterError):
        pdf(0.0, ReturnDistParams(hurst=1.5))
    with pytest.raises(ParameterError):
        pdf(0.0, ReturnDistParams(), nodes=0)
    with pytest.raises(ParameterError):
        sample_returns(ReturnDistParams(), 0)
    p = ReturnDistParams()
    with pytest.raises(OutOfRegimeError):
        tail_asymptotic(central_return(p) + 1e-6, p)
    with pytest.raises(ParameterError):
        tail_asymptotic(1.0, ReturnDistParams(k=0.0))


@pytest.mark.parametrize("k", [0.59, 0.0])
def test_return_sd_below_float_range_names_beta(k):
    # e^beta underflows, so the conditional return sd is 0 and the density
    # would divide by it
    p = ReturnDistParams(beta=-800.0, k=k)
    for f in (pdf, cdf):
        with pytest.raises(ParameterError, match=r"beta=-800\.0"):
            f(np.array([0.0, 1e-300]), p)
