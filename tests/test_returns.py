"""Return-distribution quadrature, sampler, and tail behavior, and the
scipy ufuncs that the package loads without the scipy.special package."""
import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.stats import norm

import fracvol
from fracvol import returns
from fracvol.errors import OutOfRegimeError, ParameterError
from fracvol.returns import (ReturnDistParams, calibrate_tail_prefactor, cdf,
                             central_return, pdf, return_for_lambda, return_grid,
                             sample_returns, tail_asymptotic, tail_lambda)


def test_zero_coupling_is_gaussian():
    p = ReturnDistParams(beta=-3.0, k=0.0, mu=0.01, lag=4.0)
    sigma = np.exp(-3.0)
    mean = (0.01 - sigma ** 2 / 2) * 4.0
    sd = sigma * 2.0
    r = np.linspace(-0.5, 0.5, 11)
    np.testing.assert_allclose(pdf(r, p), norm.pdf(r, mean, sd), rtol=1e-12)
    np.testing.assert_allclose(cdf(r, p), norm.cdf(r, mean, sd), rtol=1e-12)
    for f in (pdf, cdf):  # a scalar r gives a float, the array call's element
        value = f(float(r[0]), p)
        assert type(value) is float and value == f(r, p)[0]


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


@pytest.mark.parametrize("k", [1e-320, 5e-324])
def test_subnormal_logvol_sd_names_k(k):
    # k delta^(H-1) is subnormal, so the log-vol density's peak
    # 1/(s sqrt(2 pi)) overflows in the node weights
    p = ReturnDistParams(k=k)
    for f in (pdf, cdf):
        with pytest.raises(ParameterError, match=rf"^k={k!r} puts the peak log-vol"):
            f(np.array([0.0, 1e-3]), p)


@pytest.mark.parametrize("beta, k", [(-744.0, 0.0), (-705.0, 0.59)])
def test_density_peak_past_float_range_names_beta(beta, k):
    # the return sd is positive but subnormal at some log-vol node, so the
    # density's peak 1/(sd sqrt(2 pi)) overflows; the cdf stays defined
    p = ReturnDistParams(beta=beta, k=k)
    with pytest.raises(ParameterError, match=rf"beta={beta!r} puts the peak"):
        pdf(np.array([0.0, 1.0]), p)
    assert cdf(np.array([-1.0, 1.0]), p).tolist() == [0.0, 1.0]


def test_far_tail_is_an_exact_zero_without_warnings():
    # z*z, and at 1e300 z itself, overflow; exp(-inf) and ndtr(+-inf) are
    # exact, and the pytest filter turns any RuntimeWarning into a failure
    p = ReturnDistParams(beta=-700.0)
    assert pdf(1.0, p) == 0.0 and pdf(1e300, p) == 0.0
    assert cdf(1e300, p) == 1.0 and cdf(-1e300, p) == 0.0


@pytest.mark.parametrize("f, k", [(pdf, 30.0), (pdf, 40.0), (pdf, 58.0),
                                  (cdf, 30.0), (cdf, 40.0), (cdf, 59.0)])
def test_large_coupling_is_finite_without_warnings(f, k):
    # sigma^2 overflows at the top log-vol nodes, so their mean is -inf and
    # they add exactly 0 to the density and 1 to the cdf; the pytest filter
    # turns any RuntimeWarning into a failure (pdf at k = 59 is the peak
    # density error above: its lowest node's return sd is subnormal)
    assert np.all(np.isfinite(f(np.array([0.0, 0.1]), ReturnDistParams(k=k))))


@pytest.mark.parametrize("k", [60.0, 100.0])
def test_top_logvol_node_past_float_range_names_k(k):
    # e^u overflows at the top node beta + 12 k delta^(H-1) x
    p = ReturnDistParams(k=k)
    for f in (pdf, cdf):
        with pytest.raises(ParameterError, match=rf"^k={k!r} puts the top log-vol node"):
            f(np.array([0.0, 0.1]), p)


@pytest.mark.parametrize("k, lag", [(58.0, 1e20), (40.0, 1e220)])
def test_return_sd_past_float_range_names_lag_and_k(k, lag):
    # the top node's e^u is a float, but e^u sqrt(lag) is not
    p = ReturnDistParams(k=k, lag=lag)
    for f in (pdf, cdf):
        with pytest.raises(ParameterError,
                           match="^" + re.escape(f"lag={lag!r} with k={k!r} puts the return sd")):
            f(np.array([0.0, 0.1]), p)


@pytest.mark.parametrize("beta, k", [(354.0, 0.59), (350.0, 3.0)])
def test_sampled_sigma_squared_past_float_range_names_beta_and_k(beta, k):
    # theta^2 = e^(2 beta) is a float, but a drawn sigma^2 = e^(2u) is not;
    # this warned and returned -inf draws
    p = ReturnDistParams(beta=beta, k=k)
    with pytest.raises(ParameterError,
                       match="^" + re.escape(f"beta={beta!r} with k={k!r} draws a sigma^2")):
        sample_returns(p, 1000)


@pytest.mark.parametrize("beta", [354.9, 400.0, 709.8, 710.0, 1e300])
def test_central_volatility_squared_past_float_range_names_beta(beta):
    # central_return squares theta = e^beta; past the float range it raised
    # a raw OverflowError, or returned -inf once e^beta itself overflowed
    with pytest.raises(ParameterError, match="^" + re.escape(f"beta={beta!r} puts theta^2")):
        ReturnDistParams(beta=beta)


def test_central_volatility_squared_at_the_float_edge_is_kept():
    # e^(2 beta) is still a float just below beta = log(max float) / 2
    p = ReturnDistParams(beta=354.89)
    assert np.isfinite(central_return(p)) and central_return(p) < -8e307


def test_return_grid_spans_eight_sds_about_the_centre():
    params = ReturnDistParams(lag=2.0)
    sd = params.theta * np.exp(params.sigma_logvol ** 2) * np.sqrt(2.0)
    r = return_grid(params)
    assert r.shape == (513,)
    assert r[0] == central_return(params) - 8.0 * sd
    assert r[-1] == central_return(params) + 8.0 * sd
    assert r[256] == pytest.approx(central_return(params), abs=1e-12 * sd)
    np.testing.assert_allclose(np.diff(r), sd / 32.0, rtol=1e-9)
    # e^(k^2) overflows at k = 27: the grid is past the float range
    with pytest.raises(ParameterError, match=re.escape(
            "the return grid (sd inf) is past the float range; lower k or beta")):
        return_grid(ReturnDistParams(k=27.0))


@pytest.mark.parametrize("call, text", [
    (lambda p: pdf(np.nan, p), "r must not be nan, got nan at flat index 0"),
    (lambda p: cdf([0.0, np.nan], p), "r must not be nan, got nan at flat index 1"),
    (lambda p: pdf(np.array([[0.0, 1.0], [np.nan, 0.0]]), p),
     "r must not be nan, got nan at flat index 2"),
    (lambda p: tail_lambda([1.0, 2.0, np.nan], p), "r must not be nan, got nan at flat index 2"),
    (lambda p: tail_asymptotic([1.0, np.nan], p), "r must not be nan, got nan at flat index 1"),
    (lambda p: return_for_lambda([10.0, np.nan], p),
     "lam must not be nan, got nan at flat index 1"),
], ids=["pdf", "cdf", "pdf-2d", "tail_lambda", "tail_asymptotic", "return_for_lambda"])
def test_nan_evaluation_point_is_named(call, text):
    with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
        call(ReturnDistParams())


def test_infinite_evaluation_points_are_the_limits():
    p = ReturnDistParams()
    assert pdf(np.inf, p) == 0.0 and pdf(-np.inf, p) == 0.0
    low, high = cdf([-np.inf, np.inf], p)
    assert low == 0.0 and high == 1.0
    assert cdf(-np.inf, p) == 0.0 and cdf(np.inf, p) == 1.0


# [-40, 40] in 200,001 steps, then the special values
UFUNC_GRID = np.r_[np.linspace(-40.0, 40.0, 200_001),
                   np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324]


@pytest.mark.parametrize("name", ["erf", "erfc", "ndtr"])
def test_loaded_ufuncs_equal_scipy_special_bit_for_bit(name):
    ours, theirs = getattr(returns, name)(UFUNC_GRID), getattr(special, name)(UFUNC_GRID)
    assert ours.tobytes() == theirs.tobytes()


def _fake_scipy(root):
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(root)]
    return lambda name: spec


@pytest.mark.parametrize("case", ["no-scipy", "no-file", "bad-file"])
def test_loader_falls_back_to_scipy_special(tmp_path, monkeypatch, case):
    (tmp_path / "special").mkdir()
    if case == "bad-file":  # found, but not a loadable extension
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (tmp_path / "special" / f"_special_ufuncs{suffix}").write_bytes(b"not an ELF")
    monkeypatch.setattr(importlib.util, "find_spec",
                        (lambda name: None) if case == "no-scipy" else _fake_scipy(tmp_path))
    found = returns._special_ufuncs()
    assert all(a is b for a, b in zip(found, (special.erf, special.erfc, special.ndtr)))


_DIGEST = """
import hashlib, sys
import numpy as np
from fracvol import pricing, returns
grid = np.r_[np.linspace(-40.0, 40.0, 200_001), np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324]
p = returns.ReturnDistParams()
r = returns.return_grid(p)
outputs = [returns.erf(grid), returns.erfc(grid), returns.ndtr(grid), returns.pdf(r, p),
           returns.cdf(r, p), pricing.smile_surface(pricing.ModelParams(), 0.01).implied_vol]
print(hashlib.sha256(b"".join(o.tobytes() for o in outputs)).hexdigest(),
      "scipy.special" in sys.modules)
"""


def test_forced_fallback_gives_the_same_bits(tmp_path):
    """A fresh process that cannot find scipy's location imports scipy.special
    for the three ufuncs; its outputs are the loader's, bit for bit."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fracvol.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    lines = []
    for prelude in ("", "import importlib.util; importlib.util.find_spec = lambda name: None"):
        proc = subprocess.run([sys.executable, "-c", prelude + _DIGEST], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout.split())
    (loaded, direct), (fallback, imported) = lines
    assert (direct, imported) == ("False", "True")
    assert loaded == fallback
