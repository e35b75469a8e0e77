"""Price-path generator contracts: shapes, determinism, grid rules."""
import hashlib
import math
import warnings

import numpy as np
import pytest

from conftest import warm_traced_peak

from fracvol import simulate
from fracvol.errors import GenerationError, GridMismatchError, ParameterError
from fracvol.estimation import leverage
from fracvol.pricing import OptionInputs, mean_variance_fit, monte_carlo_price
from fracvol.rng import substream
from fracvol.simulate import (_ENS_VOL, IDENTIFIED_DRIVERS, MarketPath,
                              ModelParams, calibrated_kprime,
                              identified_return_ensemble,
                              logvol_marginal_moments, path_ensemble,
                              simulate_identified, simulate_path)


def test_path_shape_and_grid():
    path = simulate_path(ModelParams(), 256, 1.0, seed=0)
    assert len(path.prices) == 257
    np.testing.assert_allclose(path.times, np.arange(257.0))
    assert np.all(path.prices > 0)
    path.validate()


def test_replay_is_identical():
    a = simulate_path(ModelParams(), 128, 1.0, seed=5)
    b = simulate_path(ModelParams(), 128, 1.0, seed=5)
    np.testing.assert_array_equal(a.prices, b.prices)
    np.testing.assert_array_equal(a.logvol, b.logvol)


def test_seed_changes_both_streams():
    a = simulate_path(ModelParams(), 128, 1.0, seed=1)
    b = simulate_path(ModelParams(), 128, 1.0, seed=2)
    assert not np.array_equal(a.logvol, b.logvol)
    assert not np.array_equal(a.prices, b.prices)


def test_logvol_marginal_moments():
    mean, var = logvol_marginal_moments(ModelParams())
    assert mean == -5.0
    assert var == pytest.approx(0.59 ** 2)
    path = simulate_path(ModelParams(), 2 ** 15, 1.0, seed=3)
    # long memory makes the sample mean converge slowly; bands are loose
    assert path.logvol.mean() == pytest.approx(-5.0, abs=0.35)
    assert path.logvol.std() == pytest.approx(0.59, abs=0.1)


def test_constant_vol_reduces_to_diffusion():
    params = ModelParams(k=0.0, beta=-2.0, mu=0.005)
    path = simulate_path(params, 20000, 1.0, seed=11)
    np.testing.assert_allclose(path.logvol, -2.0)
    r = np.diff(np.log(path.prices))
    sigma = np.exp(-2.0)
    assert r.mean() == pytest.approx(0.005 - sigma ** 2 / 2,
                                     abs=4 * sigma / np.sqrt(20000))
    assert r.std() == pytest.approx(sigma, rel=0.03)


def test_grid_mismatch_rejected():
    with pytest.raises(GridMismatchError):
        simulate_path(ModelParams(delta=1.0), 64, 0.3, seed=0)


def test_identified_coupling_needs_ma_form():
    with pytest.raises(ParameterError):
        simulate_path(ModelParams(coupling=IDENTIFIED_DRIVERS), 64, 1.0)
    with pytest.raises(ParameterError):
        path_ensemble(ModelParams(coupling=IDENTIFIED_DRIVERS), 64, 1.0)


def test_ensemble_prefix_stable_in_path_count():
    params = ModelParams()
    _, p4, _ = path_ensemble(params, 64, 1.0, seed=9, n_paths=4)
    _, p8, _ = path_ensemble(params, 64, 1.0, seed=9, n_paths=8)
    np.testing.assert_array_equal(p4, p8[:4])


@pytest.mark.parametrize("dt", [0.5, 1.0, 2.0])
def test_single_path_is_row_zero_of_the_ensemble(dt):
    params = ModelParams()
    path = simulate_path(params, 300, dt, s0=2.0, seed=4)
    times, prices, logvol = path_ensemble(params, 300, dt, s0=2.0, seed=4,
                                          n_paths=3)
    np.testing.assert_array_equal(path.times, times)
    np.testing.assert_array_equal(path.prices, prices[0])
    np.testing.assert_array_equal(path.logvol, logvol[0])
    assert path.seed == 4


def _block_fed_outputs():
    """SHA-256 over every output the row blocks feed, and one failure's text."""
    digest = hashlib.sha256()
    for params, dt in ((ModelParams(), 0.25), (ModelParams(), 3.0),  # hold, subsample
                       (ModelParams(k=0.0), 1.0), (ModelParams(hurst=1.0), 1.0)):
        for array in path_ensemble(params, 40, dt, s0=1.5, seed=6, n_paths=37):
            digest.update(array.tobytes())
    path = simulate_path(ModelParams(), 500, 1.0, seed=2)
    digest.update(path.prices.tobytes() + path.logvol.tobytes())
    sigma_t, _ = mean_variance_fit(ModelParams(), 20.0)
    opt = OptionInputs(spot=1.0, strike=1.0, rate=0.001, sigma_t=sigma_t, tau=20.0)
    digest.update(np.array(monte_carlo_price(opt, ModelParams(), 3000, seed=5)).tobytes())
    with pytest.raises(GenerationError) as failure:
        path_ensemble(ModelParams(beta=-0.5, k=1.0), 50, 1.0, seed=1, n_paths=4000)
    return digest.hexdigest(), str(failure.value)


@pytest.mark.parametrize("cells", [1, 256, simulate._BLOCK_CELLS],
                         ids=["one-row", "a-few-rows", "default"])
def test_block_size_changes_no_bit(monkeypatch, cells):
    # 256 cells make blocks of 1 to 12 rows here, so path 479 is past the first
    monkeypatch.setattr(simulate, "_BLOCK_CELLS", cells)
    digest, failure = _block_fed_outputs()
    # taken when path_ensemble still drew every row at once
    assert digest == "a578fbe1d397f2bdce18cfb34c7c57ef83059d8b3791cf4f0948f6568e164804"
    assert failure == ("price 0.0 on path 479 at step 26 (seed 1): "
                       "the log price left the float range")


def test_traced_peak_holds_one_block_of_paths():
    # the warm-up call fills the spectral weight cache. Whole paths read
    # 160.2 and 19.7 MiB.
    sigma_t, _ = mean_variance_fit(ModelParams(), 20.0)
    opt = OptionInputs(spot=1.0, strike=1.0, rate=0.0, sigma_t=sigma_t, tau=20.0)
    calls = {16: lambda: monte_carlo_price(opt, ModelParams(), 100_000),
             12: lambda: path_ensemble(ModelParams(), 1000, 1.0, n_paths=256)}
    for mib, call in calls.items():
        assert warm_traced_peak(call) <= mib * 2**20


def test_ensemble_terminal_mean_at_zero_drift():
    _, prices, _ = path_ensemble(ModelParams(), 200, 1.0, seed=17, n_paths=2000)
    terminal = prices[:, -1]
    z = (terminal.mean() - 1.0) / (terminal.std(ddof=1) / np.sqrt(2000))
    assert abs(z) < 4.0


def test_identified_ensemble_shape_and_replay():
    params = ModelParams(coupling=IDENTIFIED_DRIVERS)
    a = identified_return_ensemble(params, 500, 1.0, seed=3, n_paths=8)
    b = identified_return_ensemble(params, 500, 1.0, seed=3, n_paths=8)
    assert a.shape == (8, 500)
    np.testing.assert_array_equal(a, b)


def test_identified_ensemble_matches_direct_convolution():
    # the moving average written out with np.convolve on the same stream
    params = ModelParams(beta=-4.0, mu=0.01, hurst=0.7,
                         coupling=IDENTIFIED_DRIVERS)
    n_steps, dt, history, paths = 40, 0.5, 4096, 3
    got = identified_return_ensemble(params, n_steps, dt, seed=6, n_paths=paths)
    e = np.sqrt(dt) * substream(6, _ENS_VOL, 0).standard_normal(
        (paths, history + n_steps))
    w = (np.arange(1, history + 1) * dt) ** (params.hurst - 1.5)
    kp = calibrated_kprime(params, dt)
    logvol = params.beta + kp * np.array([np.convolve(row, w, mode="valid")
                                          for row in e])
    sig = np.exp(logvol[:, :-1])
    want = (params.mu - 0.5 * sig**2) * dt - sig * e[:, history:]
    # returns near zero cancel drift against shock, so the tolerance is
    # relative to the largest return
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-12 * np.abs(want).max())


def test_identified_coupling_produces_leverage():
    params = ModelParams(beta=-6.0, coupling=IDENTIFIED_DRIVERS)
    rets = identified_return_ensemble(params, 2000, 1.0, seed=3, n_paths=64)
    lev = leverage(rets, 3)
    taus = lev[:, 0]
    assert lev[taus == 1, 1][0] < 0
    assert lev[taus == 2, 1][0] < 0


def test_simulate_identified_path():
    path = simulate_identified(ModelParams(coupling=IDENTIFIED_DRIVERS),
                               512, 1.0, seed=2)
    path.validate()
    assert len(path.prices) == 513


def test_calibrated_kernel_amplitude():
    v = calibrated_kprime(ModelParams(), 1.0)
    assert v > 0
    assert calibrated_kprime(ModelParams(k=0.0), 1.0) == 0.0


def test_param_validation():
    for bad in (lambda: ModelParams(hurst=0.0), lambda: ModelParams(delta=-1.0),
                lambda: ModelParams(k=-0.1), lambda: ModelParams(coupling="other")):
        with pytest.raises(ParameterError):
            bad()
    with pytest.raises(ParameterError):
        simulate_path(ModelParams(), 0, 1.0)
    with pytest.raises(ParameterError):
        simulate_path(ModelParams(), 64, 1.0, s0=0.0)


def test_market_path_validation():
    with pytest.raises(ParameterError):
        MarketPath(times=np.array([0.0, 1.0]), prices=np.array([1.0, -1.0]),
                   logvol=np.zeros(2), seed=0).validate()
    with pytest.raises(ParameterError):
        MarketPath(times=np.array([0.0, 0.0]), prices=np.ones(2),
                   logvol=np.zeros(2), seed=0).validate()
    with pytest.raises(ParameterError):
        MarketPath(times=np.arange(3.0), prices=np.ones(3),
                   logvol=np.zeros(2), seed=0).validate()
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="positive and finite"):
            MarketPath(times=np.arange(2.0), prices=np.array([1.0, bad]),
                       logvol=np.zeros(2), seed=0).validate()


@pytest.mark.parametrize("dt", [1e-12, 1e-300])
def test_hold_longer_than_the_path(dt):
    # one log-vol value covers the whole path however many dt steps it spans
    path = simulate_path(ModelParams(), 10, dt)
    assert path.prices.shape == (11,) and np.all(np.isfinite(path.prices))
    assert np.all(path.logvol == path.logvol[0])


@pytest.mark.parametrize("generate, where", [
    (lambda: simulate_path(ModelParams(beta=700.0), 5, 1.0, seed=3),
     r"price 0\.0 on path 0 at step 1 \(seed 3\)"),
    (lambda: path_ensemble(ModelParams(beta=700.0), 5, 1.0, seed=4, n_paths=3),
     r"on path 0 at step 1 \(seed 4\)"),
    (lambda: path_ensemble(ModelParams(mu=1e300), 5, 1.0, n_paths=2),
     r"price inf on path 0 at step 1 \(seed 0\)"),
    (lambda: simulate_identified(ModelParams(beta=700.0), 5, 1.0, seed=2),
     r"on path 0 at step 1 \(seed 2\)"),
], ids=["simulate_path", "path_ensemble", "path_ensemble-mu", "simulate_identified"])
def test_price_past_float_range_is_a_generation_error(generate, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(GenerationError, match=where):
            generate()


def test_time_stamps_past_float_range_name_dt():
    params = ModelParams(k=0.0, beta=-400.0)
    for run in (lambda: simulate_path(params, 2000, 1e308),
                lambda: path_ensemble(params, 2000, 1e308, n_paths=2),
                lambda: simulate_identified(params, 2000, 1e308)):
        with pytest.raises(ParameterError, match=r"dt=1e\+308: the last time stamp"):
            run()
    # the largest grid that still fits keeps its last stamp
    assert simulate_path(params, 1, 1e308).times[-1] == 1e308
