"""Covariance exactness and determinism of the noise generator."""
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import warm_traced_peak
from oracles import fbm_covariance, fgn_durbin_levinson, ref_fgn_circulant

from fracvol import fgn
from fracvol.errors import GenerationError, ParameterError
from fracvol.fgn import (FgnSeries, _circulant_eigenvalues, _sample_unit_fgn,
                         fbm_from_fgn, fgn_autocovariance, generate_fgn)
from fracvol.rng import substream
from fracvol.simulate import ModelParams, path_ensemble, simulate_path


def test_autocovariance_matches_fbm_increments():
    # gamma(k) must equal cov(B(t+1)-B(t), B(s+1)-B(s)) at |t-s| = k
    h = 0.8
    for k in range(6):
        c = (fbm_covariance(1, k + 1, h) - fbm_covariance(1, k, h)
             - fbm_covariance(0, k + 1, h) + fbm_covariance(0, k, h))
        assert fgn_autocovariance(k, h) == pytest.approx(c, rel=1e-12)


def _one_line_autocovariance(lag, hurst, spacing):
    # the expression the buffered evaluation replaced, temporaries and all
    k, two_h = np.asarray(lag, dtype=float), 2.0 * hurst
    out = 0.5 * spacing**two_h * (
        np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)
    return out if out.ndim else float(out)


@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.3, 0.5, 0.83, 0.99999, 1.0])
@pytest.mark.parametrize("spacing", [1.0, 0.37, 3])
def test_buffered_autocovariance_equals_the_one_line_expression_bit_for_bit(hurst, spacing):
    # H = 0.25, 0.5 and 1 give the exponents 0.5, 1 and 2
    for lag in (np.arange(4097), np.arange(4097.0)[::-3], np.linspace(0.0, 40.0, 333),
                [[0, 1], [2, 3]], 0, 1, 7, 3.5, np.float64(10**6), np.array(5.0)):
        ours, old = fgn_autocovariance(lag, hurst, spacing), _one_line_autocovariance(
            lag, hurst, spacing)
        assert type(ours) is type(old)
        assert np.asarray(ours).tobytes() == np.asarray(old).tobytes(), lag


def test_half_hurst_is_white():
    gamma = fgn_autocovariance(np.arange(1, 10), 0.5)
    np.testing.assert_allclose(gamma, 0.0, atol=1e-12)
    assert fgn_autocovariance(0, 0.5) == 1.0


def test_long_memory_sign():
    lags = np.arange(1, 50)
    assert np.all(fgn_autocovariance(lags, 0.8) > 0)
    assert np.all(fgn_autocovariance(lags, 0.3) < 0)


def test_spacing_enters_as_power():
    a = generate_fgn(64, 0.7, spacing=1.0, seed=4).values
    b = generate_fgn(64, 0.7, spacing=2.0, seed=4).values
    np.testing.assert_allclose(b, a * 2.0 ** 0.7, rtol=1e-12)


def test_determinism_and_seed_sensitivity():
    x = generate_fgn(128, 0.83, seed=7).values
    y = generate_fgn(128, 0.83, seed=7).values
    z = generate_fgn(128, 0.83, seed=8).values
    np.testing.assert_array_equal(x, y)
    assert not np.array_equal(x, z)


def test_sample_covariance_tracks_theory():
    h, n, paths = 0.8, 512, 400
    est = np.empty((paths, 9))
    for s in range(paths):
        x = generate_fgn(n, h, seed=s).values
        for k in range(9):
            est[s, k] = (x[: n - k] @ x[k:]) / n
    z = (est.mean(0) - fgn_autocovariance(np.arange(9), h)) / (
        est.std(0, ddof=1) / np.sqrt(paths))
    assert np.abs(z).max() < 5.0


def test_hurst_one_is_a_single_shared_draw():
    x = generate_fgn(32, 1.0, seed=1).values
    assert np.ptp(x) == 0.0


def test_fallback_sampler_agrees_in_law():
    # compare second moments of the sequential reference sampler with the
    # fft one
    h, n, paths = 0.75, 64, 800
    dl = fgn_durbin_levinson(n, h, substream(123), paths)
    ci = _sample_unit_fgn(n, h, substream(321), paths)
    lag1 = fgn_autocovariance(1, h)
    for x in (dl, ci):
        assert (x * x).mean() == pytest.approx(1.0, abs=0.03)
        assert (x[:, :-1] * x[:, 1:]).mean() == pytest.approx(lag1, abs=0.03)


def test_near_unit_hurst_embedding_is_clipped_not_refused():
    # at this size the computed embedding has round-off negative eigenvalues
    # (about -2e-4 against a largest of about 1e5); they are clipped within
    # the round-off bound instead of refusing the embedding
    n, h = 65537, 0.99999
    eigs = _circulant_eigenvalues(n, h)
    assert eigs.shape == (2 * n,) and eigs.min() >= 0.0
    # the sampler's marginal variance is the mean eigenvalue
    assert eigs.mean() == pytest.approx(1.0, abs=1e-4)
    # one path is nearly a single shared normal, so its mean square is a
    # chi-square(1) draw; its spread about its own mean has expectation
    # 1 - n^(2H-2)
    x = generate_fgn(n, h, seed=0).values
    assert np.all(np.isfinite(x))
    assert 0.5 < x.var() / (1.0 - n ** (2.0 * h - 2.0)) < 2.0


@pytest.mark.parametrize("hurst", [0.3, 0.83, 0.99999])
@pytest.mark.parametrize("n", [1, 2, 257, 4096, 65537])  # 65537 is prime: Bluestein
def test_in_place_spectra_match_the_plain_sampler_bit_for_bit(n, hurst):
    for rows in (1, 3):
        weights, samples = ref_fgn_circulant(n, hurst, substream(11), rows)
        assert fgn._spectral_weights(n, hurst).tobytes() == weights.tobytes()
        assert _sample_unit_fgn(n, hurst, substream(11), rows).tobytes() == samples.tobytes()


def test_cached_plan_transform_equals_numpy_fft_bit_for_bit():
    c2c = fgn._pocketfft()
    assert c2c is not None  # scipy is installed here, so the extension loads
    rng = np.random.default_rng(5)
    for m in [*range(2, 1201, 2), 2 * 4097, 2 * 65537]:
        v = rng.standard_normal((1, m)) + 1j * rng.standard_normal((1, m))
        expected = np.fft.fft(v, axis=1)
        assert c2c(v, (1,), True, 0, v, 1) is v
        assert v.tobytes() == expected.tobytes(), m


_PATH_DIGEST = """
import hashlib
from fracvol import fgn
from fracvol.simulate import ModelParams, simulate_path
path = simulate_path(ModelParams(), 2**16, 1.0, seed=3)
print(hashlib.sha256(path.prices.tobytes() + path.logvol.tobytes()).hexdigest(),
      fgn._pocketfft() is None)
"""


def test_forced_fallback_gives_the_same_path_bits(tmp_path):
    """A fresh process that cannot find scipy's location transforms with
    np.fft.fft; its 2^16-step path is the cached plan's, bit for bit."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fgn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    lines = []
    for prelude in ("", "import importlib.util; importlib.util.find_spec = lambda name: None"):
        proc = subprocess.run([sys.executable, "-c", prelude + _PATH_DIGEST],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout.split())
    (cached, missing), (fallback, fell_back) = lines
    assert (missing, fell_back) == ("False", "True")
    assert cached == fallback


def test_only_single_rows_of_other_lengths_leave_numpy(monkeypatch):
    # with the weights cached, a one-row draw of 2n = 131,074 needs no
    # np.fft.fft; a power of two and a three-row block still call it
    for n in (65537, 4096, 301):
        fgn._spectral_weights(n, 0.83)
    def stub(*args, **kwargs):
        raise AssertionError("np.fft.fft called")
    monkeypatch.setattr(np.fft, "fft", stub)
    assert len(simulate_path(ModelParams(), 2**16, 1.0, seed=1).prices) == 2**16 + 1
    assert len(generate_fgn(65_537, 0.83, seed=1).values) == 65_537
    with pytest.raises(AssertionError, match="np.fft.fft called"):
        generate_fgn(4096, 0.83)
    with pytest.raises(AssertionError, match="np.fft.fft called"):
        path_ensemble(ModelParams(), 300, 1.0, n_paths=3)


def test_embedding_beyond_round_off_is_refused(monkeypatch):
    # gamma = (1, 0.9, 0) is not a covariance: its 4-circulant has the
    # eigenvalue 1 - 2 * 0.9 = -0.8, far below any round-off bound
    monkeypatch.setattr(fgn, "fgn_autocovariance",
                        lambda lag, hurst: np.select([lag == 0, lag == 1],
                                                     [1.0, 0.9], 0.0))
    with pytest.raises(GenerationError, match="eigenvalue -0.8 "):
        fgn._circulant_eigenvalues(2, 0.7)


def test_cold_and_warm_weight_cache_give_the_same_bytes():
    def draws():
        _, prices, logvol = path_ensemble(ModelParams(), 300, 1.0, seed=4, n_paths=3)
        return (generate_fgn(1001, 0.83, seed=2).values.tobytes(),
                generate_fgn(64, 0.3, spacing=2.0, seed=9).values.tobytes(),
                prices.tobytes(), logvol.tobytes())
    fgn._spectral_weights.cache_clear()
    cold = draws()
    assert fgn._spectral_weights.cache_info().currsize == 3
    assert draws() == cold


def test_cached_weights_are_read_only():
    weights = fgn._spectral_weights(64, 0.7)
    assert weights.shape == (65,) and not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 0.0
    assert fgn._spectral_weights(64, 0.7) is weights


def test_refused_embedding_is_not_cached(monkeypatch):
    fgn._spectral_weights.cache_clear()
    monkeypatch.setattr(fgn, "fgn_autocovariance",
                        lambda lag, hurst: np.select([lag == 0, lag == 1],
                                                     [1.0, 0.9], 0.0))
    for _ in range(2):  # the second call checks the embedding again
        with pytest.raises(GenerationError, match="eigenvalue -0.8 "):
            fgn._spectral_weights(2, 0.7)
    assert fgn._spectral_weights.cache_info().currsize == 0


def test_weight_cache_is_bounded():
    size = fgn._spectral_weights.cache_info().maxsize
    assert size is not None and 3 <= size <= 8  # the 3 keys of one recovery loop
    fgn._spectral_weights.cache_clear()
    for n in range(1, size + 4):
        fgn._spectral_weights(n, 0.7)
    assert fgn._spectral_weights.cache_info().currsize == size


def test_repeated_simulations_compute_the_weights_once():
    # a machine-independent guard on the cache: 8 seeds share one (n, H)
    fgn._spectral_weights.cache_clear()
    for seed in range(8):
        simulate_path(ModelParams(), 2**12, 1.0, seed=seed)
    info = fgn._spectral_weights.cache_info()
    assert (info.misses, info.hits) == (1, 7)


def test_traced_peak_holds_one_complex_spectrum():
    # at n = 2^20 one complex spectrum of length 2n is 32 MiB. Out-of-place
    # transforms read 88.0 MiB for the cold weights and 64.0 MiB for a warm
    # sample; in place, 72.0 and 48.0; with the autocovariance in two reused
    # buffers, not five temporaries, the cold weights read 56.0
    def cold_weights():
        fgn._spectral_weights.cache_clear()
        fgn._spectral_weights(2**20, 0.83)
    calls = {60: cold_weights, 56: lambda: generate_fgn(2**20, 0.83)}
    for mib, call in calls.items():
        assert warm_traced_peak(call) <= mib * 2**20


def test_fbm_accumulation():
    noise = generate_fgn(50, 0.7, seed=2)
    path = fbm_from_fgn(noise)
    assert path.values[0] == 0.0
    assert len(path.values) == 50
    # partial sums round, so differencing recovers the noise only to fp noise
    np.testing.assert_allclose(np.diff(path.values), noise.values[:-1],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(path.values[1:],
                               np.cumsum(noise.values)[:-1], rtol=0, atol=0)


def test_domain_errors():
    with pytest.raises(ParameterError):
        fgn_autocovariance(1, 1.2)
    with pytest.raises(ParameterError):
        fgn_autocovariance(-1, 0.5)
    with pytest.raises(ParameterError):
        generate_fgn(0, 0.5)
    with pytest.raises(ParameterError):
        generate_fgn(8, 0.5, spacing=0.0)
    with pytest.raises(ParameterError):
        fbm_from_fgn(FgnSeries(values=np.array([]), spacing=1.0, hurst=0.5,
                               seed=0))
