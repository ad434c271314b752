"""Circulant-embedding fBm generator vs. the dense-covariance oracle."""

import math

import numpy as np
import pytest
from scipy import stats

import _oracles
from fracvas import fbm


def test_cov_basics():
    assert _oracles.fbm_cov(2.0, 2.0, 0.7) == pytest.approx(2.0**1.4)
    assert _oracles.fbm_cov(1.0, 3.0, 0.7) == _oracles.fbm_cov(3.0, 1.0, 0.7)
    # H = 1/2 reduces to Brownian covariance min(s, t)
    assert _oracles.fbm_cov(1.5, 4.0, 0.5) == pytest.approx(1.5)
    assert _oracles.fbm_cov(0.0, 4.0, 0.7) == 0.0


def test_cov_domain_errors():
    with pytest.raises(ValueError):
        _oracles.fbm_cov(-1.0, 1.0, 0.7)
    with pytest.raises(ValueError):
        _oracles.fbm_cov(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        _oracles.fbm_cov(1.0, 1.0, 0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        fbm.SampleGrid(horizon=0.0, n=8)
    with pytest.raises(ValueError):
        fbm.SampleGrid(horizon=1.0, n=1)
    g = fbm.SampleGrid(horizon=2.0, n=4)
    assert g.dt == 0.5
    np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])


@pytest.mark.parametrize(
    "field, horizon, n",
    [
        ("horizon", math.inf, 8),
        ("horizon", math.nan, 8),
        ("horizon", "1.0", 8),
        ("horizon", True, 8),
        ("n", 1.0, 8.0),
        ("n", 1.0, 8.5),
        ("n", 1.0, True),
    ],
)
def test_grid_refuses_infinite_horizons_and_fractional_cell_counts(field, horizon, n):
    # an infinite horizon gave nan/inf times, a float n a TypeError in linspace
    with pytest.raises(ValueError, match=field):
        fbm.SampleGrid(horizon=horizon, n=n)


def test_grid_accepts_numpy_scalars():
    g = fbm.SampleGrid(horizon=np.float64(2.0), n=np.int64(4))
    np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_generator_deterministic_and_pinned():
    grid = fbm.SampleGrid(horizon=1.0, n=256)
    a = fbm.generate_fbm(0.7, grid, seed=12345)
    b = fbm.generate_fbm(0.7, grid, seed=12345)
    c = fbm.generate_fbm(0.7, grid, seed=12346)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values[0] == 0.0
    assert a.values.shape == (257,)


def test_sample_covariance_matches_exact_8x8():
    # Gate: sample covariance of the 8 post-zero nodes over many seeds must
    # match the closed-form fBm covariance.  4 sigma band on each entry.
    grid = fbm.SampleGrid(horizon=1.0, n=8)
    hurst = 0.7
    n_rep = 100_000
    draws = np.empty((n_rep, 8))
    for r in range(n_rep):
        draws[r] = fbm.generate_fbm(hurst, grid, seed=900_000 + r).values[1:]
    sample_cov = draws.T @ draws / n_rep
    t = grid.times()[1:]
    exact = np.array([[_oracles.fbm_cov(si, ti, hurst) for ti in t] for si in t])
    # Var of a sample second moment of jointly Gaussian terms:
    # Var(x_i x_j) = c_ii c_jj + c_ij^2.
    band = 4.0 * np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / n_rep)
    assert np.all(np.abs(sample_cov - exact) < band)


def test_marginal_ks_against_dense_oracle():
    grid = fbm.SampleGrid(horizon=1.0, n=128)
    hurst = 0.7
    n_rep = 10_000
    circ = np.empty(n_rep)
    dense = np.empty(n_rep)
    for r in range(n_rep):
        circ[r] = fbm.generate_fbm(hurst, grid, seed=10_000 + r).values[-1]
        dense[r] = _oracles.exact_gaussian_oracle(hurst, grid, seed=500_000 + r).values[-1]
    stat, p = stats.ks_2samp(circ, dense)
    assert p > 0.001, (stat, p)
    # both should be N(0, 1) marginals at t=1
    assert stats.kstest(circ, "norm").pvalue > 0.001


def test_brownian_special_case_increments():
    grid = fbm.SampleGrid(horizon=2.0, n=1024)
    path = fbm.generate_fbm(0.5, grid, seed=7)
    inc = np.diff(path.values)
    # iid N(0, dt): variance and lag-1 autocorrelation
    assert inc.var() == pytest.approx(grid.dt, rel=0.15)
    lag1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
    assert abs(lag1) < 0.1


def test_increment_scaling_follows_hurst():
    # Var(B_{t+dt} - B_t) = dt^{2H}: check the realized second moment pooled
    # over a long path for two H values.
    grid = fbm.SampleGrid(horizon=1.0, n=2**14)
    for hurst in (0.6, 0.8):
        path = fbm.generate_fbm(hurst, grid, seed=42)
        inc = np.diff(path.values)
        assert np.mean(inc**2) == pytest.approx(grid.dt ** (2 * hurst), rel=0.1)


def test_oracle_rejects_large_n():
    grid = fbm.SampleGrid(horizon=1.0, n=4096)
    with pytest.raises(ValueError):
        _oracles.exact_gaussian_oracle(0.7, grid, seed=1)


def _full_spectrum_fbm(hurst, grid, seed):
    # Reference construction: the full 2n-point Hermitian spectrum with its
    # conjugate mirror and one forward complex FFT, from the same draw.
    n, m = grid.n, 2 * grid.n
    c = fbm._fgn_unit_autocov(n, hurst)
    eig = np.clip(np.fft.fft(np.concatenate([c, c[-2:0:-1]])).real, 0.0, None)
    z = np.random.default_rng(seed).standard_normal(m)
    u, v = z[: n + 1], z[n + 1 :]
    spectrum = np.zeros(m, dtype=complex)
    spectrum[0] = np.sqrt(eig[0] / m) * u[0]
    spectrum[n] = np.sqrt(eig[n] / m) * u[n]
    half = np.sqrt(eig[1:n] / (2.0 * m)) * (u[1:n] + 1j * v)
    spectrum[1:n] = half
    spectrum[n + 1 :] = np.conj(half[::-1])
    noise = np.fft.fft(spectrum).real[:n]
    return np.concatenate([[0.0], np.cumsum(noise)]) * grid.dt**hurst


@pytest.mark.parametrize("n", [16, 1024, 8192, 65536])
@pytest.mark.parametrize("hurst", [0.55, 0.7, 0.95])
def test_irfft_matches_full_spectrum_construction(n, hurst):
    grid = fbm.SampleGrid(horizon=3.0, n=n)
    for seed in range(3):
        got = fbm.generate_fbm(hurst, grid, seed).values
        ref = _full_spectrum_fbm(hurst, grid, seed)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _fbm_out_of_place(hurst, grid, seed):
    # generate_fbm before its cumulative sum was written in place
    n = grid.n
    z = np.random.default_rng(seed).standard_normal(2 * n)
    half = np.empty(n + 1, dtype=complex)
    half.real = z[: n + 1]
    half.imag[1:n] = -z[n + 1 :]
    half.imag[[0, n]] = 0.0
    half *= fbm._amplitudes(n, hurst)
    noise_unit = np.fft.irfft(half, 2 * n)[:n]
    return np.concatenate([[0.0], np.cumsum(noise_unit) * grid.dt**hurst])


@pytest.mark.parametrize("n", [16, 8192, 65536])
def test_generator_is_the_out_of_place_form_bitwise(n):
    grid = fbm.SampleGrid(horizon=3.0, n=n)
    for seed in range(2):
        got = fbm.generate_fbm(0.7, grid, seed).values
        assert np.array_equal(got, _fbm_out_of_place(0.7, grid, seed))


def test_cached_amplitudes_refuse_writes():
    amp = fbm._amplitudes(64, 0.7)
    assert amp.shape == (65,)
    with pytest.raises(ValueError):
        amp[0] = 0.0
    assert fbm._amplitudes(64, 0.7) is amp


def test_embedding_negative_eigenvalue_policy(monkeypatch):
    # Force a materially negative eigenvalue to confirm the hard-error path;
    # genuine fGn embeddings are nonnegative for every H in (0,1).
    fbm._amplitudes.cache_clear()
    true_autocov = fbm._fgn_unit_autocov

    def bad_autocov(n, hurst):
        c = true_autocov(n, hurst)
        c[-1] = -10.0
        return c

    monkeypatch.setattr(fbm, "_fgn_unit_autocov", bad_autocov)
    with pytest.raises(fbm.FbmEmbeddingError):
        fbm.generate_fbm(0.7, fbm.SampleGrid(horizon=1.0, n=64), seed=1)
    fbm._amplitudes.cache_clear()


def test_csv_roundtrip_17_digits(tmp_path):
    # fBm paths are written through the harness's one CSV writer
    from fracvas.harness import _write_csv

    grid = fbm.SampleGrid(horizon=1.0, n=16)
    path = fbm.generate_fbm(0.7, grid, seed=3)
    out = tmp_path / "path.csv"
    _write_csv(str(out), {"t": grid.times(), "value": path.values})
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,value"
    parsed = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    # 17 significant digits must round-trip doubles exactly
    assert np.array_equal(parsed[:, 0], grid.times())
    assert np.array_equal(parsed[:, 1], path.values)
