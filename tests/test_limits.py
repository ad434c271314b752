"""Limit laws: constants, CDFs, samplers, and their mutual consistency."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import ks_2samp, norm

from _oracles import law_xi_limit, sample_limit, vector_limit
from fracvas.limits import (
    NormalLaw,
    RatioLaw,
    ScaledChiSquareLaw,
    ZetaLaw,
    law_alpha_limit,
    law_beta_limit,
    law_I_limit,
    law_J_limit,
    law_J_limit_identity,
    law_mu_limit,
    law_S_limit,
    ratio_cdf,
    special_case_ratio,
    zeta_law,
)
from fracvas.mgf import mgf2_log
from fracvas.model import ModelParams
from fracvas.transforms import constants

DESK = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=0.3)


def _dkw_eps(n: int, confidence: float = 0.999) -> float:
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def _ks_statistic(sorted_samples: np.ndarray, cdf_values: np.ndarray) -> float:
    n = len(sorted_samples)
    i = np.arange(1, n + 1)
    return max(np.max(i / n - cdf_values), np.max(cdf_values - (i - 1) / n))


def _ratio_cdf_oracle(z: float, law: RatioLaw, abs_tol: float = 1e-8) -> float:
    """P(eta / zeta <= z) by adaptive quadrature over the denominator.

    Conditioning on zeta: the event is {eta <= z zeta} on {zeta > 0} and
    {eta >= z zeta} on {zeta < 0}.  The integrand is bounded by the zeta
    density, so truncating at 10 standard deviations leaves less than
    1e-22 mass outside.  Phi(z t) steps from 1/2 towards 1 over |t| ~ 1/|z|,
    so each side gets breakpoints at that scale; without them quad misses
    the step for |z| in the hundreds and above.
    """
    m, s = law.zeta.mean, law.zeta.std
    lo, hi = m - 10.0 * s, m + 10.0 * s
    pdf_norm = 1.0 / (s * math.sqrt(2.0 * math.pi))
    steps = [c / abs(z) for c in (1.0, 10.0)] if z != 0.0 else []

    def density(t: float) -> float:
        return pdf_norm * math.exp(-0.5 * ((t - m) / s) ** 2)

    def side(sign: float, a: float, b: float) -> tuple[float, float]:
        points = [sign * p for p in steps if a < sign * p < b] or None
        return integrate.quad(
            lambda t: ndtr(sign * z * t) * density(t),
            a, b, epsabs=abs_tol / 20.0, epsrel=1e-11, limit=200, points=points,
        )

    total = 0.0
    err_budget = 0.0
    if hi > 0.0:
        val, err = side(1.0, max(lo, 0.0), hi)
        total += val
        err_budget += err
    if lo < 0.0:
        val, err = side(-1.0, lo, min(hi, 0.0))
        total += val
        err_budget += err
    assert err_budget <= abs_tol, f"oracle error estimate {err_budget:.2e} at z={z!r}"
    return min(1.0, max(0.0, total))


def test_rejects_bad_parameters():
    drifting_up = ModelParams(alpha=1.0, beta=0.5, gamma=1.0, hurst=0.7, x0=0.3)
    for law_fn in (
        zeta_law,
        law_S_limit,
        law_J_limit,
        law_I_limit,
        law_alpha_limit,
        law_beta_limit,
        law_xi_limit,
        law_mu_limit,
        vector_limit,
    ):
        with pytest.raises(ValueError):
            law_fn(drifting_up)
    with pytest.raises(ValueError):
        special_case_ratio(0.5)
    with pytest.raises(ValueError):
        special_case_ratio(1.0)
    with pytest.raises(ValueError):
        NormalLaw(mean=0.0, variance=-1.0)
    with pytest.raises(ValueError):
        ZetaLaw(mean=0.0, variance=0.0)
    with pytest.raises(ValueError):
        ScaledChiSquareLaw(scale=0.0, zeta=ZetaLaw(mean=0.0, variance=1.0))
    with pytest.raises(ValueError):
        sample_limit(law_S_limit(DESK), seed=1, count=0)
    with pytest.raises(TypeError):
        sample_limit(object(), seed=1, count=10)


def test_centered_at_long_run_mean_start():
    # starting exactly at alpha/beta removes the offset from every mean
    centered = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=-2.0)
    assert zeta_law(centered).mean == 0.0
    assert law_S_limit(centered).mean == 0.0
    assert law_J_limit(centered).mean == 0.0


def test_offset_doubles_mean_only():
    base_offset = DESK.x0 - DESK.mean_level
    doubled = ModelParams(
        alpha=DESK.alpha,
        beta=DESK.beta,
        gamma=DESK.gamma,
        hurst=DESK.hurst,
        x0=DESK.mean_level + 2.0 * base_offset,
    )
    for law_fn in (zeta_law, law_S_limit, law_J_limit):
        one, two = law_fn(DESK), law_fn(doubled)
        assert two.mean == pytest.approx(2.0 * one.mean, rel=1e-14)
        assert two.variance == one.variance


def test_constants_tie_to_kernel_quantities():
    kc = constants(DESK.hurst, DESK.gamma)
    neg_beta = -DESK.beta
    hurst = DESK.hurst
    offset = DESK.x0 - DESK.mean_level

    gamma_pair = math.gamma(hurst) * math.gamma(1.0 - hurst)
    c3 = 2.0 * gamma_pair / kc.lam_star
    assert law_S_limit(DESK).variance == pytest.approx(c3 / (4.0 * math.pi * neg_beta), rel=1e-13)

    c6 = 2.0 * offset**2 * kc.lam_star * kc.rho**2
    assert zeta_law(DESK).mean ** 2 == pytest.approx(
        c6 * neg_beta ** (2.0 * hurst - 2.0) / (4.0 * math.pi), rel=1e-13
    )
    assert zeta_law(DESK).variance == pytest.approx(
        1.0 / (4.0 * DESK.beta**2 * math.sin(math.pi * hurst)), rel=1e-14
    )
    assert law_xi_limit(DESK).variance == pytest.approx(1.0 / kc.lam, rel=1e-14)
    assert law_alpha_limit(DESK).variance == pytest.approx(kc.lam * DESK.gamma**2, rel=1e-14)


def test_stated_J_constants_are_eightfold_identity():
    # the stated J limit differs from the one the S identity forces by a
    # factor of exactly 8 in both mean and variance; keep both visible
    stated = law_J_limit(DESK)
    implied = law_J_limit_identity(DESK)
    assert stated.mean == pytest.approx(8.0 * implied.mean, rel=1e-13)
    assert stated.variance == pytest.approx(8.0 * implied.variance, rel=1e-13)
    s_lim = law_S_limit(DESK)
    assert implied.mean == pytest.approx(s_lim.mean / (-DESK.beta), rel=1e-14)
    assert implied.variance == pytest.approx(s_lim.variance / DESK.beta**2, rel=1e-14)


def test_stated_J_law_misses_the_exact_mgf_and_identity_law_converges():
    # at theta3 = v T^(H-1/2) e^(beta T), the exact log-MGF of J is the
    # log-MGF of the normalized J; a normal limit law must match it as T grows
    v = 0.7

    def gaps(horizon):
        theta3 = v * horizon ** (DESK.hurst - 0.5) * math.exp(DESK.beta * horizon)
        exact = mgf2_log((0.0, 0.0, theta3, 0.0), DESK, horizon)
        return [
            exact - (law.mean * v + law.variance * v**2 / 2.0)
            for law in (law_J_limit(DESK), law_J_limit_identity(DESK))
        ]

    stated, identity = zip(*(gaps(horizon) for horizon in (12.0, 24.0, 48.0)))
    # about -20.4 at every horizon: the stated constants never converge
    assert all(abs(gap) > 10.0 for gap in stated)
    # 0.087, 0.054, 0.026: the identity law closes the gap
    assert abs(identity[2]) <= 0.6 * abs(identity[1])


def test_zeta_law_cdf_is_the_normal_cdf():
    x = np.linspace(-5.0, 5.0, 41)
    for mean, variance in ((0.0, 1.0), (zeta_law(DESK).mean, zeta_law(DESK).variance)):
        zeta, normal = ZetaLaw(mean, variance), NormalLaw(mean, variance)
        assert np.array_equal(zeta.cdf(x), normal.cdf(x))
        assert zeta.cdf(0.3) == normal.cdf(0.3)
        assert zeta.std == normal.std


def test_normal_cdfs_are_the_scipy_norm_forms_bitwise():
    x = np.concatenate([np.linspace(-8.0, 8.0, 161), [-np.inf, np.inf]])
    for law in (law_alpha_limit(DESK), law_S_limit(DESK), zeta_law(DESK), NormalLaw(-1.5, 0.04)):
        assert np.array_equal(law.cdf(x), norm.cdf(x, loc=law.mean, scale=law.std))
        assert law.cdf(0.3) == norm.cdf(0.3, loc=law.mean, scale=law.std)
    chi = law_I_limit(DESK)
    m, s = chi.zeta.mean, chi.zeta.std
    y = np.linspace(-1.0, 30.0, 125)
    root = np.sqrt(np.maximum(y / chi.scale, 0.0))
    expected = np.where(y > 0.0, norm.cdf((root - m) / s) - norm.cdf((-root - m) / s), 0.0)
    assert np.array_equal(chi.cdf(y), expected)


@pytest.mark.filterwarnings("error")
def test_normal_law_at_variance_zero_is_the_point_mass_step():
    law = NormalLaw(mean=0.5, variance=0.0)
    x = np.array([-np.inf, 0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), np.inf])
    assert np.array_equal(law.cdf(x), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    assert law.cdf(0.5) == 1.0
    assert law.cdf(-2.0) == 0.0


def test_ratio_cdf_basic_shape():
    law = law_beta_limit(DESK)
    # eta is symmetric, so zero is the median no matter where zeta centers
    assert ratio_cdf(0.0, law) == 0.5
    assert ratio_cdf(0.0, special_case_ratio(0.7)) == 0.5
    grid = [-30.0, -5.0, -1.0, -0.2, 0.0, 0.2, 1.0, 5.0, 30.0]
    vals = [ratio_cdf(z, law) for z in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert ratio_cdf(1e6, law) > 1.0 - 1e-6
    assert ratio_cdf(-1e6, law) < 1e-6


_FAR_Z = [sign * z for z in (300.0, 1e3, 1e4, 1e6, 1e8) for sign in (-1.0, 1.0)]
_Z_GRID = np.concatenate([np.tan(np.linspace(-1.55, 1.55, 201)), [0.0, -50.0, 50.0], _FAR_Z])


@pytest.mark.parametrize("mean", [-5.0, -0.3, 0.0, 0.05, zeta_law(DESK).mean, 2.0])
def test_ratio_cdf_matches_quadrature_oracle(mean):
    law = RatioLaw(zeta=ZetaLaw(mean=mean, variance=zeta_law(DESK).variance))
    closed = ratio_cdf(_Z_GRID, law)
    oracle = np.array([_ratio_cdf_oracle(float(z), law) for z in _Z_GRID])
    near = np.abs(_Z_GRID) <= 50.0
    assert np.max(np.abs(closed - oracle)[near]) <= 1e-10
    # beyond |z| = 50 the oracle's own tolerance is the limit
    assert np.max(np.abs(closed - oracle)[~near]) <= 1e-8
    assert ratio_cdf(0.0, law) == 0.5


def test_ratio_cdf_vector_matches_scalar():
    law = law_beta_limit(DESK)
    scalar = [ratio_cdf(float(z), law) for z in _Z_GRID]
    assert all(isinstance(v, float) for v in scalar)
    assert np.array_equal(ratio_cdf(_Z_GRID, law), np.array(scalar))
    assert np.array_equal(law.cdf(_Z_GRID), np.array(scalar))


def test_special_case_ratio_is_cauchy():
    law = special_case_ratio(0.7)
    s = law.zeta.std
    cauchy = 0.5 + np.arctan(_Z_GRID * s) / math.pi
    assert np.max(np.abs(ratio_cdf(_Z_GRID, law) - cauchy)) <= 1e-15


def test_ratio_cdf_matches_million_sample_empirical():
    law = law_beta_limit(DESK)
    spots = [-40.0, -3.0, -0.7, 0.4, 2.5, 55.0]
    spot_err = max(abs(ratio_cdf(z, law) - _ratio_cdf_oracle(z, law)) for z in spots)
    assert spot_err < 2e-4
    samples = np.sort(sample_limit(law, seed=77, count=1_000_000))
    ks = _ks_statistic(samples, ratio_cdf(samples, law))
    assert ks + spot_err < 4e-3


def test_samplers_match_cdfs_dkw():
    n = 100_000
    eps = _dkw_eps(n)
    cases = [
        (law_S_limit(DESK), 31415),
        (zeta_law(DESK), 27182),
        (law_I_limit(DESK), 16180),
    ]
    for law, seed in cases:
        samples = np.sort(sample_limit(law, seed=seed, count=n))
        assert _ks_statistic(samples, np.asarray(law.cdf(samples))) < eps
    ratio = law_beta_limit(DESK)
    samples = np.sort(sample_limit(ratio, seed=2024, count=n))
    ks = _ks_statistic(samples, ratio_cdf(samples, ratio))
    assert ks + 2e-4 < eps


def test_sampler_deterministic():
    law = law_beta_limit(DESK)
    a = sample_limit(law, seed=9, count=1000)
    b = sample_limit(law, seed=9, count=1000)
    c = sample_limit(law, seed=10, count=1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_vector_limit_block_structure():
    n = 100_000
    vec = vector_limit(DESK)
    draws = sample_limit(vec, seed=11, count=n)
    assert draws.shape == (n, 3)

    # independence of the martingale block from the product block
    assert abs(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]) < 4.0 / math.sqrt(n)

    # eta's sign flip leaves the product's law unchanged
    assert ks_2samp(draws[:, 1], -draws[:, 1]).pvalue > 0.001

    z = vec.zeta
    target = z.mean**2 + z.variance
    se = draws[:, 2].std() / math.sqrt(n)
    assert abs(draws[:, 2].mean() - target) < 4.0 * se

    # third column is the square of the denominator block
    assert np.all(draws[:, 2] >= 0.0)


def test_scaled_chi_square_cdf_identities():
    law = law_I_limit(DESK)
    z = law.zeta
    assert law.cdf(0.0) == 0.0
    assert law.cdf(-3.0) == 0.0
    for r in (0.5, 1.0, 2.0, 4.0):
        expected = float(z.cdf(r) - z.cdf(-r))
        assert float(law.cdf(law.scale * r**2)) == pytest.approx(expected, rel=1e-12)
    ys = np.linspace(0.0, 30.0, 50)
    vals = np.asarray(law.cdf(ys))
    assert np.all(np.diff(vals) >= 0.0)


def test_special_case_quartiles():
    hurst = 0.7
    law = special_case_ratio(hurst)
    scale = math.sqrt(math.sin(math.pi * hurst))
    # centered-denominator ratio is Cauchy with this scale: quartiles at
    # +-scale, so the interquartile range is 2 sqrt(sin(pi H))
    assert ratio_cdf(scale, law) == pytest.approx(0.75, abs=1e-8)
    assert ratio_cdf(-scale, law) == pytest.approx(0.25, abs=1e-8)
    samples = sample_limit(law, seed=41, count=200_000)
    q1, q3 = np.quantile(samples, [0.25, 0.75])
    assert q3 - q1 == pytest.approx(2.0 * scale, abs=0.02)


def test_mu_law_is_the_alpha_law_over_beta():
    mu_law = law_mu_limit(DESK)
    assert mu_law.mean == 0.0
    assert mu_law.variance == law_alpha_limit(DESK).variance / DESK.beta**2
