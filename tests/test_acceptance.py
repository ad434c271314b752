"""Fixed-seed end-to-end acceptance checks.

Each test prints one tagged pass/fail line with the measured numbers, so a
plain `pytest tests/test_acceptance.py -v -s` reads as a checklist.  The
Monte Carlo experiments behind A01 and A06..A10 rerun here from frozen
master seeds; A02/A03 compare closed forms against the frozen simulation
anchors in _anchors.py.

Two checks fail by design and are kept red on purpose:

* A06c: the rank correlation between the two joint-MLE errors at T=12 is
  about 0.27, not below 0.1.  The coupling term gamma*(J/w)*(beta error)
  inside the level-parameter error decays only like T^(-1/2) relative to
  its leading term, and horizon scans show the correlation peaking near
  T=12 before a slow decay.  A path-free sampler of (S, I, J, K), 20,000
  paths per horizon, reads +0.270 at T=12, +0.224 at T=24, +0.182 at
  T=36, +0.133 at T=72 and +0.126 at T=96: it is still above 0.10 at
  every horizon scanned.
* A08: with x0 at the long-run mean the normalized reversion error at
  T=12 is still shifted by roughly half a Cauchy scale (median -0.5, n
  independent over 2^13..2^16), so its KS test against the centered ratio
  law rejects.  The shift shrinks as the horizon grows; at T=12 the
  limit law is simply not reached yet.
"""

import csv
import filecmp
import math
import os
import time

import mpmath
import numpy as np
import pytest
from scipy.stats import kstest

import _anchors
import _oracles
from _oracles import mgf_product_bivariate, mgf_quadratic_pair
from fracvas.harness import ExperimentConfig, law_cdf, run_experiment
from fracvas.limits import NormalLaw
from fracvas.mgf import mgf1_log, mgf2_log
from fracvas.model import ModelParams
from fracvas.transforms import constants

DESK = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=0.3)
SEED = 20260818
GATE_P = 1e-3


def _line(tag, label, ok, detail):
    print(f"[{tag}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _row(report, T, name):
    for row in report.rows:
        if row.T == T and row.statistic == name:
            return row
    raise AssertionError(f"no check row for T={T} statistic={name}")


def _run(tmp_path_factory, label, **kwargs):
    out = tmp_path_factory.mktemp(label)
    cfg = ExperimentConfig(workers=1, output_dir=str(out), **kwargs)
    start = time.perf_counter()
    report = run_experiment(cfg)
    return report, str(out), time.perf_counter() - start


@pytest.fixture(scope="module")
def exact_run(tmp_path_factory):
    return _run(
        tmp_path_factory, "exact",
        experiment="exact-check", params=DESK, T_list=[5.0],
        n_grid=8192, replications=2000, master_seed=SEED,
    )


@pytest.fixture(scope="module")
def joint_run(tmp_path_factory):
    return _run(
        tmp_path_factory, "joint",
        experiment="limit-check", params=DESK, T_list=[6.0, 9.0, 12.0],
        n_grid=8192, replications=1000, master_seed=SEED,
    )


@pytest.fixture(scope="module")
def centered_run(tmp_path_factory):
    centered = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=-2.0)
    return _run(
        tmp_path_factory, "centered",
        experiment="limit-check", params=centered, T_list=[12.0],
        n_grid=8192, replications=1000, master_seed=SEED,
    )


@pytest.fixture(scope="module")
def alpha_route_run(tmp_path_factory):
    return _run(
        tmp_path_factory, "alpharoute",
        experiment="estimate", params=DESK, T_list=[5.0],
        n_grid=8192, replications=2000, master_seed=SEED,
    )


@pytest.fixture(scope="module")
def recovery_run(tmp_path_factory):
    return _run(
        tmp_path_factory, "recovery",
        experiment="hurst-gamma-check", params=DESK, T_list=[2.0],
        n_grid=65536, replications=50, master_seed=SEED,
    )


def _estimate_columns(outdir, T, names):
    cols = {name: [] for name in names}
    with open(os.path.join(outdir, "estimates.csv")) as fh:
        for row in csv.DictReader(fh):
            if float(row["T"]) == T:
                for name in names:
                    cols[name].append(float(row[name]))
    return {name: np.array(vals) for name, vals in cols.items()}


def test_exact_pivot_is_standard_normal(exact_run):
    report, _, elapsed = exact_run
    row = _row(report, 5.0, "exact_normal")
    ok = row.ks_p > GATE_P and row.n_reps == 2000 and elapsed < 600.0
    _line("A01", "exact pivot vs N(0,1), T=5, N=2000",
          ok, f"ks={row.ks_stat:.4f} p={row.ks_p:.4g} elapsed={elapsed:.0f}s")
    assert ok


def test_mgf_matches_frozen_monte_carlo():
    assert len(_anchors.M1_POINTS) >= 5
    worst = 0.0
    for (xi1, xi2), (mc, se) in _anchors.M1_POINTS.items():
        assert max(abs(xi1), abs(xi2)) <= 0.2
        closed = mgf1_log(xi1, xi2, DESK, _anchors.HORIZON)
        worst = max(worst, abs(closed - mc) / se)
    ok = worst <= 3.0
    _line("A02", f"closed-form log MGF vs {len(_anchors.M1_POINTS)} frozen MC points",
          ok, f"worst |z|={worst:.2f} (gate 3)")
    assert ok


def test_quadruple_mgf_reduction_and_monte_carlo():
    worst_gap = 0.0
    for xi1, xi2 in _anchors.M1_POINTS:
        reduced = mgf2_log((xi1, xi2, 0.0, 0.0), DESK, _anchors.HORIZON)
        direct = mgf1_log(xi1, xi2, DESK, _anchors.HORIZON)
        worst_gap = max(worst_gap, abs(reduced - direct))
    theta, (mc, se) = _anchors.M2_POINT
    closed = mgf2_log(theta, DESK, _anchors.HORIZON)
    z = abs(closed - mc) / se
    ok = worst_gap <= 1e-12 and z <= 3.0
    _line("A03", "4-argument MGF: 2-argument reduction and frozen MC point",
          ok, f"reduction gap={worst_gap:.2e} |z|={z:.2f}")
    assert ok


def _hermite_product_mgf(t, mean1, mean2, s1, s2, corr, nodes=48):
    x, wts = np.polynomial.hermite_e.hermegauss(nodes)
    xs = mean1 + s1 * x[:, None]
    ys = mean2 + s2 * (corr * x[:, None] + math.sqrt(1.0 - corr**2) * x[None, :])
    weight = wts[:, None] * wts[None, :] / (2.0 * math.pi)
    return float((weight * np.exp(t * xs * ys)).sum())


def _compose_quadratic_pair(theta1, theta2, m, sigma):
    # fold theta2 X^2 into the product by the substitution Y' = Y + (theta2/theta1) X
    ratio = theta2 / theta1
    s2 = math.sqrt(1.0 + ratio**2 * sigma**2)
    corr = ratio * sigma / s2
    return mgf_product_bivariate(theta1, m, ratio * m, sigma, s2, corr)


def test_bivariate_product_mgf_oracles():
    grid = [
        (0.15, 0.4, -0.3, 1.2, 0.8, 0.5),
        (-0.20, 0.0, 0.7, 0.9, 1.1, -0.4),
        (0.10, -0.5, -0.5, 0.6, 0.6, 0.0),
        (0.05, 1.0, 1.0, 1.0, 1.0, 0.9),
        (-0.12, -0.8, 0.2, 0.7, 1.3, -0.7),
    ]
    worst_quad = 0.0
    for case in grid:
        closed = mgf_product_bivariate(*case)
        oracle = _hermite_product_mgf(*case)
        worst_quad = max(worst_quad, abs(closed - oracle) / abs(oracle))
    worst_compose = 0.0
    for theta1, theta2, m, sigma in [
        (0.3, 0.1, 0.5, 0.8),
        (-0.25, 0.15, -1.0, 0.6),
        (0.4, -0.2, 0.0, 1.1),
        (0.1, 0.05, 2.0, 0.5),
    ]:
        direct = mgf_quadratic_pair(theta1, theta2, m, sigma)
        composed = _compose_quadratic_pair(theta1, theta2, m, sigma)
        worst_compose = max(worst_compose, abs(direct / composed - 1.0))
    ok = worst_quad <= 1e-8 and worst_compose <= 1e-12
    _line("A04", "product MGF vs Gauss-Hermite and substitution identity",
          ok, f"quad rel={worst_quad:.2e} compose rel={worst_compose:.2e}")
    assert ok


def test_bessel_against_arbitrary_precision():
    mpmath.mp.dps = 40
    xs = [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 17.5, 25.0, 37.5, 50.0]
    worst = 0.0
    for nu in (-0.7, -0.3, 0.3, 0.7):
        for x in xs:
            ours = _oracles.bessel_i(nu, x)
            oracle = float(mpmath.besseli(nu, x))
            worst = max(worst, abs(ours - oracle) / abs(oracle))
    even_exact = all(
        _oracles.bessel_ratio_even(nu, x) == _oracles.bessel_ratio_even(nu, -x)
        for nu in (-0.7, 0.7)
        for x in (0.25, 1.5, 7.0, 33.0)
    )
    # residual after the first asymptotic correction must shrink ~ x^-2
    resid = []
    for x in (50.0, 200.0):
        mu = 4.0 * 0.7 * 0.7
        lead = _oracles.bessel_i_scaled(0.7, x) * math.sqrt(2.0 * math.pi * x)
        resid.append(abs(lead - (1.0 - (mu - 1.0) / (8.0 * x))))
    decay_ok = resid[0] / resid[1] == pytest.approx(16.0, rel=0.35)
    ok = worst <= 1e-10 and even_exact and decay_ok
    _line("A05", "Bessel I vs 40-digit oracle, evenness, tail order",
          ok, f"worst rel={worst:.2e} even={even_exact} resid ratio={resid[0]/resid[1]:.1f}")
    assert ok


def test_joint_beta_error_ratio_law(joint_run):
    report, _, elapsed = joint_run
    row = _row(report, 12.0, "beta_ratio")
    ok = row.ks_p > GATE_P and report.replications == 1000 and elapsed < 1800.0
    _line("A06a", "exp(-bT)(beta_hat-b) vs ratio law, T=12",
          ok, f"ks={row.ks_stat:.4f} p={row.ks_p:.4g} elapsed={elapsed:.0f}s")
    assert ok


def test_joint_alpha_error_normal_law(joint_run):
    report, _, _ = joint_run
    row = _row(report, 12.0, "alpha_normal")
    ok = row.ks_p > GATE_P
    _line("A06b", "T^(1-H)(alpha_hat-a) vs centered normal, T=12",
          ok, f"ks={row.ks_stat:.4f} p={row.ks_p:.4g}")
    assert ok


def test_joint_error_rank_independence(joint_run):
    # known red: the finite-horizon coupling peaks near T=12 (module docstring)
    report, _, _ = joint_run
    rho = report.details["spearman_alpha_beta"]["12"]
    ok = abs(rho) < 0.1
    _line("A06c", "joint error Spearman correlation, T=12",
          ok, f"|rho|={abs(rho):.3f} (gate 0.1)")
    assert ok, f"rank dependence {rho:+.3f} is a finite-horizon effect, not noise"


def test_single_alpha_exact_route(alpha_route_run):
    report, outdir, _ = alpha_route_run
    cols = _estimate_columns(outdir, 5.0, ["alpha_tilde"])
    w5 = constants(DESK.hurst, DESK.gamma).w(5.0)
    pivot = math.sqrt(w5) / DESK.gamma * (cols["alpha_tilde"] - DESK.alpha)
    stat, pval = kstest(pivot, law_cdf(NormalLaw(mean=0.0, variance=1.0)))
    ok = pval > GATE_P and len(pivot) == 2000
    _line("A07a", "known-slope level MLE, exact normal pivot at T=5",
          ok, f"ks={stat:.4f} p={pval:.4g}")
    assert ok


def test_single_beta_ratio_law(joint_run):
    report, _, _ = joint_run
    row = _row(report, 12.0, "beta_single_ratio")
    ok = row.ks_p > GATE_P
    _line("A07b", "known-level reversion MLE vs ratio law, T=12",
          ok, f"ks={row.ks_stat:.4f} p={row.ks_p:.4g}")
    assert ok


def test_single_mle_errors_shrink(joint_run):
    _, outdir, _ = joint_run
    med_a, med_b = [], []
    for T in (6.0, 9.0, 12.0):
        cols = _estimate_columns(outdir, T, ["alpha_tilde", "beta_tilde"])
        med_a.append(float(np.median(np.abs(cols["alpha_tilde"] - DESK.alpha))))
        med_b.append(float(np.median(np.abs(cols["beta_tilde"] - DESK.beta))))
    ok = med_a[0] > med_a[1] > med_a[2] and med_b[0] > med_b[1] > med_b[2]
    _line("A07c", "median single-MLE errors shrink over T=6,9,12",
          ok, f"alpha {med_a[0]:.3f}>{med_a[1]:.3f}>{med_a[2]:.3f} "
              f"beta {med_b[0]:.4f}>{med_b[1]:.4f}>{med_b[2]:.4f}")
    assert ok


def test_centered_start_ratio_law(centered_run):
    # known red: at T=12 the centered-start law still carries a median shift
    report, _, _ = centered_run
    row = _row(report, 12.0, "beta_special_ratio")
    ok = row.ks_p > GATE_P
    _line("A08", "x0 at long-run mean: scaled beta error vs X sqrt(sin piH)/Y, T=12",
          ok, f"ks={row.ks_stat:.4f} p={row.ks_p:.4g}")
    assert ok, "finite-horizon shift of about half a Cauchy scale; see module docstring"


def test_hurst_and_gamma_recovery(recovery_run):
    report, _, _ = recovery_run
    errors = report.details["median_errors"]
    gate = report.details["gate"]
    ok = report.passed and set(errors) == {"H=0.6", "H=0.7", "H=0.8", "gamma=0.5", "gamma=2"}
    detail = " ".join(f"{k}:{v:.4f}" for k, v in sorted(errors.items()))
    _line("A09", f"median recovery errors under {gate:g}", ok, detail)
    assert ok


def test_drift_ratio_level(joint_run):
    report, _, _ = joint_run
    gap = report.details["drift_ratio_median_gap"]["12"]
    ok = abs(gap) < 0.05
    _line("A10a", "median (S+bJ)/w vs a/g, T=12", ok, f"gap={gap:+.4f} (gate 0.05)")
    assert ok


def test_scaled_quadratic_limit(joint_run):
    report, _, _ = joint_run
    row = _row(report, 12.0, "I_chi_square")
    ok = row.ks_p > GATE_P
    _line("A10b", "exp(2bT) I vs scaled chi-square law, T=12",
          ok, f"ks={row.ks_stat:.4f} p={row.ks_p:.4g}")
    assert ok


def test_level_average_limit_reported(joint_run):
    # reported either way: the stated constants of the J limit disagree with
    # the constants forced by -bJ = S - (S + bJ); both rows must be present
    report, _, _ = joint_run
    stated = _row(report, 12.0, "J_normal_stated")
    identity = _row(report, 12.0, "J_normal_identity")
    ok = (0.0 <= stated.ks_p <= 1.0) and not stated.gates
    _line("A10c", "level-average limit, stated vs identity constants",
          ok, f"stated p={stated.ks_p:.4g} identity p={identity.ks_p:.4g}")
    assert ok


def test_worker_count_invariance(tmp_path_factory):
    reports = []
    outs = []
    for workers in (1, 3):
        out = tmp_path_factory.mktemp(f"workers{workers}")
        cfg = ExperimentConfig(
            experiment="exact-check", params=DESK, T_list=[1.5],
            n_grid=512, replications=150, master_seed=99,
            workers=workers, output_dir=str(out),
        )
        reports.append(run_experiment(cfg))
        outs.append(str(out))
    same = all(
        filecmp.cmp(os.path.join(outs[0], name), os.path.join(outs[1], name), shallow=False)
        for name in ("stats_T1.5.csv", "checks.csv")
    )
    ok = same and reports[0].rows[0].ks_stat == reports[1].rows[0].ks_stat
    _line("A11", "bitwise identical CSVs for 1 vs 3 workers", ok, f"identical={same}")
    assert ok
