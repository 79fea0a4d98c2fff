"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 4c asserts a separation target that the classical norming
constants miss; it is kept as stated and fails, with the numbers printed
(see its comment for the measured cause).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import uniform

from phantomfields import (
    GaussianSeparableField,
    IIDField,
    MovingMaxField,
    TwoAtomInnovations,
    construct_G_psi,
    curve_diagonal,
    empirical_max_law,
    enumeration_beta,
    equicorrelated_max_cdf,
    estimate_extremal_index,
    estimate_level_sequence,
    exact_level_sequence,
    exact_max_law,
    example_covariance,
    gumbel_H0,
    levels_u,
    limit_H,
    normal_candidate,
    normalizers,
    phantom_distance,
    uniform_candidate,
)
from phantomfields.cli import SECTORIAL_DEFAULTS, _sub_seed, main
from phantomfields.diagnostics import berman_bound

KAPPA = 0.26 * 0.10
N_GRID = (20, 40, 80)
SEED = SECTORIAL_DEFAULTS["seed"]
REPS = SECTORIAL_DEFAULTS["reps"]


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_exactness_oracle():
    model = IIDField(uniform())
    t0 = time.perf_counter()
    dists = []
    for n in (5, 20, 100):
        law = exact_max_law(model, (n, n))
        dists.append(phantom_distance(law, uniform_candidate(), float(n * n)).value)
    elapsed = time.perf_counter() - t0
    ok = all(d <= 1e-12 for d in dists) and elapsed < 1.0
    assert report(1, ok, f"closed-form distances {['%.2e' % d for d in dists]}, {elapsed:.3f}s")


@pytest.fixture(scope="module")
def sectorial_runs():
    model = GaussianSeparableField(example_covariance())
    phi = normal_candidate()
    out = {}
    for n in N_GRID:
        law = empirical_max_law(model, (n, n), REPS, _sub_seed(SEED, n))
        rep = phantom_distance(law, phi, n * n)
        u = levels_u(1.0, n)
        p_hat = float(np.asarray(law.cdf(u)))
        target = float(phi.power(u, n * n))
        se_u = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / REPS) / REPS)
        out[n] = {
            "distance": rep.value,
            "se": rep.se,
            "u": u,
            "gap": abs(p_hat - target),
            "se_u": se_u,
            "bound": berman_bound(model.cov, n, u).total,
        }
    return out


def test_criterion_2_sectorial_phenomenon(sectorial_runs):
    d = [sectorial_runs[n]["distance"] for n in N_GRID]
    se = [sectorial_runs[n]["se"] for n in N_GRID]
    mono = all(d[i + 1] <= d[i] + 2.0 * se[i + 1] for i in range(len(d) - 1))
    last_le_first = d[-1] <= d[0]
    ok = mono and last_le_first
    assert report(2, ok, f"distances {['%.4f' % x for x in d]} (2000 reps, seed {SEED})")


def test_criterion_3_berman_domination(sectorial_runs):
    checks = {
        n: r["gap"] <= r["bound"] + 3.0 * r["se_u"] for n, r in sectorial_runs.items()
    }
    ok = all(checks.values())
    gaps = [f"{sectorial_runs[n]['gap']:.4f}<={sectorial_runs[n]['bound']:.3f}" for n in N_GRID]
    assert report(3, ok, f"gap vs bound per n: {gaps}")


@pytest.fixture(scope="module")
def directional_values():
    h = limit_H(0.0, KAPPA)
    h0 = gumbel_H0(0.0)
    gaps = []
    for N in (10**4, 10**5, 10**6, 10**7, 10**8):
        _, b = normalizers(N)
        q = equicorrelated_max_cdf(N, KAPPA / math.log(N), b)
        gaps.append(abs(q - h))
    return h, h0, gaps


def test_criterion_4_monotone_approach(directional_values):
    _, _, gaps = directional_values
    t0 = time.perf_counter()
    ok = all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))
    assert report("4a", ok, f"gaps to limit {['%.4f' % g for g in gaps]} ({time.perf_counter() - t0:.3f}s)")


def test_criterion_4_final_gap(directional_values):
    _, _, gaps = directional_values
    ok = gaps[-1] <= 0.02
    assert report("4b", ok, f"final gap {gaps[-1]:.6f} <= 0.02")


def test_criterion_4_non_gumbel_separation(directional_values):
    # Stated target: |H(0;kappa) - H0(0)| must exceed 5x the final gap.
    # Measured: |H - H0| = 0.009440 while 5 * final gap = 0.091506. The
    # gap is the error of the classical b_N of normalizers: at N = 1e8 it
    # is 0.018301, and with the quantile b_N = -ndtri(1/N) it is 0.000867,
    # where 5 x 0.000867 < 0.009440 would pass. Kept as stated until the
    # norming constants change.
    h, h0, gaps = directional_values
    sep = abs(h - h0)
    ok = sep > 5.0 * gaps[-1]
    report("4c", ok, f"|H - H0| = {sep:.6f} vs 5 x final gap = {5.0 * gaps[-1]:.6f}")
    assert ok


def test_criterion_5_extremal_index_oracle():
    t0 = time.perf_counter()
    model = MovingMaxField((2, 2), uniform())
    est = estimate_extremal_index(model, (200, 200), math.exp(-1.0))
    elapsed = time.perf_counter() - t0
    ok = abs(est.theta - 0.25) <= 0.02 and elapsed < 1.0
    assert report(5, ok, f"theta = {est.theta:.6f} (analytic (n+1)^2/(4n^2) -> 1/4), {elapsed:.3f}s")


def test_criterion_6_growth_inequality_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)
    windows = [(2, 2), (2, 1), (1, 2)]
    instances = 0
    violations = 0
    while instances < 50:
        window = windows[instances % len(windows)]
        bound = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        p_lo = float(rng.uniform(0.1, 0.9))
        level = float(rng.uniform(-0.1, 1.1))
        model = MovingMaxField(window, TwoAtomInnovations(0.0, 1.0, p_lo))
        b2 = enumeration_beta(model, bound, level, k=2)
        for k in (2, 3):
            bk = enumeration_beta(model, bound, level, k=k)
            if bk > k**2 * b2 + 1e-12:
                violations += 1
        instances += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    assert report(6, ok, f"{instances} enumerated instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_7_g_psi_self_consistency():
    t0 = time.perf_counter()
    model = IIDField(uniform())
    diag = curve_diagonal(2)
    gamma = math.exp(-1.0)

    # estimated sequence: gamma reproduced exactly at every distinct stored level
    est = estimate_level_sequence(model, diag, gamma, horizon=25, reps=400, seed=SEED)
    g_est = construct_G_psi(est)
    _, stars, vals = est.distinct()
    exact_hits = [g_est.power(v, float(s)) == gamma for v, s in zip(vals, stars)]

    # exact levels: distance of the closed-form law from G_psi^{n^2} at n = 100
    seq = exact_level_sequence(model, diag, gamma, horizon=2000)
    g = construct_G_psi(seq)
    law = exact_max_law(model, (100, 100))
    dist = phantom_distance(law, g, 100.0 * 100.0).value
    elapsed = time.perf_counter() - t0
    ok = all(exact_hits) and len(exact_hits) > 0 and dist <= 0.02 and elapsed < 1.0
    assert report(
        7, ok, f"{len(exact_hits)} stored levels exact, distance at n=100: {dist:.4f}, {elapsed:.3f}s"
    )


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_grid": list(N_GRID), "reps": REPS, "seed": SEED}))
    runs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["sectorial-test", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        runs[tag] = (out / "results.csv").read_bytes()
    ok = runs["a"] == runs["b"]
    assert report(8, ok, "byte-identical CSV across reruns")
