"""Correctness checks on benchmark outputs.

Every check holds whatever RNG stream the program uses. Deterministic
outputs are compared with exact values; Monte-Carlo outputs are compared
with bands (DKW for laws, Hoeffding for cell probabilities) that a correct
sampler leaves with probability at most ``ALPHA``. A change that alters
seeded output on purpose therefore does not read as a failure, while a
sampler with the wrong law does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

ALPHA = 1e-6
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def dkw_eps(reps: int, alpha: float = ALPHA) -> float:
    """Half-width of the DKW band: P(sup |F_R - F| > eps) <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * reps))


def slepian_band(name: str, maxes, n_star: int, alpha: float = ALPHA) -> Check:
    """Empirical law of M within the DKW band around Phi(x)^{n*} <= P(M <= x) <= Phi(x).

    The lower bound is Slepian's inequality for a standardized Gaussian
    field with nonnegative correlations; the upper bound holds for any
    maximum of standard normals.
    """
    x = np.sort(np.asarray(maxes, dtype=np.float64))
    reps = len(x)
    eps = dkw_eps(reps, alpha)
    i = np.arange(1, reps + 1)
    below = np.max(np.exp(n_star * log_ndtr(x)) - (i - 1) / reps)
    above = np.max(i / reps - ndtr(x))
    worst = float(max(below, above))
    return Check(name, worst <= eps, f"max excursion {worst:.4f}, DKW eps {eps:.4f}, R={reps}")


def toeplitz_factor(name: str, L: np.ndarray, poly, n: int, tol: float = EXACT_TOL) -> Check:
    """L L^T reproduces the Toeplitz target T[a, b] = poly(a - b)."""
    if L.shape != (n, n):
        return Check(name, False, f"factor shape {L.shape}, expected {(n, n)}")
    c = np.asarray(poly(np.arange(n, dtype=np.float64)))
    idx = np.arange(n)
    target = c[np.abs(np.subtract.outer(idx, idx))]
    err = float(np.max(np.abs(L @ L.T - target)))
    return Check(name, err <= tol, f"max |L L^T - T| = {err:.3e}, n={n}")


def level_band(name: str, levels, exact_cdf, reps: int, alpha: float = ALPHA) -> Check:
    """Estimated levels sit where the exact block-max law crosses gamma.

    ``levels`` is a LevelSequence; ``exact_cdf(dims, x)`` is the exact law.
    Each raw level is the order statistic at ceil(gamma R), so by DKW the
    exact law there lies in [gamma - eps, gamma + 1/R + eps]; the running-max
    repair keeps that true because laws of nested blocks are ordered.
    """
    v = np.asarray(levels.levels, dtype=np.float64)
    eps = dkw_eps(reps, alpha / max(len(v), 1))
    lo, hi = levels.gamma - eps, levels.gamma + 1.0 / reps + eps
    worst = 0.0
    for n, x in zip(levels.n_values, v):
        f = float(exact_cdf(tuple(levels.curve(int(n))), x))
        worst = max(worst, lo - f, f - hi)
    ok = bool(np.all(np.diff(v) >= 0)) and worst <= 0.0
    return Check(name, ok, f"worst excursion {worst:.4f} outside [{lo:.4f}, {hi:.4f}]")


def beta_band(name: str, mc: float, exact: float, reps: int, cells: int, factors: int,
              alpha: float = ALPHA) -> Check:
    """MC beta within the Hoeffding band of the exact beta on the same splits.

    Each beta term is |P(total) - product of ``factors`` sub-block
    probabilities|; with every one of ``cells`` estimated probabilities
    within eps, the term (and its max over splits) moves by at most
    (factors + 1) eps.
    """
    eps = math.sqrt(math.log(2.0 * cells / alpha) / (2.0 * reps))
    tol = (factors + 1) * eps
    err = abs(mc - exact)
    return Check(name, err <= tol, f"|mc - exact| = {err:.4f}, tolerance {tol:.4f}")


def close(name: str, got, want, tol: float = EXACT_TOL) -> Check:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
    return Check(name, err <= tol, f"max abs difference {err:.3e}")


def equal(name: str, got, want) -> Check:
    return Check(name, got == want, f"got {got!r}, expected {want!r}")
