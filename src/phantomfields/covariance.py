"""Polya-type characteristic polygons and separable lattice covariances.

A characteristic polygon is an even, convex, nonincreasing, strictly
positive piecewise-linear function on R with value 1 at 0; by Polya's
criterion any such function is a valid characteristic function, so its
restriction to the integers is a positive-definite sequence. Products of
such per-axis sequences give separable covariances on Z^d.

Two concrete families are provided; both are polygons through

    eta1:  (0,1), (1, g1*(27 L(27) - 26 L(28))), (28, g1*L(28)), (29, g1*L(29)), ...
    eta2:  (0,1), (1, g2*(2/ln 2 - 1/ln 3)),     (3, g2/ln 3),   (4, g2/ln 4), ...

with L(k) = ln(ln k)/ln k. The knot-1 values sit on the extension of the
first tail segment, which is what makes the whole polygon convex. A
polygon stores only its head knots, up to one segment past the start of
the tail; beyond them its closed-form tail rule gives the values.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class InfeasibleParameterError(ValueError):
    """Raised when a parameter produces a polygon violating Polya's criterion."""


def _loglog_ratio(k):
    k = np.asarray(k, dtype=np.float64)
    return np.log(np.log(k)) / np.log(k)


@dataclass(frozen=True, eq=False)
class CharacteristicPolygon:
    """Piecewise-linear convex decreasing function on R+, reflected to R.

    ``knots_t``/``knots_v`` hold the explicit knots; ``tail`` (if set)
    gives exact values at integer abscissae beyond the last stored knot,
    with linear interpolation in between. Without a tail rule the last
    knot value is held constant (still convex, nonincreasing, positive).
    """

    knots_t: np.ndarray
    knots_v: np.ndarray
    tail: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "polygon"

    # per-length Cholesky factors of the Toeplitz matrix and half-spectrum
    # weights of its circulant embedding, filled lazily, read-only and kept
    # for the polygon's life; while one polygon of a gamma is alive,
    # build_eta1/build_eta2 return it, so models of an equal example field
    # share them
    _chol_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _spectrum_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, t) -> np.ndarray | float:
        t = np.abs(np.asarray(t, dtype=np.float64))
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        last = self.knots_t[-1]
        out = np.interp(np.minimum(t, last), self.knots_t, self.knots_v)
        beyond = t > last
        if np.any(beyond):
            if self.tail is None:
                out[beyond] = self.knots_v[-1]
            else:
                tb = t[beyond]
                k = np.floor(tb)
                frac = tb - k
                out[beyond] = self.tail(k) * (1.0 - frac) + self.tail(k + 1.0) * frac
        return float(out[0]) if scalar else out


def validate_polya(p: CharacteristicPolygon) -> tuple[bool, list[str]]:
    """Check the defining conditions on the stored knots.

    Returns (ok, diagnostics); diagnostics name every violated condition
    in check order (origin knot, positivity, nonincreasing, convexity).
    Slope comparisons are done by cross multiplication with zero
    tolerance, which is exact for the stored float data.
    """
    t, v = p.knots_t, p.knots_v
    diags: list[str] = []
    if len(t) < 2:
        return False, ["fewer than two knots"]
    if not (t[0] == 0.0 and v[0] == 1.0):
        diags.append(f"first knot must be (0, 1), got ({t[0]}, {v[0]})")
    if np.any(np.diff(t) <= 0):
        i = int(np.argmax(np.diff(t) <= 0))
        diags.append(f"knot abscissae not strictly increasing at index {i}")
        return False, diags
    if np.any(v <= 0.0):
        i = int(np.argmax(v <= 0.0))
        diags.append(f"positivity violated at knot {i} (t={t[i]})")
    dv = np.diff(v)
    dt = np.diff(t)
    if np.any(dv > 0.0):
        i = int(np.argmax(dv > 0.0))
        diags.append(f"nonincreasing violated on segment {i} (t={t[i]}..{t[i + 1]})")
    # slopes nondecreasing: dv[i]/dt[i] <= dv[i+1]/dt[i+1]
    lhs = dv[:-1] * dt[1:]
    rhs = dv[1:] * dt[:-1]
    if np.any(lhs > rhs):
        i = int(np.argmax(lhs > rhs))
        diags.append(f"convexity violated at knot {i + 1} (t={t[i + 1]})")
    return len(diags) == 0, diags


# (name, gamma) -> the polygon, for as long as something else holds it
_POLYGONS = weakref.WeakValueDictionary()


def _build_polygon(gamma, knot1_value, tail_start, tail_fn, name):
    """Polygon through (0, 1), (1, knot1_value) and (k, tail_fn(k)) for k >= tail_start.

    Only the knots up to tail_start + 1 are stored, so ``validate_polya``
    still checks where the head meets the tail. The chords of the tail are
    a positive, nonincreasing, convex polygon because tail_fn is positive,
    decreasing and convex on [tail_start, inf) for any gamma > 0 (gamma
    only scales it):
    - eta1, f = ln(s)/s with s = ln x: f' = (1 - ln s)/(x s^2) < 0 for
      x > e^e, f > 0 for x > e, and f'' = (s ln s + 2 ln s - s - 3)/(x^2 s^3),
      whose numerator increases with s (its derivative is ln s + 2/s) and
      is 0.086 at x = 28.
    - eta2, f = 1/ln x: f' = -1/(x ln^2 x) and f'' = (ln x + 2)/(x^2 ln^3 x),
      so f is positive, decreasing and convex for x > 1.

    While a polygon of this name and gamma is alive (a model holds it), the
    call returns that polygon, so its cached factors and spectra serve every
    model built on it; its knots are read-only. The last model to go frees
    it, with its factors, as a polygon of its own would be.
    """
    if not 0.0 < gamma < 1.0:
        raise InfeasibleParameterError(f"{name}: gamma must be in (0, 1), got {gamma}")
    poly = _POLYGONS.get((name, gamma))
    if poly is not None:
        return poly
    ks = np.array([tail_start, tail_start + 1], dtype=np.float64)
    knots_t = np.concatenate(([0.0, 1.0], ks))
    knots_v = np.concatenate(([1.0, knot1_value], tail_fn(ks)))
    knots_t.flags.writeable = knots_v.flags.writeable = False
    poly = CharacteristicPolygon(knots_t=knots_t, knots_v=knots_v, tail=tail_fn, name=name)
    ok, diags = validate_polya(poly)
    if not ok:
        raise InfeasibleParameterError(f"{name}(gamma={gamma}) infeasible: {diags[0]}")
    _POLYGONS[name, gamma] = poly
    return poly


# eta1(1) / gamma1 and eta2(1) / gamma2: the tail chords on [27, 28] and [2, 3], extended to 1
_ETA1_KNOT1 = 27.0 * _loglog_ratio(27.0) - 26.0 * _loglog_ratio(28.0)
_ETA2_KNOT1 = 2.0 / np.log(2.0) - 1.0 / np.log(3.0)


def build_eta1(gamma1: float) -> CharacteristicPolygon:
    """First axis polygon: value gamma1*ln(ln k)/ln k at every integer k >= 28."""
    tail = lambda k: gamma1 * _loglog_ratio(k)
    return _build_polygon(gamma1, gamma1 * _ETA1_KNOT1, 28, tail, "eta1")


def build_eta2(gamma2: float) -> CharacteristicPolygon:
    """Second axis polygon: value gamma2/ln k at every integer k >= 3."""
    tail = lambda k: gamma2 / np.log(np.asarray(k, dtype=np.float64))
    return _build_polygon(gamma2, gamma2 * _ETA2_KNOT1, 3, tail, "eta2")


@dataclass(frozen=True)
class GammaPair:
    gamma1: float
    gamma2: float


def validate_gammas(g: GammaPair) -> bool:
    """Feasibility chain: gamma1 > 1/4 and eta1(1) < eta2(1) < (1-2g1)/(1+2g1)."""
    if not (0.0 < g.gamma1 < 1.0 and 0.0 < g.gamma2 < 1.0):
        return False
    if not g.gamma1 > 0.25:
        return False
    c = (1.0 - 2.0 * g.gamma1) / (1.0 + 2.0 * g.gamma1)
    return g.gamma1 * _ETA1_KNOT1 < g.gamma2 * _ETA2_KNOT1 < c


DEFAULT_GAMMAS = GammaPair(0.26, 0.10)


@dataclass(frozen=True, eq=False)
class SeparableCovariance:
    """Covariance r(k) = prod_i axes[i](k_i) on Z^d."""

    axes: tuple[CharacteristicPolygon, ...]
    gammas: GammaPair | None = None

    @property
    def d(self) -> int:
        return len(self.axes)


def covariance_at(c: SeparableCovariance, k) -> float:
    """Evaluate r at a single lattice point (symmetric in k -> -k)."""
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (c.d,):
        raise ValueError(f"lattice point must have {c.d} coordinates")
    return float(math.prod(ax(abs(x)) for ax, x in zip(c.axes, k)))


def delta_sup(c: SeparableCovariance) -> float:
    """Sup of r over Z^d \\ {0}: the closed form max_i axes[i](1).

    Each axis polygon is at most 1 and nonincreasing in |t|, so r(k) is at
    most axes[i](1) for any coordinate k_i != 0, and the unit point e_i
    attains it.
    """
    return max(float(ax(1.0)) for ax in c.axes)


def example_covariance(gammas: GammaPair = DEFAULT_GAMMAS) -> SeparableCovariance:
    """The built-in 2-d model r_ij = eta1(i) * eta2(j).

    This is the library's canonical separable Gaussian model: it admits
    a sectorial phantom distribution function but no global one. The
    gamma pair is validated before construction.
    """
    if not validate_gammas(gammas):
        raise InfeasibleParameterError(f"gamma pair {gammas} fails the feasibility chain")
    return SeparableCovariance(
        axes=(build_eta1(gammas.gamma1), build_eta2(gammas.gamma2)),
        gammas=gammas,
    )

