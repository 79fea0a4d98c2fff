"""Phantom-distance estimation, level sequences, limit laws, extremal indices.

The central diagnostic is the sup distance

    sup_x | P(M_n <= x) - G(x)^{n*} |

between a block-max law (empirical or exact) and the n*-th power of a
candidate distribution function G. Powers are evaluated in log space so
exponents of order 1e8 neither underflow nor lose the 0/1 branches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import MonotoneCurve
from .sampling import _NormalMarginal, _UniformMarginal, _rectangle, sub_seed

GH_NODES = 200
# points of the mesh that probes a continuous law on its support
PROBE_MESH = 4096
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_PHI = _NormalMarginal()


def _normal_pdf(z):
    # the expression scipy.stats.norm.pdf evaluates, without importing scipy.stats
    return np.exp(-np.square(z) / 2.0) / _SQRT_2PI


class InconsistentIndexError(ValueError):
    """Raised when a gamma pair does not witness an extremal index in (0, 1]."""


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PhantomCandidate:
    """Evaluatable distribution function with a log-space power operation."""

    cdf: Callable
    log_cdf: Callable | None = None
    breakpoints: np.ndarray | None = None

    def power(self, x, m: float):
        """G(x)^m with exact 0 and 1 branches (m > 0)."""
        x = np.asarray(x, dtype=np.float64)
        if self.log_cdf is not None:
            return np.exp(m * self.log_cdf(x))
        g = np.asarray(self.cdf(x), dtype=np.float64)
        out = np.zeros_like(g)
        pos = g > 0.0
        with np.errstate(divide="ignore"):
            out[pos] = np.exp(m * np.log(g[pos]))
        return out

    def power_left(self, x, m: float):
        """Left limit of G^m at x; equals power for continuous candidates."""
        return self.power(x, m)


def normal_candidate() -> PhantomCandidate:
    return PhantomCandidate(cdf=_PHI.cdf, log_cdf=_PHI.log_cdf)


def uniform_candidate() -> PhantomCandidate:
    return PhantomCandidate(cdf=_UniformMarginal().cdf)


class StepPhantom(PhantomCandidate):
    """The step-function candidate built from a level sequence.

    G is 0 below the first level, gamma^(1/s_n) on [v_n, v_{n+1}) where
    s_n is the cell count attached to v_n, and 1 at +inf. The delivered
    function is truncated at the last stored level (the true sup of the
    infinite level sequence is not reachable from a finite table), so
    G keeps its last branch value for x >= v_last.

    G^m is computed as gamma^(m/s_n), which reproduces gamma exactly
    when m equals the stored cell count.
    """

    def __init__(self, levels: np.ndarray, psi_star: np.ndarray, gamma: float):
        self.levels = np.asarray(levels, dtype=np.float64)
        self.psi_star = np.asarray(psi_star, dtype=np.float64)
        self.gamma = float(gamma)
        if np.any(np.diff(self.levels) <= 0):
            raise ValueError("levels must be strictly increasing")
        if len(self.levels) != len(self.psi_star) or len(self.levels) == 0:
            raise ValueError("levels and psi_star must be nonempty and aligned")
        super().__init__(cdf=self._cdf, breakpoints=self.levels)

    def _power_at(self, x, m: float, side: str):
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.levels, x, side=side) - 1
        out = np.zeros(x.shape if x.ndim else (1,))
        xi = np.atleast_1d(idx)
        xv = np.atleast_1d(x)
        hit = xi >= 0
        out[hit] = self.gamma ** (m / self.psi_star[xi[hit]])
        out[np.isposinf(xv)] = 1.0
        return out if x.ndim else float(out[0])

    def _cdf(self, x):
        return self._power_at(x, 1.0, "right")

    def power(self, x, m: float):
        return self._power_at(x, m, "right")

    def power_left(self, x, m: float):
        return self._power_at(x, m, "left")


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EmpiricalLaw:
    """Empirical CDF of a max statistic from seeded replications."""

    values: np.ndarray  # sorted
    reps: int

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")

    @property
    def breakpoints(self) -> np.ndarray:
        return self.values

    def cdf(self, x):
        return np.searchsorted(self.values, x, side="right") / self.reps

    def cdf_left(self, x):
        return np.searchsorted(self.values, x, side="left") / self.reps

    def se_at(self, x) -> float:
        f = float(np.asarray(self.cdf(x)))
        return math.sqrt(f * (1.0 - f) / self.reps)

    def quantile(self, gamma: float) -> float:
        """Order statistic at index ceil(gamma * R)."""
        return float(self.values[_order_index(gamma, self.reps)])


def _order_index(gamma: float, reps: int) -> int:
    """The 0-based place of the gamma-quantile among reps >= 1 sorted values: ceil(gamma * reps) - 1, and >= 0."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return max(math.ceil(gamma * reps), 1) - 1


@dataclass(eq=False)
class ExactLaw:
    """Continuous closed-form block-max law, probed at ``breakpoints``: a ``PROBE_MESH``-point mesh
    from its 1e-12 to its 1 - 1e-12 level, ends included, or the finite ones alone if either is not."""

    cdf: Callable
    breakpoints: np.ndarray

    def cdf_left(self, x):
        return self.cdf(x)


def empirical_max_law(model, dims, reps: int, seed: int) -> EmpiricalLaw:
    """reps independent draws of M_dims under the model; deterministic per seed."""
    return EmpiricalLaw(values=np.sort(model.block_maxes(tuple(dims), reps, seed)), reps=reps)


def exact_max_law(model, dims) -> ExactLaw:
    lo = float(model.exact_block_level(dims, 1e-12))
    hi = float(model.exact_block_level(dims, 1.0 - 1e-12))
    ends = [s for s in (lo, hi) if math.isfinite(s)]
    mesh = np.linspace(lo, hi, PROBE_MESH) if len(ends) == 2 else np.array(ends)
    return ExactLaw(cdf=lambda x: model.exact_block_max_cdf(dims, x), breakpoints=mesh)


# ---------------------------------------------------------------------------
# the phantom distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceReport:
    value: float
    x: float
    se: float | None = None


def phantom_distance(law, G: PhantomCandidate, m: float) -> DistanceReport:
    """sup_x |law(x) - G(x)^m| over the breakpoints of both sides.

    Every law carries its probe points (an exact law a mesh of its support:
    resolution reported by the caller). For step functions (empirical laws,
    level-built candidates) both one-sided values are checked at every
    jump, which makes the sup exact.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    xs = [np.asarray(law.breakpoints, dtype=np.float64)]
    if G.breakpoints is not None:
        xs.append(np.asarray(G.breakpoints, dtype=np.float64))
    probes = np.sort(np.concatenate(xs))
    if len(probes) == 0:
        raise ValueError("no probe points: neither the law nor the candidate has breakpoints")
    # the distinct probes: np.unique would do, but its first call imports numpy.ma
    probes = probes[np.r_[True, probes[1:] != probes[:-1]]]
    d_right = np.abs(np.asarray(law.cdf(probes), dtype=np.float64) - G.power(probes, m))
    d_left = np.abs(np.asarray(law.cdf_left(probes), dtype=np.float64) - G.power_left(probes, m))
    d = np.maximum(d_right, d_left)
    j = int(np.argmax(d))
    x = float(probes[j])
    se = law.se_at(x) if isinstance(law, EmpiricalLaw) else None
    return DistanceReport(value=float(d[j]), x=x, se=se)


# ---------------------------------------------------------------------------
# level sequences and the G_psi construction
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LevelSequence:
    """Nondecreasing levels v_psi(n) along a curve, with target gamma."""

    curve: MonotoneCurve
    gamma: float
    n_values: np.ndarray
    psi_star: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.levels) < 0):
            raise ValueError("levels must be nondecreasing")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")

    def distinct(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, psi_star, level) of branch owners: last index of each tie run."""
        v = self.levels
        keep = np.ones(len(v), dtype=bool)
        keep[:-1] = v[1:] > v[:-1]
        return self.n_values[keep], self.psi_star[keep], v[keep]


def _level_sequence(curve: MonotoneCurve, gamma: float, horizon: int, levels: Callable) -> LevelSequence:
    """The sequence of ``levels(pts)`` at the points pts of ``curve`` up to ``horizon``; gamma is checked first."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    pts = curve.table(horizon)
    return LevelSequence(curve, gamma, np.arange(curve.n_min, horizon + 1), np.prod(pts, axis=1), levels(pts))


def estimate_level_sequence(
    model,
    curve: MonotoneCurve,
    gamma: float,
    horizon: int,
    reps: int,
    seed: int,
) -> LevelSequence:
    """Empirical gamma-quantiles of M_psi(n), n = n_min..horizon, off one draw per replication.

    Each replication is drawn once on psi(horizon), from the stream
    ``sub_seed(seed, horizon)``, and M_psi(n) is read off its corner (see
    ``FieldModel.nested_maxes``). The level is the order statistic at
    ceil(gamma * reps). The curve's rectangles are nested, so every
    replication's maxima, and hence the levels, are nondecreasing in n.
    """

    def levels(pts):
        k = _order_index(gamma, reps)
        maxes = model.nested_maxes(pts, reps, sub_seed(seed, horizon))
        maxes.sort(axis=1)
        return maxes[:, k].copy()

    return _level_sequence(curve, gamma, horizon, levels)


def exact_level_sequence(model, curve: MonotoneCurve, gamma: float, horizon: int) -> LevelSequence:
    """Levels solving P(M_psi(n) <= v) = gamma for models with exact laws."""
    levels = lambda pts: np.array([model.exact_block_level(tuple(int(x) for x in dims), gamma) for dims in pts])
    return _level_sequence(curve, gamma, horizon, levels)


def construct_G_psi(levels: LevelSequence) -> StepPhantom:
    """The step-function candidate of the level sequence.

    Tied consecutive levels (equal order statistics of nested maxima, or
    stalling curve points) make the earlier branch intervals empty; the
    candidate is built on the distinct level values with the exponent of
    the branch that owns each value.
    """
    _, stars, vals = levels.distinct()
    return StepPhantom(levels=vals, psi_star=stars, gamma=levels.gamma)


# ---------------------------------------------------------------------------
# level asymptotics for the Gaussian example
# ---------------------------------------------------------------------------


def levels_u(c: float, n: int) -> float:
    """Exact solution of n^2 * (1 - Phi(u)) = c.

    Computed with the full-precision normal inverse survival function;
    requires c < n^2 so a solution exists.
    """
    if not 0.0 < c < n * n:
        raise ValueError(f"need 0 < c < n^2 = {n * n}")
    return float(-_PHI.ppf(c / (n * n)))


def normalizers(n) -> tuple[float, float]:
    """Gumbel norming pair a_n = sqrt(2 ln n), b_n = a_n - (lnln n + ln 4pi)/(2 a_n)."""
    if n < 3:
        raise ValueError("n must be >= 3 (ln ln n must be positive)")
    a = math.sqrt(2.0 * math.log(n))
    b = a - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * a)
    return a, b


def gumbel_H0(x):
    """Standard Gumbel distribution function exp(-exp(-x))."""
    x = np.asarray(x, dtype=np.float64)
    # the exponent clipped: exp(700) is finite, and exp(-exp(700)) is 0
    out = np.exp(-np.exp(np.minimum(-x, 700.0)))
    return float(out) if out.ndim == 0 else out


@functools.cache
def _normal_nodes(n: int):
    """The n Gauss-Hermite nodes and weights for a standard normal weight, computed once per n."""
    t, w = np.polynomial.hermite.hermgauss(n)
    return np.sqrt(2.0) * t, w / math.sqrt(math.pi)


def _normal_mean(f, x, method: str):
    """E f(x, Z) for a standard normal Z, at each x, clipped to [0, 1].

    ``f`` is a distribution function of x mixed over Z and takes arrays
    that broadcast. Gauss-Hermite quadrature by default; the adaptive
    method integrates with scipy.quad instead, the cross-check oracle of
    the tests. A scalar x gives a float, an array an array.
    """
    x = np.asarray(x, dtype=np.float64)
    xv = np.atleast_1d(x)
    if method == "adaptive":
        # scipy.integrate is imported only here: it loads scipy.optimize and
        # scipy.sparse, which no CLI command needs
        from scipy import integrate

        quad = lambda xi: integrate.quad(
            lambda z: f(xi, z) * _normal_pdf(z), -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12
        )[0]
        out = np.array([quad(xi) for xi in xv])
    else:
        z, w = _normal_nodes(GH_NODES)
        out = f(xv[:, None], z[None, :]) @ w
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if x.ndim == 0 else out


def limit_H(x, kappa: float, method: str = "gauss-hermite"):
    """The non-Gumbel limit law of the equicorrelated comparison array:

        H(x) = int exp(-exp(-x - kappa + sqrt(2 kappa) z)) phi(z) dz,

    the mixed-Gumbel law of Mittal & Ylvisaker (1975). Strictly increasing
    in x with values in (0, 1); kappa -> 0 recovers the Gumbel law. The
    integrand is ``gumbel_H0`` at x + kappa - sqrt(2 kappa) z, a smooth
    sigmoid in z (see ``_normal_mean`` for the methods).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    s = math.sqrt(2.0 * kappa)
    return _normal_mean(lambda x, z: gumbel_H0(x + kappa - s * z), x, method)


def equicorrelated_max_cdf(N: int, rho: float, w, method: str = "gauss-hermite"):
    """P(max of N standard normals with common correlation rho <= w):

        int Phi((w - sqrt(rho) z) / sqrt(1 - rho))^N phi(z) dz,

    with Phi^N evaluated as exp(N * log Phi) so huge N stays finite.
    rho = 0 gives Phi(w)^N up to the rounding of the quadrature weights.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")
    r, s = math.sqrt(rho), math.sqrt(1.0 - rho)
    return _normal_mean(lambda w, z: np.exp(N * _PHI.log_cdf((w - r * z) / s)), w, method)


# ---------------------------------------------------------------------------
# extremal indices
# ---------------------------------------------------------------------------


def extremal_index(gamma_or: float, gamma_in: float) -> float:
    """theta = ln gamma_or / ln gamma_in, flagged when outside (0, 1]."""
    if not (0.0 < gamma_or < 1.0 and 0.0 < gamma_in < 1.0):
        raise InconsistentIndexError("both gammas must lie in (0, 1)")
    theta = math.log(gamma_or) / math.log(gamma_in)
    if not 0.0 < theta <= 1.0:
        raise InconsistentIndexError(
            f"theta = {theta:.6f} outside (0, 1]: levels do not witness an extremal index"
        )
    return theta


@dataclass(frozen=True)
class IndexEstimate:
    theta: float
    gamma_or: float
    gamma_in: float
    level: float


def estimate_extremal_index(model, dims, gamma_in: float = math.exp(-1.0)) -> IndexEstimate:
    """Exact-law index estimate at one rectangle.

    Picks the level v with F(v)^{n*} = gamma_in, F the marginal law: the
    model's exact block level on one site at gamma_in^(1/n*). Takes
    gamma_or = P(M_dims <= v) from the model's exact block-max law, and
    returns the log ratio.
    """
    dims = _rectangle(dims)
    if not 0.0 < gamma_in < 1.0:
        raise InconsistentIndexError(f"gamma_in must lie in (0, 1), got {gamma_in}")
    n_star = int(np.prod(dims))
    v = model.exact_block_level((1,) * len(dims), gamma_in ** (1.0 / n_star))
    g_or = float(model.exact_block_max_cdf(dims, v))
    # Rounding margin: with q = gamma_in^(1/n*) and F(F^-1(q)) = q (1 + d), theta - 1
    # = n* d / ln gamma_in, so an i.i.d. model (theta = 1) lands above 1 for about half
    # of all n. |d| is a few eps, but the normal's lower tail magnifies F^-1's error by
    # v^2 ~ 2 |ln gamma_in| / n*, adding a few eps to theta. The largest excess measured
    # (built-in marginals, gamma_in >= 1e-300, n <= 3000) is 0.50 of the margin, at n = 1.
    slack = 8.0 * np.finfo(np.float64).eps * (n_star / abs(math.log(gamma_in)) + 1.0)
    rounding = gamma_in ** (1.0 + slack) <= g_or < gamma_in  # so a gamma_or of 0 skips the log
    return IndexEstimate(
        theta=math.log(g_or) / math.log(gamma_in) if rounding else extremal_index(g_or, gamma_in),
        gamma_or=g_or,
        gamma_in=gamma_in,
        level=v,
    )
