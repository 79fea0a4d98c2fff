"""Mixing functionals over block splits and the normal-comparison bound.

The 2-split functional measures how far a block-max probability is from
factorizing over the 2^d sub-blocks induced by a split p(1) + p(2) of the
rectangle; the k-split variant uses k parts and k^d sub-blocks. The true
functionals maximize over ALL admissible splits, which is infeasible in
general: both modes maximize over a configurable grid. Exact mode (models
with closed-form block-max laws) can take the full finite split set, and
then its value is the functional itself; on a partial grid it is a lower
bound, and the report says so. An MC value is neither: it is a maximum
of noisy terms, biased upward (the i.i.d. field, whose functional is 0,
reads about 0.016 at 4000 replications on the quarter grid).

S splits into k parts of a box in N^d are one integer array (S, k, d),
entry [s, i, j] coordinate j of part i of split s. The functional takes
one float level and reads each sub-block of all S splits at once off one
table, over the lengths they read on each axis, filled by one call of the
exact law, the chunked nested maxima (``nested_max_chunks``) or enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, phantom
from .covariance import SeparableCovariance, delta_sup
from .lattice import MonotoneCurve
from .sampling import IIDField, MovingMaxField, TwoAtomInnovations, _no_exact_law


def _fitting_tuples(pts: np.ndarray, k: int, bound) -> np.ndarray:
    """The k-tuples of rows of ``pts`` (P, d) that sum to <= ``bound``, lexicographic, shape (S, k, d).

    Every split array is built here, so this is where a k below 2 is rejected.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    fits = np.ones((len(pts),) * k, dtype=bool)
    for j, b in enumerate(bound):
        # coordinate j of part i varies along axis i of the k-dimensional grid
        fits &= sum(pts[:, j].reshape((-1,) + (1,) * (k - 1 - i)) for i in range(k)) <= b
    return pts[np.stack(np.nonzero(fits), axis=1)]


def quarter_grid_splits(bound, k: int = 2) -> np.ndarray:
    """Default MC split grid: part coordinates at the quarter points of the bound, shape (S, k, d)."""
    bound = tuple(int(b) for b in bound)
    marks = [sorted({0, b // 4, b // 2, (3 * b) // 4, b}) for b in bound]
    return _fitting_tuples(np.array(list(itertools.product(*marks))), k, bound)


def exhaustive_splits(bound, k: int = 2) -> np.ndarray:
    """Every k-tuple of N_0^d parts with componentwise sum <= bound, shape (S, k, d)."""
    per_axis = [_fitting_tuples(np.arange(b + 1)[:, None], k, (b,))[:, :, 0] for b in map(int, bound)]
    # one choice per axis, axis 0's varying slowest
    pick = np.indices([len(c) for c in per_axis]).reshape(len(per_axis), -1)
    return np.stack([c[i] for c, i in zip(per_axis, pick)], axis=2)


def _block_probabilities(model, level: float, mode: str, reps: int = 0, seed: int = 0):
    """rects -> P(M_rect <= level) at nonempty rectangles ``rects`` (P, d), shape (P,): the exact law, or MC.

    MC mode draws ``reps`` replications of ``seed`` once, on the largest
    rectangle, and counts each rectangle's maxima below the level chunk
    by chunk (``nested_max_chunks``), so memory does not grow with ``reps``.
    """
    if mode == "exact":
        # float dims: the law's exponent prod(dims) may pass the int64 range
        return lambda rects: model.exact_block_max_cdf(rects.T.astype(np.float64), level)
    # map drops each chunk's maxima before the next chunk is reduced
    below = lambda part: (part <= level).sum(axis=1)
    return lambda rects: sum(map(below, model.nested_max_chunks(rects, reps, seed))) / reps


def _read_lengths(parts: np.ndarray):
    """One axis of ``_beta_over``'s table: the lengths that the parts (S, k) and their totals read,
    0 first and sorted, and the place of every length up to the largest among them."""
    total = parts.sum(axis=1)
    read = np.zeros(total.max() + 1, dtype=bool)
    read[0] = read[parts] = read[total] = True
    return np.flatnonzero(read), np.cumsum(read) - 1


def _beta_over(prob, splits: np.ndarray):
    """(max, first argmax) over ``splits`` of |P(total) - product over the k^d sub-blocks|.

    One table holds a cell for each combination of the lengths read on
    each axis; it marks every sub-block and total the splits read with 1,
    and ``prob`` (P, d) -> (P,) fills the distinct nonempty ones in one
    call, if any, so an empty block keeps its 1. Its size depends on the
    lengths the splits read, not on the box.
    """
    _, k, d = splits.shape
    blocks = [tuple(splits[:, i, j] for j, i in enumerate(idx)) for idx in itertools.product(range(k), repeat=d)]
    # the totals, one axis at a time where read: no (S, d) array is held while prob draws
    total = lambda: (splits[:, :, j].sum(axis=1) for j in range(d))
    lengths, cell = zip(*(_read_lengths(splits[:, :, j]) for j in range(d)))
    at = lambda block: tuple(c[b] for c, b in zip(cell, block))
    table = np.zeros([len(lens) for lens in lengths])
    for block in blocks:
        table[at(block)] = 1.0
    table[at(total())] = 1.0
    idx = np.argwhere(table[(slice(1, None),) * d]) + 1
    if len(idx):
        table[tuple(idx.T)] = prob(np.stack([lens[i] for lens, i in zip(lengths, idx.T)], axis=1))
    prod = np.ones(len(splits))
    for block in blocks:
        prod *= table[at(block)]
    vals = np.abs(table[at(total())] - prod)
    s = int(np.argmax(vals))
    return float(vals[s]), splits[s].tolist()


@dataclass(frozen=True)
class BetaReport:
    value: float
    argmax: list[list[int]]
    k: int
    mode: str
    n: int
    T: float
    bound: tuple[int, ...]
    level: float
    grid_size: int
    se: float | None
    lower_bound_only: bool

    def to_json(self) -> dict:
        return {
            "functional": f"beta_k{self.k}",
            "grid": self.grid_size,
            "value": self.value,
            "mode": self.mode,
            "se": self.se,
            "n": self.n,
            "T": self.T,
            "bound": list(self.bound),
            "level": self.level,
            "argmax": self.argmax,
            "lower_bound_only": self.lower_bound_only,
        }


def constraint_box(psi: MonotoneCurve, T: float, n: int) -> tuple[int, ...]:
    """The box floor(T * psi(n)) that beta's splits fill; a coordinate that is
    not finite or below 1 is an error."""
    scaled = tuple(T * c for c in psi(n))
    if not all(map(math.isfinite, scaled)):
        raise ValueError(f"constraint box T * psi(n) = {scaled} is not finite")
    bound = tuple(math.floor(x) for x in scaled)
    if any(b < 1 for b in bound):
        raise ValueError(f"constraint box floor(T * psi(n)) = {bound} has a coordinate below 1")
    return bound


def beta_mode(model, mode: str, reps: int) -> str:
    """``mode`` checked for ``model``, "auto" resolved: exact for the ``IIDField`` family, whose law has a closed form."""
    if mode not in ("auto", "exact", "mc"):
        raise ValueError(f"mode must be auto, exact or mc, got {mode!r}")
    if mode == "auto":
        mode = "exact" if isinstance(model, IIDField) else "mc"
    if mode == "exact" and not isinstance(model, IIDField):
        raise _no_exact_law(model)
    if mode == "mc" and reps < 1:
        raise ValueError(f"mc mode needs reps >= 1, got {reps}")
    return mode


def beta_k_estimate(
    model,
    psi: MonotoneCurve,
    level: float,
    T: float,
    n: int,
    k: int = 2,
    splits=None,
    reps: int = 2000,
    seed: int = 0,
    mode: str = "auto",
) -> BetaReport:
    """Max over splits of |P(M_total <= level) - prod over k^d sub-blocks|.

    The constraint box is floor(T * psi(n)); ``splits`` is an integer (S, k, d)
    array of parts in it, the quarter grid by default. mode "exact"
    requires a model with a closed-form block-max law; "auto" picks
    exact when available. An exact value is a lower bound for the true
    sup unless the splits cover the full admissible set, the
    prod_j C(bound_j + k, k) k-tuples of parts with sum <= bound.
    """
    level = float(level)
    bound = constraint_box(psi, T, n)
    mode = beta_mode(model, mode, reps)
    splits = quarter_grid_splits(bound, k) if splits is None else np.asarray(splits)
    if splits.ndim != 3 or splits.shape[1:] != (k, len(bound)) or len(splits) == 0 or splits.dtype.kind not in "iu":
        raise ValueError(f"splits must be a nonempty integer (S, {k}, {len(bound)}) array, got {splits.dtype} {splits.shape}")
    # a negative part would read a table from its far end
    negative = (splits < 0).any(axis=(1, 2))
    if negative.any():
        raise ValueError(f"split {splits[np.argmax(negative)].tolist()} has a negative part")
    over = (splits.sum(axis=1) > bound).any(axis=1)
    if over.any():
        raise ValueError(f"split {splits[np.argmax(over)].tolist()} exceeds the constraint box {bound}")
    best, arg = _beta_over(_block_probabilities(model, level, mode, reps=reps, seed=seed), splits)
    # worst-case standard error of a single estimated probability
    se = None if mode == "exact" else math.sqrt(0.25 / reps)
    partial = False
    if mode == "exact":
        # every split is admissible, so the grid is partial when it holds fewer distinct ones than
        # there are; sorted with lexsort, because np.unique imports numpy.ma (20-30 ms of start-up)
        rows = splits.reshape(len(splits), -1)
        rows = rows[np.lexsort(rows.T)]
        distinct = 1 + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))
        partial = distinct < math.prod(math.comb(b + k, k) for b in bound)
    return BetaReport(
        value=best,
        argmax=arg,
        k=k,
        mode=mode,
        n=n,
        T=T,
        bound=bound,
        level=level,
        grid_size=len(splits),
        se=se,
        lower_bound_only=partial,
    )


def _enumerated(model, bound, level: float) -> np.ndarray:
    """P(M_dims <= level) at [dims - 1] for the sub-blocks of ``bound``, by enumeration.

    Only for 2-d moving-max models with two-atom innovations and at most
    25 innovation sites; independent of the dilation-counting closed form.
    """
    if not (isinstance(model, MovingMaxField) and isinstance(model.innovations, TwoAtomInnovations)):
        raise ValueError("enumeration oracle needs a moving-max model with two-atom innovations")
    if len(bound) != 2:
        raise ValueError("enumeration oracle is 2-d only")
    innov = model.innovations
    bound = tuple(int(b) for b in bound)
    return kernels.enum_block_cdf_table(bound, model.window, innov.lo, innov.hi, innov.p_lo, level)


def enumeration_block_cdf(model, dims, level: float) -> float:
    """P(M_dims <= level) by exhaustive enumeration of innovation configs."""
    return float(_enumerated(model, dims, level)[-1, -1])


def enumeration_beta(model, bound, level: float, k: int = 2) -> float:
    """beta over the FULL admissible split set with enumerated probabilities."""
    table = _enumerated(model, bound, level)
    return _beta_over(lambda rects: table[tuple((rects - 1).T)], exhaustive_splits(bound, k))[0]


# ---------------------------------------------------------------------------
# Berman comparison bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BermanReport:
    total: float
    sigma1: float
    sigma2: float
    delta: float
    L: float
    alpha: float
    a_lo: int


def berman_bound(c: SeparableCovariance, n: int, u: float, method: str = "direct") -> BermanReport:
    """4 L(delta) n^2 sum over the punctured box [0, n]^2 of r * exp(-u^2/(1+r)).

    Also reports the split of the sum into Sigma1 (indices in
    [ceil(n^alpha), n]^2) and Sigma2 (the rest), with alpha the midpoint
    of (0, (1 - 3 delta)/(1 + delta)). The two summation methods ("direct"
    2-d reduction vs "factored" row partial sums) are algebraically
    identical and serve as a cross-check pair.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if c.d != 2:
        raise ValueError("the comparison bound is implemented for d = 2")
    delta = delta_sup(c)
    L = (1.0 / (2.0 * math.pi)) / math.sqrt(1.0 - delta * delta)  # the normal-comparison constant
    hi = (1.0 - 3.0 * delta) / (1.0 + delta)
    if hi <= 0:
        raise ValueError(f"delta = {delta:.4f} leaves no admissible alpha")
    alpha = 0.5 * hi
    idx = np.arange(0, n + 1, dtype=np.float64)
    ax1 = np.asarray(c.axes[0](idx))
    ax2 = np.asarray(c.axes[1](idx))
    a_lo = int(math.ceil(n**alpha))
    scale = 4.0 * L * n * n
    if method == "direct":
        r = np.outer(ax1, ax2)
        terms = r * np.exp(-u * u / (1.0 + r))
        terms[0, 0] = 0.0
        in_a = np.zeros_like(terms, dtype=bool)
        if a_lo <= n:
            in_a[a_lo:, a_lo:] = True
        s1 = float(terms[in_a].sum())
        s2 = float(terms[~in_a].sum())
    elif method == "factored":
        # row-by-row from the axis factorization r_ij = ax1(i) * ax2(j)
        s1 = s2 = 0.0
        for i in range(n + 1):
            row = ax1[i] * ax2
            row = row * np.exp(-u * u / (1.0 + row))
            if i == 0:
                row = row.copy()
                row[0] = 0.0
            if a_lo <= n and i >= a_lo:
                s1 += float(row[a_lo:].sum())
                s2 += float(row[:a_lo].sum())
            else:
                s2 += float(row.sum())
    else:
        raise ValueError(f"unknown method {method!r}")
    return BermanReport(
        total=scale * (s1 + s2),
        sigma1=scale * s1,
        sigma2=scale * s2,
        delta=delta,
        L=L,
        alpha=alpha,
        a_lo=a_lo,
    )


@dataclass(frozen=True)
class GapReport:
    gap: float
    bound: float
    se: float
    verdict: bool
    p_hat: float
    target: float


def bound_vs_maxima(bound: float, maxes, n: int, u: float) -> GapReport:
    """Check ``bound``, the comparison bound at (n, u), on block maxima of the n x n square already drawn.

    The verdict is |P_hat(M <= u) - Phi(u)^{n^2}| <= bound + 3 se(P_hat).
    """
    reps = len(maxes)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    p_hat = float(np.mean(np.asarray(maxes) <= u))
    target = float(phantom.normal_candidate().power(u, n * n))
    gap = abs(p_hat - target)
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / reps) / reps)
    return GapReport(gap=gap, bound=bound, se=se, verdict=gap <= bound + 3.0 * se, p_hat=p_hat, target=target)


def bound_vs_empirical(model, n: int, u: float, reps: int, seed: int) -> GapReport:
    """``bound_vs_maxima`` of ``berman_bound`` on reps fresh draws of the n x n block maximum."""
    maxes = model.block_maxes((n, n), reps, seed)
    return bound_vs_maxima(berman_bound(model.cov, n, u).total, maxes, n, u)
