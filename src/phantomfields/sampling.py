"""Exact samplers for the field models and their oracle laws.

Models share one RNG contract: a run with master seed s reads one
generator, ``np.random.default_rng(s)`` (PCG64), and a draw on ``dims``
fills the rectangle ``dilated(dims)`` with i.i.d. inputs in C order over
the axes of ``dims``, so replication r is the r-th block of
prod(dilated(dims)) draws, whatever chunk it falls in and however many
replications follow. The input rectangle is ``dims`` itself, but for a
moving max (dims + window - 1) and for a Gaussian axis of length
n >= ``FFT_MIN_N`` (its circulant embedding length m, about 2n). The iid
and moving-max draws are bit-identical under any chunking. A Gaussian
draw goes through each circulant axis in one FFT call over the chunk, and
through its Schur axes as numpy products over tiles of the chunk. BLAS
picks its kernel by a product's size, so the rounding can depend on where
a replication sits in the chunk, and Gaussian draws agree to the last bit
or two: within 2 ulps of the largest value at (587, 8), where 1 to 7 of
500 maxima move, by at most 1.5 ulps, between chunks of 8 and 2 MiB.

A model is three things: ``innovations``, the law of its i.i.d. inputs;
``dilated(dims)``, the rectangle they fill; and ``_finisher(dims)``, which
resolves every axis map once per draw, before any input is read, and
returns the map from a chunk's inputs to the field; ``FieldModel.closed_form``
says whether its block-max law has one. ``FieldModel._draw`` reads a
chunk's inputs in one ``innovations.rvs`` call and does nothing else (for
the Gaussian field one ``standard_normal`` call, which releases the GIL
for the whole chunk). Every Monte-Carlo consumer draws through
``FieldModel.batches``, which reads the stream ahead: one
worker thread draws every chunk in replication order, chunk k + 1 while
the caller's thread finishes chunk k and reduces it. One thread at a
time reads the stream, so every value is the one a serial draw gives. In
flight at once are two input blocks and one output block; a chunk holds
as many replications as fit that sum in ``CHUNK_BYTES`` of float64, and
at least one. 2 MiB is the L2 cache of one core of the 2-vCPU Xeon of
the timings in README, "Performance" (``lscpu``: 4 MiB over 2 cores),
where the 8 MiB chunk it replaced kept four times that in flight. Per replication the fill and the reduction cost the same at
either size, and so do the products on short squares (at (587, 8) about
a fifth more), so the smaller chunk mainly holds less memory. Memory
grows neither with the replication count nor with the rectangle, beyond
one replication.

No draw loads scipy: the Schur products are numpy's (``_lower_product``),
the normal law comes from the standard library (``math.erfc``,
``statistics.NormalDist``), and the circulant axes use ``numpy.fft``.
``batches`` imports ``concurrent.futures`` when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .covariance import CharacteristicPolygon, SeparableCovariance

# what a draw keeps in flight: two input blocks and one output block (see above)
CHUNK_BYTES = 2 << 20
# a Gaussian axis this long or longer is drawn through its circulant
# embedding, a shorter one through its Schur factor: with twice the normals
# to fill, the FFT line overtakes the triangular product at about this n
# (measured at about 900 to above 1100: README, "Performance")
FFT_MIN_N = 1050
# a Schur product multiplies tiles of this many lines of its axis by 32
# times as many of the chunk's other lines, each into one reused buffer of
# a tile (256 KiB), so it allocates no chunk-sized temporary (its cost
# against BLAS dtrmm: README, "Performance")
PRODUCT_BLOCK = 32


class FactorizationError(RuntimeError):
    """Toeplitz factorization failed; carries the axis and leading minor."""

    def __init__(self, axis: int, minor: int):
        self.axis = axis
        self.minor = minor
        super().__init__(
            f"axis {axis} Toeplitz matrix is not positive definite "
            f"(leading minor {minor})"
        )


class EmbeddingError(FactorizationError):
    """The circulant embedding of an axis has a negative eigenvalue; carries the axis and that eigenvalue."""

    def __init__(self, axis: int, eigenvalue: float):
        self.axis = axis
        self.minor = None
        self.eigenvalue = eigenvalue
        RuntimeError.__init__(
            self, f"axis {axis} circulant embedding is not nonnegative definite (eigenvalue {eigenvalue:.6g})"
        )


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent substream for replication ``rep`` of master ``seed``.

    Nothing in the package calls it: a run reads one stream (see above).
    """
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))


def sub_seed(seed: int, tag: int) -> int:
    """A master seed derived from ``seed`` for the draws tagged ``tag`` (e.g. a grid's largest n)."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# innovation / marginal distributions
#
# Anything with scipy's frozen-distribution cdf, ppf, isf and rvs works if
# one rvs call of size (c, *s) gives the values of c calls of size s in turn
# and leaves the generator in their state, as here and in scipy's uniform().
# The built-in uniform and normal marginals draw straight from the
# generator, as scipy's frozen uniform() and norm() do, so the CLI never
# imports scipy.stats, and their draws load no scipy at all; the uniform
# law's values are uniform()'s, and the normal law is computed from the
# standard library to scipy.special's accuracy. TwoAtomInnovations
# implements the same surface for the enumeration oracle.
# ---------------------------------------------------------------------------


class _UniformMarginal:
    """The standard uniform law on [0, 1]."""

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)

    def ppf(self, q):
        return np.asarray(q, dtype=np.float64)

    def isf(self, q):
        return 1.0 - np.asarray(q, dtype=np.float64)

    def rvs(self, size, random_state):
        return random_state.random(size)


def _erfc(z: np.ndarray) -> np.ndarray:
    """``math.erfc`` at every element of ``z``: numpy has no erfc."""
    return np.fromiter(map(math.erfc, z.ravel().tolist()), np.float64, z.size).reshape(z.shape)


class _NormalMarginal:
    """The standard normal law; every normal cdf, log-cdf and quantile goes through it.

    Phi(x) = erfc(-x / sqrt 2) / 2. log Phi is log1p(-Phi(-x)) above 0, where
    Phi is near 1, log Phi(x) down to -20, and below it the asymptotic series
    log Phi(x) = -x^2/2 - log(-x sqrt(2 pi)) + log(1 + sum_k (-1)^k (2k-1)!! / x^2k),
    whose tenth term is under 1e-17 there (scipy's log_ndtr switches at -20
    too). The quantile is Wichura's AS 241 (``statistics.NormalDist``). A
    scalar gives a scalar, an array an array of its shape.
    """

    def cdf(self, x):
        return (0.5 * _erfc(np.asarray(x, dtype=np.float64) / -math.sqrt(2.0)))[()]

    def log_cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
        up, far = x > 0.0, x < -20.0
        mid = ~(up | far)
        out[up] = np.log1p(-self.cdf(-x[up]))
        out[mid] = np.log(self.cdf(x[mid]))
        t = np.square(1.0 / x[far])
        term, series = np.ones_like(t), np.zeros_like(t)
        for k in range(1, 11):
            term *= -(2 * k - 1) * t
            series += term
        with np.errstate(over="ignore"):  # x^2 / 2 overflows to inf below about -1e154, as it should
            out[far] = -0.5 * np.square(x[far]) - np.log(-x[far] * math.sqrt(2.0 * math.pi)) + np.log1p(series)
        return out[()]

    def ppf(self, q):
        # statistics is imported here: importing the package loads nothing for the quantile
        from statistics import NormalDist

        q = np.asarray(q, dtype=np.float64)
        inv = NormalDist().inv_cdf
        flat = [inv(p) if 0.0 < p < 1.0 else math.nan for p in q.ravel().tolist()]
        out = np.array(flat, dtype=np.float64).reshape(q.shape)
        out[q == 0.0], out[q == 1.0] = -np.inf, np.inf
        return out[()]

    def isf(self, q):
        return -self.ppf(q)

    def rvs(self, size, random_state):
        return random_state.standard_normal(size)


@dataclass(frozen=True)
class TwoAtomInnovations:
    """P(Z = lo) = p_lo, P(Z = hi) = 1 - p_lo, with lo < hi."""

    lo: float = 0.0
    hi: float = 1.0
    p_lo: float = 0.5

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if not 0.0 < self.p_lo < 1.0:
            raise ValueError("need p_lo in (0, 1)")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < self.lo, 0.0, np.where(x < self.hi, self.p_lo, 1.0))

    def ppf(self, q):
        q = np.asarray(q, dtype=np.float64)
        return np.where(q <= self.p_lo, self.lo, self.hi)

    def isf(self, q):
        return self.ppf(1.0 - np.asarray(q, dtype=np.float64))

    def rvs(self, size, random_state):
        return np.where(random_state.random(size) < self.p_lo, self.lo, self.hi)


# ---------------------------------------------------------------------------
# field models
# ---------------------------------------------------------------------------


def _rectangle(dims) -> tuple[int, ...]:
    dims = tuple(int(n) for n in dims)
    if any(n < 1 for n in dims):
        raise ValueError(f"dims must be >= 1 componentwise, got {dims}")
    return dims


def _no_exact_law(model) -> ValueError:
    return ValueError(f"model {model.name} has no exact block-max law")


def _corner_plan(rects: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """What ``_corner_maxes`` reads of the rectangles ``rects`` (P, d): per axis, its largest length, the starts of the slabs between its distinct lengths, and the slab of each rectangle's length."""
    plan = []
    for col in rects.T:
        # sorted(set()), not np.unique, whose first call imports numpy.ma
        ends = sorted(set(col.tolist()))
        plan.append((ends[-1], np.array([0] + ends[:-1]), np.searchsorted(ends, col)))
    return plan


def _corner_maxes(x: np.ndarray, plan) -> np.ndarray:
    """The max of each replication of the chunk ``x`` (R, *box) over each rectangle of a ``_corner_plan`` at the origin, shape (P, R).

    One axis at a time: the axis is cut at its largest length (the last
    slab of ``reduceat`` runs to the end of the axis, and the box may be
    longer than every rectangle), one ``np.maximum.reduceat`` reduces each
    slab between two consecutive distinct lengths, and a running max over
    the slabs gives the max up to each length. Every rectangle is then read
    off by the positions of its lengths. A maximum has no rounding, so the
    values are those of a separate max over each rectangle's corner.
    """
    # the longest axis first: reduceat runs one inner loop per line along its
    # axis, so this order runs the fewest; on a tie the later axis, the
    # contiguous one in every model's chunk
    for ax, (hi, starts, _) in sorted(enumerate(plan, start=1), key=lambda a: (a[1][0], a[0]), reverse=True):
        x = np.maximum.reduceat(x[(slice(None),) * ax + (slice(hi),)], starts, axis=ax)
        np.maximum.accumulate(x, axis=ax, out=x)
    return x[(slice(None),) + tuple(where for _, _, where in plan)].T


class FieldModel:
    """Base: stationary model sampled on rectangles [1, n1] x ... x [1, nd].

    A model is three things: ``innovations``, the law of its i.i.d.
    inputs; ``dilated(dims)``, the rectangle they fill for a draw on
    ``dims``; and ``_finisher(dims)``, which resolves every axis map, so a
    bad model fails before any input is read, and returns the map from a
    chunk's inputs (count, *dilated(dims)) to its field (count, *dims).
    ``sample_values`` draws on the caller's thread (``_batch``); ``batches``
    draws every chunk on a worker thread, one chunk ahead of the caller;
    each calls ``_finisher`` once per draw. Block maxima go through
    ``nested_maxes``, which reads every rectangle of a grid or curve off
    one draw of the largest.

    ``closed_form`` says whether the ``exact_block_*`` methods give the block-max
    law in closed form (the ``IIDField`` family); where False they raise ValueError.
    """

    name = "field"
    closed_form = False

    def sample_values(self, dims, rng) -> np.ndarray:
        """One draw on the rectangle ``dims``: the next replication of the stream ``rng``."""
        return self._batch(_rectangle(dims), rng, 1)[0]

    def dilated(self, dims) -> tuple[int, ...]:
        """The rectangle of i.i.d. inputs a draw on ``dims`` fills: ``dims``, but for a moving max and a circulant axis."""
        return dims

    def _finisher(self, dims):
        """The map from a chunk's inputs to its field on ``dims``: here the inputs themselves."""
        return lambda raw: raw

    def _draw(self, dims, rng, count) -> np.ndarray:
        """``count`` replications' inputs in one ``innovations.rvs`` call on (count, *dilated(dims))."""
        return self.innovations.rvs(size=(count,) + self.dilated(dims), random_state=rng)

    def _batch(self, dims, rng, count) -> np.ndarray:
        finish = self._finisher(dims)
        return finish(self._draw(dims, rng, count))

    def batches(self, dims, reps: int, seed: int):
        """Replications 0..reps-1 of ``seed`` in order, as chunks (R, *dims).

        One worker thread draws every chunk, chunk k + 1 while the caller
        finishes chunk k and reduces it; reps == 0 starts no thread. The
        generator made for this call has one reader at a time, in
        replication order, so the values do not depend on R. R is the
        number of replications whose two input blocks on ``dilated(dims)``
        and one output block on ``dims`` fit in ``CHUNK_BYTES`` of float64
        (2 MiB, one core's L2 cache), and at least 1. Every chunk is a
        fresh array; reduce each before taking the next (e.g. through
        ``map``) to keep one output block alive. Closing or dropping the
        iterator waits for the draw in flight and ends the worker.
        """
        from concurrent.futures import ThreadPoolExecutor

        dims = _rectangle(dims)
        finish = self._finisher(dims)
        per_rep = 8 * (2 * math.prod(self.dilated(dims)) + math.prod(dims))
        chunk = max(1, CHUNK_BYTES // per_rep)
        counts = [min(chunk, reps - lo) for lo in range(0, reps, chunk)]
        rng = np.random.default_rng(seed)
        # ahead holds the result call of each chunk in flight: chunk k + 1 is
        # queued before chunk k is awaited, and popped, chunk k's inputs die
        # with finish. The worker starts at the first submit.
        ahead = []
        with ThreadPoolExecutor(1) as worker:
            for count in counts:
                ahead.append(worker.submit(self._draw, dims, rng, count).result)
                if len(ahead) == 2:
                    yield finish(ahead.pop(0)())
            if ahead:
                yield finish(ahead.pop()())

    # P(M_dims <= x) and the level v with P(M_dims <= v) = gamma, in closed form (``closed_form``)
    def exact_block_max_cdf(self, dims, x):
        raise _no_exact_law(self)

    def exact_block_level(self, dims, gamma: float):
        raise _no_exact_law(self)

    def nested_maxes(self, rects, reps: int, seed: int) -> np.ndarray:
        """M over each origin-anchored rectangle of ``rects``, shape (len(rects), reps).

        Replication r is drawn once, from the stream of ``seed``, on the
        componentwise-largest rectangle, and M over each rectangle is
        the max over its corner of that draw. A row is therefore never
        above the row of a rectangle that contains it, and the values do
        not depend on the chunking. The corners are reduced together: the
        rectangles are planned once per draw (``_corner_plan``), and a chunk
        costs one ``reduceat`` and one running max per axis
        (``_corner_maxes``), however many rectangles.
        """
        parts = self.nested_max_chunks(rects, reps, seed)
        out = np.empty((len(rects), reps))
        lo = 0
        # del each chunk's maxima before the next chunk is reduced
        for part in parts:
            out[:, lo : lo + part.shape[1]] = part
            lo += part.shape[1]
            del part
        return out

    def nested_max_chunks(self, rects, reps: int, seed: int):
        """``nested_maxes`` one chunk at a time: its column blocks (len(rects), R), in replication order.

        A reader that keeps only a summary of each block holds one chunk
        at a time, however large ``reps``.
        """
        rects = [_rectangle(r) for r in rects]
        if not rects or len({len(r) for r in rects}) != 1:
            raise ValueError("rects must be a nonempty list of rectangles of one dimension")
        rects = np.array(rects)
        plan = _corner_plan(rects)
        # map drops each chunk before the next one is reduced
        return map(lambda x: _corner_maxes(x, plan), self.batches(tuple(rects.max(axis=0)), reps, seed))

    def block_maxes(self, dims, reps: int, seed: int) -> np.ndarray:
        """reps independent draws of M_dims: ``nested_maxes`` on one rectangle."""
        return self.nested_maxes([dims], reps, seed)[0]


class IIDField(FieldModel):
    """Independent draws from ``marginal`` at every lattice site.

    A draw on ``dims`` fills ``dilated(dims)`` with i.i.d. ``innovations``
    (here the marginal itself), so the block maximum is the max of
    m = prod(dilated(dims)) of them: P(M_dims <= x) = F(x)^m exactly, and
    the marginal law is that of the block max on one site.
    """

    name = "iid"
    closed_form = True

    def __init__(self, marginal):
        self.innovations = marginal

    def exact_block_max_cdf(self, dims, x):
        m = math.prod(self.dilated(dims))
        return np.asarray(self.innovations.cdf(x), dtype=np.float64) ** m

    def exact_block_level(self, dims, gamma):
        m = math.prod(self.dilated(dims))
        p = gamma ** (1.0 / m)  # rounds to 1 once m is large: the upper tail comes from its complement
        return float(self.innovations.ppf(p) if p < 0.5 else self.innovations.isf(-math.expm1(math.log(gamma) / m)))


class MovingMaxField(IIDField):
    """X_k = max of i.i.d. innovations over the window anchored at k.

    The block maximum over [1, n] is the max of the innovations on the
    dilated rectangle of shape n + window - 1, so the block-max law and
    level are the i.i.d. field's on that rectangle.
    """

    name = "moving_max"

    def __init__(self, window, innovations):
        self.window = tuple(int(w) for w in window)
        if any(w < 1 for w in self.window):
            raise ValueError("window must be >= 1 componentwise")
        self.innovations = innovations

    def dilated(self, dims) -> tuple[int, ...]:
        """The innovation rectangle n + window - 1 behind the rectangle ``dims``."""
        if len(dims) != len(self.window):
            raise ValueError(f"dims must have {len(self.window)} coordinates")
        return tuple(n + w - 1 for n, w in zip(dims, self.window))

    def _finisher(self, dims):
        """The window max over each replication of a chunk of innovations."""
        return lambda raw: kernels.window_max(raw, (1,) + self.window)


def toeplitz_cholesky(poly: CharacteristicPolygon, n: int, axis: int = 0) -> np.ndarray:
    """Lower Cholesky factor of T[a, b] = poly(a - b), cached per polygon and length.

    Schur algorithm, O(n^2): with Z the down-shift, T - Z T Z^T = x x^T - y y^T
    for the generator rows x = y = c / sqrt(c[0]) but y[0] = 0. Row k of L^T
    is the current x; the next is x shifted by one and hyperbolically rotated
    against y so that y's next entry vanishes. The rotation uses the mixed
    form of Bojanczyk, Brent, de Hoog & Sweet (SIAM J. Matrix Anal. Appl.
    1995), whose residual is of the order of Cholesky's. |rho| >= 1 at step k
    means the leading minor of order k + 2 is not positive, the index LAPACK's
    potrf reports. L is the transpose of the C-ordered L^T, so it is
    Fortran-ordered, as the transform's products read it. The factor is
    read-only and kept for the polygon's life: while a model holds the
    example field's polygon of a gamma, ``build_eta1`` returns that one, so
    every model of an equal gamma pair reads this one array.
    """
    cached = poly._chol_cache.get(n)
    if cached is not None:
        return cached
    c = np.asarray(poly(np.arange(n, dtype=np.float64)))
    if not c[0] > 0.0:
        raise FactorizationError(axis=axis, minor=1)
    Lt = np.zeros((n, n))
    Lt[0] = c / math.sqrt(c[0])
    y = Lt[0].copy()
    for k in range(n - 1):
        # x is row k of L^T; the shift aligns x[k:-1] with y[k+1:], and the
        # rotated x is written straight into row k + 1
        x, x_next, ys = Lt[k, k:-1], Lt[k + 1, k + 1 :], y[k + 1 :]
        rho = ys[0] / x[0]
        if not abs(rho) < 1.0:
            raise FactorizationError(axis=axis, minor=k + 2)
        s = math.sqrt((1.0 - rho) * (1.0 + rho))
        np.multiply(ys, rho, out=x_next)
        np.subtract(x, x_next, out=x_next)
        x_next /= s
        ys *= s
        ys -= rho * x_next
    Lt.flags.writeable = False
    L = poly._chol_cache[n] = Lt.T
    return L


def embedding_length(n: int) -> int:
    """The circulant length of an axis of n: the smallest even 2*3*5-smooth integer >= 2(n - 1), and >= 2."""
    m = max(2, 2 * (n - 1))
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 2


def circulant_weights(poly: CharacteristicPolygon, n: int, axis: int = 0) -> np.ndarray:
    """Half-spectrum weights of the circulant embedding of T[a, b] = poly(a - b), cached per polygon and length.

    The embedding is the symmetric circulant of length m = embedding_length(n)
    with first row c_j = poly(min(j, m - j)); m >= 2(n - 1), so its leading
    n x n block is T. Its eigenvalues are lambda = rfft(c), real because c is
    even. A convex nonincreasing sequence has lambda >= 0 (Craigmile, J. Time
    Ser. Anal. 2003), as a Polya polygon's does; an eigenvalue below
    -1e-12 max(lambda) raises ``EmbeddingError``, and the rounding noise above
    that bound is set to 0. A flat polygon has the singular spectrum
    (m, 0, ..., 0): its axis is one normal variable repeated, the exact law of
    the all-ones covariance, which has no Cholesky factor.

    The weight of frequency k is sqrt(lambda_k / m) at k = 0 and m/2 and
    sqrt(lambda_k / 2m) between, given twice in a row (length m + 2), as
    ``_circulant`` multiplies the float view of its half-spectrum. Like the
    Schur factor, the weights are read-only, kept for the polygon's life and
    shared by every model on it.
    """
    cached = poly._spectrum_cache.get(n)
    if cached is not None:
        return cached
    m = embedding_length(n)
    j = np.arange(m)
    lam = np.fft.rfft(poly(np.minimum(j, m - j).astype(np.float64))).real
    low = float(lam.min())
    if low < -1e-12 * float(lam.max()):
        raise EmbeddingError(axis=axis, eigenvalue=low)
    w = np.sqrt(np.maximum(lam, 0.0) / (2 * m))
    w[[0, -1]] *= math.sqrt(2.0)
    w = np.repeat(w, 2)
    w.flags.writeable = False
    poly._spectrum_cache[n] = w
    return w


def _circulant(z, w, n: int) -> np.ndarray:
    """The first n values along the last axis of the embedding's field made of the m normals of z there, written over z.

    With h = m/2, the half-spectrum V takes z[0] at frequency 0, z[2k] +
    i z[2k+1] at k = 1..h-1 and z[1] at h. Weighted by w, its inverse real
    FFT without the 1/m is a stationary Gaussian sequence on the circle of m
    points whose covariance is the embedding's first row.
    """
    m = z.shape[-1]
    h = m // 2
    v = np.empty(z.shape[:-1] + (h + 1,), dtype=np.complex128)
    np.multiply(z, w[:m], out=v.view(np.float64)[..., :m])
    v[..., 0] = z[..., 0] * w[0]
    v[..., h] = z[..., 1] * w[m]
    return np.fft.irfft(v, m, norm="forward", out=z)[..., :n]


def _lower_product(L, v) -> None:
    """v <- L v in place, for a lower-triangular L (n, n) and a 2-D view v (n, C) in either memory order.

    A tile is ``PRODUCT_BLOCK`` rows [s, e) of a panel of 32 ``PRODUCT_BLOCK``
    columns, and takes L[s:e, :e] @ v[:e]: one matmul into a buffer laid out
    as v, copied over the tile. The bottom tile of a panel goes first, so
    every row a tile reads is still an input, and only the diagonal blocks
    multiply zeros of L.
    """
    n = v.shape[0]
    step = 32 * PRODUCT_BLOCK
    buf = np.empty_like(v[:PRODUCT_BLOCK, :step])
    for c in range(0, v.shape[1], step):
        panel = v[:, c : c + step]
        for s in reversed(range(0, n, PRODUCT_BLOCK)):
            e = min(s + PRODUCT_BLOCK, n)
            tile = buf[: e - s, : panel.shape[1]]
            np.matmul(L[s:e, :e], panel[:e], out=tile)
            panel[s:e] = tile


class GaussianSeparableField(FieldModel):
    """Zero-mean unit-variance Gaussian field with separable covariance.

    Its innovations are i.i.d. standard normals (``_NormalMarginal()``),
    pushed through one linear map per axis (valid because the covariance
    is a tensor product of the axis sequences); exact in law. An axis
    shorter than ``FFT_MIN_N`` uses its Toeplitz Cholesky factor; a longer
    one its circulant embedding (Davies & Harte, Biometrika 1987), whose m
    inputs per line make ``dilated`` m there, and whose cost is O(m log m)
    per line instead of O(n^2). Factors and spectra are cached per
    (polygon, length), read-only: while one model of an example covariance
    is alive, another of an equal gamma pair gets its polygons, and so
    shares them.

    ``_finisher(dims)`` resolves the axis maps once per draw, before any
    normal is read. The map it returns writes a chunk's circulant lines
    over its normals (R, *dilated(dims)), then copies the chunk into one
    array laid out (n0, R, n1, ...): replication r is ``x[:, r]``. With the
    replication axis next to the first axis, the products with the first
    and the last factor are each one product on a contiguous 2-D view (see
    ``_transform``), so a factor is read once per chunk.
    """

    name = "gaussian_separable"

    def __init__(self, cov: SeparableCovariance):
        self.cov = cov
        self.innovations = _NormalMarginal()

    def dilated(self, dims) -> tuple[int, ...]:
        """The normals a draw on ``dims`` reads: ``dims``, with m = embedding_length(n) on the circulant axes."""
        if len(dims) != self.cov.d:
            raise ValueError(f"dims must have {self.cov.d} coordinates")
        return tuple(embedding_length(n) if n >= FFT_MIN_N else n for n in dims)

    def factors(self, dims) -> list[np.ndarray]:
        """The Schur factor of every axis, whatever sampler a draw uses on it."""
        self.dilated(dims)
        return [
            toeplitz_cholesky(ax, n, axis=i)
            for i, (ax, n) in enumerate(zip(self.cov.axes, dims))
        ]

    @staticmethod
    def _transform(x, maps):
        """Mode-i product of x (laid out (n0, R, n1, ...)) with each Schur factor, in place; a 1-D map skips its axis.

        The first and the last factor multiply a contiguous 2-D view by
        ``_lower_product``, the last through its transpose.
        """
        if maps[0].ndim == 2:
            _lower_product(maps[0], x.reshape(x.shape[0], -1))
        for i, L in enumerate(maps[1:-1], start=1):
            if L.ndim == 2:
                v = x.reshape(-1, L.shape[0], math.prod(x.shape[i + 2 :]))
                v[...] = np.matmul(L, v)
        if len(maps) > 1 and maps[-1].ndim == 2:
            _lower_product(maps[-1], x.reshape(-1, x.shape[-1]).T)
        return x

    def _finisher(self, dims):
        """Each axis's map, resolved now, and the map from a chunk's normals to its field.

        An axis's map is its circulant weights (1-D) from ``FFT_MIN_N`` on,
        else its Schur factor (2-D); a bad spectrum raises before a bad
        factor, and both before any draw.
        """
        self.dilated(dims)
        axes = list(enumerate(zip(self.cov.axes, dims)))
        weights = {i: circulant_weights(ax, n, axis=i) for i, (ax, n) in axes if n >= FFT_MIN_N}
        maps = [weights[i] if i in weights else toeplitz_cholesky(ax, n, axis=i) for i, (ax, n) in axes]

        def finish(raw):
            # each circulant axis over the whole chunk, in place: z ends as raw's view on dims
            z = raw
            for i, w in enumerate(maps):
                if w.ndim == 1:
                    z = _circulant(z.swapaxes(i + 1, -1), w, dims[i]).swapaxes(i + 1, -1)
            x = self._transform(np.ascontiguousarray(np.moveaxis(z, 0, 1)), maps)
            # a view (R, n0, n1, ...) of the (n0, R, n1, ...) layout, not a copy
            return np.moveaxis(x, 1, 0)

        return finish


# ---------------------------------------------------------------------------
# equicorrelated comparison array
# ---------------------------------------------------------------------------


def equicorrelated_maxes(N: int, rho: float, reps: int, seed: int) -> np.ndarray:
    """Draws of sqrt(1-rho) * max(eta_1..eta_N) + sqrt(rho) * zeta.

    All variates standard normal, the eta's independent of zeta. Replication
    r reads eta_1..eta_N and then zeta off its block of N + 1 i.i.d.
    normals of the run's stream.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")
    combine = lambda x: np.sqrt(1.0 - rho) * x[:, :N].max(axis=1) + np.sqrt(rho) * x[:, N]
    parts = list(map(combine, IIDField(_NormalMarginal()).batches((N + 1,), reps, seed)))
    return np.concatenate(parts) if parts else np.empty(0)
