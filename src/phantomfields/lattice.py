"""Monotone curves n -> N^d: the diagonal, the skewed example and tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class MonotoneCurve:
    """Map n -> N^d with nondecreasing coordinates, materializable as a table.

    ``fn`` is the formula on arrays: it maps an integer array of n to the
    array of their points, one more axis of length d; ``curve(n)`` and
    ``table`` both evaluate it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    d: int
    name: str = "curve"
    n_min: int = 1

    def __call__(self, n: int) -> tuple[int, ...]:
        if n < self.n_min:
            raise ValueError(f"{self.name} is defined for n >= {self.n_min}")
        if n >= 2**63:
            raise ValueError(f"{self.name} is evaluated in int64, so n must be below 2^63, got {n}")
        return tuple(int(x) for x in self.fn(np.int64(n)))

    def table(self, horizon: int) -> np.ndarray:
        """Points for n = n_min..horizon as an (horizon - n_min + 1, d) array."""
        return self.fn(np.arange(self.n_min, horizon + 1, dtype=np.int64))


def curve_diagonal(d: int = 2) -> MonotoneCurve:
    if d < 1:
        raise ValueError(f"diagonal curve needs d >= 1, got {d}")
    return MonotoneCurve(fn=lambda n: np.repeat(np.asarray(n)[..., None], d, axis=-1), d=d, name="diagonal")


def _psi_example(n: np.ndarray) -> np.ndarray:
    """(floor(n / ln n), floor(ln n)) for each n of an integer array."""
    ln = np.log(n)
    return np.stack([np.floor(n / ln), np.floor(ln)], axis=-1).astype(np.int64)


def curve_psi_example() -> MonotoneCurve:
    """The 2-d log-split curve (floor(n/ln n), floor(ln n)), defined for n >= 3.

    Both coordinates are >= 1 from n = 3 on, and n/ln n is increasing
    there, so the curve is nondecreasing; consecutive points do coincide
    for many n (the product of the coordinates grows much slower than n),
    so it is not strictly increasing. ``np.log`` and ``math.log`` differ in
    the last bit at a few n, but the floors agree with the scalar formula,
    and are nondecreasing, for every n <= 2e6.
    """
    return MonotoneCurve(fn=_psi_example, d=2, name="psi_example", n_min=3)


def curve_from_table(points) -> MonotoneCurve:
    """The curve through row n of ``points`` at n, in N^d: a coordinate below 1 or a
    decreasing row is an error, not repaired."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("table must be a nonempty sequence of lattice points")
    low = np.flatnonzero(np.any(pts < 1, axis=1))
    if low.size:
        raise ValueError(f"table curve has a coordinate below 1 at row {low[0] + 1}: {pts[low[0]].tolist()}")
    dec = np.flatnonzero(np.any(np.diff(pts, axis=0) < 0, axis=1))
    if dec.size:
        n = int(dec[0]) + 2  # the 1-based row of the first point below its predecessor
        raise ValueError(f"table curve decreases at row {n}: {pts[n - 1].tolist()} after {pts[n - 2].tolist()}")

    def fn(n: np.ndarray) -> np.ndarray:
        if np.any(n > len(pts)):
            raise ValueError(f"table curve has horizon {len(pts)}")
        return pts[n - 1]

    return MonotoneCurve(fn=fn, d=pts.shape[1], name="table")
