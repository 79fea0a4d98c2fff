"""Monotone curves n -> N^d: the diagonal, the skewed example and tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class MonotoneCurve:
    """Map n -> N^d with nondecreasing coordinates, materializable as a table."""

    fn: Callable[[int], tuple[int, ...]]
    d: int
    name: str = "curve"
    n_min: int = 1

    def __call__(self, n: int) -> tuple[int, ...]:
        if n < self.n_min:
            raise ValueError(f"{self.name} is defined for n >= {self.n_min}")
        return self.fn(n)

    def table(self, horizon: int) -> np.ndarray:
        """Points for n = n_min..horizon as an (horizon - n_min + 1, d) array.

        The componentwise running max is applied, so a raw formula with
        small-n dips still materializes as a monotone table.
        """
        pts = np.array([self.fn(n) for n in range(self.n_min, horizon + 1)], dtype=np.int64)
        return np.maximum.accumulate(pts, axis=0)


def curve_diagonal(d: int = 2) -> MonotoneCurve:
    if d < 1:
        raise ValueError(f"diagonal curve needs d >= 1, got {d}")
    return MonotoneCurve(fn=lambda n: (n,) * d, d=d, name="diagonal")


def _psi_example_raw(n: int) -> tuple[int, int]:
    ln = math.log(n)
    return (int(n / ln), int(ln))


def curve_psi_example() -> MonotoneCurve:
    """The 2-d log-split curve (floor(n/ln n), floor(ln n)), defined for n >= 3.

    Both coordinates are >= 1 from n = 3 on, and n/ln n is increasing
    there, so the running-max repair in table() never changes a value;
    consecutive points do coincide for many n (the product of the
    coordinates grows much slower than n), so the curve is not strictly
    increasing.
    """
    return MonotoneCurve(fn=_psi_example_raw, d=2, name="psi_example", n_min=3)


def curve_from_table(points, name: str = "table") -> MonotoneCurve:
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

    def fn(n: int) -> tuple[int, ...]:
        if n > len(pts):
            raise ValueError(f"table curve has horizon {len(pts)}")
        return tuple(int(x) for x in pts[n - 1])

    return MonotoneCurve(fn=fn, d=pts.shape[1], name=name)
