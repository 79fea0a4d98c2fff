"""Rectangles, block maxima, monotone curves and directional neighborhoods."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import FieldSample


@dataclass(frozen=True)
class Rectangle:
    """Lattice rectangle [lo, hi] (1-based, inclusive); empty if lo !<= hi."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return any(a > b for a, b in zip(self.lo, self.hi))

    @property
    def dims(self) -> tuple[int, ...]:
        if self.is_empty:
            return tuple(0 for _ in self.lo)
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))


def block_max(s: FieldSample, r: Rectangle) -> float:
    """Max of the sample over the rectangle; -inf for an empty rectangle."""
    if len(r.lo) != len(s.dims):
        raise ValueError(f"rectangle dimension {len(r.lo)} != sample dimension {len(s.dims)}")
    if r.is_empty:
        return -math.inf
    if any(a < 1 for a in r.lo) or any(b > n for b, n in zip(r.hi, s.dims)):
        raise IndexError(f"rectangle {r.lo}..{r.hi} exceeds sample dims {s.dims}")
    sl = tuple(slice(a - 1, b) for a, b in zip(r.lo, r.hi))
    return float(s.values[sl].max())


# ---------------------------------------------------------------------------
# monotone curves
# ---------------------------------------------------------------------------


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

    def star(self, n: int) -> int:
        """Cell count of the rectangle [1, psi(n)]."""
        p = self(n)
        return int(np.prod(p))

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
    coordinates grows much slower than n), which validate_curve reports.
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


def curve_from_config(cfg: dict) -> MonotoneCurve:
    """{"kind": "diagonal" | "psi_example" | "table", ...}."""
    kind = cfg.get("kind", "diagonal")
    if kind == "diagonal":
        return curve_diagonal(int(cfg.get("d", 2)))
    if kind == "psi_example":
        return curve_psi_example()
    if kind == "table":
        return curve_from_table(cfg["table"])
    raise ValueError(f"unknown curve kind {kind!r}")


@dataclass(frozen=True)
class CurveCheck:
    ok: bool
    first_violation: str | None = None


def validate_curve(
    psi: MonotoneCurve,
    horizon: int,
    tol_ratio: float = 0.05,
    n_ratio: int | None = None,
) -> CurveCheck:
    """Finite-horizon check of the three defining curve properties.

    Checks, in order: componentwise monotone and strictly advancing;
    psi(n)*/psi(n+1)* > 1 - tol_ratio for all n >= n_ratio (default
    horizon/2, the implementable proxy for the ratio limit); every
    coordinate grows somewhere over the horizon (the finite proxy for
    unboundedness).
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if n_ratio is None:
        n_ratio = max(psi.n_min, horizon // 2)
    pts = np.array([psi(n) for n in range(psi.n_min, horizon + 1)], dtype=np.int64)
    diff = np.diff(pts, axis=0)
    dec = np.any(diff < 0, axis=1)
    if np.any(dec):
        n = psi.n_min + int(np.argmax(dec))
        return CurveCheck(False, f"coordinate decreases between n={n} and n={n + 1}")
    stall = np.all(diff == 0, axis=1)
    if np.any(stall):
        n = psi.n_min + int(np.argmax(stall))
        return CurveCheck(False, f"psi(n) = psi(n+1) at n={n} (strictness violated)")
    stars = np.prod(pts, axis=1, dtype=np.float64)
    ratios = stars[:-1] / stars[1:]
    lo = max(n_ratio - psi.n_min, 0)
    bad = ratios[lo:] <= 1.0 - tol_ratio
    if np.any(bad):
        n = n_ratio + int(np.argmax(bad))
        return CurveCheck(False, f"ratio psi(n)*/psi(n+1)* = {ratios[lo + int(np.argmax(bad))]:.4f} at n={n}")
    grown = pts[-1] > pts[0]
    if not np.all(grown):
        i = int(np.argmin(grown))
        return CurveCheck(False, f"coordinate {i + 1} never grows over the horizon")
    return CurveCheck(True, None)


def in_neighborhood(
    phi: MonotoneCurve,
    psi: MonotoneCurve,
    C: float,
    horizon: int,
    n0: int = 1,
) -> tuple[bool, int | None]:
    """Is phi(n) inside the union of boxes prod_i [psi_i(j)/C, C*psi_i(j)]?

    Checked for every n in [max(n0, phi.n_min), horizon]; n0 > 1 allows
    the finite exception prefix of the definition. The witness search
    over j is restricted to psi(j)* in [phi(n)*/C^d, phi(n)* C^d], which
    is exhaustive because psi(j)* is strictly increasing. Returns
    (ok, first failing n).
    """
    if C < 1.0:
        raise ValueError("C must be >= 1")
    d = phi.d
    if psi.d != d:
        raise ValueError("curves must share the dimension")
    start = max(n0, phi.n_min)
    phi_pts = np.array([phi(n) for n in range(start, horizon + 1)], dtype=np.int64)
    phi_star = np.prod(phi_pts, axis=1, dtype=np.float64)
    cd = float(C) ** d
    # grow the psi table until it covers the witness range (curves with
    # stalling points advance psi(j)* slower than j, so double as needed)
    need = phi_star.max() * cd
    j_max = max(int(np.ceil(need)) + psi.n_min, psi.n_min + 1)
    while True:
        psi_pts = psi.table(j_max)
        psi_star = np.prod(psi_pts, axis=1, dtype=np.float64)
        if psi_star[-1] >= need or j_max > 64 * (int(need) + 2):
            break
        j_max *= 2
    for idx, p in enumerate(phi_pts):
        lo = np.searchsorted(psi_star, phi_star[idx] / cd, side="left")
        hi = np.searchsorted(psi_star, phi_star[idx] * cd, side="right")
        boxes = psi_pts[lo:hi]
        if boxes.size and np.any(
            np.all((boxes <= C * p) & (p <= C * boxes), axis=1)
        ):
            continue
        return False, start + idx
    return True, None


def densify_to_curve(waypoints) -> MonotoneCurve:
    """Connect strictly increasing waypoints by unit steps.

    Between consecutive waypoints the coordinates are incremented one at
    a time in fixed index order 1..d, so every input point appears in
    the output and consecutive output points differ by exactly 1 in
    exactly one coordinate.
    """
    pts = np.asarray(waypoints, dtype=np.int64)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("waypoints must be a nonempty sequence of lattice points")
    diff = np.diff(pts, axis=0)
    if np.any(diff < 0) or (len(diff) and np.any(np.all(diff == 0, axis=1))):
        raise ValueError("waypoints must be componentwise nondecreasing and distinct")
    path = [tuple(int(x) for x in pts[0])]
    for a, b in zip(pts[:-1], pts[1:]):
        cur = list(a)
        for i in range(pts.shape[1]):
            while cur[i] < b[i]:
                cur[i] += 1
                path.append(tuple(cur))
    return curve_from_table(np.asarray(path), name="densified")
