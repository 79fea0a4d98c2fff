"""Hot numeric kernels: sliding-window maxima and the enumeration oracle, in numpy."""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend (always "numpy")."""
    return "numpy"


# ---------------------------------------------------------------------------
# sliding-window maximum
#
# Rectangular-window maxima are separable: a running max of the shifted
# slices (views) along each axis in turn gives the d-dimensional maximum.
# ---------------------------------------------------------------------------


def window_max(a: np.ndarray, window) -> np.ndarray:
    """d-dimensional sliding max: out[k] = max a[k : k + window].

    Output shape is ``a.shape - window + 1``; every window coordinate
    must be >= 1 and no larger than the matching axis length. Axes past
    ``window`` are left as they are, and an all-ones window returns ``a``.
    """
    out = a
    for axis, w in enumerate(window):
        if w < 1 or w > a.shape[axis]:
            raise ValueError(f"window {window} does not fit array shape {a.shape}")
        if w > 1:
            n = a.shape[axis] - w + 1
            shifted = [out[(slice(None),) * axis + (slice(off, off + n),)] for off in range(w)]
            out = np.maximum(shifted[0], shifted[1])
            for s in shifted[2:]:
                np.maximum(out, s, out=out)
    return out


def sliding_max_last(a: np.ndarray, w: int) -> np.ndarray:
    """Max over each length-w window along the last axis (w >= 1): ``window_max``'s last-axis case."""
    return window_max(a, (1,) * (a.ndim - 1) + (w,))


# ---------------------------------------------------------------------------
# exhaustive enumeration oracle for 2-d moving-max fields with 2-atom
# innovations.
#
# For every configuration of the (b1+w1-1) x (b2+w2-1) innovation sites the
# field X[k] = max over the window anchored at k is rebuilt from scratch and
# running block maxima M[(a,b)] are accumulated, so the returned table
#   P[a-1, b-1] = P(M_{(a,b)} <= level),  1 <= a <= b1, 1 <= b <= b2
# is derived from the mechanics alone (no dilation-counting shortcut).
# Site count is capped at 25 (2^25 configurations).
# ---------------------------------------------------------------------------

MAX_ENUM_SITES = 25


def enum_block_cdf_table(block, window, lo, hi, p_lo, level) -> np.ndarray:
    """P(M_{(a,b)} <= level) for all sub-blocks of ``block``, by enumeration."""
    b1, b2 = block
    w1, w2 = window
    s1, s2 = b1 + w1 - 1, b2 + w2 - 1
    if b1 < 1 or b2 < 1 or w1 < 1 or w2 < 1:
        raise ValueError("block and window must be >= 1 componentwise")
    if s1 * s2 > MAX_ENUM_SITES:
        raise ValueError(
            f"enumeration limited to {MAX_ENUM_SITES} innovation sites, "
            f"got {s1 * s2}"
        )
    nsites = s1 * s2
    ncfg = 1 << nsites
    probs = np.zeros((b1, b2), dtype=np.float64)
    plo_pow = p_lo ** np.arange(nsites + 1)
    phi_pow = (1.0 - p_lo) ** np.arange(nsites + 1)
    chunk = 1 << 16
    site_bits = np.arange(nsites, dtype=np.uint64)
    for start in range(0, ncfg, chunk):
        cfg = np.arange(start, min(start + chunk, ncfg), dtype=np.uint64)
        bits = (cfg[:, None] >> site_bits[None, :]) & np.uint64(1)
        nhi = bits.sum(axis=1).astype(np.intp)
        z = np.where(bits.astype(bool), hi, lo).reshape(-1, s1, s2)
        # window max, then running block max along both axes
        x = z[:, :b1, :b2].copy()
        for o1 in range(w1):
            for o2 in range(w2):
                np.maximum(x, z[:, o1 : o1 + b1, o2 : o2 + b2], out=x)
        m = np.maximum.accumulate(np.maximum.accumulate(x, axis=1), axis=2)
        ok = m <= level
        cfg_prob = plo_pow[nsites - nhi] * phi_pow[nhi]
        probs += np.einsum("c,cab->ab", cfg_prob, ok.astype(np.float64))
    return probs
