import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phantomfields import kernels


def brute_window_max(a, window):
    out = np.empty(tuple(n - w + 1 for n, w in zip(a.shape, window)))
    for k in itertools.product(*map(range, out.shape)):
        out[k] = a[tuple(slice(i, i + w) for i, w in zip(k, window))].max()
    return out


@st.composite
def arrays_and_windows(draw):
    shape = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    window = tuple(draw(st.integers(1, n)) for n in shape)
    a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    return a, window


@settings(derandomize=True, max_examples=200, deadline=None)
@given(arrays_and_windows())
@example((np.arange(6.0).reshape(2, 3), (1, 1)))  # width-1 windows
@example((np.arange(6.0)[::-1].reshape(2, 3), (2, 3)))  # each window the full axis
@example((np.zeros((1, 4, 5)), (1, 4, 1)))
def test_window_max_matches_brute_force_on_random_shapes(case):
    a, window = case
    assert np.array_equal(kernels.window_max(a, window), brute_window_max(a, window))
    assert np.array_equal(kernels.sliding_max_last(a, window[-1]), brute_window_max(a, (1,) * (a.ndim - 1) + window[-1:]))


@pytest.mark.parametrize("window", [(1, 1), (2, 2), (3, 2), (1, 4)])
def test_window_max_matches_brute_force(window):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((9, 11))
    assert np.array_equal(kernels.window_max(a, window), brute_window_max(a, window))


def test_window_max_3d():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 5, 6))
    out = kernels.window_max(a, (2, 1, 3))
    assert out.shape == (3, 5, 4)
    assert out[1, 2, 0] == a[1:3, 2, 0:3].max()


def test_window_too_large_rejected():
    with pytest.raises(ValueError):
        kernels.window_max(np.zeros((3, 3)), (4, 1))


def test_enum_site_cap():
    with pytest.raises(ValueError):
        kernels.enum_block_cdf_table((5, 5), (2, 2), 0.0, 1.0, 0.5, 0.5)


def test_backend_name_valid():
    assert kernels.backend() == "numpy"
