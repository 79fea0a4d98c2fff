import numpy as np
import pytest

from phantomfields import kernels


def brute_window_max(a, window):
    w1, w2 = window
    out = np.empty((a.shape[0] - w1 + 1, a.shape[1] - w2 + 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = a[i : i + w1, j : j + w2].max()
    return out


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
