import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phantomfields import (
    FieldSample,
    MonotoneCurve,
    Rectangle,
    block_max,
    curve_diagonal,
    curve_from_config,
    curve_from_table,
    curve_psi_example,
    densify_to_curve,
    in_neighborhood,
    validate_curve,
)


def raw_curve(pts):
    """A curve through ``pts`` taken as they are: curve_from_table rejects a decreasing row."""
    return MonotoneCurve(fn=lambda n: tuple(pts[n - 1]), d=len(pts[0]))


def make_sample(values):
    values = np.asarray(values, dtype=np.float64)
    return FieldSample(dims=values.shape, values=values)


class TestBlockMax:
    def test_single_cell(self):
        s = make_sample([[1.0, 2.0], [3.0, 4.0]])
        assert block_max(s, Rectangle((2, 1), (2, 1))) == 3.0

    def test_empty_rectangle_sentinel(self):
        s = make_sample([[1.0]])
        assert block_max(s, Rectangle((2, 1), (1, 1))) == -math.inf

    def test_planted_maximum(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((9, 7))
        v[4, 2] = 50.0
        s = make_sample(v)
        assert block_max(s, Rectangle((1, 1), (9, 7))) == 50.0
        # a rectangle missing the plant does not see it
        assert block_max(s, Rectangle((6, 1), (9, 7))) < 50.0

    def test_out_of_range(self):
        s = make_sample([[1.0, 2.0]])
        with pytest.raises(IndexError):
            block_max(s, Rectangle((1, 1), (1, 3)))
        with pytest.raises(IndexError):
            block_max(s, Rectangle((0, 1), (1, 2)))

    def test_dimension_mismatch(self):
        s = make_sample([[1.0]])
        with pytest.raises(ValueError):
            block_max(s, Rectangle((1,), (1,)))

    @settings(max_examples=40, deadline=None)
    @given(split=st.integers(min_value=1, max_value=5), seed=st.integers(0, 1000))
    def test_partition_along_axis(self, split, seed):
        rng = np.random.default_rng(seed)
        s = make_sample(rng.standard_normal((6, 4)))
        whole = block_max(s, Rectangle((1, 1), (6, 4)))
        top = block_max(s, Rectangle((1, 1), (split, 4)))
        bottom = block_max(s, Rectangle((split + 1, 1), (6, 4)))
        assert whole == max(top, bottom)


class TestCurves:
    def test_psi_example_values(self):
        psi = curve_psi_example()
        assert psi(3) == (2, 1)
        assert psi(8) == (3, 2)

    def test_psi_example_below_min(self):
        psi = curve_psi_example()
        with pytest.raises(ValueError):
            psi(2)

    def test_psi_example_repair_never_decreases(self):
        psi = curve_psi_example()
        table = psi.table(2000)
        assert np.all(np.diff(table, axis=0) >= 0)
        # the repair coincides with the raw formula for n >= 3
        raw = np.array([psi.fn(n) for n in range(3, 2001)])
        assert np.array_equal(table, raw)

    def test_diagonal(self):
        d2 = curve_diagonal(2)
        d3 = curve_diagonal(3)
        assert d2(1) == (1, 1)
        assert d3(5) == (5, 5, 5)
        assert d3.star(7) == 7**3

    def test_from_config(self):
        assert curve_from_config({"kind": "diagonal", "d": 3})(2) == (2, 2, 2)
        assert curve_from_config({"kind": "psi_example"})(3) == (2, 1)
        tab = curve_from_config({"kind": "table", "table": [[1, 1], [2, 1], [2, 2]]})
        assert tab(2) == (2, 1)
        with pytest.raises(ValueError):
            curve_from_config({"kind": "spiral"})

    def test_curves_live_on_n_d(self):
        # a 0-dimensional diagonal ran beta on an empty box, and a 0 coordinate
        # gave a 0-cell rectangle (a ZeroDivisionError in the iid block level)
        with pytest.raises(ValueError, match=r"diagonal curve needs d >= 1, got 0"):
            curve_diagonal(0)
        with pytest.raises(ValueError, match=r"d >= 1"):
            curve_from_config({"kind": "diagonal", "d": 0})
        with pytest.raises(ValueError, match=r"coordinate below 1 at row 1: \[0, 0\]"):
            curve_from_table([[0, 0], [1, 1]])
        with pytest.raises(ValueError, match=r"coordinate below 1 at row 3: \[2, 0\]"):
            curve_from_table([[1, 1], [2, 2], [2, 0]])
        with pytest.raises(ValueError, match=r"nonempty sequence of lattice points"):
            curve_from_table([[]])

    def test_table_must_not_decrease(self):
        # the first row below its predecessor is named; no running-max repair
        with pytest.raises(ValueError, match=r"decreases at row 2: \[1, 1\] after \[4, 4\]"):
            curve_from_table([[4, 4], [1, 1], [2, 2]])
        with pytest.raises(ValueError, match=r"row 3: \[2, 1\] after \[2, 2\]"):
            curve_from_table([(1, 1), (2, 2), (2, 1)])


class TestValidateCurve:
    def test_diagonal_valid(self):
        assert validate_curve(curve_diagonal(2), horizon=200).ok
        assert validate_curve(curve_diagonal(4), horizon=200).ok

    def test_exponential_flat_curve_fails_ratio(self):
        psi = curve_from_table([(2**n, 1) for n in range(1, 16)])
        check = validate_curve(psi, horizon=15)
        assert not check.ok
        assert "ratio" in check.first_violation

    def test_constant_curve_fails_strictness(self):
        psi = curve_from_table([(3, 3)] * 10)
        check = validate_curve(psi, horizon=10)
        assert not check.ok
        assert "strictness" in check.first_violation

    def test_decreasing_curve_reported(self):
        psi = raw_curve([(1, 1), (2, 2), (2, 1)])
        check = validate_curve(psi, horizon=3)
        assert not check.ok
        assert "decreases" in check.first_violation

    def test_psi_example_stalls_are_reported(self):
        # consecutive duplicate points violate strictness at small n
        check = validate_curve(curve_psi_example(), horizon=50)
        assert not check.ok
        assert "strictness" in check.first_violation


class TestNeighborhood:
    def test_reflexive(self):
        d = curve_diagonal(2)
        ok, bad = in_neighborhood(d, d, C=1.0, horizon=60)
        assert ok and bad is None

    def test_same_order_curve_inside(self):
        phi = curve_from_table([(2 * n, n) for n in range(1, 80)])
        ok, _ = in_neighborhood(phi, curve_diagonal(2), C=2.0, horizon=60)
        assert ok

    def test_polynomially_skewed_curve_outside(self):
        phi = curve_from_table([(n * n, n) for n in range(1, 50)])
        ok, bad = in_neighborhood(phi, curve_diagonal(2), C=2.0, horizon=40)
        assert not ok
        assert bad == 5  # n^2/n > C^2 from n = 5 on

    def test_monotone_in_C(self):
        phi = curve_from_table([(2 * n, n) for n in range(1, 80)])
        psi = curve_diagonal(2)
        assert in_neighborhood(phi, psi, C=2.0, horizon=60)[0]
        assert in_neighborhood(phi, psi, C=3.0, horizon=60)[0]

    def test_prefix_exception(self):
        phi = raw_curve([(50, 1)] + [(n, n) for n in range(2, 40)])
        psi = curve_diagonal(2)
        ok1, bad1 = in_neighborhood(phi, psi, C=2.0, horizon=30, n0=1)
        ok2, _ = in_neighborhood(phi, psi, C=2.0, horizon=30, n0=2)
        assert not ok1 and bad1 == 1
        assert ok2

    def test_rejects_small_C(self):
        d = curve_diagonal(2)
        with pytest.raises(ValueError):
            in_neighborhood(d, d, C=0.5, horizon=10)


class TestDensify:
    def test_two_waypoints_fixed_order(self):
        c = densify_to_curve([(1, 1), (2, 2)])
        assert c.table(3).tolist() == [[1, 1], [2, 1], [2, 2]]

    def test_unit_chain_unchanged(self):
        chain = [(1, 1), (2, 1), (2, 2), (3, 2)]
        c = densify_to_curve(chain)
        assert c.table(4).tolist() == [list(p) for p in chain]

    def test_waypoints_are_subsequence(self):
        wps = [(2, 3, 1), (4, 3, 2), (4, 6, 2), (7, 7, 7)]
        c = densify_to_curve(wps)
        length = 1 + sum(b - a for a, b in zip(wps[0], wps[-1]))
        rows = {tuple(r) for r in c.table(length).tolist()}
        assert all(tuple(w) in rows for w in wps)

    def test_steps_are_unit_moves(self):
        c = densify_to_curve([(3, 2), (5, 6), (8, 6)])
        t = c.table(10)
        d = np.diff(t, axis=0)
        assert np.all(d.sum(axis=1) == 1)
        assert np.all(d >= 0)

    def test_output_validates_for_large_waypoints(self):
        c = densify_to_curve([(30, 30), (33, 35)])
        assert validate_curve(c, horizon=9).ok

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            densify_to_curve([(2, 2), (1, 3)])
        with pytest.raises(ValueError):
            densify_to_curve([(2, 2), (2, 2)])


def test_curve_star_strictly_increasing_after_densify():
    c = densify_to_curve([(4, 5), (6, 9)])
    stars = [c.star(n) for n in range(1, 7)]
    assert all(b > a for a, b in zip(stars, stars[1:]))
