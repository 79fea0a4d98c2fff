import math

import numpy as np
import pytest

from phantomfields import curve_diagonal, curve_from_table, curve_psi_example


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
        # the table is the formula at each n
        raw = np.array([psi.fn(n) for n in range(3, 2001)])
        assert np.array_equal(table, raw)

    def test_psi_example_matches_scalar_formula(self):
        # the array formula uses np.log, which differs from math.log in the
        # last bit at a few n; the floors agree with the scalar formula
        # everywhere up to 2e6
        horizon = 2_000_000
        ns = range(3, horizon + 1)
        lns = list(map(math.log, ns))
        ref = np.column_stack([[int(n / ln) for n, ln in zip(ns, lns)], [int(ln) for ln in lns]])
        psi = curve_psi_example()
        table = psi.table(horizon)
        assert np.array_equal(table, ref)
        # table() returns the raw formula, which is monotone over the whole range
        assert np.all(np.diff(table, axis=0) >= 0)
        for n in (3, 8, 5000, 20000, 10**6, horizon):
            assert psi(n) == tuple(ref[n - 3])

    def test_curve_call_rejects_n_past_int64(self):
        with pytest.raises(ValueError, match=r"n must be below 2\^63"):
            curve_psi_example()(2**63)

    def test_psi_example_points_repeat(self):
        # the product of the coordinates grows slower than n, so the curve stalls
        table = curve_psi_example().table(50)
        assert np.any(np.all(np.diff(table, axis=0) == 0, axis=1))

    def test_diagonal(self):
        d2 = curve_diagonal(2)
        d3 = curve_diagonal(3)
        assert d2(1) == (1, 1)
        assert d3(5) == (5, 5, 5)

    def test_curves_live_on_n_d(self):
        # a 0-dimensional diagonal ran beta on an empty box, and a 0 coordinate
        # gave a 0-cell rectangle (a ZeroDivisionError in the iid block level)
        with pytest.raises(ValueError, match=r"diagonal curve needs d >= 1, got 0"):
            curve_diagonal(0)
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
