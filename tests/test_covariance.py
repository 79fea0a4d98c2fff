import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phantomfields import (
    CharacteristicPolygon,
    GammaPair,
    InfeasibleParameterError,
    SeparableCovariance,
    build_eta1,
    build_eta2,
    covariance_at,
    delta_sup,
    example_covariance,
    validate_gammas,
    validate_polya,
)


def loglog(k):
    return math.log(math.log(k)) / math.log(k)


@pytest.fixture(scope="module")
def eta1():
    return build_eta1(0.26)


@pytest.fixture(scope="module")
def eta2():
    return build_eta2(0.10)


class TestKnots:
    def test_eta1_at_origin(self, eta1):
        assert eta1(0.0) == 1.0

    def test_eta1_tail_knots_exact(self, eta1):
        for k in (28, 29, 100, 5000):
            assert eta1(float(k)) == pytest.approx(0.26 * loglog(k), abs=0.0)

    def test_eta1_knot_one(self, eta1):
        # direct arithmetic on the knot formula
        expected = 0.26 * (27 * loglog(27) - 26 * loglog(28))
        assert eta1(1.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.0985, abs=5e-4)

    def test_eta2_at_origin(self, eta2):
        assert eta2(0.0) == 1.0

    def test_eta2_tail_knots_exact(self, eta2):
        for k in (3, 4, 17, 12345):
            assert eta2(float(k)) == pytest.approx(0.10 / math.log(k), abs=0.0)

    def test_eta2_knot_one(self, eta2):
        expected = 0.10 * (2 / math.log(2) - 1 / math.log(3))
        assert eta2(1.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.1975, abs=5e-4)

    def test_eta2_collinear_at_two(self, eta2):
        # the segment (1, v1) -> (3, g2/ln 3) passes through (2, g2/ln 2)
        assert eta2(2.0) == pytest.approx(0.10 / math.log(2), rel=1e-14)

    def test_reflection(self, eta1, eta2):
        for t in (0.5, 1.0, 3.7, 28.0, 999.25):
            assert eta1(-t) == eta1(t)
            assert eta2(-t) == eta2(t)

    def test_tail_beyond_horizon_uses_closed_form(self):
        p = build_eta1(0.26)
        t = 1234.25
        k = math.floor(t)
        expected = 0.26 * (loglog(k) * (1 - (t - k)) + loglog(k + 1) * (t - k))
        assert p(t) == pytest.approx(expected, rel=1e-15)


class TestValidatePolya:
    def test_built_polygons_pass(self, eta1, eta2):
        assert validate_polya(eta1) == (True, [])
        assert validate_polya(eta2) == (True, [])

    @pytest.mark.parametrize("axis, tail_start", [("eta1", 28), ("eta2", 3)])
    def test_tail_certificate(self, request, axis, tail_start):
        # the polygon with every tail knot up to 10^6 stored is a valid Polya
        # polygon, and the head-only polygon plus its tail rule equals it
        # bit for bit at every integer up there
        p = request.getfixturevalue(axis)
        ks = np.arange(tail_start, 1_000_001, dtype=np.float64)
        ref = CharacteristicPolygon(
            knots_t=np.concatenate(([0.0, 1.0], ks)),
            knots_v=np.concatenate(([1.0, p(1.0)], p.tail(ks))),
        )
        assert validate_polya(ref) == (True, [])
        t = np.arange(1_000_001, dtype=np.float64)
        assert np.array_equal(p(t), ref(t))

    def test_rising_value_rejected(self):
        p = CharacteristicPolygon(
            knots_t=np.array([0.0, 1.0, 2.0]), knots_v=np.array([1.0, 0.5, 0.9])
        )
        ok, diags = validate_polya(p)
        assert not ok
        assert any("nonincreasing" in d for d in diags)

    def test_zero_value_rejected(self):
        p = CharacteristicPolygon(
            knots_t=np.array([0.0, 1.0, 2.0, 3.0]),
            knots_v=np.array([1.0, 0.2, 0.15, 0.0]),
        )
        ok, diags = validate_polya(p)
        assert not ok
        assert any("positivity" in d for d in diags)

    def test_concave_rejected(self):
        p = CharacteristicPolygon(
            knots_t=np.array([0.0, 1.0, 2.0]), knots_v=np.array([1.0, 0.9, 0.1])
        )
        ok, diags = validate_polya(p)
        assert not ok
        assert any("convexity" in d for d in diags)

    def test_wrong_origin_rejected(self):
        p = CharacteristicPolygon(
            knots_t=np.array([0.0, 1.0]), knots_v=np.array([0.9, 0.5])
        )
        ok, diags = validate_polya(p)
        assert not ok
        assert "(0, 1)" in diags[0]


class TestBuilderErrors:
    @pytest.mark.parametrize("bad", [-0.1, 0.0, 1.0, 1.5])
    def test_gamma_out_of_range(self, bad):
        with pytest.raises(InfeasibleParameterError):
            build_eta1(bad)
        with pytest.raises(InfeasibleParameterError):
            build_eta2(bad)

    def test_eta2_large_gamma_breaks_convexity(self):
        # knot-1 value stays below 1 but the kink at t=1 turns concave
        with pytest.raises(InfeasibleParameterError, match="convexity|nonincreasing"):
            build_eta2(0.5)


class TestGammas:
    def test_default_pair(self):
        assert validate_gammas(GammaPair(0.26, 0.10))

    def test_gamma1_too_small(self):
        assert not validate_gammas(GammaPair(0.20, 0.10))

    def test_gamma2_too_large(self):
        # 0.50 * 1.9752 ~ 0.988 exceeds (1 - 0.52)/1.52 ~ 0.3158
        assert not validate_gammas(GammaPair(0.26, 0.50))

    def test_chain_values(self):
        a = 0.26 * (27 * loglog(27) - 26 * loglog(28))
        b = 0.10 * (2 / math.log(2) - 1 / math.log(3))
        c = (1 - 0.52) / 1.52
        assert a < b < c
        assert c == pytest.approx(0.3158, abs=5e-5)


@pytest.fixture(scope="module")
def cov():
    return example_covariance()


class TestCovariance:
    def test_origin_is_one(self, cov):
        assert covariance_at(cov, (0, 0)) == 1.0

    def test_axis_knot(self, cov):
        assert covariance_at(cov, (0, 3)) == pytest.approx(0.10 / math.log(3), abs=0.0)

    def test_product_of_knots(self, cov):
        expected = (0.26 * loglog(28)) * (0.10 / math.log(3))
        assert covariance_at(cov, (28, 3)) == pytest.approx(expected, rel=1e-15)

    def test_symmetry(self, cov):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = rng.integers(-500, 500, size=2)
            assert covariance_at(cov, k) == covariance_at(cov, -k)

    def test_product_tail_form(self, cov):
        # r(i, j) = g1*g2 * lnln|i|/ln|i| * 1/ln|j| once |i| >= 28, |j| >= 3
        for i, j in [(28, 3), (50, 7), (301, 44)]:
            expected = 0.26 * 0.10 * loglog(i) / math.log(j)
            assert covariance_at(cov, (i, j)) == pytest.approx(expected, rel=1e-14)

    def test_delta_sup_value_and_argmax(self, cov):
        eta2_one = 0.10 * (2 / math.log(2) - 1 / math.log(3))
        assert delta_sup(cov) == pytest.approx(eta2_one, abs=0.0)

    def test_exhaustive_matches_brute_force(self, cov):
        r = 4
        best = -1.0
        for i in range(-r, r + 1):
            for j in range(-r, r + 1):
                if (i, j) != (0, 0):
                    best = max(best, covariance_at(cov, (i, j)))
        assert delta_sup(cov) == pytest.approx(best, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=5e5, allow_nan=False))
def test_polygon_monotone_and_positive(t):
    p = build_eta1(0.26)
    assert p(t) > 0.0
    assert p(t + 1.0) <= p(t) + 1e-15


@settings(max_examples=60, deadline=None)
@given(
    g1=st.floats(min_value=0.26, max_value=0.45),
    g2=st.floats(min_value=0.05, max_value=0.15),
)
def test_feasible_pairs_build_valid_polygons(g1, g2):
    if not validate_gammas(GammaPair(g1, g2)):
        return
    ok1, _ = validate_polya(build_eta1(g1))
    ok2, _ = validate_polya(build_eta2(g2))
    assert ok1 and ok2


class TestConfig:
    def test_knot_override(self):
        # a covariance from an explicit knot list, not the eta builders
        knots_t, knots_v = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.4])
        cov = SeparableCovariance(axes=(CharacteristicPolygon(knots_t=knots_t, knots_v=knots_v),))
        assert covariance_at(cov, (1,)) == 0.5
        # constant extension beyond the last knot
        assert covariance_at(cov, (10,)) == 0.4

    def test_infeasible_pair_rejected(self):
        with pytest.raises(InfeasibleParameterError):
            example_covariance(GammaPair(0.20, 0.10))
