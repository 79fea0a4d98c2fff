import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import uniform

import phantomfields
from phantomfields import (
    EmpiricalLaw,
    IIDField,
    InconsistentIndexError,
    LevelSequence,
    MovingMaxField,
    PhantomCandidate,
    construct_G_psi,
    curve_diagonal,
    empirical_max_law,
    equicorrelated_max_cdf,
    estimate_extremal_index,
    estimate_level_sequence,
    exact_level_sequence,
    exact_max_law,
    extremal_index,
    gumbel_H0,
    levels_u,
    limit_H,
    normal_candidate,
    normalizers,
    phantom_distance,
    sub_seed,
    uniform_candidate,
)
from phantomfields.phantom import PROBE_MESH
from phantomfields.sampling import _NormalMarginal, _UniformMarginal

E_INV = math.exp(-1.0)


@pytest.fixture(scope="module")
def iid_uniform():
    return IIDField(uniform())


class TestCandidatePower:
    def test_huge_exponent_stays_finite(self):
        phi = normal_candidate()
        vals = phi.power(np.array([-1.0, 0.0, 3.0, 6.0]), 1e8)
        assert np.all(np.isfinite(vals))
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_zero_and_one_branches(self):
        g = uniform_candidate()
        assert g.power(np.array([-0.5]), 10.0)[0] == 0.0
        assert g.power(np.array([1.0]), 10.0)[0] == 1.0
        assert g.power(np.array([2.0]), 1e9)[0] == 1.0

    def test_matches_direct_power(self):
        g = uniform_candidate()
        x = np.linspace(0.05, 0.99, 20)
        assert np.allclose(g.power(x, 37.0), x**37.0, rtol=1e-12)


class TestEmpiricalMaxLaw:
    def test_iid_uniform_2x2(self, iid_uniform):
        reps = 5000
        law = empirical_max_law(iid_uniform, (2, 2), reps, seed=1)
        for x in (0.5, 0.8, 0.95):
            f = x**4
            tol = 3.0 * math.sqrt(f * (1.0 - f) / reps)
            assert abs(float(law.cdf(x)) - f) <= tol

    def test_moving_max_matches_exact(self):
        mm = MovingMaxField((2, 2), uniform())
        reps = 5000
        law = empirical_max_law(mm, (5, 5), reps, seed=2)
        for x in (0.9, 0.95, 0.99):
            f = float(mm.exact_block_max_cdf((5, 5), x))
            tol = 3.0 * math.sqrt(f * (1.0 - f) / reps)
            assert abs(float(law.cdf(x)) - f) <= tol

    def test_single_rep(self, iid_uniform):
        law = empirical_max_law(iid_uniform, (3, 3), 1, seed=3)
        assert law.reps == 1
        v = law.values[0]
        assert float(law.cdf(v)) == 1.0
        assert float(law.cdf(v - 1e-9)) == 0.0

    def test_rejects_zero_reps(self, iid_uniform):
        with pytest.raises(ValueError):
            empirical_max_law(iid_uniform, (2, 2), 0, seed=1)


class TestPhantomDistance:
    def test_self_distance_is_one_over_R(self, iid_uniform):
        law = empirical_max_law(iid_uniform, (2, 2), 100, seed=4)
        self_cand = PhantomCandidate(cdf=law.cdf, breakpoints=law.values)
        d = phantom_distance(law, self_cand, 1.0)
        assert d.value <= 1.0 / law.reps + 1e-15

    def test_dkw_scale_iid_uniform(self, iid_uniform):
        # the true law IS G^m here, so the distance is pure MC noise;
        # DKW puts it below 0.03 except with probability < 2e-18
        reps = 10_000
        law = empirical_max_law(iid_uniform, (10, 10), reps, seed=5)
        d = phantom_distance(law, uniform_candidate(), 100.0)
        assert d.value < 0.03

    def test_degenerate_candidate(self, iid_uniform):
        law = empirical_max_law(iid_uniform, (2, 2), 50, seed=6)
        ones = PhantomCandidate(cdf=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        d = phantom_distance(law, ones, 5.0)
        assert d.value >= 1.0 - 1.0 / law.reps

    def test_exact_law_zero_distance(self, iid_uniform):
        # closed-form law against the marginal candidate with m = n*
        for n in (5, 20, 100):
            law = exact_max_law(iid_uniform, (n, n))
            d = phantom_distance(law, uniform_candidate(), float(n * n))
            assert d.value <= 1e-12

    @pytest.mark.parametrize("dims", [(200, 200), (400, 400)])
    def test_exact_normal_law_probes_its_support(self, dims):
        # at m = 4e4 cells (1 - 1e-12)^(1/m) rounds to 1: a level solved from
        # it is inf, the mesh collapses to one point and every distance reads 0
        law = exact_max_law(IIDField(_NormalMarginal()), dims)
        assert np.isfinite(law.breakpoints).sum() == PROBE_MESH
        m = float(math.prod(dims))
        assert phantom_distance(law, normal_candidate(), m).value <= 1e-9
        shifted = PhantomCandidate(cdf=lambda x: _NormalMarginal().cdf(np.asarray(x) - 1.0))
        assert phantom_distance(law, shifted, m).value >= 0.9

    def test_loads_no_numpy_ma(self):
        # np.unique's first call imports numpy.ma, 16-19 ms of a command's start-up
        code = (
            "import sys\n"
            "from phantomfields import IIDField, TwoAtomInnovations, empirical_max_law, phantom_distance, uniform_candidate\n"
            "law = empirical_max_law(IIDField(TwoAtomInnovations()), (2, 2), 50, seed=6)\n"
            "phantom_distance(law, uniform_candidate(), 4.0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(phantomfields.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_rejects_nonpositive_m(self, iid_uniform):
        law = empirical_max_law(iid_uniform, (2, 2), 10, seed=7)
        with pytest.raises(ValueError):
            phantom_distance(law, uniform_candidate(), 0.0)


class TestGPsi:
    def make_levels(self, levels, stars, gamma=0.4):
        n = len(levels)
        return LevelSequence(
            curve=curve_diagonal(2),
            gamma=gamma,
            n_values=np.arange(1, n + 1),
            psi_star=np.asarray(stars, dtype=np.int64),
            levels=np.asarray(levels, dtype=np.float64),
        )

    def test_branches(self):
        seq = self.make_levels([1.0, 2.0, 3.0], [1, 4, 9])
        g = construct_G_psi(seq)
        assert g.cdf(0.5) == 0.0
        assert g.cdf(1.0) == 0.4
        assert g.cdf(1.7) == 0.4
        assert g.cdf(2.0) == 0.4 ** (1.0 / 4.0)
        assert g.cdf(5.0) == 0.4 ** (1.0 / 9.0)
        assert g.cdf(np.inf) == 1.0

    def test_self_consistency_exact(self):
        seq = self.make_levels([1.0, 2.0, 3.0, 4.5], [1, 4, 9, 16])
        g = construct_G_psi(seq)
        for v, s in zip(seq.levels, seq.psi_star):
            assert g.power(v, float(s)) == seq.gamma  # exact equality

    def test_tied_levels_collapse_to_owner(self):
        seq = self.make_levels([1.0, 2.0, 2.0, 3.0], [1, 4, 9, 16])
        g = construct_G_psi(seq)
        # the tied level belongs to the branch with the larger cell count
        assert g.cdf(2.0) == 0.4 ** (1.0 / 9.0)
        assert g.power(2.0, 9.0) == 0.4
        _, stars, vals = seq.distinct()
        assert vals.tolist() == [1.0, 2.0, 3.0]
        assert stars.tolist() == [1, 9, 16]

    def test_power_left(self):
        seq = self.make_levels([1.0, 2.0], [1, 4])
        g = construct_G_psi(seq)
        assert g.power_left(2.0, 4.0) == 0.4**4.0  # branch below
        assert g.power_left(1.0, 4.0) == 0.0

    def test_monotone_levels_enforced(self):
        with pytest.raises(ValueError):
            self.make_levels([1.0, 0.5], [1, 4])


class TestLevelSequences:
    def test_estimate_matches_exact_quantile(self, iid_uniform):
        # v solves v^{n^2} = gamma, i.e. v = gamma^(1/n^2)
        seq = estimate_level_sequence(
            iid_uniform, curve_diagonal(2), E_INV, horizon=6, reps=4000, seed=11
        )
        for n, v in zip(seq.n_values, seq.levels):
            assert abs(v ** (n * n) - E_INV) < 0.03

    def test_estimate_consistency_moving_max(self):
        mm = MovingMaxField((2, 2), uniform())
        est = estimate_level_sequence(mm, curve_diagonal(2), 0.5, horizon=5, reps=20_000, seed=12)
        exact = exact_level_sequence(mm, curve_diagonal(2), 0.5, horizon=5)
        # compare through the exact law (uniform scale)
        for dims_n, ve, vx in zip(est.n_values, est.levels, exact.levels):
            fe = float(mm.exact_block_max_cdf((dims_n, dims_n), ve))
            assert abs(fe - 0.5) < 0.02

    def test_raw_levels_nondecreasing_with_tiny_reps(self, iid_uniform):
        # independent draws per n gave decreasing raw quantiles at this
        # config; off one draw of the largest square they cannot decrease
        seq = estimate_level_sequence(
            iid_uniform, curve_diagonal(2), 0.9, horizon=12, reps=40, seed=13
        )
        maxes = iid_uniform.nested_maxes(curve_diagonal(2).table(12), 40, sub_seed(13, 12))
        raw = np.sort(maxes, axis=1)[:, math.ceil(0.9 * 40) - 1]
        assert np.array_equal(seq.levels, raw)
        assert np.all(np.diff(raw) >= 0)

    def test_exact_sequence_no_repair(self, iid_uniform):
        seq = exact_level_sequence(iid_uniform, curve_diagonal(2), E_INV, horizon=10)
        assert np.allclose(seq.levels, [E_INV ** (1.0 / (n * n)) for n in range(1, 11)], rtol=1e-14)

    def test_exact_sequence_rejects_a_decreasing_level(self):
        # a model whose exact level falls at n = 3 is an error, not a level to repair
        class Falling(IIDField):
            def exact_block_level(self, dims, gamma):
                return super().exact_block_level(dims, gamma) - 0.5 * (dims[0] == 3)

        with pytest.raises(ValueError, match="nondecreasing"):
            exact_level_sequence(Falling(uniform()), curve_diagonal(2), 0.5, horizon=5)

    def test_exact_sequence_needs_exact_law(self):
        # every exact-law entry point raises the model's one error
        from phantomfields import GaussianSeparableField, beta_k_estimate, example_covariance

        model = GaussianSeparableField(example_covariance())
        calls = [
            lambda: exact_level_sequence(model, curve_diagonal(2), 0.5, horizon=3),
            lambda: exact_max_law(model, (3, 3)),
            lambda: estimate_extremal_index(model, (3, 3)),
            lambda: beta_k_estimate(model, curve_diagonal(2), 0.5, 1.0, 3, mode="exact"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^model gaussian_separable has no exact block-max law$"):
                call()


class TestLevelsU:
    def test_half_mass_gives_zero(self):
        assert levels_u(50.0, 10) == 0.0  # c = n^2 / 2

    def test_quantile_value_against_bisection(self):
        u = levels_u(1.0, 100)
        # independent bisection oracle on Phi
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if 100**2 * (1.0 - ndtr(mid)) > 1.0:
                lo = mid
            else:
                hi = mid
        assert abs(u - 0.5 * (lo + hi)) < 1e-10
        assert u == pytest.approx(3.719, abs=5e-4)

    def test_sqrt_4_log_n_scale(self):
        n = 10**6
        u = levels_u(1.0, n)
        assert 0.9 <= u / math.sqrt(4.0 * math.log(n)) <= 1.1

    def test_rejects_large_c(self):
        with pytest.raises(ValueError):
            levels_u(100.0, 10)


class TestNormalizers:
    def test_small_n(self):
        a, b = normalizers(3)
        assert a == pytest.approx(math.sqrt(2 * math.log(3)), rel=1e-15)

    def test_formula_at_16(self):
        a, b = normalizers(16)
        assert a == pytest.approx(math.sqrt(2 * math.log(16)), rel=1e-15)
        assert b == pytest.approx(a - (math.log(math.log(16)) + math.log(4 * math.pi)) / (2 * a), rel=1e-15)

    def test_a_strictly_increasing(self):
        vals = [normalizers(n)[0] for n in range(3, 200)]
        assert all(y > x for x, y in zip(vals, vals[1:]))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            normalizers(2)


class TestLimitH:
    def test_upper_tail(self):
        for kappa in (0.01, 0.3, 1.0):
            assert limit_H(20.0, kappa) >= 1.0 - 1e-6

    def test_kappa_to_zero_recovers_gumbel(self):
        assert abs(limit_H(0.0, 1e-8) - gumbel_H0(0.0)) <= 1e-4

    def test_cross_quadrature_agreement(self):
        for x in (-1.0, 0.0, 1.5):
            gh = limit_H(x, 0.026)
            ad = limit_H(x, 0.026, method="adaptive")
            assert abs(gh - ad) <= 1e-8

    def test_monotone_and_bounded(self):
        xs = np.linspace(-4, 8, 60)
        vals = limit_H(xs, 0.05)
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            limit_H(0.0, 0.0)


class TestGumbel:
    def test_at_zero(self):
        assert gumbel_H0(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_median_point(self):
        # exp(-exp(-x)) = 1/2 at x = -ln ln 2
        assert gumbel_H0(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-14)

    def test_upper_limit(self):
        assert gumbel_H0(50.0) == pytest.approx(1.0, abs=1e-15)

    def test_far_lower_tail_is_zero_without_overflow(self):
        # exp(-x) overflows below x = -709.8; the clipped exponent gives 0 with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gumbel_H0(-1e308) == 0.0
            assert gumbel_H0(np.array([-1e308, -800.0])).tolist() == [0.0, 0.0]


class TestEquicorrelatedCdf:
    def test_rho_zero_is_independent_power(self):
        for w in (0.0, 1.0, 2.5):
            assert equicorrelated_max_cdf(10, 0.0, w) == pytest.approx(ndtr(w) ** 10, rel=1e-14)

    def test_single_variable_unit_variance(self):
        for rho in (0.1, 0.5, 0.9):
            assert equicorrelated_max_cdf(1, rho, 1.3) == pytest.approx(float(ndtr(1.3)), abs=1e-12)

    def test_converges_to_limit_H(self):
        kappa = 0.026
        gaps = []
        for N in (10**4, 10**6, 10**8):
            a, b = normalizers(N)
            gaps.append(abs(equicorrelated_max_cdf(N, kappa / math.log(N), b) - limit_H(0.0, kappa)))
        assert gaps[0] > gaps[1] > gaps[2]
        # derived with this module's own quadrature: gap(1e6) = 0.021383
        assert gaps[1] < 0.022

    def test_monotone_in_w_and_N(self):
        ws = np.linspace(0.5, 4.0, 40)
        vals = equicorrelated_max_cdf(50, 0.2, ws)
        assert np.all(np.diff(vals) > 0)
        at_w = [equicorrelated_max_cdf(N, 0.2, 2.0) for N in (5, 10, 50, 200)]
        assert all(y < x for x, y in zip(at_w, at_w[1:]))

    def test_cross_quadrature_agreement(self):
        gh = equicorrelated_max_cdf(1000, 0.15, 3.0)
        ad = equicorrelated_max_cdf(1000, 0.15, 3.0, method="adaptive")
        assert abs(gh - ad) <= 1e-8


class TestExtremalIndex:
    def test_equal_gammas(self):
        assert extremal_index(0.37, 0.37) == 1.0

    def test_simple_ratio(self):
        assert extremal_index(0.5, 0.25) == pytest.approx(0.5, rel=1e-15)

    def test_inconsistent_pair_flagged(self):
        with pytest.raises(InconsistentIndexError):
            extremal_index(0.25, 0.5)  # theta = 2
        with pytest.raises(InconsistentIndexError):
            extremal_index(1.5, 0.5)
        # the pair alone carries no rounding margin: one ulp below gamma_in is flagged
        with pytest.raises(InconsistentIndexError):
            extremal_index(math.nextafter(0.5, 0.0), 0.5)

    @pytest.mark.parametrize("marginal", [_NormalMarginal(), _UniformMarginal()])
    def test_iid_estimate_is_one_to_rounding(self, marginal):
        # F(F^-1(gamma_in^(1/n*)))^n* rounds above or below gamma_in, by up to
        # about n* eps / |ln gamma_in|; half the n give theta just above 1,
        # which the estimate lets through
        eps = np.finfo(np.float64).eps
        for gamma_in in (1e-200, 0.05, E_INV, 0.5, 0.999):
            for n in range(1, 41):
                theta = estimate_extremal_index(IIDField(marginal), (n, n), gamma_in).theta
                assert abs(theta - 1.0) <= 8.0 * eps * (n * n / abs(math.log(gamma_in)) + 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        g_in=st.floats(min_value=0.05, max_value=0.95),
        theta=st.floats(min_value=0.05, max_value=1.0),
        s=st.floats(min_value=0.2, max_value=4.0),
    )
    def test_log_ratio_invariance(self, g_in, theta, s):
        g_or = g_in**theta
        t1 = extremal_index(g_or, g_in)
        t2 = extremal_index(g_or**s, g_in**s)
        assert t2 == pytest.approx(t1, rel=1e-10)

    def test_moving_max_oracle(self):
        # window (a, b), uniform innovations: theta_n = (n+a-1)(n+b-1) / (a b n^2) -> 1 / (a b)
        n = np.arange(1, 3001)
        for a, b in ((2, 2), (3, 1)):
            mm = MovingMaxField((a, b), _UniformMarginal())
            closed = (n + a - 1) * (n + b - 1) / (a * b * n.astype(np.float64) ** 2)
            est = estimate_extremal_index(mm, (200, 200), E_INV)
            assert abs(est.theta - 1.0 / (a * b)) <= 0.02
            # float round-trip through the (n+a-1)(n+b-1) power costs a few 1e-12
            assert est.theta == pytest.approx(closed[199], rel=1e-9)
            # near gamma_in = 1 the level is near 1, and its last bit is a relative
            # error of about eps a b n^2 / |ln gamma_in| in theta: the largest
            # measured, 2.47e-6, is at gamma_in = 0.999 and n = 2000
            for gamma_in in (1e-300, 1e-10, 0.05, E_INV, 0.5, 0.9, 0.999):
                theta = np.array([estimate_extremal_index(mm, (k, k), gamma_in).theta for k in n.tolist()])
                assert np.max(np.abs(theta / closed - 1.0)) <= 2.5e-6, ((a, b), gamma_in)

    def test_oracle_gamma_free(self):
        mm = MovingMaxField((2, 2), uniform())
        t1 = estimate_extremal_index(mm, (50, 50), 0.3).theta
        t2 = estimate_extremal_index(mm, (50, 50), 0.7).theta
        assert t1 == pytest.approx(t2, rel=1e-9)


class TestDirectionalSignal:
    def test_limit_differs_from_gumbel_beyond_quadrature_error(self):
        h = limit_H(0.0, 0.026)
        h0 = gumbel_H0(0.0)
        assert abs(h - h0) > 5.0 * 1e-8

    def test_quadrature_law_approaches_H_not_H0(self):
        kappa = 0.026
        N = 10**8
        a, b = normalizers(N)
        q = equicorrelated_max_cdf(N, kappa / math.log(N), b)
        assert abs(q - limit_H(0.0, kappa)) < abs(q - gumbel_H0(0.0))

