import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import uniform

from phantomfields import (
    CharacteristicPolygon,
    GaussianSeparableField,
    IIDField,
    MovingMaxField,
    TwoAtomInnovations,
    berman_bound,
    beta_k_estimate,
    bound_vs_empirical,
    curve_diagonal,
    enumeration_beta,
    enumeration_block_cdf,
    example_covariance,
    exhaustive_splits,
    levels_u,
    quarter_grid_splits,
)
from phantomfields import kernels, sampling
from phantomfields.covariance import SeparableCovariance
from phantomfields.diagnostics import _beta_over, _block_probabilities, beta_mode
from phantomfields.lattice import curve_from_table


@pytest.fixture(scope="module")
def two_atom_model():
    return MovingMaxField((2, 2), TwoAtomInnovations(0.0, 1.0, 0.6))


class TestSplitGrids:
    def test_quarter_grid_respects_bound(self):
        splits = quarter_grid_splits((8, 4), k=2)
        assert splits.shape[1:] == (2, 2)
        assert np.all(splits.sum(axis=1) <= (8, 4)) and np.all(splits >= 0)

    def test_quarter_grid_contains_extremes(self):
        splits = quarter_grid_splits((8, 8), k=2)
        parts = {tuple(map(tuple, s)) for s in splits.tolist()}
        assert (((0, 0), (8, 8))) in parts
        assert (((8, 8), (0, 0))) in parts

    def test_exhaustive_counts(self):
        # per axis: pairs (a, b) in N_0^2 with a + b <= 3 -> 10; two axes -> 100
        assert len(exhaustive_splits((3, 3), k=2)) == 100
        assert len(exhaustive_splits((3, 3), k=3)) == 400

    def test_split_validation(self, two_atom_model):
        # split s, part i, axis j at [s, i, j]: the third split's part 1 is (0, 2)
        splits = exhaustive_splits((2, 3), k=2)
        assert splits.shape == (60, 2, 2) and splits[2, 1].tolist() == [0, 2]
        assert len({tuple(s.ravel()) for s in splits}) == 60
        ok = np.array([[[2, 2], [1, 1]]])
        assert beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, splits=ok).grid_size == 1
        for bad in (ok[:, :1], ok[0], ok[:0], np.zeros((1, 2, 3), dtype=int), np.zeros((1, 3, 2), dtype=int)):
            with pytest.raises(ValueError):
                beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, splits=bad)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_non_integer_splits_rejected(self, two_atom_model, mode):
        # a fractional part has no block: exact mode read a law at it, mc mode an index
        bad = [[[1.5, 1.5], [1.5, 1.5]]]
        with pytest.raises(ValueError, match="integer"):
            beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, splits=bad, reps=50, mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_splits_that_read_only_empty_blocks(self, two_atom_model, mode):
        # parts (0, 1) and (0, 2): every sub-block and the total (0, 3) are empty, so no probability is read
        splits = [[[0, 1], [0, 2]]]
        rep = beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, splits=splits, reps=50, mode=mode)
        assert rep.value == 0.0

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_negative_part_rejected(self, two_atom_model, mode):
        # -1 would read the table from its far end
        bad = np.array([[[-1, 0], [1, 3]]])
        with pytest.raises(ValueError, match="negative part"):
            beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, splits=bad, reps=50, mode=mode)


class TestBetaExact:
    def test_iid_factorizes_exactly(self):
        model = IIDField(uniform())
        rep = beta_k_estimate(model, curve_diagonal(2), 0.7, T=1.0, n=4, k=2, mode="exact")
        assert rep.mode == "exact"
        assert rep.value <= 1e-12

    def test_iid_zero_for_k3(self):
        model = IIDField(uniform())
        rep = beta_k_estimate(model, curve_diagonal(2), 0.7, T=1.0, n=4, k=3, mode="exact")
        assert rep.value <= 1e-12

    def test_a_model_declares_its_own_closed_form(self, two_atom_model):
        # outside the IIDField family: its closed_form alone makes beta exact
        class Wrapped(sampling.FieldModel):
            closed_form = True

            def exact_block_max_cdf(self, dims, x):
                return two_atom_model.exact_block_max_cdf(dims, x)

            def exact_block_level(self, dims, gamma):
                return two_atom_model.exact_block_level(dims, gamma)

        assert not isinstance(Wrapped(), IIDField)
        assert beta_mode(Wrapped(), "auto", 1) == "exact"
        estimate = lambda model: beta_k_estimate(model, curve_diagonal(2), 0.5, T=1.0, n=4, mode="exact")
        assert estimate(Wrapped()).value == estimate(two_atom_model).value > 0.0

    def test_empty_blocks_contribute_one(self, two_atom_model):
        # parts (0, 3) and (3, 0): sub-blocks (0, 3), (0, 0) and (3, 0) are empty, (3, 3) is the total
        probs = _block_probabilities(two_atom_model, 0.5, "exact")
        seen = []
        spy = lambda rects: seen.append(rects.tolist()) or probs(rects)
        assert _beta_over(spy, np.array([[[0, 3], [3, 0]]])) == (0.0, [[0, 3], [3, 0]])
        # the empty blocks are never asked for: they read 1
        assert seen == [[[3, 3]]]

    def test_zero_part_reduces_to_fewer_blocks(self, two_atom_model):
        # with p = 0 the product collapses to the q block alone
        probs = _block_probabilities(two_atom_model, 0.5, "exact")
        parts = np.array([[[0, 0], [3, 3]]])
        assert probs(np.array([[3, 3]]))[0] < 1.0
        assert _beta_over(probs, parts) == (0.0, parts[0].tolist())

    def test_k2_exact_equals_enumeration(self, two_atom_model):
        splits = exhaustive_splits((3, 3), k=2)
        rep = beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, splits=splits, mode="exact")
        assert rep.k == 2 and rep.grid_size == len(splits)
        assert rep.value == pytest.approx(enumeration_beta(two_atom_model, (3, 3), 0.5, k=2), abs=1e-12)

    def test_constraint_violation_rejected(self, two_atom_model):
        bad = [[[4, 0], [0, 0]]]
        with pytest.raises(ValueError, match="exceeds the constraint box"):
            beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, k=2, splits=bad)

    def test_reported_as_lower_bound(self, two_atom_model):
        # the quarter grid of (8, 8) is a strict subset of the admissible splits; at
        # (3, 3) it is all of them, and the value is the functional itself
        rep = beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=8, k=2, mode="exact")
        assert rep.to_json()["lower_bound_only"] is True
        rep = beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, k=2, mode="exact")
        assert rep.to_json()["lower_bound_only"] is False
        # as many splits as the full set, but one repeated in place of another: still partial
        splits = exhaustive_splits((3, 3), k=2)
        splits[-1] = splits[0]
        rep = beta_k_estimate(two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, k=2, splits=splits, mode="exact")
        assert rep.to_json()["lower_bound_only"] is True
        assert rep.to_json()["functional"] == "beta_k2"


class TestBlockProbabilitiesMC:
    @pytest.mark.parametrize("kind", ["moving_max", "gaussian_separable"])
    def test_table_matches_per_replication_loop(self, two_atom_model, kind, monkeypatch):
        model = two_atom_model if kind == "moving_max" else GaussianSeparableField(example_covariance())
        bound, level, reps, seed = (3, 4), 0.5, 600, 9
        # 600 reps span 86 chunks of 7, the last one ragged: a replication holds two input blocks and one output
        monkeypatch.setattr(sampling, "CHUNK_BYTES", 7 * 8 * (2 * math.prod(model.dilated(bound)) + math.prod(bound)))
        counts = np.zeros(bound, dtype=np.int64)
        rng = np.random.default_rng(seed)
        for r in range(reps):
            m = model.sample_values(bound, rng)
            for ax in range(len(bound)):
                m = np.maximum.accumulate(m, axis=ax)
            counts += m <= level
        ref = counts / reps
        probs = _block_probabilities(model, level, "mc", reps=reps, seed=seed)
        # every rectangle of the box, row-major: bit for bit the loop's table
        assert probs(np.argwhere(np.ones(bound)) + 1).tolist() == ref.ravel().tolist()
        # parts (0, 2) and (3, 2) read the empty block (0, 2) twice, (3, 2) twice and the total (3, 4)
        value, _ = _beta_over(probs, np.array([[[0, 2], [3, 2]]]))
        assert value == abs(ref[2, 3] - ref[2, 1] * ref[2, 1])

    def test_memory_does_not_grow_with_reps(self, two_atom_model, monkeypatch):
        # every point of a (20, 20) box over 3000 replications is 9.6 MB of maxima; chunks of 25 are read
        monkeypatch.setattr(sampling, "CHUNK_BYTES", 1 << 18)
        rects = np.argwhere(np.ones((20, 20))) + 1
        _block_probabilities(two_atom_model, 0.5, "mc", reps=30, seed=1)(rects)  # first-call allocations
        probs = _block_probabilities(two_atom_model, 0.5, "mc", reps=3000, seed=1)
        tracemalloc.start()
        try:
            probs(rects)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(rects) * 3000 / 8


# The per-split reference: splits as tuples of parts, built and scanned one at a time.


def _tuple_quarter_grid(bound, k):
    marks = [sorted({0, b // 4, b // 2, (3 * b) // 4, b}) for b in bound]
    combos = itertools.product(list(itertools.product(*marks)), repeat=k)
    return [c for c in combos if all(sum(p[j] for p in c) <= b for j, b in enumerate(bound))]


def _tuple_exhaustive(bound, k):
    per_axis = [[c for c in itertools.product(range(b + 1), repeat=k) if sum(c) <= b] for b in bound]
    choices = itertools.product(*per_axis)  # c[j][i] = coordinate j of part i
    return [tuple(tuple(c[j][i] for j in range(len(bound))) for i in range(k)) for c in choices]


def _loop_beta(prob, splits):
    """(max, first argmax) of |P(total) - product over the k^d sub-blocks|, split by split."""
    best, arg = -1.0, None
    for parts in splits:
        d = len(parts[0])
        total = tuple(sum(p[j] for p in parts) for j in range(d))
        blocks = (tuple(parts[i[j]][j] for j in range(d)) for i in itertools.product(range(len(parts)), repeat=d))
        val = abs(prob(total) - math.prod(prob(dims) for dims in blocks))
        if val > best:
            best, arg = val, parts
    return best, arg


def _table_reader(table):
    return lambda dims: 1.0 if 0 in dims else float(table[tuple(n - 1 for n in dims)])


class TestAgainstSplitLoop:
    @pytest.mark.parametrize("bound", [(3, 3), (2, 3), (4,), (1, 2, 2), (8, 5), (4, 4, 2)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_split_arrays_keep_the_tuple_order(self, bound, k):
        as_lists = lambda splits: [[list(p) for p in s] for s in splits]
        assert exhaustive_splits(bound, k).tolist() == as_lists(_tuple_exhaustive(bound, k))
        assert quarter_grid_splits(bound, k).tolist() == as_lists(_tuple_quarter_grid(bound, k))

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.99])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_beta_equals_the_loop(self, mode, k, level):
        # at 0.99, splits tie up to rounding, so a changed product order moves the argmax;
        # the quarter grid of (8, 5) reads a strict subset of the box
        model = MovingMaxField((2, 2), uniform())
        reps, seed = 300, 5
        for bound in ((3, 3), (8, 5)):
            if mode == "exact":
                prob = functools.cache(lambda dims: 1.0 if 0 in dims else float(model.exact_block_max_cdf(dims, level)))
            else:
                counts = np.zeros(bound, dtype=np.int64)
                rng = np.random.default_rng(seed)
                for _ in range(reps):
                    m = model.sample_values(bound, rng)
                    for ax in range(len(bound)):
                        m = np.maximum.accumulate(m, axis=ax)
                    counts += m <= level
                prob = _table_reader(counts / reps)
            for splits in (_tuple_exhaustive(bound, k), _tuple_quarter_grid(bound, k)):
                rep = beta_k_estimate(
                    model, curve_from_table([bound]), level, T=1.0, n=1, k=k, splits=np.array(splits), reps=reps,
                    seed=seed, mode=mode,
                )
                value, argmax = _loop_beta(prob, splits)
                assert rep.value == value and rep.argmax == [list(p) for p in argmax]

    def test_mc_draws_the_rectangles_the_splits_read_once(self, monkeypatch):
        model = GaussianSeparableField(example_covariance())
        bound, splits = (8, 5), _tuple_quarter_grid((8, 5), 2)
        read = set()
        for parts in splits:
            read.add(tuple(map(sum, zip(*parts))))
            read.update(itertools.product(*zip(*parts)))
        expected = sorted(r for r in read if 0 not in r)
        calls = []
        chunks = sampling.FieldModel.nested_max_chunks
        spy = lambda self, rects, reps, seed: calls.append(rects.tolist()) or chunks(self, rects, reps, seed)
        monkeypatch.setattr(sampling.FieldModel, "nested_max_chunks", spy)
        beta_k_estimate(model, curve_from_table([bound]), 0.5, T=1.0, n=1, splits=np.array(splits), reps=20, mode="mc")
        assert len(expected) < math.prod(bound)
        assert calls == [[list(r) for r in expected]]

    def test_exact_table_does_not_grow_with_the_box(self):
        # a quarter grid at diagonal n = 10^5 reads 5 lengths per axis; a table over the
        # box would hold 10^10 cells. At this level the block probabilities are near e^-1.
        model, level = MovingMaxField((2, 2), uniform()), 1.0 - 1e-10
        prob = functools.cache(lambda dims: 1.0 if 0 in dims else float(model.exact_block_max_cdf(dims, level)))
        splits = _tuple_quarter_grid((100000, 100000), 2)
        rep = beta_k_estimate(model, curve_diagonal(2), level, T=1.0, n=100000, mode="exact")
        value, argmax = _loop_beta(prob, splits)
        assert 0.0 < prob((100000, 100000)) < 1.0
        assert rep.grid_size == len(splits)
        assert rep.value == value and rep.argmax == [list(p) for p in argmax]

    @pytest.mark.parametrize("level", [-0.5, 0.5, 1.5])
    @pytest.mark.parametrize("k", [2, 3])
    def test_enumeration_beta_equals_the_loop(self, two_atom_model, k, level):
        innov = two_atom_model.innovations
        table = kernels.enum_block_cdf_table((3, 3), two_atom_model.window, innov.lo, innov.hi, innov.p_lo, level)
        expected, _ = _loop_beta(_table_reader(table), _tuple_exhaustive((3, 3), k))
        assert enumeration_beta(two_atom_model, (3, 3), level, k=k) == expected


class TestEnumerationOracle:
    def test_matches_dilation_closed_form(self, two_atom_model):
        # F(0.5) = 0.6; P(M_(a,b) <= 0.5) = 0.6^((a+1)(b+1))
        for dims in [(1, 1), (2, 3), (3, 3)]:
            enum = enumeration_block_cdf(two_atom_model, dims, 0.5)
            closed = 0.6 ** ((dims[0] + 1) * (dims[1] + 1))
            assert enum == pytest.approx(closed, abs=1e-12)

    def test_level_outside_atoms(self, two_atom_model):
        assert enumeration_block_cdf(two_atom_model, (2, 2), -0.5) == 0.0
        assert enumeration_block_cdf(two_atom_model, (2, 2), 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_iid_model(self):
        with pytest.raises(ValueError):
            enumeration_block_cdf(IIDField(uniform()), (2, 2), 0.5)

    def test_rejects_oversized_blocks(self, two_atom_model):
        with pytest.raises(ValueError):
            enumeration_block_cdf(two_atom_model, (5, 5), 0.5)

    def test_mc_within_three_se(self, two_atom_model):
        # 1-dependent moving-max field: MC beta vs exhaustive enumeration
        splits = exhaustive_splits((3, 3), k=2)
        reps = 4000
        mc = beta_k_estimate(
            two_atom_model, curve_diagonal(2), 0.5, T=1.0, n=3, k=2,
            splits=splits, reps=reps, seed=17, mode="mc",
        )
        exact = enumeration_beta(two_atom_model, (3, 3), 0.5, k=2)
        # each estimated probability carries at most sqrt(.25/reps) of noise;
        # the split functional combines five of them
        assert abs(mc.value - exact) <= 5.0 * 3.0 * math.sqrt(0.25 / reps)
        assert mc.se is not None

    def test_growth_inequality_small_instances(self, two_atom_model):
        for level in (0.3, 0.5, 0.8):
            b2 = enumeration_beta(two_atom_model, (3, 3), level, k=2)
            b3 = enumeration_beta(two_atom_model, (3, 3), level, k=3)
            assert b3 <= (3**2) * b2 + 1e-12


@pytest.fixture(scope="module")
def cov():
    return example_covariance()


class TestBermanBound:
    def test_decreasing_in_u(self, cov):
        us = [2.0, 3.0, 4.0, 6.0, 9.0]
        vals = [berman_bound(cov, 20, u).total for u in us]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_increasing_in_n(self, cov):
        u = 3.0
        vals = [berman_bound(cov, n, u).total for n in (5, 10, 20, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_n1_manual_sum(self, cov):
        u = 2.5
        e1 = cov.axes[0](1.0)
        e2 = cov.axes[1](1.0)
        terms = [
            e2 * math.exp(-u * u / (1 + e2)),        # offset (0, 1)
            e1 * math.exp(-u * u / (1 + e1)),        # offset (1, 0)
            e1 * e2 * math.exp(-u * u / (1 + e1 * e2)),  # offset (1, 1)
        ]
        rep = berman_bound(cov, 1, u)
        assert rep.total == pytest.approx(4.0 * rep.L * 1 * sum(terms), rel=1e-12)

    def test_partition_sums(self, cov):
        rep = berman_bound(cov, 30, 3.0)
        assert rep.sigma1 + rep.sigma2 == pytest.approx(rep.total, rel=1e-12)
        assert rep.a_lo == math.ceil(30**rep.alpha)

    def test_two_methods_agree(self, cov):
        n = 80
        u = levels_u(1.0, n)
        direct = berman_bound(cov, n, u, method="direct").total
        factored = berman_bound(cov, n, u, method="factored").total
        assert abs(direct - factored) <= 1e-10

    def test_alpha_default_in_admissible_range(self, cov):
        rep = berman_bound(cov, 10, 3.0)
        hi = (1.0 - 3.0 * rep.delta) / (1.0 + rep.delta)
        assert 0.0 < rep.alpha < hi

    def test_rejects_bad_args(self, cov):
        with pytest.raises(ValueError):
            berman_bound(cov, 5, 0.0)
        with pytest.raises(ValueError):
            berman_bound(cov, 0, 1.0)


class TestBoundVsEmpirical:
    def test_example_field_dominated(self, cov):
        model = GaussianSeparableField(cov)
        rep = bound_vs_empirical(model, 20, levels_u(1.0, 20), reps=800, seed=23)
        assert rep.verdict
        assert rep.gap <= rep.bound + 3.0 * rep.se

    def test_near_iid_field_tiny_bound(self):
        spike = CharacteristicPolygon(
            knots_t=np.array([0.0, 1.0]), knots_v=np.array([1.0, 1e-12])
        )
        model = GaussianSeparableField(SeparableCovariance(axes=(spike, spike)))
        rep = bound_vs_empirical(model, 10, 3.0, reps=800, seed=24)
        assert rep.bound < 1e-9
        assert rep.verdict  # gap is pure MC noise around 0

    def test_low_level_degenerate(self, cov):
        model = GaussianSeparableField(cov)
        rep = bound_vs_empirical(model, 10, 0.5, reps=300, seed=25)
        assert rep.p_hat == 0.0
        assert rep.target < 1e-12
        assert rep.verdict
