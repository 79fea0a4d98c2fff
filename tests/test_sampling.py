import concurrent.futures
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dpotrf
from scipy.special import log_ndtr, ndtr, ndtri
from scipy.stats import ks_2samp, norm, uniform

from phantomfields import (
    CharacteristicPolygon,
    FactorizationError,
    GammaPair,
    GaussianSeparableField,
    IIDField,
    MovingMaxField,
    TwoAtomInnovations,
    build_eta1,
    build_eta2,
    covariance_at,
    equicorrelated_maxes,
    equicorrelated_max_cdf,
    example_covariance,
    replication_rng,
)
from phantomfields import sampling
from phantomfields.covariance import SeparableCovariance
from phantomfields.lattice import curve_psi_example
from phantomfields.sampling import EmbeddingError, _corner_maxes, _corner_plan, _NormalMarginal, _UniformMarginal, toeplitz_cholesky


def toeplitz_target(poly, n):
    c = np.asarray(poly(np.arange(n, dtype=np.float64)))
    idx = np.arange(n)
    return c[np.abs(np.subtract.outer(idx, idx))]


class UnitNormals:
    """A stand-in generator whose one-call fill of (count, *inputs) returns the next ``count`` rows of the identity."""

    def __init__(self, size: int):
        self.size, self.calls = size, 0

    def standard_normal(self, shape):
        count = shape[0]
        rows = np.eye(self.size)[self.calls : self.calls + count]
        self.calls += count
        return rows.reshape(shape)


def implied_covariance(field, dims) -> np.ndarray:
    """A A^T for the linear map A from a replication's input normals to its field on ``dims``."""
    M, N = math.prod(field.dilated(dims)), math.prod(dims)
    # replication r reads the unit vector e_r, so its field is column r of A
    A = field._batch(dims, UnitNormals(M), M).reshape(M, N).T
    return A @ A.T


def chunk_reps(monkeypatch, model, dims, reps):
    """Make ``model.batches`` on ``dims`` draw ``reps`` replications per chunk: two input blocks and one output block each."""
    per_rep = 8 * (2 * math.prod(model.dilated(dims)) + math.prod(dims))
    monkeypatch.setattr(sampling, "CHUNK_BYTES", reps * per_rep)


@pytest.fixture(scope="module")
def cov():
    return example_covariance()


@pytest.fixture(scope="module")
def gauss(cov):
    return GaussianSeparableField(cov)


class TestGaussianSampler:
    def test_single_cell_marginal(self, gauss):
        # dims (1, 1): one N(0,1) variate per substream
        reps = 100_000
        maxes = gauss.block_maxes((1, 1), reps, seed=11)
        assert abs(maxes.mean()) < 4.0 / math.sqrt(reps)
        assert abs(maxes.std() - 1.0) < 0.02

    def test_lag_one_correlation(self, gauss, cov):
        # the (2, 1) rectangle holds a pair with correlation eta1(1)
        reps = 100_000
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, reps, 1))
        x = gauss._transform(z, gauss.factors((2, 1)))
        pair = x[:, :, 0].T
        corr = np.corrcoef(pair[:, 0], pair[:, 1])[0, 1]
        assert abs(corr - covariance_at(cov, (1, 0))) < 0.01

    def test_pairwise_covariances_3x3(self, gauss, cov):
        reps = 100_000
        rng = np.random.default_rng(42)
        z = rng.standard_normal((3, reps, 3))
        x = gauss._transform(z, gauss.factors((3, 3))).transpose(1, 0, 2).reshape(reps, 9)
        emp = (x.T @ x) / reps
        cells = [(i, j) for i in range(3) for j in range(3)]
        for a, (i1, j1) in enumerate(cells):
            for b, (i2, j2) in enumerate(cells):
                r = covariance_at(cov, (i1 - i2, j1 - j2))
                se = math.sqrt((1.0 + r * r) / reps)
                assert abs(emp[a, b] - r) < 5.0 * se

    def test_reproducible(self, gauss):
        draw = lambda seed: gauss.sample_values((6, 7), np.random.default_rng(seed))
        a = draw(99)
        assert np.array_equal(a, draw(99))
        assert not np.array_equal(a, draw(100))

    @pytest.mark.parametrize("kind", ["gaussian_separable", "moving_max", "iid", "gaussian_circulant", "two_atom"])
    def test_chunk_invariance_long_axis(self, gauss, kind, monkeypatch):
        model = {
            "gaussian_separable": gauss,
            "gaussian_circulant": gauss,
            "moving_max": MovingMaxField((2, 3), uniform()),
            "iid": IIDField(uniform()),
            "two_atom": MovingMaxField((2, 3), TwoAtomInnovations(lo=-1.0, hi=2.0, p_lo=0.7)),
        }[kind]
        dims, reps = (300, 4), 100
        if kind == "gaussian_circulant":
            # axis 0 through its circulant embedding, axis 1 through its Schur factor
            monkeypatch.setattr(sampling, "FFT_MIN_N", 300)
            assert model.dilated(dims) == (600, 4)
        chunk_reps(monkeypatch, model, dims, 16)
        ref = model.block_maxes(dims, reps, seed=3)
        for chunk in (7, 256):
            chunk_reps(monkeypatch, model, dims, chunk)
            assert np.array_equal(model.block_maxes(dims, reps, seed=3), ref)
        rng = np.random.default_rng(3)
        single = [model.sample_values(dims, rng).max() for _ in range(reps)]
        assert np.array_equal(np.array(single), ref)

    @pytest.mark.parametrize("kind", ["gaussian_separable", "moving_max", "iid"])
    def test_chunk_rounding_at_20x20(self, gauss, kind, monkeypatch):
        # BLAS picks its kernel by a product's size, so the rounding of a
        # Gaussian replication can depend on its place in the chunk: its draws
        # agree to within 4 ulps of the largest value; iid and moving-max
        # draws bit for bit
        model = TestNestedMaxes.model(kind, gauss)
        dims, reps = (20, 20), 64

        def draws(chunk):
            chunk_reps(monkeypatch, model, dims, chunk)
            return np.concatenate(list(model.batches(dims, reps, seed=12)))

        ref = draws(8)
        for chunk in (1, 7, 16):
            got = draws(chunk)
            if kind == "gaussian_separable":
                assert np.max(np.abs(got - ref)) <= 4 * np.spacing(np.max(np.abs(ref)))
            else:
                assert np.array_equal(got, ref)

    def test_block_maxes_keeps_its_reduction(self, gauss, monkeypatch):
        # block_maxes is nested_maxes on one rectangle; the values are the
        # per-chunk reduction it always was, bit for bit
        models = (gauss, MovingMaxField((2, 3), uniform()), IIDField(uniform()))
        for model, dims in zip(models, ((9, 5), (6, 4), (3, 7))):
            for chunk in (7, 256):
                chunk_reps(monkeypatch, model, dims, chunk)
                parts = [x.max(axis=(1, 2)) for x in model.batches(dims, 50, 8)]
                assert np.array_equal(model.block_maxes(dims, 50, seed=8), np.concatenate(parts))

    def test_one_resolution_per_draw(self, cov, monkeypatch):
        # a draw resolves each axis's factor once, not once per chunk
        calls = []
        schur = sampling.toeplitz_cholesky
        monkeypatch.setattr(sampling, "toeplitz_cholesky", lambda poly, n, axis=0: calls.append(axis) or schur(poly, n, axis))
        model, dims = GaussianSeparableField(cov), (20, 20)
        chunk_reps(monkeypatch, model, dims, 4)
        assert len(list(model.batches(dims, 20, seed=1))) == 5
        calls.clear()
        model.block_maxes(dims, 20, seed=1)
        assert sorted(calls) == [0, 1]

    def test_degenerate_polygon_rejected(self):
        flat = CharacteristicPolygon(
            knots_t=np.array([0.0, 1.0]), knots_v=np.array([1.0, 1.0])
        )
        bad = SeparableCovariance(axes=(flat, flat))
        with pytest.raises(FactorizationError) as err:
            GaussianSeparableField(bad).sample_values((3, 3), np.random.default_rng(0))
        assert err.value.axis == 0
        assert err.value.minor == 2

    def test_minor_matches_lapack(self):
        # concave, so not a Polya polygon: T is positive definite up to order 2 only
        bad = CharacteristicPolygon(
            knots_t=np.array([0.0, 1.0, 2.0]), knots_v=np.array([1.0, 0.9, 0.5])
        )
        n = 6
        _, info = dpotrf(toeplitz_target(bad, n), lower=1)
        assert info > 2
        with pytest.raises(FactorizationError) as err:
            toeplitz_cholesky(bad, n, axis=1)
        assert err.value.axis == 1
        assert err.value.minor == info

    def test_flat_polygon_is_one_repeated_variable_on_a_circulant_axis(self, monkeypatch):
        # the all-ones Toeplitz matrix has no Cholesky factor (leading minor 2),
        # but its embedding's spectrum (m, 0, ..., 0) is singular and
        # nonnegative: the circulant axis repeats one N(0, 1) variable, exactly
        flat = CharacteristicPolygon(knots_t=np.array([0.0, 1.0]), knots_v=np.array([1.0, 1.0]))
        field = GaussianSeparableField(SeparableCovariance(axes=(flat, flat)))
        monkeypatch.setattr(sampling, "FFT_MIN_N", 3)
        assert np.max(np.abs(implied_covariance(field, (3, 4)) - 1.0)) <= 1e-12
        x = field.sample_values((3, 4), np.random.default_rng(0))
        assert np.max(np.abs(x - x[0, 0])) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 7])
    def test_inputs_fill_dims_in_c_order_with_a_circulant_first_axis(self, gauss, cov, seed, monkeypatch):
        # axis 0 circulant and axis 1 Schur: the block of (m, 3) normals is
        # read in C order over the axes of dims, as every model's block is
        monkeypatch.setattr(sampling, "FFT_MIN_N", 5)
        dims = (10, 3)
        m = sampling.embedding_length(dims[0])
        assert gauss.dilated(dims) == (m, 3)
        z = np.random.default_rng(seed).standard_normal((1, m, 3))[0]
        lines = sampling._circulant(z.T.copy(), sampling.circulant_weights(cov.axes[0], dims[0]), dims[0]).T
        expected = lines @ toeplitz_cholesky(cov.axes[1], dims[1]).T
        got = gauss.sample_values(dims, np.random.default_rng(seed))
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_negative_eigenvalue_names_axis_and_value(self, cov, monkeypatch):
        # concave, so not a Polya polygon: c = (1, 0.9, 0.5, 0.5, ...) has the
        # eigenvalues 0.5 + 0.8 cos(2 pi k / m) away from k = 0, -0.3 at k = m/2
        bad = CharacteristicPolygon(
            knots_t=np.array([0.0, 1.0, 2.0]), knots_v=np.array([1.0, 0.9, 0.5])
        )
        n = 40
        m = sampling.embedding_length(n)
        j = np.arange(m)
        row = bad(np.minimum(j, m - j).astype(np.float64))
        lowest = np.linalg.eigvalsh(row[(j[None, :] - j[:, None]) % m]).min()
        assert lowest < -0.29
        monkeypatch.setattr(sampling, "FFT_MIN_N", n)
        field = GaussianSeparableField(SeparableCovariance(axes=(cov.axes[1], bad)))
        with pytest.raises(EmbeddingError) as err:
            field.sample_values((3, n), np.random.default_rng(0))
        assert isinstance(err.value, FactorizationError)
        assert err.value.axis == 1
        assert abs(err.value.eigenvalue - lowest) <= 1e-12
        assert str(err.value) == f"axis 1 circulant embedding is not nonnegative definite (eigenvalue {lowest:.6g})"

    def test_stationarity_shifted_block(self, gauss):
        # M over [1..4]^2 vs the same block anchored at (3, 3), independent runs
        reps = 1500
        a = np.empty(reps)
        b = np.empty(reps)
        for r in range(reps):
            a[r] = gauss.sample_values((4, 4), replication_rng(21, r)).max()
            x = gauss.sample_values((6, 6), replication_rng(22, r))
            b[r] = x[2:6, 2:6].max()
        assert ks_2samp(a, b).pvalue > 1e-3


class TestGaussianExactness:
    """Deterministic checks of the factor and the chunk transform."""

    @pytest.mark.parametrize("n", [1, 2, 3, 28, 29, 587, 2019])
    def test_schur_factor_matches_lapack(self, cov, n):
        for poly in cov.axes:
            L = toeplitz_cholesky(poly, n)
            ref, info = dpotrf(toeplitz_target(poly, n), lower=1, clean=1)
            assert info == 0
            assert np.max(np.abs(L - ref)) <= 1e-12

    @pytest.mark.parametrize(
        "dims, model",
        [
            ((5, 4), "d2"),
            ((1, 3), "d2"),
            ((7, 1), "d2"),
            ((300, 3), "d2"),
            ((4, 3, 5), "d3"),
            ((4, 5), "d2"),
        ],
    )
    def test_implied_covariance_is_target(self, cov, dims, model, monkeypatch):
        if model == "d3":
            axes = (build_eta1(0.26), build_eta2(0.10), build_eta1(0.26))
            cov = SeparableCovariance(axes=axes, gammas=GammaPair(0.26, 0.10))
        field = GaussianSeparableField(cov)
        target = np.ones((1, 1))
        for poly, n in zip(cov.axes, dims):
            target = np.kron(target, toeplitz_target(poly, n))
        # every axis through its Schur factor, the longest axes through their
        # circulant embedding and the others through their factor, then every
        # axis through its embedding; the Schur products in tiles of one line,
        # of an uneven 3 lines, and of one tile wider than every axis
        for block, fft_min_n in itertools.product((1, 3, 2 * max(dims)), (sampling.FFT_MIN_N, max(dims), 1)):
            monkeypatch.setattr(sampling, "PRODUCT_BLOCK", block)
            monkeypatch.setattr(sampling, "FFT_MIN_N", fft_min_n)
            assert np.max(np.abs(implied_covariance(field, dims) - target)) <= 1e-12, (block, fft_min_n)

    def test_embedding_length(self):
        smooth = lambda m: m == 1 or any(m % p == 0 and smooth(m // p) for p in (2, 3, 5))
        for n in range(1, 1200):
            m = sampling.embedding_length(n)
            assert m >= max(2, 2 * (n - 1)) and m % 2 == 0 and smooth(m), n
            assert not any(smooth(k) for k in range(max(2, 2 * (n - 1)), m, 2)), n
        assert sampling.embedding_length(72382) == 145800

    def test_crossover_splits_the_skewed_points(self, gauss):
        # the benchmark's two curve points: (587, 8) stays on the Schur
        # factors, axis 0 of (2019, 9) is drawn through its embedding
        assert gauss.dilated((587, 8)) == (587, 8)
        assert gauss.dilated((2019, 9)) == (4050, 9)

    def test_psi_million_draws_without_a_dense_factor(self, gauss, monkeypatch):
        # the dense factor of axis 0 at psi(10^6) would take 42 GB: a draw that
        # asks for one fails here at once
        schur = sampling.toeplitz_cholesky

        def short_only(poly, n, axis=0):
            if n >= sampling.FFT_MIN_N:
                raise AssertionError(f"a draw asked for the dense factor of order {n}")
            return schur(poly, n, axis)

        monkeypatch.setattr(sampling, "toeplitz_cholesky", short_only)
        dims = curve_psi_example()(10**6)
        assert dims == (72382, 13)
        assert gauss.dilated(dims) == (145800, 13)
        one_input = 8 * 145800 * 13
        maxes = []
        peak = traced_peak(lambda: maxes.append(gauss.block_maxes(dims, 2, seed=5)))
        assert maxes[0].shape == (2,) and np.all(np.isfinite(maxes[0]))
        assert peak <= 4 * one_input


class TestNestedMaxes:
    RECTS = [(5, 3), (2, 2), (7, 4), (7, 1), (1, 4)]  # the largest, (7, 4), is listed third

    @staticmethod
    def model(kind, gauss):
        return {
            "gaussian_separable": gauss,
            "moving_max": MovingMaxField((2, 3), uniform()),
            "iid": IIDField(uniform()),
        }[kind]

    @pytest.mark.parametrize("kind", ["gaussian_separable", "moving_max", "iid"])
    def test_rows_are_corners_of_one_draw(self, gauss, kind):
        model = self.model(kind, gauss)
        got = model.nested_maxes(self.RECTS, 30, seed=4)
        assert got.shape == (len(self.RECTS), 30)
        rng = np.random.default_rng(4)
        for r in range(30):
            field = model.sample_values((7, 4), rng)
            assert np.array_equal(got[:, r], [field[:a, :b].max() for a, b in self.RECTS])

    @pytest.mark.parametrize("kind", ["gaussian_separable", "moving_max", "iid"])
    def test_chunk_invariance(self, gauss, kind, monkeypatch):
        model = self.model(kind, gauss)
        ref = model.nested_maxes(self.RECTS, 40, seed=6)  # the default chunk holds all 40
        for chunk in (1, 2, 7, 16, 256):
            chunk_reps(monkeypatch, model, (7, 4), chunk)
            assert np.array_equal(model.nested_maxes(self.RECTS, 40, seed=6), ref), chunk

    @pytest.mark.parametrize("kind", ["gaussian_separable", "moving_max", "iid"])
    def test_chunk_invariance_along_a_curve_that_stalls(self, gauss, kind, monkeypatch):
        # psi's 1998 rectangles to 2000 repeat most lengths (262 distinct on
        # axis 0, 7 on axis 1); 60 replications are two default chunks. The
        # Gaussian draws agree within the module's 2 ulps of the largest value
        model = self.model(kind, gauss)
        rects = curve_psi_example().table(2000)
        ref = model.nested_maxes(rects, 60, seed=5)
        for chunk in (1, 2, 7):
            chunk_reps(monkeypatch, model, tuple(rects.max(axis=0)), chunk)
            got = model.nested_maxes(rects, 60, seed=5)
            if kind == "gaussian_separable":
                assert np.max(np.abs(got - ref)) <= 2 * np.spacing(np.max(np.abs(ref))), chunk
            else:
                assert np.array_equal(got, ref), chunk

    def test_contained_rectangle_never_above(self, gauss):
        squares = [(n, n) for n in (2, 4, 8, 16)]
        for model in (gauss, MovingMaxField((2, 2), uniform()), IIDField(norm())):
            m = model.nested_maxes(squares, 200, seed=9)
            assert np.all(np.diff(m, axis=0) >= 0)
            strict = [np.any(np.diff(m, axis=0)[i] > 0) for i in range(len(squares) - 1)]
            assert all(strict)  # the rows are not one copied row

    def test_largest_rectangle_row_is_block_maxes(self, gauss):
        m = gauss.nested_maxes([(4, 4), (12, 12)], 100, seed=2)
        assert np.array_equal(m[1], gauss.block_maxes((12, 12), 100, seed=2))

    @pytest.mark.parametrize("rects", [[], [(3, 3), (3,)], [(3, 0)]])
    def test_rejects_bad_rectangles(self, gauss, rects):
        with pytest.raises(ValueError):
            gauss.nested_maxes(rects, 10, seed=1)


def corner_maxes_reference(x, rects):
    """The per-corner reference: a separate max over each rectangle's corner of each replication, shape (P, R)."""
    axes = tuple(range(1, x.ndim))
    return np.stack([x[(slice(None),) + tuple(slice(0, n) for n in r)].max(axis=axes) for r in rects])


@st.composite
def chunks_and_rects(draw):
    """A chunk (R, *box) of d <= 3 with ties, laid out in any axis order, and rectangles in the box.

    The rectangles come in any order, may repeat, and may be the box alone.
    """
    d = draw(st.integers(1, 3))
    box = draw(st.tuples(*[st.integers(1, 6)] * d))
    rect = st.tuples(*[st.integers(1, n) for n in box])
    rects = draw(st.one_of(st.just([box]), st.lists(rect, min_size=1, max_size=8)))
    rects = rects + rects[:1] * draw(st.integers(0, 1))
    shape = (draw(st.integers(1, 4)),) + box
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 4, shape).astype(np.float64)
    perm = draw(st.permutations(range(d + 1)))
    return np.ascontiguousarray(x.transpose(perm)).transpose(np.argsort(perm)), np.array(rects)


class TestCornerMaxes:
    """``_corner_maxes``, the one reduction behind every nested maximum, against the per-corner reference."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(chunks_and_rects())
    def test_equals_the_per_corner_maxima(self, case):
        x, rects = case
        before = x.copy()
        got = _corner_maxes(x, _corner_plan(rects))
        assert got.shape == (len(rects), len(x))
        assert np.array_equal(got, corner_maxes_reference(x, rects))
        assert np.array_equal(x, before)  # the chunk is read, not written

    def test_psi_table_rows_are_corners_of_sample_values_draws(self, gauss):
        rects = curve_psi_example().table(300)
        box = tuple(int(n) for n in rects.max(axis=0))
        got = gauss.nested_maxes(rects, 12, seed=8)
        rng = np.random.default_rng(8)
        draws = np.stack([gauss.sample_values(box, rng) for _ in range(12)])
        assert np.array_equal(got, corner_maxes_reference(draws, rects))


class CountingNormals:
    """A stand-in generator that counts its fills and returns zeros."""

    def __init__(self):
        self.fills = 0

    def standard_normal(self, shape):
        self.fills += 1
        return np.zeros(shape)


class Boom(Exception):
    pass


class FailingMarginal:
    """The uniform law, whose ``rvs`` raises ``error`` from its ``after``-th call on."""

    def __init__(self, after: int):
        self.after, self.calls, self.error = after, 0, Boom("rvs failed")

    def rvs(self, size=None, random_state=None):
        self.calls += 1
        if self.calls > self.after:
            raise self.error
        return random_state.random(size)


def no_submit(*args, **kwargs):
    raise AssertionError("a draw was submitted to the worker")


class TestReadAhead:
    """batches draws every chunk on one worker thread, chunk k + 1 while the caller finishes chunk k."""

    RECTS = TestNestedMaxes.RECTS
    BOX = (7, 4)

    @pytest.mark.parametrize("chunk", [1, 2, 7, None])
    def test_gaussian_chunks_are_the_serial_draws(self, gauss, chunk, monkeypatch):
        # each chunk is the one a serial _batch on the same stream gives, bit
        # for bit, and a fresh array: keeping every chunk changes none of them
        dims, reps = (300, 4), 20
        if chunk is not None:
            chunk_reps(monkeypatch, gauss, dims, chunk)
        chunks = list(gauss.batches(dims, reps, seed=3))
        rng = np.random.default_rng(3)
        serial = [gauss._batch(dims, rng, len(x)) for x in chunks]
        assert sum(map(len, chunks)) == reps
        assert all(np.array_equal(x, y) for x, y in zip(chunks, serial))
        assert not any(np.shares_memory(x, y) for x, y in zip(chunks, chunks[1:]))
        rects = [(300, 4), (17, 3)]
        maxes = [[x[:, :a, :b].max(axis=(1, 2)) for a, b in rects] for x in serial]
        assert np.array_equal(gauss.nested_maxes(rects, reps, seed=3), np.concatenate(maxes, axis=1))

    @pytest.mark.parametrize("after", [0, 5])
    def test_error_in_draw_reaches_the_caller_unchanged(self, after, monkeypatch):
        # after=0 fails in chunk 0, after=5 in chunk 5 (one rvs call per chunk)
        model = IIDField(FailingMarginal(after=after))
        chunk_reps(monkeypatch, model, self.BOX, 2)
        before = threading.active_count()
        with pytest.raises(Boom) as err:
            model.nested_maxes(self.RECTS, 20, seed=1)
        assert err.value is model.innovations.error
        assert threading.active_count() == before

    def test_no_replications_start_no_thread(self, gauss, monkeypatch):
        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", no_submit)
        assert list(gauss.batches(self.BOX, 0, seed=1)) == []
        assert gauss.block_maxes(self.BOX, 0, seed=1).shape == (0,)

    @pytest.mark.parametrize("how", ["raise", "close"])
    def test_consumer_that_stops_leaves_no_worker(self, gauss, how, monkeypatch):
        chunk_reps(monkeypatch, gauss, self.BOX, 2)
        before = threading.active_count()
        if how == "close":
            chunks = gauss.batches(self.BOX, 20, seed=1)
            next(chunks), next(chunks)
            assert threading.active_count() == before + 1
            chunks.close()
        else:
            with pytest.raises(Boom):
                for i, _ in enumerate(gauss.batches(self.BOX, 20, seed=1)):
                    if i == 1:
                        raise Boom
        assert threading.active_count() == before

    @pytest.mark.parametrize("error", [FactorizationError, EmbeddingError])
    def test_bad_axis_fails_before_the_first_draw(self, cov, error, monkeypatch):
        # a polygon with no Schur factor, or (concave) a negative embedding eigenvalue
        if error is EmbeddingError:
            bad = CharacteristicPolygon(knots_t=np.array([0.0, 1.0, 2.0]), knots_v=np.array([1.0, 0.9, 0.5]))
            monkeypatch.setattr(sampling, "FFT_MIN_N", 40)
        else:
            bad = CharacteristicPolygon(knots_t=np.array([0.0, 1.0]), knots_v=np.array([1.0, 1.0]))
        field = GaussianSeparableField(SeparableCovariance(axes=(cov.axes[1], bad)))
        stream = CountingNormals()
        monkeypatch.setattr(np.random, "default_rng", lambda seed: stream)
        with pytest.raises(error):
            field.nested_maxes([(3, 40)], 50, seed=0)
        assert stream.fills == 0


MARGINAL_PAIRS =[(_UniformMarginal(), uniform()), (_NormalMarginal(), norm())]


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkMemory:
    """A draw holds one chunk of about CHUNK_BYTES, whatever reps and the rectangle."""

    @pytest.mark.parametrize(
        "kind, dims, factor",
        [
            ("gaussian_separable", (160, 160), 1.5),
            ("gaussian_separable", (2019, 9), 1.5),  # axis 0 through its circulant embedding
            ("iid", (160, 160), 1.5),
            ("moving_max", (160, 160), 5.0),  # the innovations and the window-max passes
        ],
    )
    def test_block_maxes_peak_is_a_chunk_multiple(self, gauss, kind, dims, factor):
        model = TestNestedMaxes.model(kind, gauss)
        model.block_maxes(dims, 1, seed=0)  # the cached axis factors are not part of a chunk
        assert traced_peak(lambda: model.block_maxes(dims, 600, seed=1)) <= factor * sampling.CHUNK_BYTES

    @pytest.mark.parametrize("kind, factor", [("gaussian_separable", 1.5), ("moving_max", 5.0), ("iid", 1.5)])
    def test_tiny_rectangle_holds_no_per_replication_objects(self, gauss, kind, factor, monkeypatch):
        # a chunk on (1, 1) is thousands of replications: a generator object or
        # an array per replication would outweigh the draws themselves
        monkeypatch.setattr(sampling, "CHUNK_BYTES", 1 << 16)
        model = TestNestedMaxes.model(kind, gauss)
        model.block_maxes((1, 1), 1, seed=0)
        assert traced_peak(lambda: model.block_maxes((1, 1), 2000, seed=1)) <= factor * sampling.CHUNK_BYTES

    def test_psi_table_peak_above_the_output_is_a_chunk_multiple(self, gauss):
        # 19998 rectangles off one (2019, 9) box: 0.90 x CHUNK_BYTES measured
        # above the (19998, 256) output, 3.7 x for a separate max per corner
        rects = curve_psi_example().table(20000)
        gauss.nested_maxes(rects, 1, seed=0)
        peak = traced_peak(lambda: gauss.nested_maxes(rects, 256, seed=1))
        assert peak - 8 * len(rects) * 256 <= 1.5 * sampling.CHUNK_BYTES


class TestSharedFactors:
    """While a model holds a polygon, an equal gamma gets it: one read-only factor and spectrum per axis law and length."""

    def test_models_of_an_equal_gamma_pair_share_the_factor(self):
        from phantomfields import cli

        dims = (2019, 9)
        first = GaussianSeparableField(example_covariance())
        models = [
            GaussianSeparableField(example_covariance()),
            GaussianSeparableField(cli._example_covariance(cli.SECTORIAL_DEFAULTS)),
        ]
        ref = first.factors(dims)
        for model in models:
            assert all(a is b for a, b in zip(model.factors(dims), ref))
            assert sampling.circulant_weights(model.cov.axes[0], dims[0]) is sampling.circulant_weights(
                first.cov.axes[0], dims[0]
            )

    def test_another_gamma_does_not_share(self):
        # eta1 is a function of gamma1 alone, eta2 of gamma2 alone
        dims = (30, 9)
        models = [
            GaussianSeparableField(example_covariance(g))
            for g in (GammaPair(0.26, 0.10), GammaPair(0.27, 0.10), GammaPair(0.26, 0.11))
        ]
        ref, other1, other2 = (m.factors(dims) for m in models)
        assert other1[0] is not ref[0] and other1[1] is ref[1]
        assert other2[0] is ref[0] and other2[1] is not ref[1]
        assert not np.array_equal(other1[0], ref[0]) and not np.array_equal(other2[1], ref[1])

    def test_a_second_model_builds_no_factor(self):
        # the dense factor of axis 0 at (2019, 9) is 32.6 MB; a second model only reads it
        dims = (2019, 9)
        first = GaussianSeparableField(example_covariance())
        first.factors(dims)
        second = GaussianSeparableField(example_covariance())
        assert traced_peak(lambda: second.factors(dims)) < 1 << 20

    def test_the_last_model_frees_its_polygons(self):
        # nothing is kept past the models: the next model builds afresh
        import weakref

        gammas = GammaPair(0.27, 0.11)
        model = GaussianSeparableField(example_covariance(gammas))
        model.factors((30, 9))
        refs = [weakref.ref(ax) for ax in model.cov.axes]
        del model
        assert all(r() is None for r in refs)
        again = example_covariance(gammas)
        assert all(ax._chol_cache == {} for ax in again.axes)

    def test_cached_maps_are_read_only(self, gauss, cov):
        dims = (20, 3)
        before = gauss.block_maxes(dims, 50, seed=3)
        ax = cov.axes[0]
        maps = gauss.factors(dims) + [sampling.circulant_weights(ax, 2019), ax.knots_t, ax.knots_v]
        for a in maps:
            with pytest.raises(ValueError):
                a[0] = 2.0
        assert np.array_equal(gauss.block_maxes(dims, 50, seed=3), before)


class TestBuiltinMarginals:
    """The marginals the CLI builds give scipy.stats' values without importing it."""

    @pytest.mark.parametrize("ours, theirs", MARGINAL_PAIRS)
    def test_rvs_bit_identical(self, ours, theirs):
        for seed in (0, 7, 20240901):
            for size in (None, 5, (3, 4), (2, 3, 4)):
                a = ours.rvs(size=size, random_state=np.random.default_rng(seed))
                b = theirs.rvs(size=size, random_state=np.random.default_rng(seed))
                assert np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("law", [_UniformMarginal(), _NormalMarginal(), TwoAtomInnovations(p_lo=0.3), uniform()])
    def test_one_call_is_the_calls_in_turn(self, law):
        # FieldModel._draw reads a chunk in one rvs call on (count, *shape):
        # the values and the generator state after it are those of count calls
        for count, shape in [(1, (3,)), (4, (2, 3)), (3, (1, 1, 5))]:
            one, turns = np.random.default_rng(5), np.random.default_rng(5)
            a = law.rvs(size=(count,) + shape, random_state=one)
            b = np.stack([law.rvs(size=shape, random_state=turns) for _ in range(count)])
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
            assert one.bit_generator.state == turns.bit_generator.state

    # the uniform law bit for bit; the normal law is checked against bounds below
    @pytest.mark.parametrize("ours, theirs", MARGINAL_PAIRS[:1])
    def test_cdf_and_ppf_equal(self, ours, theirs):
        x = np.concatenate([np.linspace(-3.0, 4.0, 701), [0.0, 1.0, -1e300, 1e300, -np.inf, np.inf]])
        assert np.array_equal(ours.cdf(x), theirs.cdf(x))
        q = np.concatenate([np.linspace(0.0, 1.0, 1001), [1e-300, 1.0 - 1e-16]])
        assert np.array_equal(ours.ppf(q), theirs.ppf(q)) and np.array_equal(ours.isf(q), theirs.isf(q))
        assert ours.cdf(0.25) == theirs.cdf(0.25) and ours.ppf(0.25) == theirs.ppf(0.25)

    @pytest.mark.parametrize("dims", [(1,), (4, 5), (200, 200)])
    def test_block_level_holds_both_tails(self, dims):
        # the gamma-level of the block max of m normals, against scipy's log-cdf:
        # gamma^(1/m) is tiny in the lower tail and rounds to 1 in the upper one
        model, m = IIDField(_NormalMarginal()), math.prod(dims)
        for gamma in (1e-12, 1e-3, 0.5, 1.0 - 1e-3):
            v = model.exact_block_level(dims, gamma)
            assert abs(math.exp(m * log_ndtr(v)) / gamma - 1.0) <= 1e-9, gamma
        gamma = 1.0 - 1e-12  # 1 - gamma is exact in floating point, 1e-12 is not
        v = model.exact_block_level(dims, gamma)
        assert abs(-math.expm1(m * log_ndtr(v)) / (1.0 - gamma) - 1.0) <= 1e-9

    def test_normal_law_within_measured_bounds(self):
        # the erfc form and AS 241 against scipy.special as the oracle. Each
        # bound is the largest relative difference measured on these grids,
        # rounded up; against 40-digit mpmath the erfc form errs by up to
        # 1.9e-13, 5.1e-14 and 3.3e-15 on the three cdf ranges, ndtr by 2.3e-13,
        # 6.0e-14 and 3.7e-15: both lose x^2 eps to the rounding of x / sqrt 2
        law = _NormalMarginal()
        within = lambda a, b, rel: np.all(np.abs(a - b) <= rel * np.abs(b))
        for lo, hi, rel in [(-37.5, -20.0, 4.4e-13), (-20.0, -5.0, 1.2e-13), (-5.0, 8.5, 8e-15)]:
            x = np.linspace(lo, hi, 20001)
            assert within(law.cdf(x), ndtr(x), rel), (lo, hi)
        for lo, hi, rel in [(-1e3, 0.0, 7e-16), (0.0, 5.0, 8e-15), (5.0, 37.5, 4.4e-13)]:
            # above 0 the log is -Phi(-x) to first order, so it carries cdf's lower-tail error
            x = np.linspace(lo, hi, 20001)
            assert within(law.log_cdf(x), log_ndtr(x), rel), (lo, hi)
        # above 37.7 log_ndtr reads 0, the erfc form a subnormal -Phi(-x)
        x = np.linspace(37.5, 40.0, 2001)
        assert np.all((law.log_cdf(x) <= 0.0) & (law.log_cdf(x) >= log_ndtr(x) - 1e-300))
        q = np.concatenate([np.logspace(-300, -1, 20001), np.linspace(0.1, 0.9, 20001), 1.0 - np.logspace(-16, -1, 20001)])
        assert within(law.ppf(q), ndtri(q), 1.1e-15) and within(law.isf(q), -ndtri(q), 1.1e-15)
        # the edges, exactly, as scalars and in arrays
        edges = np.array([-np.inf, np.inf, np.nan, 0.0])
        assert np.array_equal(law.cdf(edges), [0.0, 1.0, np.nan, 0.5], equal_nan=True)
        assert np.array_equal(law.log_cdf(edges), [-np.inf, 0.0, np.nan, math.log(0.5)], equal_nan=True)
        q = np.array([0.0, 1.0, 0.5, np.nan, -0.1, 1.1, -np.inf, np.inf])
        assert np.array_equal(law.ppf(q), [-np.inf, np.inf, 0.0, np.nan, np.nan, np.nan, np.nan, np.nan], equal_nan=True)
        assert law.ppf(0.0) == -np.inf and law.ppf(1.0) == np.inf and math.isnan(law.ppf(2.0))
        assert law.cdf(0.0) == 0.5 and np.ndim(law.cdf(0.25)) == np.ndim(law.log_cdf(0.25)) == np.ndim(law.ppf(0.25)) == 0


class TestMovingMax:
    def test_window_one_is_iid(self):
        # the same draws, block-max law and level as the i.i.d. field, in d = 1, 2, 3
        innov = uniform()
        iid = IIDField(innov)
        x = np.array([0.2, 0.9, 0.999])
        for dims in ((5,), (5, 3), (5, 3, 4)):
            mm = MovingMaxField((1,) * len(dims), innov)
            draws = lambda model: model.sample_values(dims, np.random.default_rng(7))
            assert np.array_equal(draws(mm), draws(iid))
            assert np.array_equal(mm.exact_block_max_cdf(dims, x), iid.exact_block_max_cdf(dims, x))
            assert np.array_equal(mm.exact_block_max_cdf(dims, x), x ** math.prod(dims))
            for gamma in (0.1, math.exp(-1.0), 0.9):
                assert mm.exact_block_level(dims, gamma) == iid.exact_block_level(dims, gamma)

    def test_marginal_is_window_power(self):
        mm = MovingMaxField((2, 2), uniform())
        x = np.array([0.3, 0.5, 0.9])
        # one site is the block (1, 1): the max of the 2 x 2 innovations of its window
        assert np.allclose(mm.exact_block_max_cdf((1, 1), x), x**4, atol=0)

    def test_exact_block_law_formula(self):
        mm = MovingMaxField((2, 2), uniform())
        n = 6
        x = 0.97
        assert mm.exact_block_max_cdf((n, n), x) == pytest.approx(x ** ((n + 1) ** 2), abs=0.0)
        # the level is read off the same dilated rectangle
        mm = MovingMaxField((2, 3), uniform())
        for dims in ((1, 1), (6, 4), (30, 2)):
            for gamma in (0.05, math.exp(-1.0), 0.9):
                v = mm.exact_block_level(dims, gamma)
                assert v == pytest.approx(gamma ** (1.0 / ((dims[0] + 1) * (dims[1] + 2))), rel=1e-15)
                assert mm.exact_block_max_cdf(dims, v) == pytest.approx(gamma, rel=1e-12)

    def test_empirical_matches_exact_law(self):
        mm = MovingMaxField((2, 2), uniform())
        dims, reps = (6, 6), 4000
        maxes = mm.block_maxes(dims, reps, seed=13)
        for x in (0.90, 0.95, 0.98):
            f = float(mm.exact_block_max_cdf(dims, x))
            tol = 3.0 * math.sqrt(f * (1.0 - f) / reps)
            assert abs(np.mean(maxes <= x) - f) <= tol

    def test_field_values_are_window_maxima(self):
        mm = MovingMaxField((2, 3), uniform())
        dims = (4, 5)
        rng = replication_rng(31, 0)
        x = mm.sample_values(dims, rng)
        # rebuild from the same innovations
        z = uniform().rvs(size=mm.dilated(dims), random_state=replication_rng(31, 0))
        for i in range(dims[0]):
            for j in range(dims[1]):
                assert x[i, j] == z[i : i + 2, j : j + 3].max()

    def test_two_atom_innovations(self):
        ta = TwoAtomInnovations(lo=-1.0, hi=2.0, p_lo=0.7)
        assert ta.cdf(-1.5) == 0.0
        assert ta.cdf(-1.0) == 0.7
        assert ta.cdf(0.0) == 0.7
        assert ta.cdf(2.0) == 1.0
        assert ta.ppf(0.5) == -1.0
        assert ta.ppf(0.9) == 2.0
        assert ta.isf(0.5) == -1.0 and ta.isf(0.2) == 2.0
        draws = ta.rvs(size=5000, random_state=np.random.default_rng(1))
        assert set(np.unique(draws)) == {-1.0, 2.0}
        assert abs(np.mean(draws == -1.0) - 0.7) < 0.03

    def test_stationarity_shifted_block(self):
        mm = MovingMaxField((2, 2), uniform())
        reps = 1500
        a = np.empty(reps)
        b = np.empty(reps)
        for r in range(reps):
            a[r] = mm.sample_values((3, 4), replication_rng(44, r)).max()
            x = mm.sample_values((8, 8), replication_rng(45, r))
            b[r] = x[4:7, 2:6].max()
        assert ks_2samp(a, b).pvalue > 1e-3


class TestEquicorrelated:
    def test_rho_zero_matches_iid_law(self):
        reps = 20_000
        n = 16
        m = equicorrelated_maxes(n, 0.0, reps, seed=8)
        for w in (1.5, 2.0, 2.5):
            f = ndtr(w) ** n
            tol = 3.0 * math.sqrt(f * (1.0 - f) / reps)
            assert abs(np.mean(m <= w) - f) <= tol

    def test_single_variable_any_rho(self):
        # variance (1 - rho) + rho = 1 for N = 1
        reps = 30_000
        m = equicorrelated_maxes(1, 0.6, reps, seed=9)
        assert abs(m.mean()) < 4.0 / math.sqrt(reps)
        assert abs(m.std() - 1.0) < 0.02

    def test_against_quadrature_oracle(self):
        reps = 100_000
        m = equicorrelated_maxes(100, 0.1, reps, seed=10)
        q = equicorrelated_max_cdf(100, 0.1, 2.5)
        assert abs(np.mean(m <= 2.5) - q) < 0.01

    def test_scalar_draw_reproducible(self):
        a = equicorrelated_maxes(50, 0.2, 1, seed=3)
        assert a.shape == (1,) and np.array_equal(a, equicorrelated_maxes(50, 0.2, 1, seed=3))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            equicorrelated_maxes(0, 0.1, 10, seed=1)
        with pytest.raises(ValueError):
            equicorrelated_maxes(10, 1.0, 10, seed=1)


def test_empty_rectangle_message_has_plain_ints(gauss):
    # a curve table row reached the check as numpy ints: "got (np.int64(0), np.int64(1))"
    with pytest.raises(ValueError, match=r"^dims must be >= 1 componentwise, got \(0, 1\)$"):
        gauss.sample_values(np.array([0, 1]), np.random.default_rng(0))
