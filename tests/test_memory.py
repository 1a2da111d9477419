"""Memory bank behavior: FIFO, short/long groups, similarity keys and scores, pruning."""

import copy
import dataclasses
import gc
import math
import pickle
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from oracles import METRIC_ORACLES
from vosmem import memory
from vosmem.core import FeatureMap
from vosmem.memory import (
    DEFAULT_CAPACITY,
    PRUNE_MODES,
    SIMILARITY_METRICS,
    MemoryBank,
    MemoryEntry,
    _argmax_frame,
    similarity,
)


def fmap(frame_index, values, channels=1, h=1, w=None):
    values = list(values)
    if w is None:
        w = len(values) // (channels * h)
    return FeatureMap(frame_index, np.reshape(values, (channels, h, w)))


def entry(frame_index, values, **kw):
    return MemoryEntry(frame_index, fmap(frame_index, values, **kw))


def random_entry(rng, frame_index, shape=(2, 3, 3)):
    return MemoryEntry(frame_index, FeatureMap(frame_index, rng.normal(size=shape)))


def full_bank(rng, capacity=DEFAULT_CAPACITY, start=0, step=1):
    bank = MemoryBank(capacity=capacity)
    for k in range(capacity):
        bank.append(random_entry(rng, start + k * step))
    return bank


class TestSimilarityExamples:
    def test_cosine_self_similarity_is_channel_count(self):
        rng = np.random.default_rng(0)
        a = FeatureMap(0, rng.normal(size=(4, 3, 3)))
        assert similarity("cosine", a, a) == pytest.approx(4.0, abs=1e-12)

    def test_cosine_two_channel_hand_case(self):
        # ch0: [1,0] vs [0,1] -> 0; ch1: [0,2] vs [0,1] -> 1
        a = fmap(0, [1.0, 0.0, 0.0, 2.0], channels=2, h=1, w=2)
        b = fmap(1, [0.0, 1.0, 0.0, 1.0], channels=2, h=1, w=2)
        assert similarity("cosine", a, b) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_zero_norm_channel_contributes_zero(self):
        a = fmap(0, [0.0, 0.0, 1.0, 1.0], channels=2, h=1, w=2)
        b = fmap(1, [1.0, 1.0, 1.0, 1.0], channels=2, h=1, w=2)
        assert similarity("cosine", a, b) == pytest.approx(1.0, abs=1e-12)

    def test_euclidean_three_four_five(self):
        a = fmap(0, [0.0, 0.0])
        b = fmap(1, [3.0, 4.0])
        assert similarity("euclidean", a, b) == -5.0

    def test_manhattan_negated_l1(self):
        a = fmap(0, [1.0, -2.0, 0.5])
        b = fmap(1, [0.0, 1.0, 0.5])
        assert similarity("manhattan", a, b) == -4.0

    def test_dot_is_plain_inner_product(self):
        a = fmap(0, [1.0, 2.0, 3.0])
        b = fmap(1, [4.0, -5.0, 6.0])
        assert similarity("dot", a, b) == 12.0

    def test_pearson_perfect_linear_relation(self):
        a = fmap(0, [1.0, 2.0, 3.0, 4.0])
        b = fmap(1, [10.0, 20.0, 30.0, 40.0])
        assert similarity("pearson", a, b) == pytest.approx(1.0, abs=1e-12)
        c = fmap(2, [4.0, 3.0, 2.0, 1.0])
        assert similarity("pearson", a, c) == pytest.approx(-1.0, abs=1e-12)

    def test_pearson_zero_variance_yields_zero(self):
        const = fmap(0, [2.0, 2.0, 2.0])
        other = fmap(1, [1.0, 2.0, 3.0])
        assert similarity("pearson", const, other) == 0.0

    @pytest.mark.parametrize("metric", ["pearson", "spearman"])
    def test_two_constant_maps_score_zero(self, metric):
        # zero variance on both sides, however the mean of each map rounds
        a = FeatureMap(0, np.full((4, 8, 8), 0.3))
        b = FeatureMap(1, np.full((4, 8, 8), 0.7))
        assert similarity(metric, a, b) == 0.0

    def test_spearman_monotone_but_nonlinear_is_one(self):
        a = fmap(0, [1.0, 2.0, 3.0, 4.0])
        b = fmap(1, [1.0, 8.0, 27.0, 64.0])
        assert similarity("spearman", a, b) == pytest.approx(1.0, abs=1e-12)

    def test_spearman_handles_ties_with_average_ranks(self):
        a = fmap(0, [1.0, 1.0, 2.0, 3.0])
        b = fmap(1, [5.0, 5.0, 6.0, 7.0])
        from oracles import spearman_oracle
        expected = spearman_oracle(a.data.tolist(), b.data.tolist())
        assert similarity("spearman", a, b) == pytest.approx(expected, abs=1e-12)

    def test_unknown_metric_rejected(self):
        a = fmap(0, [1.0])
        with pytest.raises(ValueError, match="unknown similarity metric"):
            similarity("chebyshev", a, a)

    def test_shape_mismatch_rejected(self):
        a = fmap(0, [1.0, 2.0])
        b = fmap(1, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="shapes differ"):
            similarity("cosine", a, b)


class TestSimilarityAgainstOracles:
    @pytest.mark.parametrize("metric", SIMILARITY_METRICS)
    def test_random_pairs_match_brute_force(self, metric):
        rng = np.random.default_rng(42)
        oracle = METRIC_ORACLES[metric]
        for _ in range(50):
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            a = rng.normal(size=(c, h, w))
            b = rng.normal(size=(c, h, w))
            fa, fb = FeatureMap(0, a), FeatureMap(1, b)
            assert similarity(metric, fa, fb) == pytest.approx(
                oracle(a.tolist(), b.tolist()), abs=1e-9)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("metric", SIMILARITY_METRICS)
    def test_bit_identical_to_oracles_with_or_without_cached_keys(self, metric, warm):
        # Small integers on a power-of-two element count keep every sum,
        # mean and centred value exact, so summation order cannot matter
        # and only the final divisions and square roots round, as in the
        # oracles.
        rng = np.random.default_rng(3)
        oracle = METRIC_ORACLES[metric]
        for shape in [(1, 4, 4), (2, 2, 4), (4, 2, 2), (4, 4, 4), (3, 8, 8)]:
            a = rng.integers(-3, 4, size=shape).astype(float)
            b = rng.integers(-3, 4, size=shape).astype(float)
            a[0] = 0.0  # a zero-norm channel
            fa, fb = FeatureMap(0, a), FeatureMap(1, b)
            if warm:
                for fm in (fa, fb):
                    memory._key(metric, fm)
            assert similarity(metric, fa, fb) == oracle(a.tolist(), b.tolist())
            assert similarity(metric, fb, fa) == oracle(b.tolist(), a.tolist())

    @pytest.mark.parametrize("metric", ["cosine", "pearson", "spearman"])
    def test_cached_keys_reproduce_per_pair_formulas(self, metric):
        # reference: each score computed from scratch per pair, SciPy ranks
        def per_pair(x, y):
            if metric == "cosine":
                x, y = x.reshape(x.shape[0], -1), y.reshape(y.shape[0], -1)
                dots = np.einsum("ij,ij->i", x, y)
                norms = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
                return float(np.sum(dots[norms > 0] / norms[norms > 0]))
            x, y = x.ravel(), y.ravel()
            if metric == "spearman":
                x, y = rankdata(x, method="average"), rankdata(y, method="average")
            xc, yc = x - x.mean(), y - y.mean()
            return float(np.dot(xc, yc)) / math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))

        rng = np.random.default_rng(8)
        for shape in [(64, 8, 8), (4, 16, 16), (3, 5, 7)]:
            a = rng.normal(size=shape).astype(np.float32).astype(float)
            b = a + 0.1 * rng.normal(size=shape)
            fa, fb = FeatureMap(0, a), FeatureMap(1, b)
            assert similarity(metric, fa, fb) == per_pair(a, b)

    def test_cosine_positive_channel_scale_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4, 4))
        b = rng.normal(size=(3, 4, 4))
        scales = rng.uniform(0.01, 100.0, size=3)
        scaled = b * scales[:, None, None]
        fa, fb, fs = FeatureMap(0, a), FeatureMap(1, b), FeatureMap(2, scaled)
        assert similarity("cosine", fa, fb) == pytest.approx(
            similarity("cosine", fa, fs), abs=1e-9)


def _bits(score: float) -> bytes:
    return np.float64(score).tobytes()


@st.composite
def _map_pairs(draw):
    """Two same-shape maps with zeroed channels and, sometimes, a constant map."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)))
    values = st.floats(-1e3, 1e3, allow_subnormal=False)
    a, b = (draw(arrays(np.float64, shape, elements=values)) for _ in range(2))
    for x in (a, b):
        x[draw(arrays(bool, shape[0]))] = 0.0  # zero-norm channels
    if draw(st.booleans()):
        b[...] = draw(values)  # a constant map: zero variance
    return a, b


@st.composite
def _wide_map_pairs(draw):
    """Two same-shape maps over the whole finite range that cosine meets:
    zero channels, subnormals, and magnitudes up to 1e200, whose squares
    overflow."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    values = st.one_of(st.floats(-1e200, 1e200),
                       st.sampled_from([0.0, 5e-324, -1e-310, 1e-160, 1e154, -1e200]))
    a, b = (draw(arrays(np.float64, shape, elements=values)) for _ in range(2))
    for x in (a, b):
        x[draw(arrays(bool, shape[0]))] = 0.0  # zero-norm channels
    return a, b


def _outcome(compute):
    """The bytes of what ``compute()`` returns, or the type and message of
    what it raises."""
    try:
        return np.asarray(compute(), dtype=np.float64).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


class TestScoreMemo:
    @settings(max_examples=150, deadline=None)
    @given(_map_pairs())
    @example((np.zeros((2, 2, 2)), np.ones((2, 2, 2))))
    @example((np.full((1, 3, 3), 7.0), np.full((1, 3, 3), 7.0)))
    @example((np.arange(8.0).reshape(2, 2, 2) - 3.5, -np.arange(8.0).reshape(2, 2, 2)))
    def test_every_metric_is_symmetric_bit_for_bit(self, pair):
        # the memo serves (b, a) the score of (a, b): exact only if every
        # metric computes the same bits in both orders; fresh maps each time
        # so that nothing is memoized here
        a, b = pair
        for metric in SIMILARITY_METRICS:
            ab = similarity(metric, FeatureMap(0, a), FeatureMap(1, b))
            ba = similarity(metric, FeatureMap(1, b), FeatureMap(0, a))
            assert _bits(ab) == _bits(ba), metric

    def test_variances_whose_product_underflows(self):
        # values this small have a tiny positive variance; the product of two
        # such variances underflows to 0.0
        a = np.reshape([1.0, 2.0, 4.0], (1, 1, 3)) * 1e-130
        vx = memory._key("pearson", FeatureMap(0, a))[1]
        assert vx > 0.0 and vx * vx == 0.0
        for metric in SIMILARITY_METRICS:
            ab = similarity(metric, FeatureMap(0, a), FeatureMap(1, a))
            ba = similarity(metric, FeatureMap(1, a), FeatureMap(0, a))
            assert math.isfinite(ab) and _bits(ab) == _bits(ba), metric

    @pytest.mark.parametrize("shape", [(4, 64, 64), (64, 32, 32), (3, 5, 7)])
    def test_workload_sized_maps_are_symmetric_bit_for_bit(self, shape):
        # long reductions take the vectorized paths of einsum and dot
        rng = np.random.default_rng(shape[0])
        x = rng.normal(size=shape)
        y = x + 0.1 * rng.normal(size=shape)
        for metric in SIMILARITY_METRICS:
            ab = similarity(metric, FeatureMap(0, x), FeatureMap(1, y))
            ba = similarity(metric, FeatureMap(1, y), FeatureMap(0, x))
            assert _bits(ab) == _bits(ba), metric

    @pytest.mark.parametrize("metric", SIMILARITY_METRICS)
    def test_memoized_score_equals_either_order_and_fresh_copies(self, metric, monkeypatch):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(2, 3, 4, 4))
        a, b = FeatureMap(0, x), FeatureMap(1, y)
        computed = []
        key, score = memory._METRICS[metric]
        monkeypatch.setitem(memory._METRICS, metric,
                            (key, lambda p, q: computed.append((p, q)) or score(p, q)))
        first = similarity(metric, a, b)
        again = similarity(metric, a, b)
        swapped = similarity(metric, b, a)
        fresh = similarity(metric, FeatureMap(0, x), FeatureMap(1, y))
        assert _bits(first) == _bits(again) == _bits(swapped) == _bits(fresh)
        assert len(computed) == 2  # (a, b) once, and the fresh pair

    def test_metrics_are_memoized_apart(self):
        a = fmap(0, [1.0, 2.0])
        b = fmap(1, [3.0, 5.0])
        assert similarity("dot", a, b) == 13.0
        assert similarity("manhattan", a, b) == -5.0
        assert similarity("dot", b, a) == 13.0

    @pytest.mark.parametrize("dropped", [0, 1])
    def test_memo_holds_no_reference_to_a_scored_map(self, dropped):
        maps = [fmap(0, [1.0, 2.0]), fmap(1, [3.0, 4.0])]
        for metric in SIMILARITY_METRICS:
            similarity(metric, *maps)
        ref = weakref.ref(maps.pop(dropped))
        gc.collect()
        assert ref() is None

    def test_new_map_never_reads_a_dead_maps_score(self):
        # a memo keyed by id() would hand a new map at a reused address the
        # score of the dead one
        rng = np.random.default_rng(5)
        a = FeatureMap(0, rng.normal(size=(1, 1, 4)))
        b = None
        for x in rng.normal(size=(50, 1, 1, 4)):
            b = None  # the previous map dies just before the next takes its address
            b = FeatureMap(1, x)
            assert similarity("dot", a, b) == float(np.sum(a.data * b.data))

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_scored_map_pickles_and_copies(self, clone):
        rng = np.random.default_rng(9)
        a = fmap(0, rng.normal(size=8), channels=2)
        b = fmap(1, rng.normal(size=8), channels=2)
        scores = {m: similarity(m, a, b) for m in SIMILARITY_METRICS}
        a2, b2 = clone(a), clone(b)
        assert a2.frame_index == 0 and a2.data.tobytes() == a.data.tobytes()
        assert a2._memo[1] == {} and b2._memo[1] == {}  # neither keys nor scores
        for m in SIMILARITY_METRICS:
            assert _bits(similarity(m, a2, b2)) == _bits(scores[m])
            assert _bits(similarity(m, b, a2)) == _bits(scores[m])


class TestMemoryKeys:
    def test_keys_are_read_only_and_computed_once(self):
        fm = FeatureMap(0, np.arange(12.0).reshape(3, 2, 2))
        rows, norms = memory._key("cosine", fm)
        centred, _ = memory._key("pearson", fm)
        ranks, _ = memory._key("spearman", fm)
        for key in (rows, norms, centred, ranks):
            with pytest.raises(ValueError):
                key[0] = 5.0
        for metric in SIMILARITY_METRICS:
            assert memory._key(metric, fm) is memory._key(metric, fm)

    def test_key_values(self):
        fm = FeatureMap(0, np.array([[[3.0, 4.0]], [[0.0, 0.0]]]))
        rows, norms = memory._key("cosine", fm)
        assert rows.tolist() == [[3.0, 4.0], [0.0, 0.0]] and norms.tolist() == [5.0, 0.0]
        centred, sq = memory._key("pearson", fm)
        assert centred.tolist() == [1.25, 2.25, -1.75, -1.75] and sq == 12.75
        ranks, sq = memory._key("spearman", fm)
        assert ranks.tolist() == [0.5, 1.5, -1.0, -1.0] and sq == 4.5
        for metric in ("manhattan", "euclidean", "dot"):
            assert memory._key(metric, fm) is fm.data

    def test_cosine_key_has_a_row_per_channel(self):
        rows, norms = memory._key("cosine", FeatureMap(3, np.zeros((2, 4, 5))))
        assert rows.shape == (2, 20) and norms.shape == (2,)

    @settings(max_examples=200, deadline=None)
    @given(_wide_map_pairs())
    @example((np.zeros((2, 1, 3)), np.ones((2, 1, 3))))
    @example((np.full((1, 2, 2), 5e-324), np.full((1, 2, 2), -2.5e-310)))
    @example((np.full((2, 2, 2), 1e200), np.full((2, 2, 2), 1.0)))
    @example((np.full((1, 1, 2), 1e160), np.full((1, 1, 2), 1e160)))
    def test_cosine_key_and_score_are_numpys_norm_and_sum(self, pair):
        # both sides run under the suite's warnings-as-errors, so an overflow
        # must raise the same RuntimeWarning on both; fresh maps each time so
        # that nothing is memoized
        a, b = pair

        def numpy_norms(x):
            return np.linalg.norm(x.reshape(x.shape[0], -1), axis=1)

        def per_pair(x, y):  # as in test_cached_keys_reproduce_per_pair_formulas
            x, y = x.reshape(x.shape[0], -1), y.reshape(y.shape[0], -1)
            dots = np.einsum("ij,ij->i", x, y)
            norms = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
            return float(np.sum(dots[norms > 0] / norms[norms > 0]))

        assert _outcome(lambda: memory._key("cosine", FeatureMap(0, a))[1]) == \
            _outcome(lambda: numpy_norms(a))
        assert _outcome(lambda: similarity("cosine", FeatureMap(0, a), FeatureMap(1, b))) == \
            _outcome(lambda: per_pair(a, b))

    @pytest.mark.parametrize("value", [0.1, 0.3, -7.0, 3.3947638435598565e-128, -0.0])
    def test_constant_map_centres_to_exact_zeros(self, value):
        # x - x.mean() keeps the rounding error of the mean (about -1.4e-17
        # for a map of 0.1), which would give a constant map a variance;
        # Spearman's key is one tied run, whose shared rank centres to +0.0
        for shape in ((4, 8, 8), (1, 1, 1)):
            fm = FeatureMap(0, np.full(shape, value))
            for metric in ("pearson", "spearman"):
                centred, sq = memory._key(metric, fm)
                assert centred.tobytes() == bytes(centred.nbytes) and sq == 0.0  # all +0.0

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
                  elements=st.floats(-1e6, 1e6)))
    def test_non_constant_key_is_the_mean_centred_data(self, x):
        assume(not (x == x.flat[0]).all())
        flat = FeatureMap(0, x).data.ravel()
        centred, sq = memory._key("pearson", FeatureMap(0, x))
        xc = flat - flat.mean()
        assert centred.tobytes() == xc.tobytes() and sq == float(np.dot(xc, xc))

    @pytest.mark.parametrize("metric", SIMILARITY_METRICS)
    def test_each_map_key_is_computed_once_across_partners(self, metric, monkeypatch):
        computed = []
        key, score = memory._METRICS[metric]
        monkeypatch.setitem(memory._METRICS, metric,
                            (lambda data: computed.append(data) or key(data), score))
        rng = np.random.default_rng(4)
        maps = [FeatureMap(i, x) for i, x in enumerate(rng.normal(size=(3, 2, 3, 3)))]
        for p in maps:
            for q in maps:
                similarity(metric, p, q)
        assert len(computed) == 3


_RANK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    # ulp neighbours share a packed key's prefix, which sends _ranks to argsort
    st.sampled_from([5e-324, -5e-324, 1.0 + 2**-52, 1.0 + 2**-51, 1.0 - 2**-53, -1.0 - 2**-52]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _tie_runs(*lengths):
    """Set runs of the given lengths, at random places, to one value each."""
    def inject(flat, rng):
        for n in lengths:
            at = rng.choice(flat.size, n, replace=False)
            flat[at] = flat[at[0]]
    return inject


def _ends(flat, rng):
    # a tied run at the first and one at the last sorted position
    flat[rng.choice(flat.size, 6, replace=False)] = np.repeat([-9.0, 9.0], 3)


def _signed_zeros(flat, rng):
    flat[rng.choice(flat.size, 3000, replace=False)] = rng.choice([0.0, -0.0], 3000)


def _all_equal(flat, rng):
    flat[...] = 0.25


def _relu(flat, rng):
    np.maximum(flat, 0.0, out=flat)


def _ten_values(flat, rng):
    flat[...] = rng.choice(rng.standard_normal(10), flat.size)


_WORKLOAD_TIES = {
    "untied": lambda flat, rng: None,
    "runs of 2 and 3": _tie_runs(2, 2, 3, 3),
    "run of 5000": _tie_runs(5000, 2, 3),
    "first and last": _ends,
    "signed zeros": _signed_zeros,
    "all equal": _all_equal,
    "half zeros (ReLU-like)": _relu,
    "ten distinct values": _ten_values,
}


def _key_as_ranks(x):
    """Spearman's key of ``x`` as ranks: key + (n + 1) / 2 is exact, both
    terms being multiples of 0.5. Checks the sum of squares on the way."""
    key, sq = memory._ranks(x)
    assert sq == float(np.dot(key, key))
    return key + (x.size + 1) / 2


class TestSpearmanKey:
    @given(st.lists(_RANK_VALUES, min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_rankdata_bit_for_bit(self, values):
        x = np.array(values)
        expected = rankdata(x, method="average")
        got = _key_as_ranks(x)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("values", [
        [7.0],
        [2.0] * 9,
        [0.0, -0.0, 0.0, -0.0],
        [3.0, -0.0, 1.0, 0.0, 3.0, 3.0],
    ])
    def test_edge_cases(self, values):
        x = np.array(values)
        assert _key_as_ranks(x).tobytes() == rankdata(x, method="average").tobytes()

    def test_flattens_row_major(self):
        x = np.array([[[3.0, 1.0], [2.0, 1.0]]])
        assert _key_as_ranks(x).tolist() == [4.0, 1.5, 3.0, 1.5]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("case", _WORKLOAD_TIES)
    def test_workload_sized_maps_match_scipy_bit_for_bit(self, case, seed):
        # 65,536 values take NumPy's large-array sort, which 60 never reach
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((64, 32, 32), dtype=np.float32).astype(np.float64)
        _WORKLOAD_TIES[case](x.ravel(), rng)
        expected = rankdata(x, method="average")
        assert _key_as_ranks(x).tobytes() == expected.tobytes()

    @staticmethod
    def _argsort_calls(monkeypatch):
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda x: calls.append(x) or argsort(x))
        return calls

    def test_values_sharing_a_key_prefix_are_ranked_by_argsort(self, monkeypatch):
        # 64 values take 6 index bits, which 1.0's low mantissa bits give way
        # to: 1.0 + k ulps all share one key prefix, and the indices order
        # them with k descending, so the packed sort leaves them out of order
        x = (1.0 + np.arange(63, -1, -1) * 2**-52).reshape(4, 4, 4)
        expected = rankdata(x, method="average")
        calls = self._argsort_calls(monkeypatch)
        assert _key_as_ranks(x).tobytes() == expected.tobytes()
        assert len(calls) == 1

    def test_float32_data_needs_no_argsort(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 32, 32), dtype=np.float32).astype(np.float64)
        expected = rankdata(x, method="average")
        calls = self._argsort_calls(monkeypatch)
        assert _key_as_ranks(x).tobytes() == expected.tobytes()
        assert calls == []


class TestMemoryEntry:
    def test_holds_features_only(self):
        # masks belong to the tracker, keyed by frame index
        assert [f.name for f in dataclasses.fields(MemoryEntry)] == ["frame_index", "features"]


class TestAppend:
    def test_append_to_empty(self):
        bank = MemoryBank()
        bank.append(entry(0, [1.0]))
        assert bank.frame_indices == (0,)

    def test_fifo_eviction_at_capacity(self):
        bank = MemoryBank(capacity=7)
        for i in range(7):
            bank.append(entry(i, [float(i)]))
        assert bank.frame_indices == (0, 1, 2, 3, 4, 5, 6)
        bank.append(entry(7, [7.0]))
        assert bank.frame_indices == (1, 2, 3, 4, 5, 6, 7)

    def test_non_increasing_index_rejected(self):
        bank = MemoryBank()
        for i in range(7):
            bank.append(entry(i, [float(i)]))
        with pytest.raises(ValueError, match="must increase"):
            bank.append(entry(3, [3.0]))


def group_scores(bank, metric="cosine"):
    """The short and long groups' scores of one select-mode prune step."""
    return bank.prune_step(metric=metric, mode="select").scores


class TestGroups:
    # the groups show in the scores: each maps its candidates, never its
    # reference, and the short group is scored first
    def test_groups_of_frames_10_to_16(self):
        bank = MemoryBank(capacity=7)
        for i in range(10, 17):
            bank.append(entry(i, [float(i)]))
        scores = group_scores(bank)
        assert list(scores) == ["short", "long"]
        assert set(scores["short"]) == {13, 14, 15}
        assert set(scores["long"]) == {11, 12}

    def test_capacity_four_groups(self):
        bank = MemoryBank(capacity=4)
        for i in range(4):
            bank.append(entry(i, [float(i)]))
        scores = group_scores(bank)
        assert set(scores["short"]) == {2}
        assert set(scores["long"]) == {1}

    @pytest.mark.parametrize("n", range(2, 13))
    def test_group_sizes_cover_every_capacity(self, n):
        # the newest ceil(n/2) entries are short, the oldest floor(n/2) long;
        # each group less its reference is scored
        scores = group_scores(full_bank(np.random.default_rng(n), capacity=n))
        assert set(scores["short"]) == set(range(n // 2, n - 1))
        assert set(scores["long"]) == set(range(1, n // 2))
        assert len(scores["short"]) == -(-n // 2) - 1
        assert len(scores["long"]) == n // 2 - 1

    @pytest.mark.parametrize("metric", SIMILARITY_METRICS)
    def test_reference_excluded_from_scores(self, metric):
        bank = full_bank(np.random.default_rng(1), start=10)
        scores = group_scores(bank, metric)
        assert set(scores["short"]) == {13, 14, 15}
        assert set(scores["long"]) == {11, 12}

    def test_short_group_is_scored_against_the_newest(self):
        # 15 duplicates the newest frame 16; 14 is orthogonal to the oldest, 13
        bank = MemoryBank(capacity=4)
        for i, values in zip(range(13, 17), ([1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 2.0, 0.0],
                                             [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])):
            bank.append(entry(i, values, channels=2, h=1, w=2))
        scores = group_scores(bank)
        assert scores["short"][15] == pytest.approx(2.0, abs=1e-12)
        assert scores["long"][14] == pytest.approx(0.0, abs=1e-12)

    def test_long_group_is_scored_against_the_oldest(self):
        # 14 duplicates the oldest frame 13; 15 is orthogonal to the newest, 16
        bank = MemoryBank(capacity=4)
        for i, values in zip(range(13, 17), ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0],
                                             [0.0, 1.0, 2.0, 0.0], [1.0, 0.0, 0.0, 2.0])):
            bank.append(entry(i, values, channels=2, h=1, w=2))
        scores = group_scores(bank)
        assert scores["long"][14] == pytest.approx(2.0, abs=1e-12)
        assert scores["short"][15] == pytest.approx(0.0, abs=1e-12)


def bank_with_duplicates(indices=range(10, 17)):
    """Full n=7 bank where frame 15 duplicates 16 and 11 duplicates 10.

    Non-duplicate candidates are small distinct vectors so the duplicates
    are the strict per-group maximum under every metric's convention.
    """
    rng = np.random.default_rng(5)
    base = {i: 0.01 * rng.normal(size=8) for i in indices}
    ref_short = rng.normal(size=8) + np.linspace(1, 2, 8)
    ref_long = rng.normal(size=8) - np.linspace(1, 2, 8)
    base[16] = ref_short
    base[15] = ref_short.copy()
    base[10] = ref_long
    base[11] = ref_long.copy()
    bank = MemoryBank(capacity=7)
    for i in indices:
        bank.append(entry(i, base[i], channels=2, h=2, w=2))
    return bank


class TestPruneStep:
    def test_below_capacity_is_noop(self):
        bank = MemoryBank(capacity=7)
        for i in range(6):
            bank.append(entry(i, [float(i)]))
        outcome = bank.prune_step()
        assert not outcome.fired
        assert outcome.retained == (0, 1, 2, 3, 4, 5)
        assert outcome.pruned_frame_indices == ()
        assert bank.frame_indices == (0, 1, 2, 3, 4, 5)

    @pytest.mark.parametrize("metric", SIMILARITY_METRICS)
    def test_duplicates_of_references_are_pruned(self, metric):
        bank = bank_with_duplicates()
        outcome = bank.prune_step(metric=metric, mode="select")
        assert outcome.pruned_frame_indices == (11, 15)
        assert outcome.retained == (10, 12, 13, 14, 16)

    def test_persistent_mode_shrinks_bank(self):
        bank = bank_with_duplicates()
        outcome = bank.prune_step(metric="cosine", mode="persistent")
        assert outcome.fired
        assert bank.frame_indices == (10, 12, 13, 14, 16)

    def test_select_mode_leaves_bank_unchanged(self):
        bank = bank_with_duplicates()
        before = bank.frame_indices
        outcome = bank.prune_step(metric="cosine", mode="select")
        assert outcome.fired
        assert bank.frame_indices == before

    def test_exact_tie_prunes_smallest_frame_index(self):
        # all short-term candidates identical: oldest candidate goes
        bank = MemoryBank(capacity=7)
        same = [1.0, 2.0, 3.0, 4.0]
        rng = np.random.default_rng(9)
        for i in range(10, 17):
            values = same if i in (13, 14, 15) else list(rng.normal(size=4) * 0.001)
            bank.append(entry(i, values, channels=1, h=2, w=2))
        outcome = bank.prune_step(metric="euclidean", mode="select")
        assert 13 in outcome.pruned_frame_indices

    def test_scores_keyed_by_group_and_candidate(self):
        bank = bank_with_duplicates()
        outcome = bank.prune_step(metric="cosine", mode="select")
        assert set(outcome.scores) == {"short", "long"}
        assert set(outcome.scores["short"]) == {13, 14, 15}
        assert set(outcome.scores["long"]) == {11, 12}

    def test_unknown_mode_and_metric_rejected(self):
        bank = MemoryBank()
        with pytest.raises(ValueError, match="mode"):
            bank.prune_step(mode="destructive")
        with pytest.raises(ValueError, match="metric"):
            bank.prune_step(metric="hamming")

    def test_unknown_metric_message_matches_similarity(self):
        a = fmap(0, [1.0])
        with pytest.raises(ValueError) as from_prune:
            MemoryBank().prune_step(metric="hamming")
        with pytest.raises(ValueError) as from_similarity:
            similarity("hamming", a, a)
        assert str(from_prune.value) == str(from_similarity.value)

    def test_persistent_dynamics_oscillate(self):
        # once full: prune to 5, grow back to 7, prune again
        rng = np.random.default_rng(11)
        bank = MemoryBank(capacity=7)
        sizes = []
        for i in range(30):
            bank.append(random_entry(rng, i, shape=(1, 2, 2)))
            bank.prune_step(metric="cosine", mode="persistent")
            sizes.append(len(bank.frame_indices))
        assert sizes[:7] == [1, 2, 3, 4, 5, 6, 5]
        assert sizes[7:11] == [6, 5, 6, 5]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_capacity_sweep_retained_counts(self, n):
        rng = np.random.default_rng(n)
        bank = full_bank(rng, capacity=n)
        newest = bank.frame_indices[-1]
        oldest = bank.frame_indices[0]
        outcome = bank.prune_step(metric="cosine", mode="select")
        # each group prunes one candidate when it has any; groups of a
        # single entry (capacities 2 and 3) have only their reference
        expected = {2: 2, 3: 2}.get(n, n - 2)
        assert len(outcome.retained) == expected
        assert newest in outcome.retained
        assert oldest in outcome.retained


class TestPruneProperties:
    @given(st.integers(0, 2**31 - 1), st.sampled_from(SIMILARITY_METRICS))
    @settings(max_examples=80, deadline=None)
    def test_full_bank_invariants(self, seed, metric):
        rng = np.random.default_rng(seed)
        start = int(rng.integers(0, 1000))
        bank = full_bank(rng, start=start, step=int(rng.integers(1, 4)))
        indices = bank.frame_indices
        outcome = bank.prune_step(metric=metric, mode="select")
        retained = outcome.retained
        # newest and oldest always kept, exactly two pruned, order kept
        assert indices[-1] in retained
        assert indices[0] in retained
        assert len(retained) == 5
        assert list(retained) == sorted(retained)
        assert set(outcome.pruned_frame_indices).isdisjoint(retained)
        assert set(outcome.pruned_frame_indices) | set(retained) == set(indices)

    @given(st.integers(0, 2**31 - 1), st.sampled_from(SIMILARITY_METRICS),
           st.sampled_from(PRUNE_MODES), st.integers(2, 9), st.integers(1, 20))
    @settings(max_examples=120, deadline=None)
    def test_outcome_records_its_bank_metric_and_mode(self, seed, metric, mode, capacity,
                                                      appends):
        # below capacity, full, and (persistent) shrunk by an earlier step alike
        rng = np.random.default_rng(seed)
        bank = MemoryBank(capacity=capacity)
        frame_index = int(rng.integers(0, 1000))
        for _ in range(appends):
            frame_index += int(rng.integers(1, 4))
            bank.append(random_entry(rng, frame_index))
            before = bank.frame_indices
            outcome = bank.prune_step(metric=metric, mode=mode)
            assert outcome.bank_before == before
            assert (outcome.metric, outcome.mode) == (metric, mode)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_victims_attain_group_maximum(self, seed):
        rng = np.random.default_rng(seed)
        bank = full_bank(rng)
        outcome = bank.prune_step(metric="cosine", mode="select")
        for name in ("short", "long"):
            scores = outcome.scores[name]
            victims = [i for i in outcome.pruned_frame_indices if i in scores]
            assert len(victims) == 1
            assert scores[victims[0]] == max(scores.values())


def overflowing_bank(capacity):
    """Finite features near +-1e308 whose euclidean scores overflow to -inf."""
    bank = MemoryBank(capacity=capacity)
    for i in range(capacity):
        bank.append(entry(i, [(-1.0) ** i * 1e308, 1.0]))
    return bank


class TestNonFiniteScores:
    def test_argmax_ties_go_to_smallest_frame_index(self):
        assert _argmax_frame("dot", {9: 1.0, 4: 2.0, 6: 2.0, 1: -5.0}) == 4
        assert _argmax_frame("dot", {3: -1e300}) == 3

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_argmax_rejects_non_finite_naming_metric_and_frame(self, bad):
        with pytest.raises(ValueError, match=f"^euclidean score {bad} for frame 7 is not finite$"):
            _argmax_frame("euclidean", {3: 1.0, 7: bad})

    def test_argmax_names_the_smallest_non_finite_frame(self):
        # the scan runs in frame order, not in the dict's insertion order
        with pytest.raises(ValueError, match="^dot score inf for frame 2 is not finite$"):
            _argmax_frame("dot", {9: math.nan, 5: 1.0, 2: math.inf})

    def test_capacity_two_scores_nothing(self):
        outcome = overflowing_bank(2).prune_step(metric="euclidean")
        assert not outcome.fired
        assert outcome.scores == {"short": {}, "long": {}}

    @pytest.mark.parametrize("capacity", [3, 7])
    @pytest.mark.parametrize("mode", PRUNE_MODES)
    def test_overflowing_scores_raise_value_error(self, capacity, mode):
        bank = overflowing_bank(capacity)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"euclidean score -inf for frame \d+ is not finite"):
            bank.prune_step(metric="euclidean", mode=mode)
        assert len(bank.frame_indices) == capacity


def test_readme_example_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Memory bank in 30 seconds$.*?^```python\n(.*?)^```$",
                      readme, re.M | re.S).group(1)
    names = {}
    exec(block, names)
    outcome = names["outcome"]
    # the claims of its comments
    assert len(outcome.retained) == 5 and {0, 6} <= set(outcome.retained)
    assert list(outcome.scores) == ["short", "long"]
    assert [list(group) for group in outcome.scores.values()] == [[3, 4, 5], [1, 2]]
    short, long = outcome.pruned_frame_indices[::-1]
    assert short in outcome.scores["short"] and long in outcome.scores["long"]
    assert (outcome.metric, outcome.mode) == ("cosine", "select")
    assert outcome.bank_before == tuple(range(7))
