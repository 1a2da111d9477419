"""Memory bank behavior: FIFO, splitting, similarity scoring, pruning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from oracles import METRIC_ORACLES
from vosmem.core import make_feature_map
from vosmem.memory import (
    DEFAULT_CAPACITY,
    PRUNE_MODES,
    SIMILARITY_METRICS,
    MemoryBank,
    MemoryEntry,
    MemoryGroup,
    argmax_frame,
    redundancy_scores,
    similarity,
)


def fmap(frame_index, values, channels=1, h=1, w=None):
    values = list(values)
    if w is None:
        w = len(values) // (channels * h)
    return make_feature_map(frame_index, channels, h, w, values)


def entry(frame_index, values, **kw):
    return MemoryEntry(frame_index, fmap(frame_index, values, **kw))


def random_entry(rng, frame_index, shape=(2, 3, 3)):
    data = rng.normal(size=shape)
    return MemoryEntry(frame_index,
                       make_feature_map(frame_index, *shape, data.ravel()))


def full_bank(rng, capacity=DEFAULT_CAPACITY, start=0, step=1):
    bank = MemoryBank(capacity=capacity)
    for k in range(capacity):
        bank.append(random_entry(rng, start + k * step))
    return bank


class TestSimilarityExamples:
    def test_cosine_self_similarity_is_channel_count(self):
        rng = np.random.default_rng(0)
        a = make_feature_map(0, 4, 3, 3, rng.normal(size=36))
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
            fa = make_feature_map(0, c, h, w, a.ravel())
            fb = make_feature_map(1, c, h, w, b.ravel())
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
            fa = make_feature_map(0, *shape, a.ravel())
            fb = make_feature_map(1, *shape, b.ravel())
            if warm:
                for fm in (fa, fb):
                    fm.channel_norms, fm.centred, fm.centred_ranks
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
            fa = make_feature_map(0, *shape, a.ravel())
            fb = make_feature_map(1, *shape, b.ravel())
            assert similarity(metric, fa, fb) == per_pair(a, b)

    def test_cosine_positive_channel_scale_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4, 4))
        b = rng.normal(size=(3, 4, 4))
        scales = rng.uniform(0.01, 100.0, size=3)
        scaled = b * scales[:, None, None]
        fa = make_feature_map(0, 3, 4, 4, a.ravel())
        fb = make_feature_map(1, 3, 4, 4, b.ravel())
        fs = make_feature_map(2, 3, 4, 4, scaled.ravel())
        assert similarity("cosine", fa, fb) == pytest.approx(
            similarity("cosine", fa, fs), abs=1e-9)


class TestMemoryEntry:
    def test_frame_index_must_match_features(self):
        with pytest.raises(ValueError, match="frame_index"):
            MemoryEntry(3, fmap(4, [1.0]))

    def test_mask_is_optional(self):
        e = MemoryEntry(3, fmap(3, [1.0]))
        assert e.mask is None


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

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            MemoryBank(capacity=1)


class TestSplit:
    def test_default_capacity_sizes(self):
        bank = MemoryBank(capacity=7)
        assert bank.short_size == 4
        assert bank.long_size == 3

    def test_split_frames_10_to_16(self):
        bank = MemoryBank(capacity=7)
        for i in range(10, 17):
            bank.append(entry(i, [float(i)]))
        short, long_ = bank.split()
        assert short.name == "short" and long_.name == "long"
        assert short.reference.frame_index == 16
        assert {c.frame_index for c in short.candidates} == {15, 14, 13}
        assert long_.reference.frame_index == 10
        assert {c.frame_index for c in long_.candidates} == {12, 11}

    def test_split_requires_full_bank(self):
        bank = MemoryBank(capacity=7)
        for i in range(6):
            bank.append(entry(i, [float(i)]))
        with pytest.raises(ValueError, match="full bank"):
            bank.split()

    def test_capacity_four_split(self):
        bank = MemoryBank(capacity=4)
        for i in range(4):
            bank.append(entry(i, [float(i)]))
        short, long_ = bank.split()
        assert short.reference.frame_index == 3
        assert {c.frame_index for c in short.candidates} == {2}
        assert long_.reference.frame_index == 0
        assert {c.frame_index for c in long_.candidates} == {1}

    @pytest.mark.parametrize("n", range(2, 13))
    def test_group_sizes_cover_every_capacity(self, n):
        bank = MemoryBank(capacity=n)
        assert bank.short_size == -(-n // 2)
        assert bank.long_size == n - bank.short_size
        assert bank.short_size + bank.long_size == n


class TestRedundancyScores:
    def test_reference_excluded_from_scores(self):
        rng = np.random.default_rng(1)
        bank = full_bank(rng, start=10)
        short, _ = bank.split()
        scores = redundancy_scores("cosine", short)
        assert set(scores) == {13, 14, 15}

    def test_duplicate_of_reference_scores_channel_count(self):
        ref = entry(16, [1.0, 2.0, 3.0, 4.0], channels=2, h=1, w=2)
        dup = entry(15, [1.0, 2.0, 3.0, 4.0], channels=2, h=1, w=2)
        group = MemoryGroup("short", reference=ref, candidates=(dup,))
        assert redundancy_scores("cosine", group)[15] == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_candidate_scores_zero(self):
        ref = entry(16, [1.0, 0.0, 0.0, 2.0], channels=2, h=1, w=2)
        orth = entry(15, [0.0, 1.0, 2.0, 0.0], channels=2, h=1, w=2)
        group = MemoryGroup("short", reference=ref, candidates=(orth,))
        assert redundancy_scores("cosine", group)[15] == pytest.approx(0.0, abs=1e-12)

    def test_empty_candidates_rejected(self):
        ref = entry(16, [1.0])
        group = MemoryGroup("short", reference=ref, candidates=())
        with pytest.raises(ValueError, match="no candidates"):
            redundancy_scores("cosine", group)


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
            sizes.append(len(bank))
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
        assert argmax_frame("dot", {9: 1.0, 4: 2.0, 6: 2.0, 1: -5.0}) == 4
        assert argmax_frame("dot", {3: -1e300}) == 3

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_argmax_rejects_non_finite_naming_metric_and_frame(self, bad):
        with pytest.raises(ValueError, match=r"euclidean score .* frame 7 is not finite"):
            argmax_frame("euclidean", {3: 1.0, 7: bad})

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
        assert len(bank) == capacity
