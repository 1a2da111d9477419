"""Acceptance gate: one test per release-blocking criterion.

``pytest tests/test_acceptance.py -v`` prints one PASS/FAIL line per
criterion; each test additionally emits an explicit ``[criterion N]``
verdict (visible with ``-s`` or in failure reports). Stated runtime
budgets are asserted with a wall clock.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    METRIC_ORACLES,
    boundary_f_shift_oracle,
    dilate_oracle,
    dilate_shift_oracle,
)
from vosmem.cli import run_command
from vosmem.core import FeatureMap, LabelMask, make_feature_map
from vosmem.harness import SceneConfig, ToyEncoderConfig, generate_scene, track_sequence
from vosmem.io import (
    MaskFormatError,
    TensorFormatError,
    jsonl_text,
    mask_bytes,
    parse_tensor_bytes,
    read_mask,
    read_tensor,
    tensor_bytes,
    track_records,
    write_mask,
    write_tensor,
)
from vosmem.memory import SIMILARITY_METRICS, MemoryBank, MemoryEntry, similarity
from vosmem.metrics import (
    boundary_f,
    ciou,
    dice,
    dilate_disk,
    disk_footprint,
    evaluate,
    j_and_f,
    jaccard,
)
from vosmem.sampling import SamplingConfig, build_plan, sample_indices


@contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    print(f"[criterion {number}] PASS - {title}")


def full_bank(capacity: int, rng, first_index: int = 0) -> MemoryBank:
    bank = MemoryBank(capacity=capacity)
    for k in range(capacity):
        idx = first_index + k
        bank.append(MemoryEntry(idx, FeatureMap(idx, rng.normal(size=(2, 4, 4)))))
    return bank


def test_criterion_1_similarity_oracle_suite():
    """All six metrics match brute-force oracles on 1,000 random pairs."""
    with verdict(1, "similarity metrics match independent oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(1000):
            channels = int(rng.integers(1, 5))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            a = rng.normal(size=(channels, h, w))
            b = rng.normal(size=(channels, h, w))
            fa = FeatureMap(0, a)
            fb = FeatureMap(1, b)
            for name, oracle in METRIC_ORACLES.items():
                assert abs(similarity(name, fa, fb) - oracle(a, b)) <= 1e-9, name
            cos = similarity("cosine", fa, fb)
            assert abs(cos) <= channels + 1e-12
            scales = rng.uniform(0.1, 10.0, size=(channels, 1, 1))
            assert abs(similarity("cosine", fa, FeatureMap(1, b * scales)) - cos) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"similarity suite took {elapsed:.2f}s"


def test_criterion_2_prune_structure_suite():
    """A full 7-bank always retains exactly 5 entries spanning both groups."""
    with verdict(2, "prune retains 5 of 7 with references preserved"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        for trial in range(500):
            t0 = int(rng.integers(0, 10_000))
            bank = full_bank(7, rng, first_index=t0)
            newest, oldest = t0 + 6, t0

            short, long = bank.split()
            assert short.reference.frame_index == newest
            assert {e.frame_index for e in (short.reference, *short.candidates)} == {
                t0 + 3, t0 + 4, t0 + 5, t0 + 6}
            assert long.reference.frame_index == oldest
            assert {e.frame_index for e in (long.reference, *long.candidates)} == {
                t0, t0 + 1, t0 + 2}

            metric = SIMILARITY_METRICS[trial % len(SIMILARITY_METRICS)]
            outcome = bank.prune_step(metric=metric, mode="select")
            retained = outcome.retained
            assert len(retained) == 5
            assert newest in retained and oldest in retained
            pruned = outcome.pruned_frame_indices
            assert len(pruned) == 2
            assert pruned[0] in {t0 + 1, t0 + 2}
            assert pruned[1] in {t0 + 3, t0 + 4, t0 + 5}

        for n in range(2, 13):
            outcome = full_bank(n, rng).prune_step()
            retained = set(outcome.retained)
            assert {0, n - 1} <= retained  # both references survive
            # each group sheds one entry iff it holds a non-reference
            # candidate; at n=2 neither group does, at n=3 only one does
            expected = {2: 2, 3: 2}.get(n, n - 2)
            assert len(retained) == expected

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"prune suite took {elapsed:.2f}s"


def test_criterion_3_duplicate_pruning():
    """Duplicates of the two references are the frames pruned, all metrics."""
    with verdict(3, "duplicate frames are pruned under every metric"):
        t = 106
        rng = np.random.default_rng(33)
        ramp = np.linspace(1.0, 2.0, 8)
        newest_ref = rng.normal(size=8) + ramp        # f_t
        oldest_ref = rng.normal(size=8) - ramp        # f_{t-6}
        values = {idx: 0.01 * rng.normal(size=8) for idx in range(t - 6, t + 1)}
        values[t] = newest_ref
        values[t - 1] = newest_ref.copy()             # duplicates f_t
        values[t - 6] = oldest_ref
        values[t - 4] = oldest_ref.copy()             # duplicates f_{t-6}

        bank = MemoryBank(capacity=7)
        for idx in range(t - 6, t + 1):
            bank.append(MemoryEntry(idx, make_feature_map(idx, 1, 2, 4, values[idx])))

        for metric in SIMILARITY_METRICS:
            outcome = bank.prune_step(metric=metric, mode="select")
            assert outcome.pruned_frame_indices == (t - 4, t - 1), metric
            assert set(outcome.retained) == {
                t - 6, t - 5, t - 3, t - 2, t}, metric


def test_criterion_4_sampler_suite():
    """Strided index views: count formula, phase partition, identity stride."""
    with verdict(4, "stride views partition and count correctly"):
        for length in range(1, 65):
            assert sample_indices(length, 1) == list(range(length))
            for stride in range(1, 9):
                phases = range(min(stride, length))
                union = []
                for phase in phases:
                    view = sample_indices(length, stride, phase)
                    assert view == list(range(phase, length, stride))
                    assert len(view) == (length - 1 - phase) // stride + 1
                    union.extend(view)
                assert sorted(union) == list(range(length))

        plan = build_plan(149, SamplingConfig(strides=(1, 2)))
        assert [(v.stride, len(v.indices)) for v in plan.views] == [(1, 149), (2, 75)]


def random_mask(rng) -> np.ndarray:
    h = int(rng.integers(1, 33))
    w = int(rng.integers(1, 33))
    density = float(rng.uniform(0.0, 1.0))
    return rng.random(size=(h, w)) < density


def test_criterion_5_metric_identity_suite():
    """Region/boundary metric identities and oracle agreement."""
    with verdict(5, "metric identities hold; boundary oracle agrees"):
        rng = np.random.default_rng(505)

        # the two dilation oracles implement the same brute force; check
        # they agree with each other and the implementation on small masks
        for _ in range(20):
            small = np.asarray(random_mask(rng))[:12, :12]
            for radius in (0, 1, 3):
                loop = np.asarray(dilate_oracle(small, radius))
                shift = dilate_shift_oracle(small, radius)
                assert np.array_equal(loop, shift)
                assert np.array_equal(dilate_disk(small, radius), shift)

        for trial in range(1000):
            g = random_mask(rng)
            p = (rng.random(size=g.shape) < rng.uniform(0.0, 1.0)) if trial % 3 else g.copy()

            j = jaccard(p, g)
            d = dice(p, g)
            assert abs(d - 2.0 * j / (1.0 + j)) <= 1e-12
            assert d >= j
            assert jaccard(g, p) == j
            assert dice(g, p) == d

            for radius in (0, 1, 3, 14):
                f = boundary_f(p, g, radius)
                assert f == boundary_f_shift_oracle(p, g, radius), radius
            assert boundary_f(g, p, 3) == boundary_f(p, g, 3)
            assert boundary_f(g, p, 14) == boundary_f(p, g, 14)

            f3 = boundary_f(p, g, 3)
            assert j_and_f(j, f3) == (j + f3) / 2.0
            assert ciou([p], [g]) == j
            assert ciou([g], [p]) == ciou([p], [g])

        footprint = disk_footprint(14)
        independent = sum(1 for dy in range(-14, 15) for dx in range(-14, 15)
                          if dy * dy + dx * dx <= 14 * 14)
        assert int(np.count_nonzero(footprint)) == independent == 613


def test_criterion_6_consistency_spot_check():
    """(J, F) = (0.9189, 0.9494) lands on the published-style 93.41 figure."""
    with verdict(6, "J&F spot value matches 2-decimal percentage"):
        value = j_and_f(0.9189, 0.9494)
        assert value == (0.9189 + 0.9494) / 2.0
        assert abs(value - 0.93415) <= 1e-12
        # 93.415 agrees with 93.41 to within half a unit in the last place
        assert abs(100.0 * value - 93.41) <= 0.005 + 1e-9


def test_criterion_7_harness_end_to_end():
    """Deterministic tracking; pruned readout is exactly 5/7 of unpruned."""
    with verdict(7, "harness deterministic, readout ratio 5/7, Dice 1.0"):
        start = time.perf_counter()
        scene = generate_scene(SceneConfig(
            grid=(32, 32), shape="square", size=4, start=(0, 0),
            velocity=(1, 0), n_frames=20, seed=9))
        encoder = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)

        pred_a, trace_a = track_sequence(scene, encoder, seed=9)
        pred_b, trace_b = track_sequence(scene, encoder, seed=9)
        assert jsonl_text(track_records(trace_a)) == jsonl_text(track_records(trace_b))
        assert [mask_bytes(m) for m in pred_a] == [mask_bytes(m) for m in pred_b]

        _, trace_off = track_sequence(scene, encoder, prune_enabled=False, seed=9)
        fired = [s.step for s in trace_a.steps if s.outcome.fired]
        assert fired == list(range(7, 20, 2))
        cost_on = {s.step: s.readout_cost for s in trace_a.steps}
        cost_off = {s.step: s.readout_cost for s in trace_off.steps}
        for step in fired:
            assert cost_on[step] * 7 == cost_off[step] * 5  # ratio exactly 5/7

        static = generate_scene(SceneConfig(
            grid=(32, 32), shape="square", size=4, start=(10, 10),
            velocity=(0, 0), n_frames=20))
        clean = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.0)
        pred_on, _ = track_sequence(static, clean, prune_enabled=True)
        pred_off, _ = track_sequence(static, clean, prune_enabled=False)
        assert all(np.array_equal(a.labels, b.labels)
                   for a, b in zip(pred_on, pred_off))

        report = evaluate(pred_on, static, metrics=("Dice",))
        assert all(row["Dice"] == 1.0 for row in report.per_frame[1])

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"harness suite took {elapsed:.2f}s"


def test_criterion_8_io_round_trips(tmp_path):
    """Lossless file round-trips, typed errors, byte-identical CLI reruns."""
    with verdict(8, "round-trips lossless; CLI reruns byte-identical"):
        rng = np.random.default_rng(808)

        fmap = make_feature_map(3, 2, 3, 4, rng.normal(size=24))
        write_tensor(fmap, tmp_path / "003.ften")
        back = read_tensor(tmp_path / "003.ften")
        assert back.frame_index == 3
        assert np.array_equal(fmap.data, back.data)

        labels = rng.integers(0, 4, size=(9, 7)).astype(np.uint8)
        write_mask(LabelMask(5, labels), tmp_path / "005.pgm")
        round_tripped = read_mask(tmp_path / "005.pgm")
        assert round_tripped.frame_index == 5
        assert np.array_equal(round_tripped.labels, labels)

        with pytest.raises(TensorFormatError):
            parse_tensor_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(TensorFormatError):
            parse_tensor_bytes(tensor_bytes(np.zeros((2, 2)))[:-1])
        bad_pgm = tmp_path / "bad.pgm"
        bad_pgm.write_bytes(b"P6\n2 2\n255\n" + bytes(4))
        with pytest.raises(MaskFormatError):
            read_mask(bad_pgm)
        short_pgm = tmp_path / "001.pgm"
        short_pgm.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(MaskFormatError):
            read_mask(short_pgm)

        plans = [tmp_path / "plan_a.json", tmp_path / "plan_b.json"]
        for path in plans:
            assert run_command(["sample", "--length", "149", "--out", str(path)]) == 0
        assert plans[0].read_bytes() == plans[1].read_bytes()

        features = tmp_path / "features"
        features.mkdir()
        for idx in range(9):
            write_tensor(FeatureMap(idx, rng.normal(size=(1, 2, 2))),
                         features / f"{idx:03d}.ften")
        traces = [tmp_path / "trace_a.jsonl", tmp_path / "trace_b.jsonl"]
        for path in traces:
            assert run_command(["prune", "--features", str(features),
                                "--out", str(path)]) == 0
        assert traces[0].read_bytes() == traces[1].read_bytes()
        assert traces[0].read_bytes()  # non-empty

        runs = [tmp_path / "run_a", tmp_path / "run_b"]
        for out in runs:
            assert run_command(["simulate", "--out", str(out), "--velocity", "1,0",
                                "--frames", "12", "--noise-sigma", "0.1",
                                "--seed", "4"]) == 0
        for name in ["trace.jsonl", "report.json"] + [
                f"pred/{i:03d}.pgm" for i in range(12)]:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        report = json.loads((runs[0] / "report.json").read_text())
        assert report["schema_version"] == 1
