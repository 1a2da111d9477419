"""Brute-force reference implementations used to pin expected test values.

Everything here is written with explicit loops and elementary arithmetic,
deliberately independent of the library's vectorized code paths, so that
the two can agree only by both being correct. These run slowly and exist
only for tests. The tracker oracle at the end is the exception that proves
the rule: it takes features from the encoder and scores from
``memory.similarity``, which the oracles above pin, and rewrites only the
streaming loop around them.
"""

from __future__ import annotations

import math


def _flatten(tensor) -> list[float]:
    out = []
    for channel in tensor:
        for row in channel:
            for value in row:
                out.append(float(value))
    return out


def cosine_oracle(a, b) -> float:
    total = 0.0
    for ca, cb in zip(a, b):
        dot = 0.0
        na = 0.0
        nb = 0.0
        for row_a, row_b in zip(ca, cb):
            for x, y in zip(row_a, row_b):
                x = float(x)
                y = float(y)
                dot += x * y
                na += x * x
                nb += y * y
        if na > 0.0 and nb > 0.0:
            total += dot / (math.sqrt(na) * math.sqrt(nb))
    return total


def manhattan_oracle(a, b) -> float:
    return -sum(abs(x - y) for x, y in zip(_flatten(a), _flatten(b)))


def euclidean_oracle(a, b) -> float:
    return -math.sqrt(sum((x - y) ** 2 for x, y in zip(_flatten(a), _flatten(b))))


def dot_oracle(a, b) -> float:
    return sum(x * y for x, y in zip(_flatten(a), _flatten(b)))


def pearson_flat_oracle(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def pearson_oracle(a, b) -> float:
    return pearson_flat_oracle(_flatten(a), _flatten(b))


def average_ranks_oracle(values: list[float]) -> list[float]:
    """1-based ranks; tied values share the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_oracle(a, b) -> float:
    ra = average_ranks_oracle(_flatten(a))
    rb = average_ranks_oracle(_flatten(b))
    return pearson_flat_oracle(ra, rb)


METRIC_ORACLES = {
    "cosine": cosine_oracle,
    "manhattan": manhattan_oracle,
    "euclidean": euclidean_oracle,
    "dot": dot_oracle,
    "spearman": spearman_oracle,
    "pearson": pearson_oracle,
}


# ---------------------------------------------------------------------------
# pixel-set oracles


def boundary_oracle(mask) -> list[list[bool]]:
    """Member pixels with a non-member or out-of-image 4-neighbor."""
    h = len(mask)
    w = len(mask[0])
    out = [[False] * w for _ in range(h)]
    for i in range(h):
        for j in range(w):
            if not mask[i][j]:
                continue
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if ni < 0 or ni >= h or nj < 0 or nj >= w or not mask[ni][nj]:
                    out[i][j] = True
                    break
    return out


def disk_offsets_oracle(radius: int) -> list[tuple[int, int]]:
    return [(dy, dx)
            for dy in range(-radius, radius + 1)
            for dx in range(-radius, radius + 1)
            if dy * dy + dx * dx <= radius * radius]


def dilate_oracle(mask, radius: int) -> list[list[bool]]:
    """Mark every disk offset around every member pixel (O(h*w*r^2))."""
    h = len(mask)
    w = len(mask[0])
    out = [[False] * w for _ in range(h)]
    offsets = disk_offsets_oracle(radius)
    for i in range(h):
        for j in range(w):
            if mask[i][j]:
                for dy, dx in offsets:
                    ni, nj = i + dy, j + dx
                    if 0 <= ni < h and 0 <= nj < w:
                        out[ni][nj] = True
    return out


def dilate_shift_oracle(mask, radius: int):
    """Union-of-translates dilation: one shifted copy per disk offset.

    Same O(h*w*r^2) work as dilate_oracle but with array slices for speed;
    cross-checked against the pure-loop version in the tests that use it.
    """
    import numpy as np

    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    out = np.zeros_like(m)
    for dy, dx in disk_offsets_oracle(radius):
        if abs(dy) >= h or abs(dx) >= w:
            continue  # shifted copy falls entirely outside the frame
        src_y = slice(max(0, -dy), min(h, h - dy))
        src_x = slice(max(0, -dx), min(w, w - dx))
        dst_y = slice(max(0, dy), min(h, h + dy))
        dst_x = slice(max(0, dx), min(w, w + dx))
        out[dst_y, dst_x] |= m[src_y, src_x]
    return out


def boundary_f_shift_oracle(pred, gt, radius: int) -> float:
    """boundary_f_oracle with the slice-based dilation (loop boundaries)."""
    import numpy as np

    bp = np.asarray(boundary_oracle(pred), dtype=bool)
    bg = np.asarray(boundary_oracle(gt), dtype=bool)
    n_p = int(bp.sum())
    n_g = int(bg.sum())
    if n_p == 0 and n_g == 0:
        return 1.0
    if n_p == 0 or n_g == 0:
        return 0.0
    precision = int((bp & dilate_shift_oracle(bg, radius)).sum()) / n_p
    recall = int((bg & dilate_shift_oracle(bp, radius)).sum()) / n_g
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _count(mask) -> int:
    return sum(1 for row in mask for v in row if v)


def _count_and(a, b) -> int:
    return sum(1 for ra, rb in zip(a, b) for x, y in zip(ra, rb) if x and y)


def jaccard_oracle(pred, gt) -> float:
    inter = _count_and(pred, gt)
    union = _count(pred) + _count(gt) - inter
    if union == 0:
        return 1.0
    return inter / union


def dice_oracle(pred, gt) -> float:
    total = _count(pred) + _count(gt)
    if total == 0:
        return 1.0
    return 2 * _count_and(pred, gt) / total


def boundary_f_oracle(pred, gt, radius: int) -> float:
    bp = boundary_oracle(pred)
    bg = boundary_oracle(gt)
    n_p = _count(bp)
    n_g = _count(bg)
    if n_p == 0 and n_g == 0:
        return 1.0
    if n_p == 0 or n_g == 0:
        return 0.0
    precision = _count_and(bp, dilate_oracle(bg, radius)) / n_p
    recall = _count_and(bg, dilate_oracle(bp, radius)) / n_g
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def ciou_oracle(pred_seq, gt_seq) -> float:
    inter = 0
    union = 0
    for pred, gt in zip(pred_seq, gt_seq):
        i = _count_and(pred, gt)
        inter += i
        union += _count(pred) + _count(gt) - i
    if union == 0:
        return 1.0
    return inter / union


# ---------------------------------------------------------------------------
# encoder oracles


def block_mean_oracle(labels, h: int, w: int) -> list[list[float]]:
    """Share of nonzero pixels in each of the h x w equal blocks of the grid."""
    big_h = len(labels)
    big_w = len(labels[0])
    bh = big_h // h
    bw = big_w // w
    out = []
    for i in range(h):
        row = []
        for j in range(w):
            count = 0
            for y in range(i * bh, (i + 1) * bh):
                for x in range(j * bw, (j + 1) * bw):
                    if labels[y][x] != 0:
                        count += 1
            row.append(count / (bh * bw))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# tracker oracle


def track_oracle(scene, encoder_config, capacity: int, metric: str, mode: str,
                 prune_enabled: bool, seed: int):
    """The streaming loop of ``harness.track_sequence`` over plain lists.

    The bank is a list of (frame_index, features, mask rows), oldest first.
    Returns the predicted masks as nested lists and one tuple per step:
    (step, frame_index, bank before, bank after, retained, pruned, scores by
    group, selected frame, readout cost).
    """
    from vosmem.harness import encode_frame
    from vosmem.memory import similarity

    def best(scores):
        # the highest score; a tie goes to the smallest frame index
        winner = None
        for i in sorted(scores):
            if winner is None or scores[i] > scores[winner]:
                winner = i
        return winner

    def entry(frame, mask):
        return frame.frame_index, encode_frame(frame, encoder_config, seed), mask

    frames = list(scene)
    prompt = frames[0].labels.tolist()
    bank = [entry(frames[0], prompt)]
    predicted = [prompt]
    steps = []
    for t in range(1, len(frames)):
        current = entry(frames[t], None)
        before = [e[0] for e in bank]
        retained, pruned, scores = list(bank), [], {}
        if prune_enabled and len(bank) == capacity:
            n_short = -(-capacity // 2)  # the newest ceil(n/2) are short-term
            short, long = bank[capacity - n_short:], bank[:capacity - n_short]
            for name, reference, candidates in (("short", short[-1], short[:-1]),
                                                ("long", long[0], long[1:])):
                scores[name] = {c[0]: similarity(metric, reference[1], c[1])
                                for c in candidates}
                if candidates:
                    pruned.append(best(scores[name]))
            retained = [e for e in bank if e[0] not in pruned]
            if mode == "persistent":
                bank = list(retained)
        selected = best({e[0]: similarity(metric, e[1], current[1]) for e in retained})
        mask = [e[2] for e in retained if e[0] == selected][0]
        bank.append((current[0], current[1], mask))
        if len(bank) > capacity:
            bank.pop(0)
        predicted.append(mask)
        h, w = encoder_config.feature_resolution
        steps.append((t, current[0], before, [e[0] for e in bank], [e[0] for e in retained],
                      sorted(pruned), scores, selected, len(retained) * h * w))
    return predicted, steps
