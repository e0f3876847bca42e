"""Episode sampling, large-scale evaluation, split construction, reports.

Evaluation runs episodes in one serial loop and gives episode e the random
stream (seed, e), so each episode can be reproduced on its own and report
bytes depend only on the model, the data and the config.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .core import (
    CapacityError,
    FeatureSequence,
    Manifest,
    RngStream,
    ValidationError,
    VideoEntry,
    _stream_generators,
    as_generator,
    load_sequence,
)
from .protocols import MethodConfig, TrainedModel, adapt_and_predict

STREAM_SPLIT = 8 << 32
STREAM_CAP = 9 << 32

REPORT_FIELDS = (
    "method",
    "n_way",
    "k_shot",
    "episodes",
    "mean_accuracy",
    "ci95_halfwidth",
    "mean_accuracy_pct",
    "ci95_halfwidth_pct",
    "seed",
    "fingerprint",
)


@dataclass(frozen=True)
class Episode:
    """One n-way k-shot task: labeled supports plus exactly one query."""

    support: tuple[tuple[FeatureSequence, int], ...]
    query: tuple[FeatureSequence, int]
    class_map: dict[int, int]  # local label -> global class_id


def validate_episode(episode: Episode, n_way: int, k_shot: int) -> None:
    """Raise unless the episode satisfies its structural invariants."""
    counts = [0] * n_way
    support_ids = set()
    for seq, lab in episode.support:
        if not 0 <= lab < n_way:
            raise ValidationError(f"support label {lab} out of range")
        if seq.class_id != episode.class_map[lab]:
            raise ValidationError(
                f"support {seq.video_id!r}: class {seq.class_id} does not match "
                f"label {lab} -> {episode.class_map[lab]}"
            )
        counts[lab] += 1
        support_ids.add(seq.video_id)
    if counts != [k_shot] * n_way:
        raise ValidationError(f"support counts {counts} != {k_shot} per class")
    if len(support_ids) != n_way * k_shot:
        raise ValidationError("duplicate support video ids")
    q_seq, q_lab = episode.query
    if not 0 <= q_lab < n_way:
        raise ValidationError(f"query label {q_lab} out of range")
    if q_seq.class_id != episode.class_map[q_lab]:
        raise ValidationError("query label does not match its class")
    if q_seq.video_id in support_ids:
        raise ValidationError(
            f"query video {q_seq.video_id!r} also appears in the support set"
        )
    if len(set(episode.class_map.values())) != n_way:
        raise ValidationError("episode classes are not distinct")


@dataclass(frozen=True)
class SplitData:
    """One manifest split, fully loaded and grouped by class.

    ``frames`` is the split's read-only (N, T, C_in) block, its rows in
    (class_id, video_id) order, the order of ``by_class``; each sequence's
    frames are a view of its row, so the split's frames are held once.
    """

    class_ids: tuple[int, ...]
    by_class: dict[int, tuple[FeatureSequence, ...]]
    frames: np.ndarray


def load_split(manifest: Manifest, split: str) -> SplitData:
    """Read the split's files, in manifest order, each into its row of one
    float64 block, which is then made read-only."""
    entries = manifest.split_videos(split)
    ordered = sorted(entries, key=lambda e: (e.class_id, e.video_id))
    slot = {e.video_id: s for s, e in enumerate(ordered)}  # ids are unique
    frames = np.empty((len(entries), manifest.frame_count, manifest.feature_dim))
    loaded = {
        e.video_id: load_sequence(manifest, e, out=frames[slot[e.video_id]])
        for e in entries
    }
    frames.flags.writeable = False
    by_class = {
        cid: tuple(loaded[e.video_id] for e in group)
        for cid, group in groupby(ordered, key=lambda e: e.class_id)
    }
    return SplitData(class_ids=tuple(by_class), by_class=by_class, frames=frames)


def _check_capacity(
    data: SplitData, n_way: int, k_shot: int, split: str = "split"
) -> None:
    if len(data.class_ids) < n_way:
        raise CapacityError(
            f"{split} has {len(data.class_ids)} classes, need {n_way}"
        )
    for cid in data.class_ids:
        have = len(data.by_class[cid])
        if have < k_shot + 1:
            raise CapacityError(
                f"class {cid} of the {split} has {have} videos, need {k_shot + 1} "
                f"({k_shot} supports plus a query candidate)"
            )


# Generator.choice's own set-up costs about five scalar integers() calls, and
# a Floyd draw of `size` picks makes 2 * size - 1 of them, so only the
# smallest draws are cheaper made one by one.  choice runs Floyd's algorithm
# for every size this small: it switches to a tail shuffle only for
# pop > 10000 and size > pop // 50.
_SCALAR_PICKS_MAX = 2


def _choice(gen: np.random.Generator, pop: int, size: int) -> list[int]:
    """``gen.choice(pop, size, replace=False).tolist()``, 0 <= size <= pop.

    Up to ``_SCALAR_PICKS_MAX`` picks are drawn as choice draws them, without
    its Python-level set-up: Floyd's ``integers(j + 1)`` for j from
    pop - size to pop - 1 (a repeat becomes j), then a Fisher-Yates shuffle
    with ``integers(i + 1)`` for i from size - 1 down to 1.  The picks and the
    generator state after them are those of ``gen.choice``.
    """
    if size > _SCALAR_PICKS_MAX:
        return gen.choice(pop, size=size, replace=False).tolist()
    integers = gen.integers
    picks: list[int] = []
    for j in range(pop - size, pop):
        pick = int(integers(j + 1))
        picks.append(j if pick in picks else pick)
    for i in range(size - 1, 0, -1):
        k = int(integers(i + 1))
        picks[i], picks[k] = picks[k], picks[i]
    return picks


def sample_episode(
    data: SplitData,
    n_way: int,
    k_shot: int,
    rng: RngStream | np.random.Generator,
) -> Episode:
    """Uniform episode draw: classes without replacement, then videos without
    replacement within each class; one extra video from a uniformly chosen
    class becomes the query."""
    _check_capacity(data, n_way, k_shot)
    gen = as_generator(rng)
    chosen = _choice(gen, len(data.class_ids), n_way)
    query_slot = int(gen.integers(n_way))
    support: list[tuple[FeatureSequence, int]] = []
    query: tuple[FeatureSequence, int] | None = None
    class_map: dict[int, int] = {}
    for local, idx in enumerate(chosen):
        cid = data.class_ids[idx]
        class_map[local] = cid
        videos = data.by_class[cid]
        need = k_shot + 1 if local == query_slot else k_shot
        picks = _choice(gen, len(videos), need)
        for pick in picks[:k_shot]:
            support.append((videos[pick], local))
        if local == query_slot:
            query = (videos[picks[k_shot]], local)
    assert query is not None
    return Episode(support=tuple(support), query=query, class_map=class_map)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalReport:
    method: str
    n_way: int
    k_shot: int
    episodes: int
    mean_accuracy: float
    ci95_halfwidth: float
    seed: int
    fingerprint: str
    wall_time: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_accuracy <= 1.0:
            raise ValidationError(
                f"mean accuracy {self.mean_accuracy} outside [0, 1]"
            )


def ci95_halfwidth(values: np.ndarray) -> float:
    """1.96 * sample standard deviation (n-1 normalization) / sqrt(n)."""
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[0]
    if n < 2:
        return 0.0
    return float(1.96 * v.std(ddof=1) / np.sqrt(n))


def accuracy_vector(
    model: TrainedModel,
    cfg: MethodConfig,
    data: SplitData,
    n_episodes: int,
) -> np.ndarray:
    """Per-episode 0/1 accuracies; episode e draws from stream (seed, e)."""
    if n_episodes < 1:
        raise ValidationError(f"need at least 1 episode, got {n_episodes}")
    _check_capacity(data, cfg.n_way, cfg.k_shot)
    correct = np.zeros(n_episodes, dtype=np.float64)
    # each generator serves one episode only, so one re-keyed Philox does
    for e, gen in enumerate(_stream_generators(cfg.seed, range(n_episodes))):
        episode = sample_episode(data, cfg.n_way, cfg.k_shot, gen)
        pred = adapt_and_predict(model, episode, cfg, rng=gen)
        correct[e] = 1.0 if pred == episode.query[1] else 0.0
    return correct


def evaluate(
    model: TrainedModel,
    cfg: MethodConfig,
    manifest: Manifest,
    n_episodes: int = 10000,
    split: str = "test",
) -> EvalReport:
    """Mean episode accuracy with a 95% confidence interval."""
    if model.embedding.in_dim != manifest.feature_dim:
        raise ValidationError(
            f"model embeds {model.embedding.in_dim}-dim frames, manifest "
            f"feature_dim is {manifest.feature_dim}"
        )
    started = time.perf_counter()
    data = load_split(manifest, split)
    correct = accuracy_vector(model, cfg, data, n_episodes)
    return EvalReport(
        method=cfg.method,
        n_way=cfg.n_way,
        k_shot=cfg.k_shot,
        episodes=n_episodes,
        mean_accuracy=float(correct.mean()),
        ci95_halfwidth=ci95_halfwidth(correct),
        seed=cfg.seed,
        fingerprint=model.fingerprint,
        wall_time=time.perf_counter() - started,
    )


def report_to_dict(report: EvalReport) -> dict:
    """Serializable view with fixed key order and fixed-precision reals.

    Wall time is deliberately excluded so report files are byte-deterministic
    across runs of the same inputs.
    """
    return {
        "method": report.method,
        "n_way": report.n_way,
        "k_shot": report.k_shot,
        "episodes": report.episodes,
        "mean_accuracy": round(report.mean_accuracy, 6),
        "ci95_halfwidth": round(report.ci95_halfwidth, 6),
        "mean_accuracy_pct": f"{100.0 * report.mean_accuracy:.4f}",
        "ci95_halfwidth_pct": f"{100.0 * report.ci95_halfwidth:.4f}",
        "seed": report.seed,
        "fingerprint": report.fingerprint,
    }


def report_bytes(report: EvalReport, fmt: str = "json") -> bytes:
    doc = report_to_dict(report)
    if fmt == "json":
        return (json.dumps(doc, indent=2) + "\n").encode()
    if fmt == "csv":
        header = ",".join(REPORT_FIELDS)
        row = ",".join(str(doc[f]) for f in REPORT_FIELDS)
        return (header + "\n" + row + "\n").encode()
    raise ValidationError(f"unknown report format {fmt!r}")


def write_report(report: EvalReport, path: str | Path, fmt: str = "json") -> None:
    Path(path).write_bytes(report_bytes(report, fmt))


# ---------------------------------------------------------------------------
# split construction


def build_splits(
    manifest: Manifest,
    n_train: int,
    n_val: int,
    n_test: int,
    cap: int | None = None,
    seed: int = 0,
) -> Manifest:
    """Deterministically repartition a manifest's classes into disjoint splits.

    Classes are permuted by seed and dealt to train, val, test in order;
    leftover classes are dropped.  ``cap`` limits the number of training
    videos kept per class (a deterministic per-class subsample), which is how
    a scarce-base-data benchmark is carved out of an abundant one.
    """
    if min(n_train, n_val, n_test) < 0:
        raise ValidationError(
            f"class counts must be >= 0, got {n_train}/{n_val}/{n_test}"
        )
    if cap is not None and cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    all_ids = sorted(cid for cid, _ in manifest.classes)
    need = n_train + n_val + n_test
    if len(all_ids) < need:
        raise CapacityError(
            f"manifest has {len(all_ids)} classes, need {need} for a "
            f"{n_train}/{n_val}/{n_test} partition"
        )
    perm = RngStream(seed, STREAM_SPLIT).generator().permutation(all_ids)
    assignment: dict[int, str] = {}
    for cid in perm[:n_train]:
        assignment[int(cid)] = "train"
    for cid in perm[n_train : n_train + n_val]:
        assignment[int(cid)] = "val"
    for cid in perm[n_train + n_val : need]:
        assignment[int(cid)] = "test"

    by_class: dict[int, list[VideoEntry]] = {}
    for video in manifest.videos:
        if video.class_id in assignment:
            by_class.setdefault(video.class_id, []).append(video)

    videos: list[VideoEntry] = []
    for cid in sorted(by_class):
        split = assignment[cid]
        entries = sorted(by_class[cid], key=lambda v: v.video_id)
        if split == "train" and cap is not None and len(entries) > cap:
            gen = RngStream(seed, STREAM_CAP + cid).generator()
            keep = sorted(gen.choice(len(entries), size=cap, replace=False))
            entries = [entries[int(i)] for i in keep]
        videos.extend(
            VideoEntry(v.video_id, v.class_id, v.file_path, split)
            for v in entries
        )

    classes = tuple(
        (cid, name) for cid, name in manifest.classes if cid in assignment
    )
    return Manifest(
        classes=classes,
        videos=tuple(videos),
        frame_count=manifest.frame_count,
        feature_dim=manifest.feature_dim,
        root=manifest.root,
    )
