"""Large-scale evaluation, reports and split construction.

Evaluation runs episodes in one serial loop and gives episode e the random
stream (seed, e), so each episode can be reproduced on its own and report
bytes depend only on the model, the data and the config.  ``core`` loads
splits and samples episodes; its ``load_split`` and ``sample_episode`` are
bound here too, under the names the benchmark traces them by.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CapacityError,
    Manifest,
    RngStream,
    SplitData,
    ValidationError,
    VideoEntry,
    empty_frames,
    load_split,
    sample_episode,  # unused here; see the module docstring
)
from .protocols import MethodConfig, TrainedModel, _episode_hits

STREAM_SPLIT = 8 << 32
STREAM_CAP = 9 << 32

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
    correct = empty_frames("accuracy vector", np.float64, episodes=n_episodes)
    hits = _episode_hits(model, cfg, data, range(n_episodes))
    for e, hit in enumerate(hits):
        correct[e] = hit
    return correct


def evaluate(
    model: TrainedModel,
    cfg: MethodConfig,
    manifest: Manifest,
    n_episodes: int = 10000,
) -> EvalReport:
    """Mean episode accuracy with a 95% confidence interval."""
    if model.embedding.in_dim != manifest.feature_dim:
        raise ValidationError(
            f"model embeds {model.embedding.in_dim}-dim frames, manifest "
            f"feature_dim is {manifest.feature_dim}"
        )
    started = time.perf_counter()
    data = load_split(manifest, "test")
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
        header = ",".join(doc)
        row = ",".join(str(value) for value in doc.values())
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
