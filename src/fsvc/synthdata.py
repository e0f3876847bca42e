"""Synthetic class-structured, temporally warped feature sequences.

Each class is a smooth random trajectory; each video samples T frames from it
at monotone, randomly warped positions and adds Gaussian noise.  Warping
creates exactly the temporal misalignment that alignment-based similarity is
meant to undo, so alignment and adaptation methods can be compared end to end
at desk scale with a known ground truth.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    FeatureSequence,
    Manifest,
    RngStream,
    ValidationError,
    VideoEntry,
    _stream_generators,
    as_generator,
    check_field_types,
    save_manifest,
    write_feature_files,
)

# stream_id offsets; keeps every prototype / video on its own substream
STREAM_PROTO = 1 << 32
STREAM_VIDEO = 2 << 32

MANIFEST_NAME = "manifest.json"
PRETRAIN_MANIFEST_NAME = "pretrain_manifest.json"


@dataclass(frozen=True)
class GeneratorSpec:
    """Knobs for one synthetic benchmark.

    ``videos_per_class`` reproduces the scarce-vs-abundant base-data contrast;
    ``pretrain_classes`` adds a disjoint extra class set for transfer
    experiments.
    """

    n_train_classes: int
    n_val_classes: int
    n_test_classes: int
    videos_per_class: int
    feature_dim: int = 32
    frame_count: int = 8
    prototype_len: int = 32
    noise_sigma: float = 0.1
    warp_strength: float = 0.0
    seed: int = 0
    pretrain_classes: int = 0
    feature_corr: float = 0.0

    def __post_init__(self) -> None:
        check_field_types(self, "generator field {!r}")
        if min(self.n_train_classes, self.n_val_classes, self.n_test_classes) < 0:
            raise ValidationError("class counts must be >= 0")
        if self.videos_per_class < 1:
            raise ValidationError("videos_per_class must be >= 1")
        if self.feature_dim < 1 or self.frame_count < 1:
            raise ValidationError("feature_dim and frame_count must be >= 1")
        if self.prototype_len < self.frame_count:
            raise ValidationError(
                f"prototype_len ({self.prototype_len}) must be >= frame_count "
                f"({self.frame_count})"
            )
        if not 0.0 <= self.warp_strength <= 1.0:
            raise ValidationError("warp_strength must be in [0, 1]")
        if self.noise_sigma < 0.0:
            raise ValidationError("noise_sigma must be >= 0")
        if self.pretrain_classes < 0:
            raise ValidationError("pretrain_classes must be >= 0")
        if self.feature_corr < 0.0:
            raise ValidationError("feature_corr must be >= 0")

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorSpec":
        if not isinstance(doc, dict):
            raise ValidationError("generator spec must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown generator fields: {sorted(unknown)}")
        missing = [
            f.name for f in fields(cls) if f.default is MISSING and f.name not in doc
        ]
        if missing:
            raise ValidationError(f"missing generator fields: {missing}")
        return cls(**doc)


def _correlation_kernel(feature_dim: int, width: float) -> np.ndarray:
    """Circulant Gaussian kernel correlating neighboring feature columns.

    Every class uses the same kernel, so the correlation structure is shared
    across classes: class signal concentrates in a common low-dimensional
    subspace while additive noise stays isotropic, which is what makes the
    quality of a learned representation depend on base-data volume.
    """
    offsets = np.arange(feature_dim)
    dist = np.minimum(offsets, feature_dim - offsets)
    kernel = np.exp(-0.5 * (dist / width) ** 2)
    kernel /= np.linalg.norm(kernel)
    idx = (offsets[:, None] - offsets[None, :]) % feature_dim
    return kernel[idx]


def gen_class_prototype(
    rng: RngStream | np.random.Generator,
    feature_dim: int,
    length: int,
    corr_width: float = 0.0,
) -> np.ndarray:
    """Smooth random trajectory: cumulative sum of unit-variance steps,
    then standardized per column (mean 0, std 1).

    ``corr_width`` > 0 correlates the step components of neighboring feature
    columns through a kernel shared by all classes; 0 keeps columns
    independent.
    """
    if feature_dim < 1 or length < 1:
        raise ValidationError("feature_dim and length must be >= 1")
    gen = as_generator(rng)
    steps = gen.standard_normal((length, feature_dim))
    if corr_width > 0.0:
        steps = steps @ _correlation_kernel(feature_dim, corr_width)
    traj = np.cumsum(steps, axis=0)
    mean = traj.mean(axis=0)
    std = traj.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (traj - mean) / std


def _warp_rows(u: np.ndarray, length: int, strength: float) -> np.ndarray:
    """Monotone frame positions in [0, length-1], one row per row of ``u``.

    ``u`` holds each video's T uniform draws.  Each row blends the uniform
    grid with its sorted-uniform random warp; the blend weight is the warp
    strength, so 0 gives exactly the uniform grid.  For strength < 1
    positions are repaired to be strictly increasing (always possible since
    length >= T).  Every step is row-wise, so a row does not depend on the
    rows next to it.
    """
    t = u.shape[1]
    uniform = np.linspace(0.0, length - 1, t)
    random_pos = np.sort(u, axis=1) * (length - 1)
    blended = (1.0 - strength) * uniform + strength * random_pos
    pos = np.rint(blended).astype(np.int64)
    if strength < 1.0:
        idx = np.arange(t)
        pos = np.maximum.accumulate(pos - idx, axis=1) + idx  # gaps >= 1
        pos = np.minimum(pos, length - t + idx)  # stay within range
    return pos


def _warp_positions(
    gen: np.random.Generator, t: int, length: int, strength: float
) -> np.ndarray:
    """The frame positions of one video: ``_warp_rows`` on T draws of ``gen``."""
    return _warp_rows(gen.random((1, t)), length, strength)[0]


def _video_block(
    proto: np.ndarray,
    spec: GeneratorSpec,
    gens: Iterable[np.random.Generator],
    count: int,
) -> np.ndarray:
    """(V, T, C_in) frames of one video per generator, all from ``proto``.

    ``gens`` yields ``count`` generators, drawn in turn.  Each generator
    draws its video's T warp uniforms and then, if there is noise, its
    (T, C_in) standard normals before the next one is drawn; everything after
    the draws runs once on the whole block.
    """
    if proto.shape[0] != spec.prototype_len:
        raise ValidationError(
            f"prototype has {proto.shape[0]} rows, spec says {spec.prototype_len}"
        )
    t = spec.frame_count
    u = np.empty((count, t))
    noise = np.empty((count, t, proto.shape[1]))
    for u_row, noise_rows, gen in zip(u, noise, gens):
        gen.random(out=u_row)
        if spec.noise_sigma > 0.0:
            gen.standard_normal(out=noise_rows)
    frames = proto[_warp_rows(u, spec.prototype_len, spec.warp_strength)]
    if spec.noise_sigma > 0.0:
        noise *= spec.noise_sigma
        frames += noise
    return frames


def gen_video(
    proto: np.ndarray,
    spec: GeneratorSpec,
    rng: RngStream | np.random.Generator,
    video_id: str = "",
    class_id: int = 0,
) -> FeatureSequence:
    """Sample one video from a class prototype: warped positions plus noise."""
    frames = _video_block(proto, spec, [as_generator(rng)], 1)[0]
    return FeatureSequence(video_id=video_id, class_id=class_id, frames=frames)


def gen_benchmark(spec: GeneratorSpec, out_dir: str | Path) -> Manifest:
    """Write a full benchmark under ``out_dir`` and return its manifest.

    Class ids are assigned train, then val, then test, then pretrain, so all
    four sets are disjoint by construction.  When ``pretrain_classes`` > 0 a
    second manifest (pretrain_manifest.json) is written next to the main one.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # (manifest file, split, class count, feature subdirectory) in class-id order
    plan = [
        (MANIFEST_NAME, "train", spec.n_train_classes, "features"),
        (MANIFEST_NAME, "val", spec.n_val_classes, "features"),
        (MANIFEST_NAME, "test", spec.n_test_classes, "features"),
        (PRETRAIN_MANIFEST_NAME, "train", spec.pretrain_classes, "features_pretrain"),
    ]
    # the main manifest is written even with no classes, the pretraining one
    # only with some
    listed: dict[str, tuple[list, list[VideoEntry]]] = {MANIFEST_NAME: ([], [])}
    rows = [(m, split, sub) for m, split, n, sub in plan for _ in range(n)]
    n_videos = spec.videos_per_class
    # each class is generated and written as one block; class c's videos take
    # video streams c * videos_per_class onwards, so every video has its own
    for class_id, (manifest_name, split, subdir) in enumerate(rows):
        name = f"cls{class_id:03d}"
        proto = gen_class_prototype(
            RngStream(spec.seed, STREAM_PROTO + class_id),
            spec.feature_dim,
            spec.prototype_len,
            corr_width=spec.feature_corr,
        )
        streams = range(class_id * n_videos, (class_id + 1) * n_videos)
        gens = _stream_generators(spec.seed, (STREAM_VIDEO + s for s in streams))
        frames = _video_block(proto, spec, gens, n_videos)
        entries = [
            VideoEntry(vid, class_id, f"{subdir}/{name}/{vid}.fsvf", split)
            for vid in (f"{name}_v{j:03d}" for j in range(n_videos))
        ]
        os.makedirs(os.path.join(out_dir, subdir, name), exist_ok=True)
        paths = [os.path.join(out_dir, e.file_path) for e in entries]
        write_feature_files(frames, paths)
        classes, videos = listed.setdefault(manifest_name, ([], []))
        classes.append((class_id, name))
        videos.extend(entries)

    manifests = {
        manifest_name: Manifest(
            classes=tuple(classes),
            videos=tuple(videos),
            frame_count=spec.frame_count,
            feature_dim=spec.feature_dim,
            root=out_dir,
        )
        for manifest_name, (classes, videos) in listed.items()
    }
    for manifest_name, manifest in manifests.items():
        save_manifest(manifest, out_dir / manifest_name)
    return manifests[MANIFEST_NAME]
