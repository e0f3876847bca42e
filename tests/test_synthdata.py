"""Synthetic benchmark generator: determinism, warp structure, separability."""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from fsvc.align import cosine, dtw, frame_distance_matrix
from fsvc.core import RngStream, ValidationError, load_manifest, load_sequence
from fsvc.synthdata import (
    GeneratorSpec,
    _video_block,
    _warp_rows,
    gen_benchmark,
    gen_class_prototype,
)


def _spec(**kw):
    base = dict(
        n_train_classes=4,
        n_val_classes=2,
        n_test_classes=4,
        videos_per_class=10,
        feature_dim=8,
        frame_count=4,
        prototype_len=16,
        noise_sigma=0.0,
        warp_strength=0.0,
        seed=7,
    )
    base.update(kw)
    return GeneratorSpec(**base)


def _video(proto, spec, rng):
    """The (T, C_in) frames that ``rng``'s stream draws from ``proto``."""
    return _video_block(proto, spec, [rng.generator()], 1)[0]


def test_prototype_deterministic():
    a = gen_class_prototype(RngStream(5, 1), 4, 16)
    b = gen_class_prototype(RngStream(5, 1), 4, 16)
    assert np.array_equal(a, b)


def test_prototypes_distinct_across_seeds():
    a = gen_class_prototype(RngStream(5, 1), 4, 16)
    b = gen_class_prototype(RngStream(5, 2), 4, 16)
    assert np.linalg.norm(a - b) > 0


def test_prototype_columns_standardized():
    proto = gen_class_prototype(RngStream(5, 3), 6, 32)
    assert proto.shape == (32, 6)
    assert np.all(np.abs(proto.mean(axis=0)) < 1e-9)
    assert np.allclose(proto.std(axis=0), 1.0, atol=1e-9)


def test_prototype_validates_args():
    with pytest.raises(ValidationError):
        gen_class_prototype(RngStream(5, 0), 0, 4)


def test_unwarped_noiseless_video_is_uniform_subsample():
    spec = _spec()
    proto = gen_class_prototype(RngStream(7, 0), spec.feature_dim, spec.prototype_len)
    expected_pos = np.rint(np.linspace(0, 15, 4)).astype(int)
    for stream in range(5):
        video = _video(proto, spec, RngStream(7, 100 + stream))
        assert np.array_equal(video, proto[expected_pos])


def test_warped_video_frames_are_ordered_prototype_rows():
    spec = _spec(warp_strength=0.8)
    proto = gen_class_prototype(RngStream(7, 0), spec.feature_dim, spec.prototype_len)
    for stream in range(20):
        video = _video(proto, spec, RngStream(7, 200 + stream))
        # recover each frame's prototype row index
        idx = [
            int(np.flatnonzero((proto == frame).all(axis=1))[0])
            for frame in video
        ]
        assert idx == sorted(idx)
        assert len(set(idx)) == len(idx)  # strictly increasing below strength 1


def test_warp_positions_strict_and_bounded():
    gen = RngStream(8, 0).generator()
    for _ in range(200):
        t = int(gen.integers(1, 9))
        length = t + int(gen.integers(0, 30))
        strength = float(gen.random())
        pos = _warp_rows(gen.random((1, t)), length, strength)[0]
        assert pos.min() >= 0 and pos.max() <= length - 1
        assert np.all(np.diff(pos) >= 1)
    # at full strength positions may repeat but stay monotone
    for _ in range(50):
        pos = _warp_rows(gen.random((1, 6)), 8, 1.0)[0]
        assert np.all(np.diff(pos) >= 0)


def test_noise_mean_squared_deviation_matches_sigma():
    spec = _spec(noise_sigma=0.1, warp_strength=0.0)
    proto = gen_class_prototype(RngStream(9, 0), spec.feature_dim, spec.prototype_len)
    clean = _video(proto, _spec(), RngStream(9, 1))
    total = 0.0
    n = 1000
    for i in range(n):
        noisy = _video(proto, spec, RngStream(9, 1000 + i))
        total += float(np.sum((noisy - clean) ** 2))
    expected = 0.01 * spec.feature_dim * spec.frame_count
    assert abs(total / n - expected) < 0.2 * expected


def test_benchmark_counts_and_disjoint_splits(tmp_path):
    manifest = gen_benchmark(_spec(), tmp_path / "bench")
    assert len(manifest.videos) == 100  # (4 + 2 + 4) classes x 10 videos
    train = manifest.split_class_ids("train")
    val = manifest.split_class_ids("val")
    test = manifest.split_class_ids("test")
    assert len(train) == 4 and len(val) == 2 and len(test) == 4
    assert not (train & val) and not (train & test) and not (val & test)
    # files load back through the manifest machinery
    reloaded = load_manifest(tmp_path / "bench" / "manifest.json")
    seq = load_sequence(reloaded, reloaded.videos[0])
    assert seq.frames.shape == (4, 8)


def test_benchmark_byte_identical_across_runs(tmp_path):
    spec = _spec(noise_sigma=0.2, warp_strength=0.5)
    gen_benchmark(spec, tmp_path / "a")
    gen_benchmark(spec, tmp_path / "b")
    a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel


def test_pretrain_manifest_disjoint(tmp_path):
    spec = _spec(pretrain_classes=8)
    manifest = gen_benchmark(spec, tmp_path / "bench")
    pre = load_manifest(tmp_path / "bench" / "pretrain_manifest.json")
    main_ids = {cid for cid, _ in manifest.classes}
    pre_ids = {cid for cid, _ in pre.classes}
    assert len(pre_ids) == 8
    assert not (main_ids & pre_ids)


def test_class_separability_of_mean_pooled_features(tmp_path):
    spec = _spec(
        n_train_classes=0,
        n_val_classes=0,
        n_test_classes=6,
        videos_per_class=8,
        noise_sigma=0.05,
        warp_strength=0.2,
        feature_dim=16,
        frame_count=8,
        prototype_len=32,
    )
    manifest = gen_benchmark(spec, tmp_path / "sep")
    pooled = {}
    for entry in manifest.videos:
        seq = load_sequence(manifest, entry)
        pooled.setdefault(entry.class_id, []).append(seq.frames.mean(axis=0))
    within, between = [], []
    cids = sorted(pooled)
    for i, ci in enumerate(cids):
        vs = pooled[ci]
        within.extend(
            cosine(vs[a], vs[b]) for a in range(len(vs)) for b in range(a + 1, len(vs))
        )
        for cj in cids[i + 1 :]:
            between.extend(cosine(u, v) for u in vs for v in pooled[cj])
    assert np.mean(within) > np.mean(between)


def test_warp_sensitivity_alignment_beats_framewise(tmp_path):
    spec = _spec(
        n_train_classes=0,
        n_val_classes=0,
        n_test_classes=4,
        videos_per_class=6,
        noise_sigma=0.0,
        warp_strength=0.9,
        feature_dim=16,
        frame_count=8,
        prototype_len=32,
    )
    manifest = gen_benchmark(spec, tmp_path / "warp")
    by_class = {}
    for entry in manifest.videos:
        seq = load_sequence(manifest, entry)
        by_class.setdefault(entry.class_id, []).append(seq.frames)
    framewise, aligned = [], []
    for frames_list in by_class.values():
        for a in range(len(frames_list)):
            for b in range(a + 1, len(frames_list)):
                fa, fb = frames_list[a], frames_list[b]
                framewise.append(
                    np.mean([cosine(fa[t], fb[t]) for t in range(fa.shape[0])])
                )
                d = frame_distance_matrix(fa, fb)
                cost, path = dtw(d)
                aligned.append(np.mean([1.0 - d[i, j] for i, j in path]))
    assert np.mean(aligned) > np.mean(framewise)


def test_spec_validation():
    with pytest.raises(ValidationError):
        _spec(prototype_len=2)  # below frame_count
    with pytest.raises(ValidationError):
        _spec(warp_strength=1.5)
    with pytest.raises(ValidationError):
        _spec(noise_sigma=-1.0)
    with pytest.raises(ValidationError):
        GeneratorSpec.from_dict({"n_train_classes": 1, "bogus": 2})


def test_spec_from_dict_names_missing_fields():
    with pytest.raises(ValidationError) as exc:
        GeneratorSpec.from_dict({"seed": 1, "n_val_classes": 2})
    msg = str(exc.value)
    for name in ("n_train_classes", "n_test_classes", "videos_per_class"):
        assert name in msg
    assert "n_val_classes" not in msg
    assert "'seed'" not in msg


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", "x"),
        ("seed", True),
        ("videos_per_class", 2.0),
        ("frame_count", None),
        ("noise_sigma", "0.1"),
        ("warp_strength", False),
        ("feature_corr", float("nan")),
        pytest.param("noise_sigma", 10**400, id="noise_sigma-10**400"),
    ],
)
def test_spec_from_dict_checks_field_types(field, value):
    doc = {
        "n_train_classes": 2,
        "n_val_classes": 2,
        "n_test_classes": 2,
        "videos_per_class": 3,
        field: value,
    }
    with pytest.raises(ValidationError, match=rf"generator field '{field}' must be"):
        GeneratorSpec.from_dict(doc)


def test_spec_built_in_code_checks_field_types():
    with pytest.raises(ValidationError, match="generator field 'n_train_classes'"):
        GeneratorSpec(5.0, 2, 2, 3)
    with pytest.raises(ValidationError, match="generator field 'noise_sigma'"):
        GeneratorSpec(5, 2, 2, 3, noise_sigma=float("inf"))


def test_spec_from_dict_accepts_ints_for_float_fields():
    spec = GeneratorSpec.from_dict(
        {
            "n_train_classes": 2,
            "n_val_classes": 2,
            "n_test_classes": 2,
            "videos_per_class": 3,
            "noise_sigma": 0,
            "warp_strength": 1,
        }
    )
    assert spec.noise_sigma == 0 and spec.warp_strength == 1
