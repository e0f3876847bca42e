"""The class-block generator and the feature reader against their frozen
per-video forms in ``scalar_oracle``.

Every comparison is bitwise: positions and frames must have the same dtype,
shape and bytes as the one-video code they replaced.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from fsvc.core import SPLITS, RngStream, load_manifest, load_split
from fsvc.synthdata import (
    GeneratorSpec,
    _video_block,
    _warp_rows,
    gen_benchmark,
    gen_class_prototype,
)

SETTINGS = settings(max_examples=200, deadline=None)

strengths = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def same_bits(x, y) -> bool:
    x = np.asarray(x)
    y = np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _spec(t: int, length: int, strength: float, sigma: float, c: int = 3):
    return GeneratorSpec(1, 0, 0, 1, c, t, length, sigma, strength)


@SETTINGS
@given(
    t=st.integers(1, 16),
    extra=st.integers(0, 48),
    strength=strengths,
    stream=st.integers(0, 1 << 40),
)
@example(t=1, extra=0, strength=0.0, stream=0)
@example(t=16, extra=0, strength=0.5, stream=1)
@example(t=16, extra=48, strength=1.0, stream=2)
def test_warp_positions_match_oracle(t, extra, strength, stream):
    length = t + extra
    got = _warp_rows(RngStream(5, stream).generator().random((1, t)), length, strength)[0]
    want = oracle._warp_positions(RngStream(5, stream).generator(), t, length, strength)
    assert same_bits(got, want)


@SETTINGS
@given(
    t=st.integers(1, 16),
    extra=st.integers(0, 48),
    strength=strengths,
    sigma=st.sampled_from([0.0, 0.1, 0.5]),
    c=st.integers(1, 6),
    stream=st.integers(0, 1 << 40),
)
@example(t=1, extra=0, strength=0.0, sigma=0.0, c=1, stream=0)
@example(t=8, extra=24, strength=1.0, sigma=0.3, c=4, stream=3)
def test_gen_video_matches_oracle(t, extra, strength, sigma, c, stream):
    spec = _spec(t, t + extra, strength, sigma, c)
    proto = gen_class_prototype(RngStream(6, stream), c, spec.prototype_len)
    got = _video_block(proto, spec, [RngStream(6, stream).generator()], 1)[0]
    want = oracle.gen_video(proto, spec, RngStream(6, stream))
    assert same_bits(got, want.frames)


@SETTINGS
@given(
    c=st.integers(1, 9),
    length=st.integers(1, 40),
    corr=st.sampled_from([0.0, 0.5, 3.0]),
    stream=st.integers(0, 1 << 40),
)
@example(c=1, length=1, corr=0.0, stream=0)  # std 0: every column is 0
def test_gen_class_prototype_matches_oracle(c, length, corr, stream):
    got = gen_class_prototype(RngStream(8, stream), c, length, corr)
    want = oracle.gen_class_prototype(RngStream(8, stream), c, length, corr)
    assert same_bits(got, want)


@pytest.mark.parametrize("v", [1, 7, 40])
@pytest.mark.parametrize(
    "t, length, strength, sigma",
    [(8, 32, 0.7, 0.3), (4, 12, 0.0, 0.5), (6, 20, 1.0, 0.0), (9, 9, 0.6, 0.1)],
)
def test_block_row_is_the_video_of_its_stream(v, t, length, strength, sigma):
    spec = _spec(t, length, strength, sigma, c=5)
    proto = gen_class_prototype(RngStream(4, 0), 5, length)
    streams = [RngStream(4, 1000 + 17 * i) for i in range(v)]
    block = _video_block(proto, spec, [s.generator() for s in streams], len(streams))
    assert block.shape == (v, t, 5)
    for row, stream in zip(block, streams):
        assert same_bits(row, oracle.gen_video(proto, spec, stream).frames)


def test_load_sequence_matches_oracle_reader(tmp_path):
    spec = GeneratorSpec(3, 2, 2, 4, 16, 5, 16, 0.2, 0.4, 13, pretrain_classes=2)
    gen_benchmark(spec, tmp_path / "b")
    for name in ("manifest.json", "pretrain_manifest.json"):
        manifest = load_manifest(tmp_path / "b" / name)
        loaded = {
            seq.video_id: seq
            for split in SPLITS
            for videos in load_split(manifest, split).by_class.values()
            for seq in videos
        }
        assert len(loaded) == len(manifest.videos)
        for entry in manifest.videos:
            path = os.path.join(tmp_path / "b", entry.file_path)
            seq = loaded[entry.video_id]
            # held at the file's precision, widened exactly for computation
            assert seq.frames.dtype == np.float32
            widened = np.asarray(seq.frames, dtype=np.float64)
            assert same_bits(widened, oracle.read_feature_frames(path))
            assert not seq.frames.flags.writeable
            assert seq.class_id == entry.class_id
