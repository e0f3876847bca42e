"""Feature-file I/O, manifests, and deterministic RNG streams."""

import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsvc.core import (
    FeatureSequence,
    FormatError,
    FsvcError,
    LengthError,
    Manifest,
    RngStream,
    ShapeError,
    ValidationError,
    VideoEntry,
    _stream_generators,
    load_manifest,
    load_sequence,
    read_feature_file,
    save_manifest,
    write_feature_file,
    write_feature_files,
)


def test_zero_sequence_file_layout(tmp_path):
    seq = FeatureSequence("v0", 0, np.zeros((1, 2)))
    path = tmp_path / "v0.fsvf"
    write_feature_file(seq, path)
    data = path.read_bytes()
    # magic(4) + version(4) + T(4) + C_in(4) + 1*2 float32 payload(8)
    assert len(data) == 24
    assert data[:4] == b"FSVF"
    assert data[4:8] == (1).to_bytes(4, "little")  # version
    assert data[8:12] == (1).to_bytes(4, "little")  # T
    assert data[12:16] == (2).to_bytes(4, "little")  # C_in
    assert data[16:] == bytes(8)


def test_round_trip_exact_on_simple_values(tmp_path):
    frames = np.array([[1.0, -2.5], [0.25, 3.0], [7.0, -0.125]])
    seq = FeatureSequence("v1", 3, frames)
    path = tmp_path / "v1.fsvf"
    write_feature_file(seq, path)
    back = read_feature_file(path, video_id="v1", class_id=3)
    assert back.video_id == "v1"
    assert back.class_id == 3
    assert np.array_equal(back.frames, frames)  # exactly representable in f32


def test_round_trip_single_precision_payload(tmp_path):
    gen = RngStream(1, 0).generator()
    for i in range(1000):
        t = int(gen.integers(1, 5))
        c = int(gen.integers(1, 7))
        frames = gen.standard_normal((t, c)) * 10
        seq = FeatureSequence(f"v{i}", 0, frames)
        path = tmp_path / "x.fsvf"
        write_feature_file(seq, path)
        back = read_feature_file(path)
        assert np.array_equal(
            back.frames.astype(np.float32), frames.astype(np.float32)
        )


def test_rewrite_over_longer_file_leaves_no_tail(tmp_path):
    seq = FeatureSequence("v", 0, np.ones((2, 3)))
    path = tmp_path / "v.fsvf"
    path.write_bytes(b"x" * 1000)
    write_feature_file(seq, path)
    write_feature_file(seq, tmp_path / "fresh.fsvf")
    assert path.read_bytes() == (tmp_path / "fresh.fsvf").read_bytes()


def test_block_writer_checks_block_before_writing(tmp_path):
    path = tmp_path / "a.fsvf"
    with pytest.raises(ShapeError):
        write_feature_files(np.zeros((2, 1, 1)), [path])
    with pytest.raises(ShapeError):
        write_feature_files(np.zeros((1, 1)), [path])
    bad = np.zeros((2, 1, 1))
    bad[1, 0, 0] = np.inf
    with pytest.raises(ValidationError):
        write_feature_files(bad, [path, tmp_path / "b.fsvf"])
    assert not path.exists()


def test_read_frames_are_bitwise_float32_widened(tmp_path):
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    frames = np.array([[-0.0, tiny, -tiny], [1 / 3, 3.0e38, -7.25]])
    path = tmp_path / "w.fsvf"
    write_feature_file(FeatureSequence("w", 0, frames), path)
    payload = path.read_bytes()[16:]
    back = read_feature_file(path).frames
    expected = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(2, 3)
    assert back.dtype == np.float64 and back.shape == (2, 3)
    assert back.tobytes() == expected.tobytes()
    assert back.flags.owndata and not back.flags.writeable


def test_nan_sequence_rejected_before_writing(tmp_path):
    with pytest.raises(ValidationError):
        FeatureSequence("bad", 0, np.array([[np.nan, 1.0]]))
    assert list(tmp_path.iterdir()) == []


def test_sequence_invariants():
    with pytest.raises(ValidationError):
        FeatureSequence("v", 0, np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        FeatureSequence("v", 0, np.zeros(4))
    with pytest.raises(ValidationError):
        FeatureSequence("v", -1, np.zeros((2, 2)))
    seq = FeatureSequence("v", 0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        seq.frames[0, 0] = 1.0  # frames are read-only


def test_bad_magic_names_first_bytes(tmp_path):
    path = tmp_path / "bad.fsvf"
    path.write_bytes(b"XXXX" + bytes(16))
    with pytest.raises(FormatError, match="XXXX"):
        read_feature_file(path)


def test_truncated_payload_reports_byte_counts(tmp_path):
    import struct

    path = tmp_path / "short.fsvf"
    header = b"FSVF" + struct.pack("<III", 1, 8, 32)
    path.write_bytes(header + bytes(100))
    with pytest.raises(LengthError, match="1024") as err:
        read_feature_file(path)
    assert "100" in str(err.value)


def test_wrong_version_rejected(tmp_path):
    import struct

    path = tmp_path / "v9.fsvf"
    path.write_bytes(b"FSVF" + struct.pack("<III", 9, 1, 1) + bytes(4))
    with pytest.raises(FormatError, match="version"):
        read_feature_file(path)


# ---------------------------------------------------------------------------
# manifests


def _write_feature(tmp_path, name, t=2, c=3):
    seq = FeatureSequence(name, 0, np.ones((t, c)))
    write_feature_file(seq, tmp_path / f"{name}.fsvf")


def _manifest(tmp_path, videos, classes, t=2, c=3):
    return Manifest(
        classes=tuple(classes),
        videos=tuple(videos),
        frame_count=t,
        feature_dim=c,
        root=tmp_path,
    )


def test_manifest_round_trip(tmp_path):
    for name in ("a", "b", "c", "d"):
        _write_feature(tmp_path, name)
    manifest = _manifest(
        tmp_path,
        [
            VideoEntry("a", 0, "a.fsvf", "train"),
            VideoEntry("b", 1, "b.fsvf", "train"),
            VideoEntry("c", 2, "c.fsvf", "test"),
            VideoEntry("d", 3, "d.fsvf", "test"),
        ],
        [(0, "c0"), (1, "c1"), (2, "c2"), (3, "c3")],
    )
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    back = load_manifest(path)
    assert back.classes == manifest.classes
    assert back.videos == manifest.videos
    assert back.frame_count == manifest.frame_count
    assert back.feature_dim == manifest.feature_dim


def test_overlapping_split_classes_rejected(tmp_path):
    for name in ("a", "b"):
        _write_feature(tmp_path, name)
    with pytest.raises(ValidationError, match=r"\[1\]"):
        _manifest(
            tmp_path,
            [
                VideoEntry("a", 1, "a.fsvf", "train"),
                VideoEntry("b", 1, "b.fsvf", "test"),
            ],
            [(1, "c1")],
        )


def test_overlap_never_silently_repaired(tmp_path):
    # write a manifest document by hand with an overlapping class
    for name in ("a", "b"):
        _write_feature(tmp_path, name)
    doc = {
        "frame_count": 2,
        "feature_dim": 3,
        "classes": [[1, "c1"], [2, "c2"]],
        "videos": [
            ["a", 1, "a.fsvf", "train"],
            ["b", 1, "b.fsvf", "val"],
        ],
    }
    import json

    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_manifest(path)


def test_missing_feature_file_rejected(tmp_path):
    _write_feature(tmp_path, "a")
    manifest = _manifest(
        tmp_path,
        [
            VideoEntry("a", 0, "a.fsvf", "train"),
            VideoEntry("b", 1, "gone.fsvf", "test"),
        ],
        [(0, "c0"), (1, "c1")],
    )
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    with pytest.raises(ValidationError, match="gone.fsvf"):
        load_manifest(path)


def test_load_sequence_checks_manifest_dims(tmp_path):
    _write_feature(tmp_path, "a", t=2, c=3)
    manifest = _manifest(
        tmp_path,
        [VideoEntry("a", 0, "a.fsvf", "train")],
        [(0, "c0")],
        t=8,
        c=3,
    )
    with pytest.raises(ValidationError, match="frame count"):
        load_sequence(manifest, manifest.videos[0])
    row = np.full((8, 3), 7.0)
    with pytest.raises(ValidationError, match="video 'a'"):
        load_sequence(manifest, manifest.videos[0], out=row)
    assert (row == 7.0).all()  # checked before anything is written


def test_unallocatable_manifest_dims_are_validation_errors(tmp_path):
    from fsvc.harness import load_split

    _write_feature(tmp_path, "a", t=2, c=3)
    # (2**40)**2 frames overflow intp, so numpy refuses before allocating
    big = 2**40
    manifest = _manifest(
        tmp_path, [VideoEntry("a", 0, "a.fsvf", "train")], [(0, "c0")], t=big, c=big
    )
    dims = f"frame_count {big} x feature_dim {big}"
    with pytest.raises(ValidationError, match=f"video 'a': .*{dims}"):
        load_sequence(manifest, manifest.videos[0])
    with pytest.raises(ValidationError, match=f"train split: .*{dims}"):
        load_split(manifest, "train")


def _break_file(tmp_path, name, fault):
    """Rewrite ``name``.fsvf (a 2x3 file) so that it has ``fault``."""
    path = tmp_path / f"{name}.fsvf"
    if fault == "frames":
        _write_feature(tmp_path, name, t=3, c=3)
    elif fault == "dims":
        _write_feature(tmp_path, name, t=2, c=4)
    elif fault == "truncated":
        path.write_bytes(path.read_bytes()[:-4])
    else:
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])


@pytest.mark.parametrize(
    "fault, error, named",
    [
        ("frames", ValidationError, "video 'y': frame count 3"),
        ("dims", ValidationError, "video 'y': frame count 2 and feature dim 4"),
        ("truncated", LengthError, "y.fsvf"),
        ("magic", FormatError, "y.fsvf: bad magic"),
    ],
)
def test_load_split_read_errors_stay_typed(tmp_path, fault, error, named):
    from fsvc.harness import load_split

    # manifest order m, y, b, x; block order b, x, m, y.  Both y and x are
    # broken, and y is the first in manifest order.
    order = [("m", 1), ("y", 1), ("b", 0), ("x", 0)]
    for name, _ in order:
        _write_feature(tmp_path, name)
    for name in ("y", "x"):
        _break_file(tmp_path, name, fault)
    manifest = _manifest(
        tmp_path,
        [VideoEntry(n, c, f"{n}.fsvf", "train") for n, c in order],
        [(0, "c0"), (1, "c1")],
    )
    with pytest.raises(FsvcError) as err:
        load_split(manifest, "train")
    assert type(err.value) is error
    assert named in str(err.value)
    assert "x.fsvf" not in str(err.value) and "'x'" not in str(err.value)


@pytest.mark.parametrize(
    "second, message",
    [
        (VideoEntry("a", 0, "b.fsvf", "train"), "video 'a' is listed twice"),
        (VideoEntry("a", 0, "a.fsvf", "train"), "video 'a' is listed twice"),
        (VideoEntry("b", 0, "./a.fsvf", "train"), "'./a.fsvf' is also video 'a'"),
        (None, "video 'a' is listed twice"),  # the same entry object again
    ],
)
def test_manifest_rejects_duplicate_videos(tmp_path, second, message):
    first = VideoEntry("a", 0, "a.fsvf", "train")
    with pytest.raises(ValidationError, match=re.escape(message)):
        _manifest(tmp_path, [first, second or first], [(0, "c0")])


def test_unknown_split_and_unregistered_class(tmp_path):
    with pytest.raises(ValidationError, match="split"):
        _manifest(
            tmp_path, [VideoEntry("a", 0, "a.fsvf", "dev")], [(0, "c0")]
        )
    with pytest.raises(ValidationError, match="not registered"):
        _manifest(
            tmp_path, [VideoEntry("a", 5, "a.fsvf", "train")], [(0, "c0")]
        )


@pytest.mark.parametrize(
    "key, row, index",
    [
        ("videos", ["a", 0], 0),  # too few fields
        ("videos", ["a", "0", "a.fsvf", "train"], 0),  # class id is a string
        ("videos", {"id": "a"}, 0),
        ("classes", [0, "c0", "extra"], 0),
        ("classes", ["c0", 0], 0),
        ("classes", [1.0, "c1"], 1),
    ],
)
def test_malformed_manifest_row_is_format_error(tmp_path, key, row, index):
    import json

    _write_feature(tmp_path, "a")
    doc = {
        "frame_count": 2,
        "feature_dim": 3,
        "classes": [[0, "c0"], [1, "c1"]],
        "videos": [["a", 0, "a.fsvf", "train"]],
    }
    doc[key][index] = row
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=rf"{key} row {index} "):
        load_manifest(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("frame_count", "eight"),
        ("feature_dim", 8.7),
        ("feature_dim", 3.0),
        ("frame_count", True),
        ("feature_dim", None),
    ],
)
def test_malformed_manifest_header_is_format_error(tmp_path, key, value):
    path = _header_manifest(tmp_path, key, value)
    with pytest.raises(FormatError, match=rf"'{key}' must be an integer"):
        load_manifest(path)


@pytest.mark.parametrize("key", ["frame_count", "feature_dim"])
def test_manifest_header_below_one_is_validation_error(tmp_path, key):
    path = _header_manifest(tmp_path, key, 0)
    with pytest.raises(ValidationError, match="must be >= 1"):
        load_manifest(path)


def _header_manifest(tmp_path, key, value):
    import json

    _write_feature(tmp_path, "a")
    doc = {
        "frame_count": 2,
        "feature_dim": 3,
        "classes": [[0, "c0"]],
        "videos": [["a", 0, "a.fsvf", "train"]],
    }
    doc[key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# rng streams


def test_same_stream_same_draws():
    a = RngStream(123, 7).generator().random(10000)
    b = RngStream(123, 7).generator().random(10000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, 7).generator().random(100)
    b = RngStream(123, 8).generator().random(100)
    c = RngStream(124, 7).generator().random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_determinism_across_processes():
    code = (
        "import numpy as np\n"
        "from fsvc.core import RngStream\n"
        "v = RngStream(99, 42).generator().random(10000)\n"
        "print(v.tobytes().hex()[:64], float(v.sum()))\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    }
    assert len(outs) == 1
    here = RngStream(99, 42).generator().random(10000)
    assert outs.pop().split()[0] == here.tobytes().hex()[:64]


@given(st.integers(0, 2**63), st.integers(0, 2**63))
@settings(max_examples=20, deadline=None)
def test_stream_repeatability_property(seed, stream_id):
    a = RngStream(seed, stream_id).generator().integers(0, 1 << 30, size=5)
    b = RngStream(seed, stream_id).generator().integers(0, 1 << 30, size=5)
    assert np.array_equal(a, b)


def test_rekeyed_streams_match_new_generators():
    # each stream leaves the shared Philox mid-buffer and with a spare 32-bit
    # half, which the next re-key must clear
    seed = 2**64 - 3
    ids = [0, 1, 7, 2**63, 5]
    for stream_id, gen in zip(ids, _stream_generators(seed, ids)):
        fresh = RngStream(seed, stream_id).generator()
        for g in (gen, fresh):
            g.bit_generator.random_raw()
        assert gen.integers(0, 7, size=3, dtype=np.uint32).tolist() == fresh.integers(
            0, 7, size=3, dtype=np.uint32
        ).tolist()
        assert np.array_equal(gen.standard_normal(9), fresh.standard_normal(9))


def test_rekeyed_streams_check_arguments():
    with pytest.raises(ValidationError):
        list(_stream_generators(1, [0, -1]))


def test_negative_seed_rejected():
    with pytest.raises(ValidationError):
        RngStream(-1, 0)
