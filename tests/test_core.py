"""Feature-file I/O, manifests, and deterministic RNG streams."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fsvc.core import (
    SPLITS,
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
    load_split,
    read_feature_file,
    save_manifest,
    write_feature_files,
)


def write_feature_file(seq, path):
    """Write one sequence as a one-row block."""
    write_feature_files(seq.frames[None], [path])


def read_back(path, video_id, shape, class_id=0):
    """Read ``path`` into a new (T, C_in) row, as a split load does."""
    return read_feature_file(path, video_id, class_id, np.zeros(shape, "<f4"))


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
    back = read_back(path, "v1", frames.shape, class_id=3)
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
        back = read_back(path, f"v{i}", frames.shape)
        assert np.array_equal(
            back.frames.astype(np.float32), frames.astype(np.float32)
        )


def test_rewrite_over_longer_file_leaves_no_tail(tmp_path, monkeypatch):
    """The new 40 bytes replace an older file of any size; only a longer one
    is cut."""
    seq = FeatureSequence("v", 0, np.ones((2, 3)))
    write_feature_file(seq, tmp_path / "fresh.fsvf")
    path = tmp_path / "v.fsvf"
    cuts = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(
        os, "ftruncate", lambda fd, size: cuts.append(size) or real_ftruncate(fd, size)
    )
    for older, cut in [(1000, [40]), (40, []), (3, [])]:
        path.write_bytes(b"x" * older)
        cuts.clear()
        write_feature_file(seq, path)
        assert path.read_bytes() == (tmp_path / "fresh.fsvf").read_bytes()
        assert cuts == cut


def test_short_writes_are_finished(tmp_path, monkeypatch):
    frames = RngStream(2, 0).generator().standard_normal((3, 4, 5))
    want = [tmp_path / f"want{i}.fsvf" for i in range(3)]
    write_feature_files(frames, want)
    real_write = os.write
    # the kernel takes one byte of the writev, then at most 7 bytes a write
    monkeypatch.setattr(os, "writev", lambda fd, bufs: real_write(fd, bytes(bufs[0][:1])))
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    got = [tmp_path / f"got{i}.fsvf" for i in range(3)]
    write_feature_files(frames, got)
    for a, b in zip(want, got):
        assert b.read_bytes() == a.read_bytes()


def test_failed_open_raises_os_error(tmp_path):
    frames = np.zeros((2, 1, 1))
    (tmp_path / "dir.fsvf").mkdir()
    with pytest.raises(IsADirectoryError):
        write_feature_files(frames, [tmp_path / "a.fsvf", tmp_path / "dir.fsvf"])
    with pytest.raises(FileNotFoundError):
        write_feature_files(frames[:1], [tmp_path / "no" / "a.fsvf"])


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
    back = read_back(path, "w", frames.shape).frames
    stored = np.frombuffer(payload, dtype="<f4").reshape(2, 3)
    assert back.dtype == np.float32 and back.shape == (2, 3)
    assert back.tobytes() == stored.tobytes()
    assert not back.flags.writeable
    # what computation sees: the float64 frames the reader used to return
    widened = np.asarray(back, dtype=np.float64)
    assert widened.tobytes() == stored.astype(np.float64).tobytes()


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
        read_back(path, "v", (1, 1))


def test_truncated_payload_reports_byte_counts(tmp_path):
    import struct

    path = tmp_path / "short.fsvf"
    header = b"FSVF" + struct.pack("<III", 1, 8, 32)
    path.write_bytes(header + bytes(100))
    with pytest.raises(LengthError, match="1024") as err:
        read_back(path, "v", (8, 32))
    assert "100" in str(err.value)


def test_wrong_version_rejected(tmp_path):
    import struct

    path = tmp_path / "v9.fsvf"
    path.write_bytes(b"FSVF" + struct.pack("<III", 9, 1, 1) + bytes(4))
    with pytest.raises(FormatError, match="version"):
        read_back(path, "v", (1, 1))


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


@pytest.mark.parametrize("root", ["absolute", "relative"])
def test_saved_manifest_resolves_from_its_own_directory(tmp_path, monkeypatch, root):
    names = "abcdef"
    data = tmp_path / "data"
    data.mkdir()
    frames = RngStream(3, 0).generator().standard_normal((len(names), 2, 3))
    write_feature_files(frames, [data / f"{n}.fsvf" for n in names])
    monkeypatch.chdir(tmp_path)
    splits = ("train",) * 4 + ("test",) * 2
    source = _manifest(
        data if root == "absolute" else Path("data"),
        [
            VideoEntry(n, cid, f"{n}.fsvf", split)
            for n, cid, split in zip(names, (0, 0, 1, 1, 2, 2), splits)
        ],
        [(0, "c0"), (1, "c1"), (2, "c2")],
    )
    out = tmp_path / "x" / "y" / "manifest.json"  # two directories from the files
    out.parent.mkdir(parents=True)
    save_manifest(source, out)
    back = load_manifest(out)
    assert [v.file_path for v in back.videos] == [f"../../data/{n}.fsvf" for n in names]
    for split in ("train", "test"):
        want, got = load_split(source, split), load_split(back, split)
        assert got.frames.tobytes() == want.frames.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()


@pytest.mark.parametrize("home", [".", "data", "data/sub", "x/y", ".."])
def test_saved_paths_are_each_files_relpath(tmp_path, home):
    """save_manifest takes one relpath per directory; each written path must
    still be exactly the file's own relpath from the manifest's directory."""
    root = tmp_path / "r"
    paths = [
        "a.fsvf",
        "data/b.fsvf",
        "data/sub/c.fsvf",
        "data/../d.fsvf",
        "./data//e.fsvf",
        "../f.fsvf",
        str(tmp_path / "g.fsvf"),
        "data/sub/h.fsvf",
    ]
    source = _manifest(
        root,
        [VideoEntry(f"v{i}", 0, p, "train") for i, p in enumerate(paths)],
        [(0, "c0")],
    )
    out = root / home / "m.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_manifest(source, out)
    written = [row[2] for row in json.loads(out.read_text())["videos"]]
    want = [os.path.relpath(source.resolve(v), out.parent) for v in source.videos]
    assert written == want


# characters that JSON escapes, or that paths and ids may hold
_CHARS = st.one_of(st.sampled_from('"\\/.\x00\x1f\x7f\n\té€😀 '), st.characters())
_TEXT = st.text(_CHARS, max_size=6)
_NAME = st.text(_CHARS.filter(lambda c: c != "/"), min_size=1, max_size=6).filter(
    lambda name: name not in (".", "..")
)
_PATHS = st.builds(
    lambda dirs, name: "/".join(dirs + [name]),
    st.lists(st.one_of(_NAME, st.sampled_from([".", ".."])), max_size=3),
    _NAME,
)


@st.composite
def _manifest_parts(draw):
    classes = draw(
        st.lists(st.tuples(st.integers(), _TEXT), unique_by=lambda c: c[0], max_size=4)
    )
    rows = []
    if classes:
        rows = draw(
            st.lists(
                st.tuples(_TEXT, st.integers(0, len(classes) - 1), _PATHS),
                unique_by=(lambda r: r[0], lambda r: os.path.normpath(r[2])),
                max_size=6,
            )
        )
    # a class's split follows from its index, so split class sets are disjoint
    videos = [VideoEntry(v, classes[k][0], f, SPLITS[k % 3]) for v, k, f in rows]
    dims = draw(st.tuples(st.integers(1, 2**70), st.integers(1, 2**70)))
    return classes, videos, dims, draw(st.sampled_from([".", "x/y", ".."]))


@given(_manifest_parts())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_saved_manifest_bytes_are_json_dumps_indent_2(tmp_path, parts):
    classes, videos, (t, c), home = parts
    root = tmp_path / "r" / "s"
    manifest = _manifest(root, videos, classes, t=t, c=c)
    out = root / home / "m.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_manifest(manifest, out)
    # the reference: json's own text for the same document
    doc = {
        "frame_count": t,
        "feature_dim": c,
        "classes": [[cid, name] for cid, name in classes],
        "videos": [
            [v.video_id, v.class_id, os.path.relpath(manifest.resolve(v), out.parent), v.split]
            for v in videos
        ],
    }
    assert out.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("ascii")


@pytest.mark.parametrize(
    "class_id, video_class, frame_count, message",
    [
        (True, True, 2, "classes row 0 [True, 'c1'] is not [int, str]"),
        (np.int64(1), 1, 2, "classes row 0 [np.int64(1), 'c1'] is not [int, str]"),
        (1, True, 2, "videos row 1 ['b', True, 'b.fsvf', 'train'] is not [str, int, str, str]"),
        (1, np.int64(1), 2, "videos row 1 ['b', np.int64(1), 'b.fsvf', 'train']"),
        (1, 1, np.int64(2), "field 'frame_count' must be an integer, got np.int64(2)"),
    ],
)
def test_save_manifest_rejects_values_json_would_not_load_back(
    tmp_path, class_id, video_class, frame_count, message
):
    # True saved as JSON true loads as a bool, which load_manifest rejects;
    # json cannot encode a numpy integer at all
    manifest = _manifest(
        tmp_path,
        [VideoEntry("a", 1, "a.fsvf", "train"), VideoEntry("b", video_class, "b.fsvf", "train")],
        [(class_id, "c1")],
        t=frame_count,
    )
    path = tmp_path / "m.json"
    with pytest.raises(ValidationError, match=re.escape(message)):
        save_manifest(manifest, path)
    assert not path.exists()


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


@pytest.mark.parametrize(
    "gone, make",
    [
        ("nodir/gone.fsvf", None),  # a missing directory
        ("sub/gone.fsvf", None),  # a missing file in a listed directory
        ("sub/dir.fsvf", "directory"),
        ("sub/dangling.fsvf", "dangling link"),
        ("sub", None),  # names a directory that holds the other files
        ("sub/", None),
    ],
)
def test_unresolved_feature_paths_rejected(tmp_path, gone, make):
    (tmp_path / "sub").mkdir()
    for name in ("a", "sub/b", "sub/c"):
        _write_feature(tmp_path, name)
    (tmp_path / "sub" / "linked.fsvf").symlink_to(tmp_path / "a.fsvf")
    if make == "directory":
        (tmp_path / gone).mkdir()
    elif make == "dangling link":
        (tmp_path / gone).symlink_to(tmp_path / "nowhere.fsvf")
    path = tmp_path / "manifest.json"

    def save(files):
        videos = [VideoEntry(f"v{i}", 0, f, "train") for i, f in enumerate(files)]
        save_manifest(_manifest(tmp_path, videos, [(0, "c0")]), path)

    files = ["a.fsvf", "sub/b.fsvf", "sub/linked.fsvf", "sub/c.fsvf"]
    save(files)  # a link to a file resolves
    assert [v.file_path for v in load_manifest(path).videos] == files
    save(files[:3] + [gone] + files[3:])
    message = f"1 feature file(s) do not resolve, first: {gone!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_manifest(path)


def test_every_unresolved_path_is_counted_in_manifest_order(tmp_path):
    _write_feature(tmp_path, "a")
    manifest = _manifest(
        tmp_path,
        [
            VideoEntry("z", 0, "z.fsvf", "train"),
            VideoEntry("a", 0, "a.fsvf", "train"),
            VideoEntry("b", 1, "gone.fsvf", "test"),
        ],
        [(0, "c0"), (1, "c1")],
    )
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    with pytest.raises(ValidationError, match="2 feature .* first: 'z.fsvf'"):
        load_manifest(path)


def test_read_errors_name_the_file(tmp_path):
    # a directory opens for reading on Linux; the read then fails
    (tmp_path / "dir.fsvf").mkdir()
    for name, error in [("dir.fsvf", IsADirectoryError), ("gone.fsvf", FileNotFoundError)]:
        path = str(tmp_path / name)
        with pytest.raises(error, match=re.escape(repr(path))):
            read_back(path, "v", (1, 1))


def test_load_sequence_checks_manifest_dims(tmp_path):
    _write_feature(tmp_path, "a", t=2, c=3)
    row = np.full((8, 3), 7.0, dtype=np.float32)  # a manifest row of T=8
    with pytest.raises(ValidationError, match="video 'a': frame count 2"):
        read_feature_file(tmp_path / "a.fsvf", "a", 0, row)
    assert (row == 7.0).all()  # checked before anything is written


def test_unallocatable_manifest_dims_are_validation_errors(tmp_path):
    _write_feature(tmp_path, "a", t=2, c=3)
    # (2**40)**2 frames overflow intp, so numpy refuses before allocating
    big = 2**40
    manifest = _manifest(
        tmp_path, [VideoEntry("a", 0, "a.fsvf", "train")], [(0, "c0")], t=big, c=big
    )
    dims = f"frame_count {big} x feature_dim {big}"
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
    elif fault == "long":
        path.write_bytes(path.read_bytes() + bytes(12))
    elif fault == "header":
        path.write_bytes(path.read_bytes()[:10])
    else:
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])


@pytest.mark.parametrize(
    "fault, error, named",
    [
        ("frames", ValidationError, "video 'y': frame count 3"),
        ("dims", ValidationError, "video 'y': frame count 2 and feature dim 4"),
        ("truncated", LengthError, "y.fsvf"),
        ("long", LengthError, "y.fsvf: expected 24 payload bytes for T=2, C_in=3, got 36"),
        ("header", LengthError, "y.fsvf: truncated header, 10 bytes total"),
        ("magic", FormatError, "y.fsvf: bad magic"),
    ],
)
def test_load_split_read_errors_stay_typed(tmp_path, fault, error, named):
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


@pytest.mark.parametrize("seed, stream_id", [(2**64 - 1, 0), (0, 2**64 - 1)])
def test_largest_stream_key_accepted(seed, stream_id):
    fresh = RngStream(seed, stream_id).generator().random(3)
    (rekeyed,) = _stream_generators(seed, [stream_id])
    assert np.array_equal(rekeyed.random(3), fresh)


# a Philox key word holds 64 bits, so a larger value would alias the one
# 2**64 below it
@pytest.mark.parametrize("seed, stream_id", [(2**64, 0), (0, 2**64), (2**64 + 3, 5)])
def test_stream_key_of_2_to_the_64_rejected(seed, stream_id):
    message = rf"must be below 2\*\*64, got \({seed}, {stream_id}\)"
    with pytest.raises(ValidationError, match=message):
        RngStream(seed, stream_id)
    with pytest.raises(ValidationError, match=message):
        list(_stream_generators(seed, [stream_id]))
