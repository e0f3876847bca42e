"""Domain types, deterministic RNG streams, binary feature / manifest I/O,
and the loaded splits and sampled episodes every method trains and tests on.

Everything downstream (generation, alignment, training, evaluation) rests on
three contracts defined here: feature sequences are finite (T, C_in) float32
or float64 matrices, manifests keep train/val/test class sets disjoint, and
randomness comes from counter-keyed streams so any unit of work can be
reproduced in isolation, independent of evaluation order.

Frames are single precision on disk and in a loaded split, so a split holds
the bytes of its files; every computation widens them to double first, which
is exact, so results do not depend on which precision a sequence holds.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from dataclasses import dataclass, field, fields
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

FSVF_MAGIC = b"FSVF"
FSVF_VERSION = 1
SPLITS = ("train", "val", "test")

_FSVF_HEADER = struct.Struct("<III")  # version, frame count, feature dim


class FsvcError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FsvcError):
    """A value violates a documented invariant."""


class FormatError(FsvcError):
    """A binary or text artifact does not match its documented layout."""


class LengthError(FormatError):
    """A binary payload is shorter or longer than its header promises."""


class DegenerateInputError(FsvcError):
    """An input is structurally valid but numerically unusable (zero norm)."""


class ShapeError(FsvcError):
    """Array shapes do not match the operation contract."""


class CapacityError(FsvcError):
    """A split cannot supply the requested episode structure."""


class CoverageError(FsvcError):
    """A per-class operation is missing samples for some class."""


class LeakageError(FsvcError):
    """Class sets that must stay disjoint overlap."""


def _is_real(value) -> bool:
    """An int or float that is a finite float, and not a bool."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # not nan, inf or a huge int
    )


# dataclass field annotation -> (what a value must be, its test); type(), not
# isinstance, for int and bool, as JSON true and false load as bools
_FIELD_TYPES = {
    "str": ("a string", lambda v: type(v) is str),
    "int": ("an integer", lambda v: type(v) is int),
    "bool": ("a bool", lambda v: type(v) is bool),
    "float": ("a real number", _is_real),
    "float | None": ("a real number or null", lambda v: v is None or _is_real(v)),
}


def check_field_types(record, label: str) -> None:
    """Raise ``ValidationError`` unless every field of the dataclass ``record``
    holds a value of its annotated type; a float must be finite.  ``label``
    formats a field's name for the message, as in "{} must be ...".
    """
    for field in fields(record):
        kind, ok = _FIELD_TYPES[field.type]
        value = getattr(record, field.name)
        if not ok(value):
            raise ValidationError(
                f"{label.format(field.name)} must be {kind}, got {value!r}"
            )


# ---------------------------------------------------------------------------
# deterministic randomness


KEY_LIMIT = 1 << 64  # a Philox key word holds seeds and stream ids below this


def _check_stream_key(seed: int, stream_id: int) -> None:
    if seed < 0 or stream_id < 0:
        raise ValidationError(
            f"seed and stream_id must be non-negative, got ({seed}, {stream_id})"
        )
    if seed >= KEY_LIMIT or stream_id >= KEY_LIMIT:
        raise ValidationError(
            f"seed and stream_id must be below 2**64, got ({seed}, {stream_id})"
        )


@dataclass(frozen=True)
class RngStream:
    """A named, counter-keyed random stream.

    Identical (seed, stream_id) pairs produce identical draw sequences on any
    platform, and distinct stream_ids are statistically independent.  Built on
    the Philox counter-based generator, keyed directly by the pair, so stream
    derivation never depends on how many draws earlier streams consumed.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        _check_stream_key(self.seed, self.stream_id)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _stream_generators(
    seed: int, stream_ids: Iterable[int]
) -> Iterator[np.random.Generator]:
    """``RngStream(seed, s).generator()`` for each ``s`` in turn.

    One Philox is re-keyed in place for every stream, so each generator
    yielded is the same object and is only valid until the next one is
    drawn.  A new ``Philox(key=...)`` gathers OS entropy for a seed sequence
    that the key then overrides, which costs several times the reset.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    zeros = (0, 0, 0, 0)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": None},
        "buffer": zeros,
        "buffer_pos": 4,  # empty buffer, as a new Philox has
        "has_uint32": 0,
        "uinteger": 0,
    }
    for stream_id in stream_ids:
        _check_stream_key(seed, stream_id)
        state["state"]["key"] = (seed, stream_id)
        bitgen.state = state
        yield gen


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either a stream descriptor or a live generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


# ---------------------------------------------------------------------------
# feature sequences


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """One video, reduced to a (T, C_in) matrix of per-frame feature vectors.

    Frames are stored as a read-only array; row t is frame t.  A read-only,
    C-contiguous float32 or float64 array (a loaded split's float32 row) is
    kept as given; anything else is copied to float64.  Code that computes on
    frames widens them to float64 first.
    """

    video_id: str
    class_id: int
    frames: np.ndarray

    def __post_init__(self) -> None:
        frames = self.frames
        if not (
            isinstance(frames, np.ndarray)
            and frames.dtype in (np.float32, np.float64)
            and frames.flags.c_contiguous
            and not frames.flags.writeable
        ):
            frames = np.array(frames, dtype=np.float64)
            frames.setflags(write=False)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValidationError(
                f"sequence {self.video_id!r}: frames must be a (T>=1, C_in>=1) "
                f"matrix, got shape {frames.shape}"
            )
        if not np.isfinite(frames).all():
            raise ValidationError(
                f"sequence {self.video_id!r} contains non-finite entries"
            )
        if self.class_id < 0:
            raise ValidationError(
                f"sequence {self.video_id!r}: class_id must be >= 0, "
                f"got {self.class_id}"
            )
        object.__setattr__(self, "frames", frames)


def write_feature_files(frames: np.ndarray, paths: list[str | Path]) -> None:
    """Write row v of a (V, T, C_in) block to ``paths[v]`` in the FSVF layout.

    Layout, bit-exact: 4 magic bytes "FSVF", then u32-LE version, u32-LE T,
    u32-LE C_in, then T*C_in IEEE-754 float32 little-endian values in
    frame-major order.  The block is checked and converted once; each file
    is then one header and one slice of the converted block.
    """
    if frames.ndim != 3 or frames.shape[0] != len(paths):
        raise ShapeError(
            f"need a (V, T, C_in) block for {len(paths)} path(s), "
            f"got shape {frames.shape}"
        )
    if not np.isfinite(frames).all():
        raise ValidationError("feature block contains non-finite entries")
    _, t, c_in = frames.shape
    header = FSVF_MAGIC + _FSVF_HEADER.pack(FSVF_VERSION, t, c_in)
    payload = np.ascontiguousarray(frames, dtype="<f4")
    for path, rows in zip(paths, payload):
        with open(path, "wb", opener=_open_in_place) as f:
            f.write(header)
            f.write(rows)
            f.truncate()


def _open_in_place(path: str, flags: int) -> int:
    """``open`` opener that rewrites an existing file from offset 0 instead
    of truncating it to zero; the writer truncates it at the end.

    On ext4 a file truncated to zero and written again is flushed to disk
    when it is closed (the ``auto_da_alloc`` default).  On an ext4 virtio
    disk of a 2-core VM that made rewriting a 2 KB feature file cost
    150-300 us, against about 15 us for the same bytes written in place.
    """
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def read_feature_file(
    path: str | Path,
    video_id: str | None = None,
    class_id: int = 0,
    out: np.ndarray | None = None,
) -> FeatureSequence:
    """Read an FSVF file back into a sequence of its float32 frames.

    Identity fields are not part of the on-disk layout; callers loading
    through a manifest supply them, otherwise the file stem is used.  Without
    ``out`` the sequence holds a read-only view of the bytes read.  With
    ``out``, a writable C-contiguous float32 array, the file's (T, C_in) must
    equal ``out.shape`` (``ValidationError`` naming the video, before
    anything is written); the payload is copied into ``out`` unchanged, and
    ``out`` is then made read-only and held by the sequence.
    """
    with open(path, "rb", buffering=0) as f:
        data = f.read()
    if len(data) < 4 or data[:4] != FSVF_MAGIC:
        raise FormatError(
            f"{path}: bad magic {data[:4]!r}, expected {FSVF_MAGIC!r}"
        )
    if len(data) < 4 + _FSVF_HEADER.size:
        raise LengthError(
            f"{path}: truncated header, {len(data)} bytes total"
        )
    version, t, c_in = _FSVF_HEADER.unpack_from(data, 4)
    if version != FSVF_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = t * c_in * 4
    got = len(data) - 4 - _FSVF_HEADER.size
    if got != expected:
        raise LengthError(
            f"{path}: expected {expected} payload bytes for T={t}, "
            f"C_in={c_in}, got {got}"
        )
    if video_id is None:
        video_id = os.path.splitext(os.path.basename(path))[0]
    frames = np.frombuffer(
        data, dtype="<f4", offset=4 + _FSVF_HEADER.size
    ).reshape(t, c_in)
    if out is not None:
        if out.shape != (t, c_in):
            raise ValidationError(
                f"video {video_id!r}: frame count {t} and feature dim {c_in} "
                f"do not match the expected (T, C_in) {out.shape}"
            )
        out[...] = frames
        out.setflags(write=False)
        frames = out
    return FeatureSequence(video_id=video_id, class_id=class_id, frames=frames)


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    class_id: int
    file_path: str  # relative to the manifest's directory
    split: str


@dataclass(frozen=True, eq=False)
class Manifest:
    """Index of a benchmark: class registry plus per-video file references.

    The train/val/test class sets must be pairwise disjoint; violations are
    rejected at load time, never repaired.
    """

    classes: tuple[tuple[int, str], ...]
    videos: tuple[VideoEntry, ...]
    frame_count: int
    feature_dim: int
    root: Path | None = None

    def __post_init__(self) -> None:
        if self.frame_count < 1 or self.feature_dim < 1:
            raise ValidationError(
                f"frame_count and feature_dim must be >= 1, got "
                f"({self.frame_count}, {self.feature_dim})"
            )
        known = {cid for cid, _ in self.classes}
        if len(known) != len(self.classes):
            raise ValidationError("duplicate class_id in class registry")
        # a video listed twice, or one file under two ids, could be drawn as
        # both a support and the query of one episode
        ids = [v.video_id for v in self.videos]
        files = [os.path.normpath(v.file_path) for v in self.videos]
        for keys in (ids, files):
            if len(set(keys)) == len(keys):
                continue
            first: dict[str, int] = {}
            for i, key in enumerate(keys):
                j = first.setdefault(key, i)
                if j != i:
                    v, owner = self.videos[i], self.videos[j]
                    raise ValidationError(
                        f"video {v.video_id!r} is listed twice"
                        if owner.video_id == v.video_id
                        else f"video {v.video_id!r}: file {v.file_path!r} is "
                        f"also video {owner.video_id!r}"
                    )
        for v in self.videos:
            if v.split not in SPLITS:
                raise ValidationError(
                    f"video {v.video_id!r}: unknown split {v.split!r}"
                )
            if v.class_id not in known:
                raise ValidationError(
                    f"video {v.video_id!r}: class {v.class_id} not registered"
                )
        overlaps = []
        for i, a in enumerate(SPLITS):
            for b in SPLITS[i + 1 :]:
                shared = self.split_class_ids(a) & self.split_class_ids(b)
                if shared:
                    overlaps.append((a, b, sorted(shared)))
        if overlaps:
            detail = "; ".join(
                f"classes {ids} appear in both {a} and {b}"
                for a, b, ids in overlaps
            )
            raise ValidationError(f"split class sets overlap: {detail}")

    def split_videos(self, split: str) -> tuple[VideoEntry, ...]:
        return tuple(v for v in self.videos if v.split == split)

    def split_class_ids(self, split: str) -> set[int]:
        return {v.class_id for v in self.videos if v.split == split}

    def resolve(self, entry: VideoEntry) -> str:
        """The entry's file path, joined to the manifest root."""
        base = self.root if self.root is not None else "."
        return os.path.join(base, entry.file_path)


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    doc = {
        "frame_count": manifest.frame_count,
        "feature_dim": manifest.feature_dim,
        "classes": [[cid, name] for cid, name in manifest.classes],
        "videos": [
            [v.video_id, v.class_id, v.file_path, v.split]
            for v in manifest.videos
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _manifest_rows(path: Path, doc: dict, key: str, types: tuple) -> list:
    """The rows of ``doc[key]``, each a list whose fields have ``types``."""
    rows = doc[key]
    if not isinstance(rows, list):
        raise FormatError(f"{path}: manifest field {key!r} is not a list")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or tuple(map(type, row)) != types:
            names = ", ".join(t.__name__ for t in types)
            raise FormatError(f"{path}: {key} row {i} {row!r} is not [{names}]")
    return rows


def load_manifest(path: str | Path) -> Manifest:
    """Load and validate a manifest; rejects overlapping split class sets and
    feature files that do not resolve."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: not valid manifest JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    for key in ("frame_count", "feature_dim", "classes", "videos"):
        if key not in doc:
            raise FormatError(f"{path}: missing manifest field {key!r}")
    for key in ("frame_count", "feature_dim"):
        # type(), not isinstance: JSON true and false load as bools
        if type(doc[key]) is not int:
            raise FormatError(
                f"{path}: manifest field {key!r} must be an integer, got {doc[key]!r}"
            )
    manifest = Manifest(
        classes=tuple(
            (c, n) for c, n in _manifest_rows(path, doc, "classes", (int, str))
        ),
        videos=tuple(
            VideoEntry(*row)
            for row in _manifest_rows(path, doc, "videos", (str, int, str, str))
        ),
        frame_count=doc["frame_count"],
        feature_dim=doc["feature_dim"],
        root=path.parent,
    )
    missing = [
        v.file_path for v in manifest.videos if not os.path.exists(manifest.resolve(v))
    ]
    if missing:
        raise ValidationError(
            f"{path}: {len(missing)} feature file(s) do not resolve, "
            f"first: {missing[0]!r}"
        )
    return manifest


def rebase_manifest(manifest: Manifest, new_root: str | Path) -> Manifest:
    """Rewrite file paths relative to a new directory, keeping them valid."""
    new_root = Path(new_root)
    old_root = manifest.root if manifest.root is not None else Path(".")
    videos = tuple(
        VideoEntry(
            v.video_id,
            v.class_id,
            os.path.relpath(old_root / v.file_path, new_root),
            v.split,
        )
        for v in manifest.videos
    )
    return Manifest(
        classes=manifest.classes,
        videos=videos,
        frame_count=manifest.frame_count,
        feature_dim=manifest.feature_dim,
        root=new_root,
    )


def empty_frames(what: str, dtype: type, **dims: int) -> np.ndarray:
    """A new ``dtype`` array for ``what``, shaped by the values of ``dims``;
    dims too large to allocate are a ``ValidationError`` naming each dim."""
    try:
        return np.empty(tuple(dims.values()), dtype)
    except (ValueError, MemoryError) as exc:
        named = " x ".join(f"{name} {size}" for name, size in dims.items())
        raise ValidationError(f"{what}: cannot allocate {named}: {exc}") from exc


def load_sequence(
    manifest: Manifest, entry: VideoEntry, out: np.ndarray | None = None
) -> FeatureSequence:
    """Load one manifest entry, enforcing the manifest-wide T and C_in.

    The float32 frames are copied into ``out``, a (frame_count, feature_dim)
    float32 row, or into a new array when it is None.
    """
    if out is None:
        out = empty_frames(
            f"video {entry.video_id!r}",
            np.float32,
            frame_count=manifest.frame_count,
            feature_dim=manifest.feature_dim,
        )
    return read_feature_file(
        manifest.resolve(entry),
        video_id=entry.video_id,
        class_id=entry.class_id,
        out=out,
    )


# ---------------------------------------------------------------------------
# loaded splits and episodes


@dataclass(frozen=True)
class Episode:
    """One n-way k-shot task: labeled supports plus exactly one query."""

    support: tuple[tuple[FeatureSequence, int], ...]
    query: tuple[FeatureSequence, int]


@dataclass(frozen=True)
class SplitData:
    """One manifest split, fully loaded and grouped by class.

    ``frames`` is the split's read-only (N, T, C_in) float32 block, its rows
    in (class_id, video_id) order, the order of ``by_class``; each sequence's
    frames are a view of its row, so the split's frames are held once.
    ``labels`` is read-only too: row i's class is ``class_ids[labels[i]]``.
    ``smallest`` is the video count of the smallest class (0 with none), so
    a capacity check costs the same for any number of classes.
    """

    class_ids: tuple[int, ...]
    by_class: dict[int, tuple[FeatureSequence, ...]]
    frames: np.ndarray
    labels: np.ndarray
    smallest: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = map(len, self.by_class.values())
        object.__setattr__(self, "smallest", min(sizes, default=0))


def load_split(manifest: Manifest, split: str) -> SplitData:
    """Read the split's files, in manifest order, each into its row of one
    float32 block, which is then made read-only; the block holds exactly the
    files' payloads."""
    entries = manifest.split_videos(split)
    ordered = sorted(entries, key=lambda e: (e.class_id, e.video_id))
    slot = {e.video_id: s for s, e in enumerate(ordered)}  # ids are unique
    frames = empty_frames(
        f"{split} split",
        np.float32,
        videos=len(entries),
        frame_count=manifest.frame_count,
        feature_dim=manifest.feature_dim,
    )
    loaded = {
        e.video_id: load_sequence(manifest, e, out=frames[slot[e.video_id]])
        for e in entries
    }
    frames.flags.writeable = False
    by_class = {
        cid: tuple(loaded[e.video_id] for e in group)
        for cid, group in groupby(ordered, key=lambda e: e.class_id)
    }
    counts = [len(videos) for videos in by_class.values()]
    labels = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    labels.flags.writeable = False
    return SplitData(
        class_ids=tuple(by_class), by_class=by_class, frames=frames, labels=labels
    )


def _check_capacity(
    data: SplitData, n_way: int, k_shot: int, split: str = "split"
) -> None:
    if len(data.class_ids) < n_way:
        raise CapacityError(
            f"{split} has {len(data.class_ids)} classes, need {n_way}"
        )
    if data.smallest > k_shot:
        return
    for cid in data.class_ids:
        have = len(data.by_class[cid])
        if have < k_shot + 1:
            raise CapacityError(
                f"class {cid} of the {split} has {have} videos, need {k_shot + 1} "
                f"({k_shot} supports plus a query candidate)"
            )


# Generator.choice(pop, size, replace=False) runs Floyd's algorithm unless
# pop > 10000 and size > pop // 50, where it tail-shuffles an arange(pop), so
# only a draw of more than this many picks can take the tail-shuffle side.
_FLOYD_SIZE_MAX = 200

_WORD = 1 << 32  # every draw below is made from 32-bit words of the generator


def _below(n: int, words: list[int], gen: np.random.Generator) -> int:
    """``int(gen.integers(n))`` for 1 <= n <= 2**32, drawn as numpy draws it.

    numpy uses Lemire's method on the generator's 32-bit words: with w the
    next word, m = w * n is redrawn while m mod 2**32 < (2**32 - n) % n, and
    the pick is m >> 32; n = 1 takes no word.  The words come from ``words``
    (the next ones, drawn ahead and held last-first), then from ``gen`` one at
    a time, so the pick and the state after it are the scalar call's.  Every
    n here is a class or video count of a loaded split, far below 2**32.
    """
    if n == 1:
        return 0
    while True:
        m = (words.pop() if words else int(gen.integers(_WORD, dtype=np.uint32))) * n
        low = m & 0xFFFFFFFF
        if low >= n or low >= (_WORD - n) % n:
            return m >> 32


def _choice(
    pop: int, size: int, words: list[int], gen: np.random.Generator
) -> list[int]:
    """``gen.choice(pop, size, replace=False).tolist()``, 0 <= size <= pop.

    On choice's Floyd side the picks are drawn as it draws them, each draw
    made by ``_below``: ``integers(j + 1)`` for j from pop - size to pop - 1
    (a repeat becomes j), then a Fisher-Yates shuffle with ``integers(i + 1)``
    for i from size - 1 down to 1.  On its tail-shuffle side ``gen.choice``
    itself is called, which takes the same words only if none were drawn
    ahead.
    """
    if pop > 10_000 and size > pop // 50:
        assert not words
        return gen.choice(pop, size=size, replace=False).tolist()
    picks: list[int] = []
    for j in range(pop - size, pop):
        pick = _below(j + 1, words, gen)
        picks.append(j if pick in picks else pick)
    for i in range(size - 1, 0, -1):
        k = _below(i + 1, words, gen)
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
    class becomes the query.

    Picks and the generator state after them are those of ``Generator.choice``
    and ``integers`` (``_choice``).  The words the draws take at the least are
    drawn in one call: 2 * n_way for the classes and the query slot,
    2 * k_shot - 1 per class and 2 for the query video, each less one when
    every class is picked (Floyd's j = 0 step), when n_way = 1 (the query
    slot) and when the smallest class, which may be the query's, holds
    k_shot + 1 videos.  None are drawn ahead where a draw may take choice's
    tail-shuffle side.
    """
    if n_way < 1 or k_shot < 1:
        raise ValidationError(
            f"need n_way >= 1 and k_shot >= 1, got n_way={n_way}, k_shot={k_shot}"
        )
    _check_capacity(data, n_way, k_shot)
    gen = as_generator(rng)
    n_classes = len(data.class_ids)
    if n_way > _FLOYD_SIZE_MAX or k_shot >= _FLOYD_SIZE_MAX:
        words: list[int] = []
    else:
        count = 2 * n_way + n_way * (2 * k_shot - 1) + 2 - (n_classes == n_way)
        count -= (n_way == 1) + (data.smallest == k_shot + 1)
        words = gen.integers(_WORD, size=count, dtype=np.uint32).tolist()
        words.reverse()
    chosen = _choice(n_classes, n_way, words, gen)
    query_slot = _below(n_way, words, gen)
    support: list[tuple[FeatureSequence, int]] = []
    query: tuple[FeatureSequence, int] | None = None
    for local, idx in enumerate(chosen):
        cid = data.class_ids[idx]
        videos = data.by_class[cid]
        need = k_shot + 1 if local == query_slot else k_shot
        picks = _choice(len(videos), need, words, gen)
        for pick in picks[:k_shot]:
            support.append((videos[pick], local))
        if local == query_slot:
            query = (videos[picks[k_shot]], local)
    assert query is not None and not words
    return Episode(support=tuple(support), query=query)
