"""In-memory span tracing around the public functions of the fsvc modules.

The program is not changed: `Tracer.install` replaces every module attribute
that binds a traced function with a timing wrapper (a function imported into
several modules, such as `dtw` in `fsvc.align` and `fsvc.protocols`, is
wrapped everywhere it is bound), and `Tracer.uninstall` puts the originals
back.  Calls that go through a module's globals, such as `pooled_embedding`
calling `embed_frames`, therefore pass through the wrapper as well.

A span is (id, name, start, end, parent id, run id, work, failed).  Spans
stay in memory until `write_jsonl` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FSVC_MODULES = (
    "fsvc",
    "fsvc.core",
    "fsvc.synthdata",
    "fsvc.harness",
    "fsvc.protocols",
    "fsvc.heads",
    "fsvc.align",
    "fsvc.cli",
    "fsvc.selftest",
)


def _path_bytes(args, kwargs, result) -> int:
    path = args[0] if args else kwargs["path"]
    return os.stat(path).st_size


def _saved_bytes(args, kwargs, result) -> int:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.stat(path).st_size


def _videos_embedded(args, kwargs, result) -> int:
    frames = args[1] if len(args) > 1 else kwargs["frames"]
    return math.prod(np.shape(frames)[:-2])


def _dtw_cells(args, kwargs, result) -> int:
    dist = args[0] if args else kwargs["dist"]
    return math.prod(np.shape(dist))


# (home module, function name, work counter or None).  The work counter maps
# (args, kwargs, result) to the amount of work one call did.
TRACED = (
    ("fsvc.synthdata", "gen_benchmark", None),
    ("fsvc.core", "load_manifest", None),
    ("fsvc.core", "read_feature_file", _path_bytes),
    ("fsvc.harness", "load_split", None),
    ("fsvc.harness", "sample_episode", None),
    ("fsvc.harness", "accuracy_vector", None),
    ("fsvc.protocols", "episode_arrays", None),
    ("fsvc.protocols", "embed_frames", _videos_embedded),
    ("fsvc.protocols", "method_scores", None),
    ("fsvc.protocols", "adapt_and_predict", None),
    ("fsvc.protocols", "classification_loss_and_grads", None),
    ("fsvc.protocols", "metabaseline_loss_and_grads", None),
    ("fsvc.protocols", "cmn_loss_and_grads", None),
    ("fsvc.protocols", "otam_loss_and_grads", None),
    ("fsvc.protocols", "train_model", None),
    ("fsvc.protocols", "save_checkpoint", _saved_bytes),
    ("fsvc.protocols", "load_checkpoint", _path_bytes),
    ("fsvc.heads", "train_head", None),
    ("fsvc.heads", "imprint", None),
    ("fsvc.heads", "adam_step", None),
    ("fsvc.heads", "init_head", None),
    ("fsvc.align", "dtw", _dtw_cells),
    ("fsvc.align", "frame_distance_matrix", None),
    ("fsvc.align", "otam_similarity", None),
    ("fsvc.align", "multi_saliency", None),
    ("fsvc.align", "saliency_similarity", None),
    ("fsvc.align", "cosine", None),
)


def span_name(module: str, func: str) -> str:
    """`fsvc.align` + `dtw` -> `align.dtw`."""
    return f"{module.split('.', 1)[1]}.{func}"


SPAN_NAMES = tuple(span_name(m, f) for m, f, _ in TRACED)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    run: str
    work: int = 0
    failed: bool = False


class Tracer:
    """Records spans for calls into the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        # ids of the open spans; traced runs call fsvc from one thread only
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, work=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(
                id=len(tracer.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=stack[-1] if stack else -1,
                run=tracer.run,
            )
            tracer.spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.failed = True
                stack.pop()
                raise
            span.end = clock()
            stack.pop()
            if work is not None:
                span.work = int(work(args, kwargs, result))
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in the fsvc modules."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[m] for m in FSVC_MODULES if m in sys.modules]
        for home, func, work in TRACED:
            original = getattr(sys.modules[home], func)
            wrapper = self.wrap(span_name(home, func), original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        [s.id, s.name, s.start, s.end, s.parent, s.run, s.work, s.failed]
                    )
                )
                fh.write("\n")


def installed_wrappers() -> list[str]:
    """Names of fsvc module attributes that currently hold a tracing wrapper."""
    found = []
    for m in FSVC_MODULES:
        mod = sys.modules.get(m)
        if mod is None:
            continue
        for attr, value in vars(mod).items():
            if getattr(value, "__wrapped_by_tracer__", False):
                found.append(f"{m}.{attr}")
    return found


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


# ladder of percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


@dataclass
class FuncStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    p50_us: float = 0.0
    tail_pct: float = 0.0
    tail_us: float = 0.0
    work: int = 0


def func_stats(spans: list[Span], selfs: list[float], run: str) -> dict[str, FuncStats]:
    """Per-function statistics over the spans of one run id."""
    durations: dict[str, list[float]] = {}
    stats: dict[str, FuncStats] = {name: FuncStats() for name in SPAN_NAMES}
    for s, own in zip(spans, selfs):
        if s.run != run:
            continue
        st = stats[s.name]
        d = s.end - s.start
        st.calls += 1
        st.total_s += d
        st.self_s += own
        st.work += s.work
        durations.setdefault(s.name, []).append(d)
    for name, ds in durations.items():
        st = stats[name]
        arr = np.asarray(ds)
        st.p50_us = float(np.percentile(arr, 50.0)) * 1e6
        p = tail_percentile(arr.size)
        if p is not None:
            st.tail_pct = p
            st.tail_us = float(np.percentile(arr, p)) * 1e6
    return stats


def under(
    spans: list[Span], root_ids: list[int], names: tuple[str, ...]
) -> tuple[float, int]:
    """Time and work of the spans named `names` below the given roots.

    Time counts only the outermost such spans, so a recursive or nested call
    is not counted twice; work is summed over all of them.
    """
    wanted = set(names)
    inside = set(root_ids)
    covered: set[int] = set()
    total = 0.0
    work = 0
    # spans are appended in call order, so a parent precedes its children
    for s in spans:
        if s.parent not in inside:
            continue
        inside.add(s.id)
        if s.name in wanted:
            work += s.work
            if s.parent not in covered:
                total += s.end - s.start
        if s.name in wanted or s.parent in covered:
            covered.add(s.id)
    return total, work
