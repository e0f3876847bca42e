"""Temporal aggregation and alignment kernels.

Besides collapsing time by averaging (``protocols.pooled_embedding``), two
ways to compare frame sequences: match frames explicitly with dynamic time
warping over 1 - cosine distances, or pool with learned multi-head saliency
attention.  All functions are pure and operate on (T, C) float arrays.

The kernels run once or more per episode on small arrays (8 x 8 distance
matrices, 8 x 16 embeddings), where numpy's fixed per-call cost outweighs the
arithmetic.  So ``dtw`` accumulates and backtracks over Python floats from
``tolist()``, and the norms are written as the dot products and reductions
that ``np.linalg.norm`` itself computes.  Every result is bitwise equal to
the plain numpy form, which ``tests/scalar_oracle.py`` keeps as the
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DegenerateInputError, ShapeError, ValidationError

_NORM_TOL = 1e-300  # anything representable and nonzero passes
BRUTEFORCE_MAX_CELLS = 36  # dtw_bruteforce enumerates exponentially many paths


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1] of two equal-length 1-D vectors.

    Zero-norm inputs are an error.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ShapeError(
            f"cosine needs two 1-D vectors of equal length, got shapes "
            f"{a.shape} and {b.shape}"
        )
    # the 2-norm exactly as np.linalg.norm computes it for a 1-D float64 vector
    na = math.sqrt(a.dot(a))
    nb = math.sqrt(b.dot(b))
    if na <= _NORM_TOL or nb <= _NORM_TOL:
        raise DegenerateInputError("cosine of a zero-norm vector is undefined")
    return float(a.dot(b) / (na * nb))


def frame_distance_matrix(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Pairwise frame distances d(i, j) = 1 - cosine(q_i, s_j), in [0, 2].

    Bitwise equal to normalizing each side on its own for C-contiguous
    inputs, which every caller passes; numpy's row sums, and so the last bit
    of a distance, can depend on the layout of a transposed view.
    """
    q = np.asarray(q, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if q.ndim != 2 or s.ndim != 2 or q.shape[1] != s.shape[1]:
        raise ValidationError(
            f"incompatible sequences: {q.shape} vs {s.shape}"
        )
    # both sides' rows normalized in one pass; the norms are
    # np.linalg.norm(axis=1)'s, without its Python-level dispatch
    tq = q.shape[0]
    frames = np.concatenate((q, s))
    norms = np.sqrt(np.add.reduce(frames * frames, 1, None, None, True))
    # fmin passes over NaN norms as ``<=`` does, and its inf identity lets
    # sides with no rows through (np.minimum.reduce has no identity)
    if np.fmin.reduce(norms, None, None, None, False, np.inf) <= _NORM_TOL:
        i = int((norms <= _NORM_TOL).argmax())
        side, i = ("query", i) if i < tq else ("support", i - tq)
        raise DegenerateInputError(f"{side} frame {i} has zero norm")
    np.divide(frames, norms, frames)
    return 1.0 - np.dot(frames[:tq], frames[tq:].T)


def dtw(dist: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Minimum-cost monotone alignment of a (T_q, T_s) distance matrix.

    Accumulates A(i, j) = d(i, j) + min(A(i-1, j), A(i, j-1), A(i-1, j-1))
    from A(0, 0) = d(0, 0); the path runs from (0, 0) to the far corner with
    steps from {(1, 0), (0, 1), (1, 1)}.  Backtracking ties are broken
    diagonal, then vertical (i-1, j), then horizontal, so results are
    deterministic.
    """
    d = np.asarray(dist, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
        raise ValidationError(f"distance matrix must be 2-D, got shape {d.shape}")
    tq, ts = d.shape
    # Python floats add and compare exactly as float64 scalars do, at a
    # fraction of the cost of indexing numpy cell by cell.  The inlined
    # minimum keeps min(up, left, up_left)'s order: first smallest wins.
    acc = d.tolist()
    row = acc[0]
    left = row[0]
    for j in range(1, ts):
        left = row[j] = row[j] + left
    for i in range(1, tq):
        prev = row
        row = acc[i]
        up_left = prev[0]
        left = row[0] = row[0] + up_left
        for j in range(1, ts):
            m = up = prev[j]
            if left < m:
                m = left
            if up_left < m:
                m = up_left
            left = row[j] = row[j] + m
            up_left = up

    i, j = tq - 1, ts - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            above = acc[i - 1]
            diag, vert, horz = above[j - 1], above[j], acc[i][j - 1]
            if diag <= vert and diag <= horz:
                i, j = i - 1, j - 1
            elif vert <= horz:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return acc[tq - 1][ts - 1], path


def dtw_bruteforce(dist: np.ndarray) -> float:
    """Exhaustive minimum over all monotone paths; test oracle for dtw().

    Enumeration is exponential, so matrices larger than
    ``BRUTEFORCE_MAX_CELLS`` cells are rejected.
    """
    d = np.asarray(dist, dtype=np.float64)
    if d.ndim != 2:
        raise ValidationError(f"distance matrix must be 2-D, got shape {d.shape}")
    tq, ts = d.shape
    if tq * ts > BRUTEFORCE_MAX_CELLS:
        raise ValidationError(
            f"{tq}x{ts} matrix exceeds the {BRUTEFORCE_MAX_CELLS}-cell "
            f"enumeration limit"
        )
    best = np.inf

    def walk(i: int, j: int, total: float) -> None:
        nonlocal best
        total += d[i, j]
        if i == tq - 1 and j == ts - 1:
            best = min(best, total)
            return
        if i + 1 < tq and j + 1 < ts:
            walk(i + 1, j + 1, total)
        if i + 1 < tq:
            walk(i + 1, j, total)
        if j + 1 < ts:
            walk(i, j + 1, total)

    walk(0, 0, 0.0)
    return float(best)


def validate_path(path: list[tuple[int, int]], shape: tuple[int, int]) -> None:
    """Raise unless the path is an admissible alignment for the given shape."""
    tq, ts = shape
    if not path or path[0] != (0, 0) or path[-1] != (tq - 1, ts - 1):
        raise ValidationError(f"path endpoints wrong for shape {shape}: {path[:2]}...")
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        if (i1 - i0, j1 - j0) not in ((1, 0), (0, 1), (1, 1)):
            raise ValidationError(
                f"illegal step {(i0, j0)} -> {(i1, j1)} in alignment path"
            )


def path_cost(dist: np.ndarray, path: list[tuple[int, int]]) -> float:
    d = np.asarray(dist, dtype=np.float64)
    return float(sum(d[i, j] for i, j in path))


def otam_similarity(
    q_emb: np.ndarray, s_emb: np.ndarray, normalize: bool = False
) -> float:
    """Similarity of two embedded sequences as negative total alignment cost.

    Higher is more similar; identical sequences score 0, the maximum.  With
    ``normalize`` the cost is divided by the path length, which makes scores
    comparable across unequal sequence lengths.
    """
    cost, path = dtw(frame_distance_matrix(q_emb, s_emb))
    if normalize:
        return -cost / len(path)
    return -cost


@dataclass(frozen=True, eq=False)
class SaliencyParams:
    """Attention queries for multi-head saliency pooling.

    One query vector per head.  Zero queries give uniform attention, i.e.
    exact average pooling.  ``scale`` is the logit scaling 1/sqrt(C), derived
    once from the queries' width.
    """

    queries: np.ndarray  # (S, C)
    scale: float = field(init=False)

    def __post_init__(self) -> None:
        q = np.array(self.queries, dtype=np.float64)
        if q.ndim != 2 or 0 in q.shape:
            raise ValidationError(
                f"queries must be a (S>=1, C>=1) matrix, got shape {q.shape}"
            )
        if not np.isfinite(q).all():
            raise ValidationError("saliency queries must be finite")
        q.setflags(write=False)
        object.__setattr__(self, "queries", q)
        object.__setattr__(self, "scale", 1.0 / np.sqrt(q.shape[1]))

    @property
    def n_heads(self) -> int:
        return self.queries.shape[0]


def saliency_attention(seq: np.ndarray, params: SaliencyParams) -> np.ndarray:
    """Per-head attention weights over time, (..., T, S); each column sums to 1.

    ``seq`` is one (T, C) video or a (V, T, C) stack of them; the softmax runs
    over the time axis of each.
    """
    seq = np.asarray(seq, dtype=np.float64)
    logits = (seq @ params.queries.T) * params.scale  # (..., T, S)
    # ndarray.max and .sum are these reductions behind a Python wrapper
    logits = logits - np.maximum.reduce(logits, axis=-2, keepdims=True)
    w = np.exp(logits)
    return w / np.add.reduce(w, axis=-2, keepdims=True)


def multi_saliency(seq: np.ndarray, params: SaliencyParams) -> np.ndarray:
    """Multi-saliency descriptor: one attention-weighted frame sum per head."""
    att = saliency_attention(seq, params)  # (T, S)
    return att.T @ np.asarray(seq, dtype=np.float64)  # (S, C)


def saliency_similarity(desc_a: np.ndarray, desc_b: np.ndarray) -> float:
    """Mean over heads of the per-row cosine between two descriptors."""
    a = np.asarray(desc_a, dtype=np.float64)
    b = np.asarray(desc_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    # np.mean's pairwise sum and division, without its Python wrapper
    return float(np.add.reduce([cosine(a[s], b[s]) for s in range(n)]) / n)
