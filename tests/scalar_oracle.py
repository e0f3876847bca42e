"""Frozen reference copies of the per-episode kernels, for differential tests.

Each function here is a verbatim copy of the straightforward numpy form of a
kernel in ``fsvc``.  The package's versions are tuned for small arrays, where
numpy's per-call overhead dominates, or share code with other callers; the
tests in ``test_kernel_oracle.py`` require them to return bitwise-equal
results to these copies.  Only data types, error classes and
``as_generator`` are imported from ``fsvc``, so later edits to the package
cannot move the oracle.
"""

from __future__ import annotations

import numpy as np

from fsvc.core import (
    CoverageError,
    DegenerateInputError,
    RngStream,
    ShapeError,
    ValidationError,
    as_generator,
)
from fsvc.heads import LinearHead
from fsvc.protocols import EmbeddingParams, EpisodeArrays

_NORM_TOL = 1e-300


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na <= _NORM_TOL or nb <= _NORM_TOL:
        raise DegenerateInputError("cosine of a zero-norm vector is undefined")
    return float(np.dot(a, b) / (na * nb))


def _normalized_rows(seq: np.ndarray, name: str) -> np.ndarray:
    norms = np.linalg.norm(seq, axis=1)
    bad = np.flatnonzero(norms <= _NORM_TOL)
    if bad.size:
        raise DegenerateInputError(
            f"{name} frame {int(bad[0])} has zero norm"
        )
    return seq / norms[:, None]


def frame_distance_matrix(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if q.ndim != 2 or s.ndim != 2 or q.shape[1] != s.shape[1]:
        raise ValidationError(
            f"incompatible sequences: {q.shape} vs {s.shape}"
        )
    qn = _normalized_rows(q, "query")
    sn = _normalized_rows(s, "support")
    return 1.0 - qn @ sn.T


def dtw(dist: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    d = np.asarray(dist, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
        raise ValidationError(f"distance matrix must be 2-D, got shape {d.shape}")
    tq, ts = d.shape
    acc = np.empty_like(d)
    acc[0, 0] = d[0, 0]
    for j in range(1, ts):
        acc[0, j] = d[0, j] + acc[0, j - 1]
    for i in range(1, tq):
        acc[i, 0] = d[i, 0] + acc[i - 1, 0]
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, ts):
            row[j] = d[i, j] + min(prev[j], row[j - 1], prev[j - 1])

    i, j = tq - 1, ts - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, vert, horz = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            if diag <= vert and diag <= horz:
                i, j = i - 1, j - 1
            elif vert <= horz:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return float(acc[tq - 1, ts - 1]), path


def embed_frames(emb: EmbeddingParams, frames: np.ndarray) -> np.ndarray:
    return np.asarray(frames, dtype=np.float64) @ emb.weight.T + emb.bias


def pooled_embedding(emb: EmbeddingParams, frames: np.ndarray) -> np.ndarray:
    return embed_frames(emb, frames).mean(axis=-2)


def episode_arrays(episode, n_way: int) -> EpisodeArrays:
    groups: list[list[np.ndarray]] = [[] for _ in range(n_way)]
    for seq, lab in episode.support:
        groups[lab].append(seq.frames)
    if any(not g for g in groups):
        raise ValidationError("episode does not cover all classes")
    return EpisodeArrays(
        support=tuple(np.stack(g) for g in groups),
        query=episode.query[0].frames,
        label=int(episode.query[1]),
    )


def train_head(
    features: list[tuple[np.ndarray, int]],
    init: LinearHead,
    iters: int,
    lr: float,
    dropout_p: float,
    rng: RngStream | np.random.Generator,
) -> LinearHead:
    if iters < 0:
        raise ValidationError("iters must be >= 0")
    if not features:
        raise CoverageError("empty feature set")
    x = np.stack([np.asarray(f, dtype=np.float64) for f, _ in features])
    y = np.array([lab for _, lab in features], dtype=np.intp)
    n, d = x.shape
    k = init.n_out
    if d != init.in_dim:
        raise ShapeError(
            f"feature dim {d} does not match head input dim {init.in_dim}"
        )
    present = set(int(lab) for lab in y)
    missing = sorted(set(range(k)) - present)
    if missing:
        raise CoverageError(f"no samples for class(es) {missing}")
    if iters == 0:
        return init

    gen = as_generator(rng)
    p = np.concatenate([init.weight, init.bias[:, None]], axis=1)
    x1 = np.concatenate([x, np.ones((n, 1))], axis=1)
    rows = np.arange(n)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    denom = np.empty_like(p)
    for t in range(1, iters + 1):
        if dropout_p > 0.0:
            mask = (gen.random((n, d)) >= dropout_p) / (1.0 - dropout_p)
            xa = np.concatenate([x * mask, np.ones((n, 1))], axis=1)
        else:
            xa = x1
        logits = xa @ p.T
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        logits[rows, y] -= 1.0
        dp = logits.T @ xa
        dp /= n
        m *= beta1
        m += (1.0 - beta1) * dp
        np.square(dp, out=dp)
        v *= beta2
        v += (1.0 - beta2) * dp
        np.divide(v, 1.0 - beta2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        p -= (lr / (1.0 - beta1**t)) * m / denom
    return LinearHead(p[:, :-1], p[:, -1])
