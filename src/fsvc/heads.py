"""Classifier machinery: linear heads, cross-entropy, dropout, Adam, imprinting.

Gradients are analytic throughout; every gradient path here is covered by a
finite-difference check in the test suite.  One in-place Adam update serves
both base training (``adam_step``) and support-set fitting (``train_head``),
and ``dropout_mask`` is the one inverted-dropout mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    CoverageError,
    DegenerateInputError,
    RngStream,
    ShapeError,
    ValidationError,
    as_generator,
)

# ufuncs bound once and called with a positional ``out``: the support-head
# loop makes 19 calls a step on arrays of a few hundred elements, where the
# lookups and keyword parsing are a visible share of each call
_matmul, _exp, _sqrt, _square = np.matmul, np.exp, np.sqrt, np.square
_add, _sub, _mul, _div = np.add, np.subtract, np.multiply, np.divide
_max_reduce, _min_reduce = np.maximum.reduce, np.minimum.reduce
_sum_reduce = np.add.reduce


@dataclass(frozen=True, eq=False)
class LinearHead:
    """Frozen affine map x -> W x + b, with W of shape (C_out, D): a classifier
    head, or the per-frame embedding (``protocols.EmbeddingParams``)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weight, dtype=np.float64)
        b = np.array(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ShapeError(
                f"weight {w.shape} and bias {b.shape} are not a (C_out, D) / "
                f"(C_out,) pair"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValidationError("weight and bias must be finite")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


def init_head(
    rng: RngStream | np.random.Generator,
    n_out: int,
    in_dim: int,
    scale: float | None = None,
) -> LinearHead:
    """Random head; the default scale is the usual 1/sqrt(fan_in)."""
    gen = as_generator(rng)
    if scale is None:
        scale = 1.0 / np.sqrt(in_dim)
    return LinearHead(scale * gen.standard_normal((n_out, in_dim)), np.zeros(n_out))


def linear_forward(head: LinearHead, x: np.ndarray) -> np.ndarray:
    """Logits for one vector (D,) or a batch (N, D)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != head.in_dim:
        raise ShapeError(
            f"input shape {x.shape} does not match head weight "
            f"{head.weight.shape}"
        )
    return x @ head.weight.T + head.bias


def softmax_xent(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one logit vector; returns (loss, dloss/dlogits).

    Uses max subtraction, so arbitrarily large logits do not overflow.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeError(f"logits must be a vector, got shape {z.shape}")
    k = z.shape[0]
    if not 0 <= label < k:
        raise ValidationError(f"label {label} out of range for {k} classes")
    shifted = z - z.max()
    log_norm = np.log(np.sum(np.exp(shifted)))
    loss = float(log_norm - shifted[label])
    dlogits = np.exp(shifted - log_norm)
    dlogits[label] -= 1.0
    return loss, dlogits


def softmax_xent_batch(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over rows; dlogits already carries the 1/N factor.

    ``labels`` holds one class index in [0, K) per row of the (N, K) logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    n, k = z.shape
    if y.shape != (n,):
        raise ShapeError(f"labels of shape {y.shape} for {n} logit rows")
    if n and not (0 <= _min_reduce(y) and _max_reduce(y) < k):
        bad = y[(y < 0) | (y >= k)]
        raise ValidationError(f"label {bad[0]} out of range for {k} classes")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(n)
    loss = float(np.mean(log_norm - shifted[rows, y]))
    dlogits = np.exp(shifted - log_norm[:, None])
    dlogits[rows, y] -= 1.0
    return loss, dlogits / n


def dropout_mask(
    rng: RngStream | np.random.Generator, p: float, shape: int | tuple[int, ...]
) -> np.ndarray:
    """Inverted dropout mask of the given shape: 0 with probability p, else
    1/(1-p).

    Training-mode only; evaluation applies no mask at all.
    """
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"dropout probability must be in [0, 1), got {p}")
    gen = as_generator(rng)
    return (gen.random(shape) >= p) / (1.0 - p)


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = np.array(1e-8)  # 0-d, so no ufunc call converts a Python float
_EPS.setflags(write=False)
_DENSE_BETAS = 4096  # moment entries up to which the betas are full arrays


class _AdamBuffers(NamedTuple):
    """Moments and scratch of one parameter, stacked in pairs.

    ``m`` and ``v`` are the halves of ``mv``, and ``g`` and ``g2`` (the
    gradient and its square) the halves of ``gg``, so one call decays,
    scales or accumulates both moments.  ``decay`` and ``gain`` hold the
    betas and one minus them at ``mv``'s shape.  Up to ``_DENSE_BETAS``
    entries they are full arrays, because a broadcast operand costs numpy
    more than the arithmetic on arrays that small; larger parameters, such
    as base training's weights, take stride-0 views that cost no memory.
    """

    mv: np.ndarray
    gg: np.ndarray
    m: np.ndarray
    v: np.ndarray
    g: np.ndarray
    g2: np.ndarray
    decay: np.ndarray
    gain: np.ndarray

    @classmethod
    def zeros(
        cls, shape: tuple[int, ...], scratch: np.ndarray | None = None
    ) -> "_AdamBuffers":
        """Zero moments for a parameter of ``shape``; ``gg`` is new, or the
        head of the flat ``scratch`` array when parameters share one."""
        mv = np.zeros((2, *shape))
        if scratch is None:
            scratch = np.empty(mv.size)
        gg = scratch[: mv.size].reshape(mv.shape)
        betas = []
        for pair in ((_BETA1, _BETA2), (1.0 - _BETA1, 1.0 - _BETA2)):
            c = np.broadcast_to(np.reshape(pair, (2,) + (1,) * len(shape)), mv.shape)
            betas.append(c.copy() if mv.size <= _DENSE_BETAS else c)
        return cls(mv, gg, *mv, *gg, *betas)


def _step_constants(lr: float, t: int) -> tuple[float, float]:
    """Bias corrections of Adam step ``t`` (counted from 1): the step size
    ``lr / (1 - beta1**t)`` and the second-moment divisor ``1 - beta2**t``."""
    return lr / (1.0 - _BETA1**t), 1.0 - _BETA2**t


@lru_cache(maxsize=16)
def _step_arrays(lr: float, iters: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """``_step_constants`` of steps 1..iters as read-only 0-d arrays.

    Support-head fitting runs the same (lr, iters) in every episode, so the
    arrays are built once rather than once per step of every episode.
    """
    table = np.array([_step_constants(lr, t) for t in range(1, iters + 1)])
    table.setflags(write=False)
    return tuple((row[0, ...], row[1, ...]) for row in table)


def _adam_update(
    p: np.ndarray,
    b: _AdamBuffers,
    lr_t: float | np.ndarray,
    bc2_t: float | np.ndarray,
) -> None:
    """One Adam step in place on ``p`` and the moments in ``b``.

    The gradient is read from ``b.g``, which the caller fills first; ``b.gg``
    is scratch afterwards.  ``lr_t`` and ``bc2_t`` are ``_step_constants``
    of the step, as floats or 0-d arrays.
    """
    mv, gg, m, v, g, g2, decay, gain = b
    _square(g, g2)
    _mul(mv, decay, mv)
    _mul(gg, gain, gg)
    _add(mv, gg, mv)
    # gg is free now: g2 becomes the denominator and g the step
    _div(v, bc2_t, g2)
    _sqrt(g2, g2)
    _add(g2, _EPS, g2)
    _mul(m, lr_t, g)
    _div(g, g2, g)
    _sub(p, g, p)


@dataclass
class AdamState:
    """Stacked first/second moments and step counter for named params."""

    lr: float
    step: int = 0
    buffers: dict[str, _AdamBuffers] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float) -> "AdamState":
        # adam_step updates one parameter at a time, so all share one scratch
        scratch = np.empty(2 * max((p.size for p in params.values()), default=0))
        state = cls(lr=lr)
        state.buffers = {
            k: _AdamBuffers.zeros(p.shape, scratch) for k, p in params.items()
        }
        return state


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """One Adam update; returns new parameter arrays and leaves ``params``
    and ``grads`` unchanged."""
    state.step += 1
    lr_t, bc2_t = _step_constants(state.lr, state.step)
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(
                f"param {name!r}: grad shape {g.shape} != param shape {p.shape}"
            )
        b = state.buffers[name]
        b.g[...] = g
        out[name] = p = p.copy()
        _adam_update(p, b, lr_t, bc2_t)
    return out


def _support_arrays(
    features: np.ndarray, labels: np.ndarray, n_way: int
) -> tuple[np.ndarray, np.ndarray]:
    """A support set as an (N, D) float matrix and (N,) class indices that
    cover classes 0..n_way-1 and no others."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise ShapeError(
            f"support features {x.shape} and labels {y.shape} are not an "
            f"(N, D) / (N,) pair"
        )
    if not len(y):
        raise CoverageError("empty support set")
    bad = y[(y < 0) | (y >= n_way)]
    if bad.size:
        raise ValidationError(f"class index {bad[0]} out of range for {n_way}-way")
    missing = np.flatnonzero(np.bincount(y, minlength=n_way) == 0).tolist()
    if missing:
        raise CoverageError(f"no support rows for class(es) {missing}")
    return x, y


def imprint(logits: np.ndarray, labels: np.ndarray, n_way: int) -> LinearHead:
    """Novel head initialized from (N, K) support logits with (N,) labels.

    Row k is the L2-normalized mean of class k's logit rows (for one shot,
    just the normalized logits); the bias starts at zero.  Rows act as class
    templates: a query scores highest on the template it is most similar to.
    """
    z, y = _support_arrays(logits, labels, n_way)
    rows = []
    for k in range(n_way):
        zs = z[y == k]
        # np.mean's and np.linalg.norm's arithmetic, without their wrappers
        mean = _sum_reduce(zs, 0) / len(zs)
        norm = math.sqrt(mean.dot(mean))
        if norm <= 1e-300:
            raise DegenerateInputError(
                f"class {k}: mean support logits have zero norm"
            )
        rows.append(mean / norm)
    return LinearHead(np.stack(rows), np.zeros(n_way))


def train_head(
    features: np.ndarray,
    labels: np.ndarray,
    init: LinearHead,
    iters: int,
    lr: float,
) -> LinearHead:
    """Full-batch Adam on mean cross-entropy for exactly ``iters`` steps.

    Deterministic in the (N, D) ``features``, (N,) ``labels`` and ``init``:
    no randomness is drawn.  The labels become a one-hot matrix that is
    subtracted from the softmax, and every step runs in buffers allocated
    once before the loop; the result is bitwise equal to the plain loop kept
    in ``tests/scalar_oracle.py``.
    """
    if iters < 0:
        raise ValidationError("iters must be >= 0")
    k = init.n_out
    x, y = _support_arrays(features, labels, k)
    n, d = x.shape
    if d != init.in_dim:
        raise ShapeError(
            f"feature dim {d} does not match head input dim {init.in_dim}"
        )
    if iters == 0:
        return init

    # augmented parameter: bias folded in as a last column against a 1s input
    p = np.concatenate([init.weight, init.bias[:, None]], axis=1)
    x1 = np.concatenate([x, np.ones((n, 1))], axis=1)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    # every step works in these buffers and views and allocates no arrays;
    # the constants are 0-d arrays, so no call converts a Python number
    b = _AdamBuffers.zeros(p.shape)
    g = b.g
    z = np.empty((n, k))
    zred = np.empty((n, 1))
    p_t, z_t, n0 = p.T, z.T, np.array(n, dtype=np.float64)
    for lr_t, bc2_t in _step_arrays(lr, iters):
        # softmax of the logits minus the one-hot labels, then its gradient
        _matmul(x1, p_t, z)
        _max_reduce(z, 1, None, zred, True)
        _sub(z, zred, z)
        _exp(z, z)
        _sum_reduce(z, 1, None, zred, True)
        _div(z, zred, z)
        _sub(z, onehot, z)
        _matmul(z_t, x1, g)
        _div(g, n0, g)
        _adam_update(p, b, lr_t, bc2_t)
    return LinearHead(p[:, :-1], p[:, -1])
