"""Classifier machinery: linear heads, cross-entropy, dropout, Adam, imprinting.

Gradients are analytic throughout; every gradient path here is covered by a
finite-difference check in the test suite.  One in-place Adam update serves
both base training (``adam_step``) and support-set fitting (``train_head``),
and ``dropout_mask`` is the one inverted-dropout mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CoverageError,
    DegenerateInputError,
    RngStream,
    ShapeError,
    ValidationError,
    as_generator,
)


@dataclass(frozen=True, eq=False)
class LinearHead:
    """Affine classifier: logits = W x + b, with W of shape (C_out, D)."""

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
            raise ValidationError("head parameters must be finite")
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
    """Mean cross-entropy over rows; dlogits already carries the 1/N factor."""
    z = np.asarray(logits, dtype=np.float64)
    n = z.shape[0]
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(n)
    loss = float(np.mean(log_norm - shifted[rows, labels]))
    dlogits = np.exp(shifted - log_norm[:, None])
    dlogits[rows, labels] -= 1.0
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
_EPS = 1e-8


def _adam_update(
    p: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    t: int,
    lr: float,
    buf: np.ndarray,
    denom: np.ndarray,
) -> None:
    """Adam step ``t`` (counted from 1) with bias correction, in place on
    ``p``, ``m`` and ``v``; ``g`` is left unchanged.

    ``buf`` and ``denom`` are caller-owned scratch arrays of ``p``'s shape,
    so a loop of steps allocates nothing.
    """
    m *= _BETA1
    np.multiply(g, 1.0 - _BETA1, out=buf)
    m += buf
    v *= _BETA2
    np.square(g, out=buf)
    buf *= 1.0 - _BETA2
    v += buf
    np.divide(v, 1.0 - _BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += _EPS
    np.multiply(m, lr / (1.0 - _BETA1**t), out=buf)
    buf /= denom
    p -= buf


@dataclass
class AdamState:
    """First/second-moment accumulators and step counter for named params."""

    lr: float
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float) -> "AdamState":
        state = cls(lr=lr)
        state.m = {k: np.zeros_like(p) for k, p in params.items()}
        state.v = {k: np.zeros_like(p) for k, p in params.items()}
        return state


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """One Adam update; returns new parameter arrays and leaves ``params``
    unchanged."""
    state.step += 1
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(
                f"param {name!r}: grad shape {g.shape} != param shape {p.shape}"
            )
        out[name] = p = p.copy()
        scratch = (np.empty_like(p), np.empty_like(p))
        _adam_update(p, state.m[name], state.v[name], g, state.step, state.lr, *scratch)
    return out


def imprint(
    support_logits: list[tuple[np.ndarray, int]], n_way: int
) -> LinearHead:
    """Novel head initialized from support logits.

    Row k is the L2-normalized mean of class k's logit vectors (for one shot,
    just the normalized logits); the bias starts at zero.  Rows act as class
    templates: a query scores highest on the template it is most similar to.
    """
    if n_way < 1:
        raise ValidationError("n_way must be >= 1")
    groups: list[list[np.ndarray]] = [[] for _ in range(n_way)]
    for z, k in support_logits:
        if not 0 <= k < n_way:
            raise ValidationError(f"class index {k} out of range for {n_way}-way")
        groups[k].append(np.asarray(z, dtype=np.float64))
    rows = []
    for k, zs in enumerate(groups):
        if not zs:
            raise CoverageError(f"class {k} has no support logits to imprint")
        mean = np.mean(zs, axis=0)
        norm = float(np.linalg.norm(mean))
        if norm <= 1e-300:
            raise DegenerateInputError(
                f"class {k}: mean support logits have zero norm"
            )
        rows.append(mean / norm)
    w = np.stack(rows)
    return LinearHead(w, np.zeros(n_way))


def train_head(
    features: list[tuple[np.ndarray, int]],
    init: LinearHead,
    iters: int,
    lr: float,
) -> LinearHead:
    """Full-batch Adam on mean cross-entropy for exactly ``iters`` steps.

    Deterministic in (features, init): no randomness is drawn.  The labels
    become a one-hot matrix that is subtracted from the softmax, and every
    step runs in buffers allocated once before the loop; the result is
    bitwise equal to the plain loop kept in ``tests/scalar_oracle.py``.
    """
    if iters < 0:
        raise ValidationError("iters must be >= 0")
    if not features:
        raise CoverageError("empty feature set")
    try:
        x = np.stack([np.asarray(f, dtype=np.float64) for f, _ in features])
    except ValueError as exc:
        raise ShapeError(f"feature vectors differ in shape: {exc}") from exc
    if x.ndim != 2:
        raise ShapeError(f"features must be vectors, got shape {x.shape[1:]}")
    y = np.array([lab for _, lab in features], dtype=np.intp)
    n, d = x.shape
    k = init.n_out
    if d != init.in_dim:
        raise ShapeError(
            f"feature dim {d} does not match head input dim {init.in_dim}"
        )
    bad = y[(y < 0) | (y >= k)]
    if bad.size:
        raise ValidationError(f"class index {bad[0]} out of range for {k}-way")
    missing = np.flatnonzero(np.bincount(y, minlength=k) == 0).tolist()
    if missing:
        raise CoverageError(f"no samples for class(es) {missing}")
    if iters == 0:
        return init

    # augmented parameter: bias folded in as a last column against a 1s input
    p = np.concatenate([init.weight, init.bias[:, None]], axis=1)
    x1 = np.concatenate([x, np.ones((n, 1))], axis=1)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    # every step works in these buffers and allocates no arrays
    m, v, dp, buf, denom = (np.zeros_like(p) for _ in range(5))
    z = np.empty((n, k))
    zred = np.empty((n, 1))
    for t in range(1, iters + 1):
        np.matmul(x1, p.T, out=z)
        np.maximum.reduce(z, axis=1, keepdims=True, out=zred)
        z -= zred
        np.exp(z, out=z)
        np.add.reduce(z, axis=1, keepdims=True, out=zred)
        z /= zred
        z -= onehot
        np.matmul(z.T, x1, out=dp)
        dp /= n
        _adam_update(p, m, v, dp, t, lr, buf, denom)
    return LinearHead(p[:, :-1], p[:, -1])
