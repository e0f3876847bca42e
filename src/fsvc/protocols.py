"""End-to-end method implementations.

Base-stage training (classification for the classifier methods, episodic for
the metric methods) of a per-frame affine embedding, plus per-episode
adaptation and prediction for all five methods:

* ``meta-baseline``: cosine between mean-pooled embeddings and class
  prototypes.
* ``cmn-lite``: multi-saliency descriptors compared head-by-head.
* ``otam-lite``: negative alignment cost from hard-path dynamic time warping.
* ``baseline``: frozen embedding, fresh linear head trained on the support
  set.
* ``baseline-plus``: frozen embedding and base head, novel head imprinted
  from normalized support logits and then fine-tuned.

The embedding is a per-frame affine map so every gradient below is analytic
and finite-difference checkable.  Each episode loss runs as a few stacked
numpy operations over the whole episode; ``tests/scalar_oracle.py`` keeps
their per-step loop forms as the reference they must match.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from itertools import accumulate, chain, count
from typing import Iterable, Iterator

import numpy as np

from .align import (
    SaliencyParams,
    cosine,
    dtw,
    frame_distance_matrix,
    multi_saliency,
    otam_similarity,
    saliency_attention,
    saliency_similarity,
)
from .core import (
    Episode,
    FormatError,
    KEY_LIMIT,
    LeakageError,
    LengthError,
    Manifest,
    RngStream,
    SplitData,
    ValidationError,
    _check_capacity,
    _stream_generators,
    as_generator,
    check_field_types,
    empty_frames,
    load_split,
    sample_episode,
)
from .heads import (
    AdamState,
    LinearHead,
    adam_step,
    dropout_mask,
    imprint,
    init_head,
    linear_forward,
    softmax_xent,
    softmax_xent_batch,
    train_head,
)

METRIC_METHODS = ("meta-baseline", "cmn-lite", "otam-lite")
CLASSIFIER_METHODS = ("baseline", "baseline-plus")
METHODS = METRIC_METHODS + CLASSIFIER_METHODS

# stream_id offsets for the training stage
STREAM_TRAIN_EPISODE = 3 << 32
STREAM_VAL_EPISODE = 4 << 32
STREAM_INIT = 5 << 32
STREAM_BATCH = 6 << 32
STREAM_PRETRAIN = 7 << 32

FSVM_MAGIC = b"FSVM"
FSVM_VERSION = 1
# checkpoint block name -> training parameter name; biases are stored (C, 1)
FSVM_BLOCKS = {
    "embed.weight": "embed_w",
    "embed.bias": "embed_b",
    "head.weight": "head_w",
    "head.bias": "head_b",
    "saliency.queries": "sal_q",
}


def init_embedding(
    rng: RngStream | np.random.Generator, out_dim: int, in_dim: int
) -> LinearHead:
    w = empty_frames("embedding", np.float64, embed_dim=out_dim, feature_dim=in_dim)
    as_generator(rng).standard_normal(out=w)
    w /= np.sqrt(in_dim)
    return LinearHead(w, np.zeros(out_dim))


def embed_frames(emb: LinearHead, frames: np.ndarray) -> np.ndarray:
    """Apply the affine map to every frame; works on (..., T, C_in) batches.

    The product promotes float32 frames to float64, which is exact, so the
    result has the bits of the float64 frames' product.
    """
    return frames @ emb.weight.T + emb.bias


def pooled_embedding(emb: LinearHead, frames: np.ndarray) -> np.ndarray:
    """Per-frame embed, then mean over time: (..., T, C_in) -> (..., C)."""
    e = embed_frames(emb, frames)
    # ndarray.mean's own arithmetic, without its Python wrapper
    return np.add.reduce(e, axis=-2) / e.shape[-2]


# MethodConfig's training schedule counts; each must be at least 1
_SCHEDULE_FIELDS = (
    "batch_size",
    "train_steps",
    "val_every",
    "episodes_per_epoch",
    "max_epochs",
    "patience",
    "val_episodes",
)


@dataclass(frozen=True)
class MethodConfig:
    """Everything needed to train and evaluate one method reproducibly.

    Learning-rate defaults when ``lr_base`` is None: 1e-3 from scratch, and
    with a pretrained embedding 1e-4 for the classifier methods or 1e-5 for
    the metric methods.
    """

    method: str
    n_way: int = 5
    k_shot: int = 1
    temperature: float = 10.0
    init: str = "scratch"  # "scratch" | "pretrained"
    lr_base: float | None = None
    lr_adapt: float = 1e-3
    iters_adapt: int = 100
    dropout_p: float = 0.5
    embed_dim: int = 16
    seed: int = 0
    dtw_normalize: bool = False
    saliency_heads: int = 4
    # training schedule
    batch_size: int = 32
    train_steps: int = 600
    val_every: int = 100
    episodes_per_epoch: int = 200
    max_epochs: int = 8
    patience: int = 3
    val_episodes: int = 100

    def __post_init__(self) -> None:
        check_field_types(self, "{}")
        if self.method not in METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        if self.init not in ("scratch", "pretrained"):
            raise ValidationError(f"unknown init {self.init!r}")
        if self.n_way < 2 or self.k_shot < 1:
            raise ValidationError("need n_way >= 2 and k_shot >= 1")
        if not self.temperature > 0:
            raise ValidationError(
                f"temperature must be finite and > 0, got {self.temperature}"
            )
        rates = {"lr_adapt": self.lr_adapt}
        if self.lr_base is not None:
            rates["lr_base"] = self.lr_base
        for name, lr in rates.items():
            if not lr > 0:
                raise ValidationError(f"{name} must be finite and > 0, got {lr}")
        for name in _SCHEDULE_FIELDS:
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValidationError("dropout_p must be in [0, 1)")
        if self.iters_adapt < 0:
            raise ValidationError("iters_adapt must be >= 0")
        if self.embed_dim < 1 or self.saliency_heads < 1:
            raise ValidationError("embed_dim and saliency_heads must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.seed >= KEY_LIMIT:
            raise ValidationError(f"seed must be below 2**64, got {self.seed}")

    def resolved_lr_base(self) -> float:
        if self.lr_base is not None:
            return self.lr_base
        if self.init == "scratch":
            return 1e-3
        return 1e-4 if self.method in CLASSIFIER_METHODS else 1e-5

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TrainedModel:
    """Frozen training output: embedding plus method-dependent components."""

    embedding: LinearHead
    base_head: LinearHead | None
    saliency: SaliencyParams | None
    config: MethodConfig

    def __post_init__(self) -> None:
        if self.config.method in CLASSIFIER_METHODS and self.base_head is None:
            raise ValidationError(f"{self.config.method} requires a base head")
        if self.config.method == "cmn-lite" and self.saliency is None:
            raise ValidationError("cmn-lite requires saliency parameters")

    @property
    def fingerprint(self) -> str:
        return self.config.fingerprint()

    def weight_digest(self) -> str:
        """Hash of all parameter bytes; adaptation must never change it."""
        h = hashlib.sha256()
        for _, arr in _model_blocks(self):
            h.update(arr.tobytes())
        return h.hexdigest()


def _model_from_params(
    params: dict[str, np.ndarray], cfg: MethodConfig
) -> TrainedModel:
    """Freeze named parameters (``embed_w``, ``embed_b``, and ``head_w`` /
    ``head_b`` or ``sal_q`` when present) into a model; the arrays are
    copied."""
    base_head = None
    if "head_w" in params:
        base_head = LinearHead(params["head_w"], params["head_b"])
    saliency = None
    if "sal_q" in params:
        saliency = SaliencyParams(params["sal_q"])
    return TrainedModel(
        embedding=LinearHead(params["embed_w"], params["embed_b"]),
        base_head=base_head,
        saliency=saliency,
        config=cfg,
    )


@dataclass(frozen=True)
class EpisodeArrays:
    """Episode contents as raw arrays: per-class support stacks plus query."""

    support: tuple[np.ndarray, ...]  # class c -> (k_c, T, C_in)
    query: np.ndarray  # (T, C_in)
    label: int


def episode_arrays(episode: Episode, n_way: int) -> EpisodeArrays:
    groups: list[list[np.ndarray]] = [[] for _ in range(n_way)]
    for seq, lab in episode.support:
        if not 0 <= lab < n_way:
            raise ValidationError(
                f"support label {lab} out of range for n_way={n_way}"
            )
        groups[lab].append(seq.frames)
    if any(not g for g in groups):
        raise ValidationError("episode does not cover all classes")
    return EpisodeArrays(
        # a 1-shot group is a view of its one read-only frame array
        support=tuple(
            g[0][None] if len(g) == 1 else np.stack(g) for g in groups
        ),
        query=episode.query[0].frames,
        label=int(episode.query[1]),
    )


# ---------------------------------------------------------------------------
# losses with hand-derived gradients


def _cos_rows(
    u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosines of matching rows of two (..., C) stacks (broadcast against each
    other) and their gradients with respect to ``u`` and ``v``."""
    uu = np.add.reduce(u * u, axis=-1)
    vv = np.add.reduce(v * v, axis=-1)
    inv = 1.0 / np.sqrt(uu * vv)
    c = np.add.reduce(u * v, axis=-1) * inv
    inv = inv[..., None]
    du = v * inv - u * (c / uu)[..., None]
    dv = u * inv - v * (c / vv)[..., None]
    return c, du, dv


def _embedding_grads(dE: np.ndarray, inputs: np.ndarray) -> dict[str, np.ndarray]:
    """Embedding gradients from stacked per-frame output gradients (R, C) and
    the matching inputs (R, C_in) of the affine map."""
    return {"embed_w": dE.T @ inputs, "embed_b": dE.sum(axis=0)}


def classification_loss_and_grads(
    emb: LinearHead,
    head: LinearHead,
    frames: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy of embed -> mean-pool -> (dropout) -> linear head.

    ``mask`` is an optional precomputed inverted-dropout mask of shape (N, C);
    evaluation passes None, which is the identity.
    """
    frames = np.asarray(frames, dtype=np.float64)
    pooled = pooled_embedding(emb, frames)  # (N, C)
    h = pooled if mask is None else pooled * mask
    logits = h @ head.weight.T + head.bias
    loss, dlogits = softmax_xent_batch(logits, labels)

    dhead_w = dlogits.T @ h
    dhead_b = dlogits.sum(axis=0)
    dh = dlogits @ head.weight
    dpooled = dh if mask is None else dh * mask
    xbar = frames.mean(axis=1)  # (N, C_in); mean pool commutes with the affine map
    grads = _embedding_grads(dpooled, xbar)
    grads["head_w"] = dhead_w
    grads["head_b"] = dhead_b
    return loss, grads


def metabaseline_loss_and_grads(
    emb: LinearHead, ep: EpisodeArrays, tau: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Episode loss for cosine-to-prototype matching of pooled embeddings.

    One ``_cos_rows`` call scores the query against the stacked (n_way, C)
    prototypes and gives every cosine gradient at once.  The embedding
    gradient has one row per video: the query's, then each support's share
    of its class prototype's, against the video's time-averaged input.
    """
    q = pooled_embedding(emb, ep.query)  # (C,)
    protos = np.stack(
        [
            np.add.reduce(pooled_embedding(emb, frames), axis=0) / len(frames)
            for frames in ep.support
        ]
    )
    k = np.array([len(frames) for frames in ep.support])
    scores, dq, dp = _cos_rows(q, protos)
    loss, dscores = softmax_xent(tau * scores, ep.label)
    g = tau * dscores[:, None]

    dE = np.vstack(
        [np.add.reduce(g * dq, axis=0), np.repeat(g * dp / k[:, None], k, axis=0)]
    )
    frames = np.concatenate([ep.query[None], *ep.support], dtype=np.float64)
    inputs = np.add.reduce(frames, axis=1) / frames.shape[1]
    return loss, _embedding_grads(dE, inputs)


def cmn_loss_and_grads(
    emb: LinearHead, sal: SaliencyParams, ep: EpisodeArrays, tau: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Episode loss for multi-saliency descriptor matching.

    The query and every support video are embedded one by one and stacked
    into a (V, T, C) array, query first; attention, descriptors, the
    per-class mean descriptors, the (n_way, S) head cosines and the backward
    pass through the saliency softmax then run on the whole stack.
    """
    frames = np.concatenate([ep.query[None], *ep.support], dtype=np.float64)
    embedded = np.stack([embed_frames(emb, f) for f in frames])  # (V, T, C)
    v, t, c = embedded.shape
    k = [len(f) for f in ep.support]

    att = saliency_attention(embedded, sal)  # (V, T, S)
    desc = att.transpose(0, 2, 1) @ embedded  # (V, S, C)
    starts = list(accumulate(k[:-1], initial=1))  # each class's first video
    shots = np.array(k)[:, None, None]
    class_desc = np.add.reduceat(desc, starts, axis=0) / shots

    cos, dq_cos, dc_cos = _cos_rows(desc[0], class_desc)  # (n_way, S)
    scores = np.add.reduce(cos, axis=1) / sal.n_heads
    loss, dscores = softmax_xent(tau * scores, ep.label)
    coef = (tau * dscores / sal.n_heads)[:, None, None]

    # descriptor gradients per video: the query's, then each support's share
    ddesc = np.concatenate(
        [
            np.add.reduce(coef * dq_cos, axis=0)[None],
            np.repeat(coef * dc_cos / shots, k, axis=0),
        ]
    )  # (V, S, C)
    dE = att @ ddesc  # (V, T, C)
    datt = embedded @ ddesc.transpose(0, 2, 1)  # (V, T, S)
    dz = att * (datt - np.add.reduce(att * datt, axis=1, keepdims=True))
    dz = dz.reshape(v * t, -1)
    dE = dE.reshape(v * t, c) + sal.scale * (dz @ sal.queries)
    grads = _embedding_grads(dE, frames.reshape(v * t, -1))
    grads["sal_q"] = sal.scale * (dz.T @ embedded.reshape(v * t, c))
    return loss, grads


def otam_loss_and_grads(
    emb: LinearHead,
    ep: EpisodeArrays,
    tau: float,
    normalize: bool = False,
    paths: list[list[list[tuple[int, int]]]] | None = None,
) -> tuple[float, dict[str, np.ndarray], list[list[list[tuple[int, int]]]]]:
    """Episode loss for alignment-based matching with hard paths.

    Alignment paths are treated as constants during the gradient step: when
    ``paths`` is None they are recomputed from the current embedding, and the
    used paths are returned so callers can freeze them (finite-difference
    checks perturb parameters under fixed paths).

    Every path step of the episode is gathered into two (L, C) stacks, query
    frames and support frames, whose cosines and gradients come from one
    ``_cos_rows`` call; ``np.bincount`` sums the distances per support in
    path order.  The embedding gradient pairs each step's cosine gradients
    with that step's input frames, which equals scattering them back onto
    the frames first.
    """
    q_emb = embed_frames(emb, ep.query)
    sup_emb = [embed_frames(emb, frames_c) for frames_c in ep.support]

    if paths is None:
        paths = [
            [dtw(frame_distance_matrix(q_emb, e))[1] for e in emb_c]
            for emb_c in sup_emb
        ]

    # every frame of the episode, query first, as rows of one embedded stack
    # and one input stack; a path step pairs query row a with support row b
    t = len(ep.query)
    embedded = np.concatenate([q_emb[None], *sup_emb]).reshape(-1, q_emb.shape[1])
    frames = np.concatenate([ep.query[None], *ep.support], dtype=np.float64)
    frames = frames.reshape(-1, frames.shape[-1])
    flat = [path for paths_c in paths for path in paths_c]
    k = np.array([len(paths_c) for paths_c in paths])
    lens = np.array([len(path) for path in flat])
    seg = np.repeat(np.arange(len(flat)), lens)  # support of each step
    rows = np.fromiter(chain.from_iterable(chain.from_iterable(flat)), np.intp)
    rows = rows.reshape(-1, 2).T.copy()  # (2, L): query rows, support rows
    rows[1] += (seg + 1) * t

    cos, dq, ds = _cos_rows(embedded[rows[0]], embedded[rows[1]])
    costs = np.bincount(seg, weights=1.0 - cos)  # per support, in path order
    if normalize:
        costs /= lens
    cls = np.repeat(np.arange(len(k)), k)  # class of each support
    scores = -np.bincount(cls, weights=costs) / k

    loss, dscores = softmax_xent(tau * scores, ep.label)
    # d loss / d cos at each path step
    coef = (tau * dscores / k)[cls]
    if normalize:
        coef /= lens
    coef = coef[seg, None]
    dE = np.concatenate([coef * dq, coef * ds])
    return loss, _embedding_grads(dE, frames[rows.ravel()]), paths


def episode_loss_and_grads(
    params: dict[str, np.ndarray],
    ep: EpisodeArrays,
    cfg: MethodConfig,
    paths: list[list[list[tuple[int, int]]]] | None = None,
) -> tuple[float, dict[str, np.ndarray], list[list[list[tuple[int, int]]]] | None]:
    """A metric method's episode loss and gradients at named parameter arrays
    (``embed_w``, ``embed_b``, and ``sal_q`` for cmn-lite), plus otam-lite's
    alignment paths (None for the other methods), which ``paths`` freezes.
    """
    emb = LinearHead(params["embed_w"], params["embed_b"])
    if cfg.method == "meta-baseline":
        return (*metabaseline_loss_and_grads(emb, ep, cfg.temperature), None)
    if cfg.method == "cmn-lite":
        sal = SaliencyParams(params["sal_q"])
        return (*cmn_loss_and_grads(emb, sal, ep, cfg.temperature), None)
    if cfg.method == "otam-lite":
        return otam_loss_and_grads(emb, ep, cfg.temperature, cfg.dtw_normalize, paths)
    raise ValidationError(f"{cfg.method!r} is not a metric method")


# ---------------------------------------------------------------------------
# scoring and adaptation


def method_scores(
    model: TrainedModel, ep: EpisodeArrays, cfg: MethodConfig
) -> np.ndarray:
    """Per-class scores for the metric methods (higher = more similar)."""
    emb = model.embedding
    if cfg.method == "meta-baseline":
        q = pooled_embedding(emb, ep.query)
        scores = []
        for frames in ep.support:
            pooled = pooled_embedding(emb, frames)
            # ndarray.mean's own arithmetic, without its Python wrapper
            scores.append(cosine(q, np.add.reduce(pooled, 0) / len(pooled)))
        return np.array(scores)
    if cfg.method == "cmn-lite":
        sal = model.saliency
        q_desc = multi_saliency(embed_frames(emb, ep.query), sal)
        scores = []
        for frames_c in ep.support:
            descs = [
                multi_saliency(embed_frames(emb, f), sal) for f in frames_c
            ]
            proto = np.add.reduce(descs, 0) / len(descs)
            scores.append(saliency_similarity(q_desc, proto))
        return np.array(scores)
    if cfg.method == "otam-lite":
        q_emb = embed_frames(emb, ep.query)
        scores = []
        for frames_c in ep.support:
            sims = [
                otam_similarity(
                    q_emb, embed_frames(emb, f), normalize=cfg.dtw_normalize
                )
                for f in frames_c
            ]
            # numpy's pairwise sum, as np.mean adds them
            scores.append(float(np.add.reduce(sims) / len(sims)))
        return np.array(scores)
    raise ValidationError(f"{cfg.method!r} is not a metric method")


def adapt_and_predict(
    model: TrainedModel,
    episode: Episode,
    cfg: MethodConfig,
    rng: RngStream | np.random.Generator,
) -> int:
    """Predict the query label of one episode.

    The trained model is never mutated: metric methods just score, the
    classifier methods train a disposable head on (features derived from)
    the support set.
    """
    if model.config.method != cfg.method:
        raise ValidationError(
            f"model was trained for {model.config.method!r}, config says "
            f"{cfg.method!r}"
        )
    ep = episode_arrays(episode, cfg.n_way)

    if cfg.method in METRIC_METHODS:
        return int(method_scores(model, ep, cfg).argmax())

    emb = model.embedding
    feats = np.concatenate([pooled_embedding(emb, f) for f in ep.support])
    labels = np.repeat(np.arange(cfg.n_way), [len(f) for f in ep.support])
    q_feat = pooled_embedding(emb, ep.query)

    if cfg.method == "baseline":
        init = init_head(rng, cfg.n_way, emb.n_out)
        head = train_head(feats, labels, init, cfg.iters_adapt, cfg.lr_adapt)
        return int(np.argmax(linear_forward(head, q_feat)))

    # baseline-plus: features are frozen base-head logits.  The query's
    # linear_forward checks the width every support row shares.  The stacked
    # (N, 1, D) product gives each row the bits of linear_forward's vector
    # product; a flat (N, D) @ W.T rounds differently.
    base = model.base_head
    q_logits = linear_forward(base, q_feat)
    logits = (feats[:, None] @ base.weight.T)[:, 0] + base.bias
    novel = imprint(logits, labels, cfg.n_way)
    if cfg.iters_adapt > 0:
        novel = train_head(logits, labels, novel, cfg.iters_adapt, cfg.lr_adapt)
    return int(np.argmax(linear_forward(novel, q_logits)))


def _episode_hits(
    model: TrainedModel, cfg: MethodConfig, data: SplitData, streams: Iterable[int]
) -> Iterator[bool]:
    """Whether the prediction is right, for one episode per stream id ``s``;
    the episode is sampled and adapted on the generator of (cfg.seed, s)."""
    # each generator serves one episode only, so one re-keyed Philox does
    for gen in _stream_generators(cfg.seed, streams):
        episode = sample_episode(data, cfg.n_way, cfg.k_shot, gen)
        yield adapt_and_predict(model, episode, cfg, rng=gen) == episode.query[1]


# ---------------------------------------------------------------------------
# training


def _val_accuracy(model: TrainedModel, cfg: MethodConfig, val_data) -> float:
    streams = range(STREAM_VAL_EPISODE, STREAM_VAL_EPISODE + cfg.val_episodes)
    return sum(_episode_hits(model, cfg, val_data, streams)) / cfg.val_episodes


def _fit(
    cfg: MethodConfig,
    params: dict[str, np.ndarray],
    grads_at,
    stops: list[int],
    patience: float,
    val_data: SplitData | None,
) -> TrainedModel:
    """Adam on named parameters, one ``grads_at(params)`` per step, with the
    parameters frozen into a model and validated once the step count reaches
    each of ``stops``.  A model is kept only if its accuracy beats the best so
    far, so the earliest of equals wins; ``patience`` validations in a row
    without a keep end training.  With no val data (None or an empty split)
    the final parameters are returned; otherwise a val split that cannot
    supply an episode is an error before the first step.
    """
    validate = val_data is not None and bool(val_data.class_ids)
    if validate:
        _check_capacity(val_data, cfg.n_way, cfg.k_shot, "val split")
    state = AdamState.for_params(params, cfg.resolved_lr_base())
    best: TrainedModel | None = None
    best_acc = -1.0
    stale = 0
    for stop in stops:
        for _ in range(stop - state.step):
            params = adam_step(state, params, grads_at(params))
        if not validate:
            continue
        model = _model_from_params(params, cfg)
        acc = _val_accuracy(model, cfg, val_data)
        if acc > best_acc:
            best_acc = acc
            best = model
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    return best if best is not None else _model_from_params(params, cfg)


def train_classification(
    manifest: Manifest,
    cfg: MethodConfig,
    embedding_init: LinearHead | None = None,
    select_by_val: bool = True,
    stream_base: int = 0,
) -> TrainedModel:
    """Joint Adam training of the embedding and a base linear head.

    Mini-batch cross-entropy over the train split; for baseline-plus an
    inverted-dropout mask sits between the pooled embedding and the head.
    Validation runs every ``val_every`` steps and after the last step, and
    never stops training early.  The returned model is the one with the best
    validation-episode accuracy (the final step when selection is disabled).
    """
    train_data = load_split(manifest, "train")
    if not train_data.class_ids:
        raise ValidationError("train split has no videos")
    n_classes = len(train_data.class_ids)
    n_samples = len(train_data.labels)

    emb = embedding_init or init_embedding(
        RngStream(cfg.seed, stream_base + STREAM_INIT),
        cfg.embed_dim,
        manifest.feature_dim,
    )
    head = init_head(
        RngStream(cfg.seed, stream_base + STREAM_INIT + 1), n_classes, cfg.embed_dim
    )
    params = {
        "embed_w": np.array(emb.weight),
        "embed_b": np.array(emb.bias),
        "head_w": np.array(head.weight),
        "head_b": np.array(head.bias),
    }
    gen = RngStream(cfg.seed, stream_base + STREAM_BATCH).generator()
    use_dropout = cfg.method == "baseline-plus" and cfg.dropout_p > 0.0
    batch = min(cfg.batch_size, n_samples)

    def grads_at(p: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        idx = gen.choice(n_samples, size=batch, replace=False)
        mask = None
        if use_dropout:
            mask = dropout_mask(gen, cfg.dropout_p, (batch, cfg.embed_dim))
        return classification_loss_and_grads(
            LinearHead(p["embed_w"], p["embed_b"]),
            LinearHead(p["head_w"], p["head_b"]),
            train_data.frames[idx],
            train_data.labels[idx],
            mask,
        )[1]

    stops = [*range(cfg.val_every, cfg.train_steps, cfg.val_every), cfg.train_steps]
    val_data = load_split(manifest, "val") if select_by_val else None
    return _fit(cfg, params, grads_at, stops, math.inf, val_data)


def meta_train(
    manifest: Manifest,
    cfg: MethodConfig,
    embedding_init: LinearHead | None = None,
) -> TrainedModel:
    """Episodic training of a metric method on the train split.

    Runs epochs of ``episodes_per_epoch`` sampled episodes, checks
    validation-episode accuracy after each, keeps the best model, and stops
    early when accuracy has not improved for ``patience`` epochs.
    """
    train_data = load_split(manifest, "train")
    _check_capacity(train_data, cfg.n_way, cfg.k_shot, "train split")

    emb = embedding_init or init_embedding(
        RngStream(cfg.seed, STREAM_INIT), cfg.embed_dim, manifest.feature_dim
    )
    params = {"embed_w": np.array(emb.weight), "embed_b": np.array(emb.bias)}
    if cfg.method == "cmn-lite":
        params["sal_q"] = np.zeros((cfg.saliency_heads, cfg.embed_dim))
    streams = _stream_generators(cfg.seed, count(STREAM_TRAIN_EPISODE))

    def grads_at(p: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        gen = next(streams)
        episode = sample_episode(train_data, cfg.n_way, cfg.k_shot, gen)
        return episode_loss_and_grads(p, episode_arrays(episode, cfg.n_way), cfg)[1]

    stops = [cfg.episodes_per_epoch * e for e in range(1, cfg.max_epochs + 1)]
    val_data = load_split(manifest, "val")
    return _fit(cfg, params, grads_at, stops, cfg.patience, val_data)


def pretrain_embedding(
    pretrain_manifest: Manifest | None,
    cfg: MethodConfig,
    benchmark: Manifest,
) -> LinearHead:
    """Train the embedding by classification on a disjoint pretraining set.

    Missing or empty pretraining data is an error, so a model never records
    ``init: pretrained`` over a random initialization.  Any class overlap
    with the benchmark manifest is an error too: leakage would defeat the
    point of a novel-class evaluation.
    """
    if pretrain_manifest is None or not pretrain_manifest.videos:
        raise ValidationError(
            "init 'pretrained' needs a pretraining manifest with videos"
        )
    if pretrain_manifest.feature_dim != benchmark.feature_dim:
        raise ValidationError(
            f"pretraining features are {pretrain_manifest.feature_dim} wide, "
            f"the benchmark's {benchmark.feature_dim}"
        )
    pre_ids = {cid for cid, _ in pretrain_manifest.classes}
    bench_ids = {cid for cid, _ in benchmark.classes}
    shared = sorted(pre_ids & bench_ids)
    if shared:
        raise LeakageError(f"pretraining classes {shared} also appear in the benchmark")
    pcfg = replace(cfg, method="baseline", init="scratch", lr_base=None)
    model = train_classification(
        pretrain_manifest,
        pcfg,
        select_by_val=False,
        stream_base=STREAM_PRETRAIN,
    )
    return model.embedding


def train_model(
    manifest: Manifest,
    cfg: MethodConfig,
    pretrain_manifest: Manifest | None = None,
) -> TrainedModel:
    """Dispatch to classification or episodic training per the method."""
    embedding_init = None
    if cfg.init == "pretrained":
        embedding_init = pretrain_embedding(pretrain_manifest, cfg, manifest)
    if cfg.method in CLASSIFIER_METHODS:
        return train_classification(manifest, cfg, embedding_init=embedding_init)
    return meta_train(manifest, cfg, embedding_init=embedding_init)


# ---------------------------------------------------------------------------
# checkpoints


def _model_blocks(model: TrainedModel) -> list[tuple[str, np.ndarray]]:
    """Named parameter blocks in checkpoint order; ``weight_digest`` hashes
    the same arrays."""
    blocks = [
        ("embed.weight", model.embedding.weight),
        ("embed.bias", model.embedding.bias.reshape(-1, 1)),
    ]
    if model.base_head is not None:
        blocks.append(("head.weight", model.base_head.weight))
        blocks.append(("head.bias", model.base_head.bias.reshape(-1, 1)))
    if model.saliency is not None:
        blocks.append(("saliency.queries", model.saliency.queries))
    return blocks


def save_checkpoint(model: TrainedModel, path) -> None:
    """Binary container: magic, version, config JSON, named f64 blocks."""
    config_bytes = model.config.canonical_json().encode()
    blocks = _model_blocks(model)
    parts = [
        FSVM_MAGIC,
        struct.pack("<II", FSVM_VERSION, len(config_bytes)),
        config_bytes,
        struct.pack("<I", len(blocks)),
    ]
    for name, arr in blocks:
        name_b = name.encode()
        rows, cols = arr.shape
        parts.append(struct.pack("<I", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<II", rows, cols))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint written by ``save_checkpoint``.

    Every read is checked against the file length, and every block's name
    and shape against the config and ``embed.weight``, so a cut or malformed
    file raises ``LengthError`` or ``FormatError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != FSVM_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {FSVM_MAGIC!r}")
    off = 4

    def take(n: int, what: str) -> int:
        """Claim the next ``n`` bytes; returns their offset."""
        nonlocal off
        if n > len(data) - off:
            raise LengthError(
                f"{path}: truncated {what}: needs {n} bytes at offset {off}, "
                f"file has {len(data)}"
            )
        off += n
        return off - n

    def text(n: int, what: str) -> str:
        at = take(n, what)
        try:
            return data[at : at + n].decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {what} is not UTF-8: {exc}") from exc

    version, config_len = struct.unpack_from("<II", data, take(8, "header"))
    if version != FSVM_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    config = text(config_len, "config")
    try:
        cfg = MethodConfig(**json.loads(config))
    except (json.JSONDecodeError, RecursionError, TypeError) as exc:
        raise FormatError(f"{path}: bad config block: {exc}") from exc
    (n_blocks,) = struct.unpack_from("<I", data, take(4, "block count"))
    blocks: dict[str, np.ndarray] = {}
    for _ in range(n_blocks):
        (name_len,) = struct.unpack_from("<I", data, take(4, "block header"))
        name = text(name_len, "block name")
        if name not in FSVM_BLOCKS:
            raise FormatError(f"{path}: unknown checkpoint block {name!r}")
        if name in blocks:
            raise FormatError(f"{path}: duplicate checkpoint block {name!r}")
        rows, cols = struct.unpack_from("<II", data, take(8, f"block {name!r}"))
        count = rows * cols
        at = take(count * 8, f"block {name!r}")
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=at)
        blocks[name] = arr.reshape(rows, cols).astype(np.float64)
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes")
    required = ["embed.weight", "embed.bias"]
    if cfg.method in CLASSIFIER_METHODS or any(n.startswith("head.") for n in blocks):
        required += ["head.weight", "head.bias"]
    if cfg.method == "cmn-lite":
        required.append("saliency.queries")
    missing = [n for n in required if n not in blocks]
    if missing:
        raise FormatError(f"{path}: missing checkpoint block(s) {missing}")

    c, c_in = cfg.embed_dim, blocks["embed.weight"].shape[1]
    k = blocks["head.weight"].shape[0] if "head.weight" in blocks else 1
    expected = {
        "embed.weight": (c, c_in),
        "embed.bias": (c, 1),
        "head.weight": (k, c),
        "head.bias": (k, 1),
        "saliency.queries": (cfg.saliency_heads, c),
    }
    for name, arr in blocks.items():
        if arr.shape != expected[name] or 0 in arr.shape:
            raise FormatError(
                f"{path}: block {name!r} has shape {arr.shape}, expected "
                f"{expected[name]} with no empty dimension"
            )
    params = {FSVM_BLOCKS[name]: arr for name, arr in blocks.items()}
    for bias in ("embed_b", "head_b"):
        if bias in params:
            params[bias] = params[bias][:, 0]
    return _model_from_params(params, cfg)
