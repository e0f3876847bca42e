"""Frozen reference copies of the per-episode kernels, for differential tests.

Each function here is a verbatim copy of the straightforward numpy form of a
kernel in ``fsvc``.  The package's versions are tuned for small arrays, where
numpy's per-call overhead dominates, or share code with other callers; the
tests in ``test_kernel_oracle.py`` require them to return bitwise-equal
results to these copies.  The episode losses at the end are the loop forms
that the package now computes with stacked arrays; ``test_loss_oracle.py``
compares those to within rounding.  The one-video generator and the feature
file reader are the per-video forms that the package now runs on whole class
blocks, and the class prototype is the ``np.std`` form; the generator tests
require bitwise-equal results.  ``imprint``
is the per-class boolean-mask form that the package now runs on one stable
sort of the labels.  The episode sampler and the metric-method scores at
the end are the ``Generator.choice`` and ``np.mean`` forms;
``test_episode_oracle.py`` requires the same picks, generator states and
score bytes.
Only data types, error classes and ``as_generator`` are imported from
``fsvc``, so later edits to the package cannot move the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from fsvc.core import (
    CapacityError,
    CoverageError,
    DegenerateInputError,
    Episode,
    FeatureSequence,
    RngStream,
    ShapeError,
    SplitData,
    ValidationError,
    as_generator,
)
from fsvc.align import SaliencyParams
from fsvc.heads import LinearHead
from fsvc.protocols import EpisodeArrays

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


def embed_frames(emb: LinearHead, frames: np.ndarray) -> np.ndarray:
    return np.asarray(frames, dtype=np.float64) @ emb.weight.T + emb.bias


def pooled_embedding(emb: LinearHead, frames: np.ndarray) -> np.ndarray:
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


def imprint(logits: np.ndarray, labels: np.ndarray, n_way: int) -> LinearHead:
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if z.ndim != 2 or y.shape != z.shape[:1]:
        raise ShapeError(
            f"support features {z.shape} and labels {y.shape} are not an "
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
    rows = []
    for k in range(n_way):
        zs = z[y == k]
        mean = np.add.reduce(zs, 0) / len(zs)
        norm = math.sqrt(mean.dot(mean))
        if norm <= 1e-300:
            raise DegenerateInputError(
                f"class {k}: mean support logits have zero norm"
            )
        rows.append(mean / norm)
    return LinearHead(np.stack(rows), np.zeros(n_way))


def adam_step(
    moments: dict[str, tuple[np.ndarray, np.ndarray]],
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    t: int,
    lr: float,
) -> dict[str, np.ndarray]:
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    out = {}
    for name, p in params.items():
        g = grads[name]
        m, v = moments[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        denom = np.sqrt(v / (1.0 - beta2**t)) + eps
        out[name] = p - (lr / (1.0 - beta1**t)) * m / denom
    return out


# ---------------------------------------------------------------------------
# episode losses: the per-path-step and per-head loops around _cos_grads


def softmax_xent(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
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


def saliency_attention(seq: np.ndarray, params: SaliencyParams) -> np.ndarray:
    seq = np.asarray(seq, dtype=np.float64)
    logits = (seq @ params.queries.T) * params.scale  # (T, S)
    logits = logits - logits.max(axis=0, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=0, keepdims=True)


def _cos_grads(
    u: np.ndarray, v: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    c = float(u @ v / (nu * nv))
    du = v / (nu * nv) - c * u / (nu * nu)
    dv = u / (nu * nv) - c * v / (nv * nv)
    return c, du, dv


def _embedding_grads(dE: np.ndarray, inputs: np.ndarray) -> dict[str, np.ndarray]:
    return {"embed_w": dE.T @ inputs, "embed_b": dE.sum(axis=0)}


def metabaseline_loss_and_grads(
    emb: LinearHead, ep: EpisodeArrays, tau: float
) -> tuple[float, dict[str, np.ndarray]]:
    q = pooled_embedding(emb, ep.query)  # (C,)
    protos = [pooled_embedding(emb, frames).mean(axis=0) for frames in ep.support]
    scores = np.empty(len(protos))
    dcos_q = []
    dcos_p = []
    for c, p in enumerate(protos):
        s, dq, dp = _cos_grads(q, p)
        scores[c] = s
        dcos_q.append(dq)
        dcos_p.append(dp)
    loss, dscores = softmax_xent(tau * scores, ep.label)
    g = tau * dscores

    dE = [g[c] * dcos_p[c] for c in range(len(protos))]
    dE.append(sum(g[c] * dcos_q[c] for c in range(len(protos))))
    inputs = [frames.mean(axis=(0, 1)) for frames in ep.support]
    inputs.append(ep.query.mean(axis=0))
    return loss, _embedding_grads(np.stack(dE), np.stack(inputs))


def _saliency_backward(
    embedded: np.ndarray,
    att: np.ndarray,
    params: SaliencyParams,
    ddesc: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    dE = att @ ddesc  # (T, C)
    datt = embedded @ ddesc.T  # (T, S)
    dz = att * (datt - (att * datt).sum(axis=0, keepdims=True))
    dq = params.scale * (dz.T @ embedded)  # (S, C)
    dE = dE + params.scale * (dz @ params.queries)
    return dE, dq


def cmn_loss_and_grads(
    emb: LinearHead, sal: SaliencyParams, ep: EpisodeArrays, tau: float
) -> tuple[float, dict[str, np.ndarray]]:
    n_heads = sal.n_heads
    q_emb = embed_frames(emb, ep.query)
    q_att = saliency_attention(q_emb, sal)
    q_desc = q_att.T @ q_emb  # (S, C)

    sup_emb: list[np.ndarray] = []
    sup_att: list[np.ndarray] = []
    sup_frames: list[np.ndarray] = []
    class_desc: list[np.ndarray] = []
    class_members: list[list[int]] = []
    for frames_c in ep.support:
        members = []
        descs = []
        for frames in frames_c:
            e = embed_frames(emb, frames)
            a = saliency_attention(e, sal)
            members.append(len(sup_emb))
            sup_emb.append(e)
            sup_att.append(a)
            sup_frames.append(frames)
            descs.append(a.T @ e)
        class_desc.append(np.mean(descs, axis=0))
        class_members.append(members)

    scores = np.empty(len(class_desc))
    cos_grads = []
    for c, desc in enumerate(class_desc):
        per_head = [_cos_grads(q_desc[s], desc[s]) for s in range(n_heads)]
        scores[c] = np.mean([ch[0] for ch in per_head])
        cos_grads.append(per_head)
    loss, dscores = softmax_xent(tau * scores, ep.label)
    g = tau * dscores

    dq_desc = np.zeros_like(q_desc)
    ddesc_class = [np.zeros_like(q_desc) for _ in class_desc]
    for c in range(len(class_desc)):
        for s in range(n_heads):
            _, dqs, dps = cos_grads[c][s]
            dq_desc[s] += (g[c] / n_heads) * dqs
            ddesc_class[c][s] += (g[c] / n_heads) * dps

    dE_q, dqueries = _saliency_backward(q_emb, q_att, sal, dq_desc)
    dE = [dE_q]
    for c, members in enumerate(class_members):
        share = ddesc_class[c] / len(members)
        for idx in members:
            dE_s, dq_sal = _saliency_backward(sup_emb[idx], sup_att[idx], sal, share)
            dE.append(dE_s)
            dqueries += dq_sal
    inputs = np.concatenate([ep.query, *sup_frames])
    grads = _embedding_grads(np.concatenate(dE), inputs)
    grads["sal_q"] = dqueries
    return loss, grads


def otam_loss_and_grads(
    emb: LinearHead,
    ep: EpisodeArrays,
    tau: float,
    normalize: bool = False,
    paths: list[list[list[tuple[int, int]]]] | None = None,
) -> tuple[float, dict[str, np.ndarray], list[list[list[tuple[int, int]]]]]:
    q_emb = embed_frames(emb, ep.query)
    sup_emb = [embed_frames(emb, frames_c) for frames_c in ep.support]

    if paths is None:
        paths = [
            [dtw(frame_distance_matrix(q_emb, e))[1] for e in emb_c]
            for emb_c in sup_emb
        ]

    n_way = len(ep.support)
    scores = np.zeros(n_way)
    cos_cache: list[list[list[tuple]]] = []
    for c in range(n_way):
        sims = []
        class_cache = []
        for i, e in enumerate(sup_emb[c]):
            path = paths[c][i]
            steps = []
            total = 0.0
            for a, b in path:
                cval, du, dv = _cos_grads(q_emb[a], e[b])
                total += 1.0 - cval
                steps.append((a, b, du, dv))
            sim = -total / len(path) if normalize else -total
            sims.append(sim)
            class_cache.append(steps)
        scores[c] = np.mean(sims)
        cos_cache.append(class_cache)

    loss, dscores = softmax_xent(tau * scores, ep.label)
    g = tau * dscores

    dq_emb = np.zeros_like(q_emb)
    dE = [dq_emb]
    inputs = [ep.query]
    for c in range(n_way):
        k_c = len(sup_emb[c])
        for i, steps in enumerate(cos_cache[c]):
            coef = g[c] / k_c
            if normalize:
                coef /= len(paths[c][i])
            dE_s = np.zeros_like(sup_emb[c][i])
            for a, b, du, dv in steps:
                dq_emb[a] += coef * du
                dE_s[b] += coef * dv
            dE.append(dE_s)
            inputs.append(ep.support[c][i])
    return loss, _embedding_grads(np.concatenate(dE), np.concatenate(inputs)), paths


# ---------------------------------------------------------------------------
# one synthetic video and one feature file, a call per video


def _warp_positions(
    gen: np.random.Generator, t: int, length: int, strength: float
) -> np.ndarray:
    uniform = np.linspace(0.0, length - 1, t)
    random_pos = np.sort(gen.random(t)) * (length - 1)
    blended = (1.0 - strength) * uniform + strength * random_pos
    pos = np.rint(blended).astype(np.int64)
    if strength < 1.0:
        idx = np.arange(t)
        pos = np.maximum.accumulate(pos - idx) + idx  # gaps >= 1
        pos = np.minimum(pos, length - t + idx)  # stay within range
    return pos


def gen_video(
    proto: np.ndarray,
    spec,
    rng,
    video_id: str = "",
    class_id: int = 0,
) -> FeatureSequence:
    if proto.shape[0] != spec.prototype_len:
        raise ValidationError(
            f"prototype has {proto.shape[0]} rows, spec says {spec.prototype_len}"
        )
    gen = as_generator(rng)
    pos = _warp_positions(gen, spec.frame_count, spec.prototype_len, spec.warp_strength)
    frames = proto[pos].copy()
    if spec.noise_sigma > 0.0:
        frames += spec.noise_sigma * gen.standard_normal(frames.shape)
    return FeatureSequence(video_id=video_id, class_id=class_id, frames=frames)


def _correlation_kernel(feature_dim: int, width: float) -> np.ndarray:
    offsets = np.arange(feature_dim)
    dist = np.minimum(offsets, feature_dim - offsets)
    kernel = np.exp(-0.5 * (dist / width) ** 2)
    kernel /= np.linalg.norm(kernel)
    idx = (offsets[:, None] - offsets[None, :]) % feature_dim
    return kernel[idx]


def gen_class_prototype(
    rng, feature_dim: int, length: int, corr_width: float = 0.0
) -> np.ndarray:
    gen = as_generator(rng)
    steps = np.empty((length, feature_dim))
    gen.standard_normal(out=steps)
    if corr_width > 0.0:
        steps = steps @ _correlation_kernel(feature_dim, corr_width)
    traj = np.cumsum(steps, axis=0)
    mean = traj.mean(axis=0)
    std = traj.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (traj - mean) / std


def read_feature_frames(path) -> np.ndarray:
    """The float64 frames of a well-formed FSVF file (no layout checks)."""
    with open(path, "rb") as f:
        data = f.read()
    t, c_in = np.frombuffer(data, dtype="<u4", count=2, offset=8)
    frames = np.frombuffer(data[16:], dtype="<f4").reshape(int(t), int(c_in))
    return np.array(frames, dtype=np.float64)


# ---------------------------------------------------------------------------
# episode sampling and metric-method scores


def _check_capacity(data: SplitData, n_way: int, k_shot: int) -> None:
    if len(data.class_ids) < n_way:
        raise CapacityError(
            f"split has {len(data.class_ids)} classes, need {n_way}"
        )
    for cid in data.class_ids:
        have = len(data.by_class[cid])
        if have < k_shot + 1:
            raise CapacityError(
                f"class {cid} has {have} videos, need {k_shot + 1} "
                f"({k_shot} supports plus a query candidate)"
            )


def sample_episode(
    data: SplitData,
    n_way: int,
    k_shot: int,
    rng: RngStream | np.random.Generator,
) -> Episode:
    _check_capacity(data, n_way, k_shot)
    gen = as_generator(rng)
    chosen = gen.choice(len(data.class_ids), size=n_way, replace=False)
    query_slot = int(gen.integers(n_way))
    support: list[tuple[FeatureSequence, int]] = []
    query: tuple[FeatureSequence, int] | None = None
    for local, idx in enumerate(chosen):
        cid = data.class_ids[int(idx)]
        videos = data.by_class[cid]
        need = k_shot + 1 if local == query_slot else k_shot
        picks = gen.choice(len(videos), size=need, replace=False)
        for pick in picks[:k_shot]:
            support.append((videos[int(pick)], local))
        if local == query_slot:
            query = (videos[int(picks[k_shot])], local)
    assert query is not None
    return Episode(support=tuple(support), query=query)


def otam_similarity(
    q_emb: np.ndarray, s_emb: np.ndarray, normalize: bool = False
) -> float:
    cost, path = dtw(frame_distance_matrix(q_emb, s_emb))
    if normalize:
        return -cost / len(path)
    return -cost


def multi_saliency(seq: np.ndarray, params: SaliencyParams) -> np.ndarray:
    att = saliency_attention(seq, params)  # (T, S)
    return att.T @ np.asarray(seq, dtype=np.float64)  # (S, C)


def saliency_similarity(desc_a: np.ndarray, desc_b: np.ndarray) -> float:
    a = np.asarray(desc_a, dtype=np.float64)
    b = np.asarray(desc_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean([cosine(a[s], b[s]) for s in range(a.shape[0])]))


def method_scores(model, ep: EpisodeArrays, cfg) -> np.ndarray:
    emb = model.embedding
    if cfg.method == "meta-baseline":
        q = pooled_embedding(emb, ep.query)
        return np.array(
            [
                cosine(q, pooled_embedding(emb, frames).mean(axis=0))
                for frames in ep.support
            ]
        )
    if cfg.method == "cmn-lite":
        sal = model.saliency
        q_desc = multi_saliency(embed_frames(emb, ep.query), sal)
        scores = []
        for frames_c in ep.support:
            descs = [
                multi_saliency(embed_frames(emb, f), sal) for f in frames_c
            ]
            scores.append(saliency_similarity(q_desc, np.mean(descs, axis=0)))
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
            scores.append(float(np.mean(sims)))
        return np.array(scores)
    raise ValidationError(f"{cfg.method!r} is not a metric method")
