"""Built-in correctness checks runnable from the CLI.

Covers the three verification pillars: the DTW dynamic program against
exhaustive path enumeration, every analytic gradient against central finite
differences, and the imprinting argmax rule against nearest-template cosine.
The finite-difference helpers here double as the oracle used by the test
suite.
"""

from __future__ import annotations

import numpy as np

from .align import cosine, dtw, dtw_bruteforce, path_cost, validate_path
from .core import FeatureSequence, RngStream
from .harness import Episode
from .heads import LinearHead, dropout_mask, linear_forward
from .protocols import (
    EmbeddingParams,
    EpisodeArrays,
    MethodConfig,
    TrainedModel,
    adapt_and_predict,
    classification_loss_and_grads,
    episode_loss_and_grads,
    init_embedding,
    init_head,
    pooled_embedding,
)


def max_fd_error(
    loss_fn,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    gen: np.random.Generator,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn`` must read the current contents of ``params``; four random
    coordinates of each are perturbed in place by +-1e-5 and restored.
    Relative error uses |a - f| / max(|a|, |f|, 1e-6) so near-zero
    coordinates are compared on an absolute scale.
    """
    worst, h = 0.0, 1e-5
    for name, p in params.items():
        flat = p.ravel()
        g = grads[name].ravel()
        for _ in range(4):
            i = int(gen.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst


def _random_episode_arrays(
    gen: np.random.Generator,
    n_way: int = 3,
    k_shot: int = 2,
    t: int = 4,
    c_in: int = 5,
) -> EpisodeArrays:
    support = tuple(
        gen.standard_normal((k_shot, t, c_in)) for _ in range(n_way)
    )
    query = gen.standard_normal((t, c_in))
    return EpisodeArrays(
        support=support, query=query, label=int(gen.integers(n_way))
    )


def _grad_case(kind: str, gen: np.random.Generator) -> float:
    """One random parameter point for the given loss; returns max FD error."""
    c_in, c, tau = 5, 4, 7.0
    emb = init_embedding(gen, c, c_in)
    params = {"embed_w": np.array(emb.weight), "embed_b": np.array(emb.bias)}

    if kind == "classification":
        head = init_head(gen, 3, c, scale=0.5)
        frames = gen.standard_normal((6, 4, c_in))
        labels = gen.integers(0, 3, size=6)
        mask = None
        if gen.random() < 0.5:  # also exercise the dropout path, mask frozen
            mask = dropout_mask(gen, 0.5, (6, c))
        params["head_w"] = np.array(head.weight)
        params["head_b"] = np.array(head.bias)

        def loss_and_grads(p):
            return classification_loss_and_grads(
                EmbeddingParams(p["embed_w"], p["embed_b"]),
                LinearHead(p["head_w"], p["head_b"]),
                frames,
                labels,
                mask,
            )

        _, grads = loss_and_grads(params)
    else:
        cfg = MethodConfig(method=kind, temperature=tau)
        ep = _random_episode_arrays(gen, c_in=c_in)
        if kind == "cmn-lite":
            params["sal_q"] = 0.5 * gen.standard_normal((3, c))
        # otam-lite's alignment paths stay frozen at the unperturbed optimum
        _, grads, paths = episode_loss_and_grads(params, ep, cfg)

        def loss_and_grads(p):
            return episode_loss_and_grads(p, ep, cfg, paths)

    return max_fd_error(lambda p: loss_and_grads(p)[0], params, grads, gen)


def check_gradients(
    kind: str, n_points: int = 20, tol: float = 1e-4, seed: int = 7
) -> str | None:
    gen = RngStream(seed, 11 << 32).generator()
    worst = 0.0
    for _ in range(n_points):
        worst = max(worst, _grad_case(kind, gen))
    if worst >= tol:
        return f"max relative error {worst:.3e} >= {tol:g}"
    return None


def check_dtw_oracle(n_cases: int = 300, seed: int = 7) -> str | None:
    gen = RngStream(seed, 12 << 32).generator()
    for case in range(n_cases):
        tq = int(gen.integers(2, 5))
        ts = int(gen.integers(2, 5))
        d = gen.random((tq, ts)) * 2.0
        cost, path = dtw(d)
        expected = dtw_bruteforce(d)
        if abs(cost - expected) > 1e-9:
            return f"case {case}: dp cost {cost} != brute force {expected}"
        validate_path(path, (tq, ts))
        if abs(path_cost(d, path) - cost) > 1e-9:
            return f"case {case}: path does not attain the reported cost"
    return None


def check_imprint_argmax(n_episodes: int = 200, seed: int = 7) -> str | None:
    gen = RngStream(seed, 13 << 32).generator()
    c_in, c, n_train, n_way, t = 12, 8, 7, 5, 6
    cfg = MethodConfig(method="baseline-plus", n_way=n_way, iters_adapt=0, seed=seed)
    for case in range(n_episodes):
        model = TrainedModel(
            embedding=init_embedding(gen, c, c_in),
            base_head=init_head(gen, n_train, c, scale=0.7),
            saliency=None,
            config=cfg,
        )
        support = tuple(
            (
                FeatureSequence(f"s{lab}", lab, gen.standard_normal((t, c_in))),
                lab,
            )
            for lab in range(n_way)
        )
        q_lab = int(gen.integers(n_way))
        episode = Episode(
            support,
            (FeatureSequence("q", q_lab, gen.standard_normal((t, c_in))), q_lab),
            class_map={lab: lab for lab in range(n_way)},
        )
        pred = adapt_and_predict(model, episode, cfg, rng=gen)
        # independent route: nearest support template by cosine in logit space
        templates = [
            linear_forward(model.base_head, pooled_embedding(model.embedding, s.frames))
            for s, _ in support
        ]
        q_logits = linear_forward(
            model.base_head, pooled_embedding(model.embedding, episode.query[0].frames)
        )
        by_cosine = int(np.argmax([cosine(tpl, q_logits) for tpl in templates]))
        if pred != by_cosine:
            return f"episode {case}: imprint argmax {pred} != cosine argmax {by_cosine}"
    return None


CHECKS = (
    ("dtw-oracle-equivalence", lambda: check_dtw_oracle()),
    ("gradient-classification", lambda: check_gradients("classification")),
    ("gradient-meta-baseline", lambda: check_gradients("meta-baseline")),
    ("gradient-cmn-lite", lambda: check_gradients("cmn-lite")),
    ("gradient-otam-lite-frozen-path", lambda: check_gradients("otam-lite")),
    ("imprint-argmax-equivalence", lambda: check_imprint_argmax()),
)


def run_selftest() -> int:
    first_failure = None
    for name, check in CHECKS:
        detail = check()
        if detail is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
            if first_failure is None:
                first_failure = name
    if first_failure is not None:
        print(f"selftest failed, first failed property: {first_failure}")
        return 1
    return 0
