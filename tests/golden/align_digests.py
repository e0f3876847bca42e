"""Digests of trained metric-method models, their episode accuracy and their
scores, pinned by ``tests/test_align_golden.py``.

``meta-baseline``, ``cmn-lite`` and ``otam-lite`` are trained as fsvcbench's
TINY ``eval-align`` set-up trains them: the TINY warp spec (seed 1001), model
seed 1001, embedding width 4, one epoch of 10 training episodes and a
5-episode validation pass.  That tree has 5 videos a class, one short of a
5-shot episode, so evaluation runs on ``EVAL_SPEC``: the same spec with 7
videos a class.  Each method then records:

- ``weights``: ``TrainedModel.weight_digest()`` of the trained model;
- ``acc_1shot`` and ``acc_5shot``: the SHA-256 of the bytes of the
  300-episode ``accuracy_vector`` on the evaluation tree's test split,
  5-way, evaluation seed ``EVAL_SEED``;
- ``scores_1shot`` and ``scores_5shot``: the SHA-256 of the concatenated
  ``method_scores`` bytes of the same 300 episodes, each drawn from its own
  ``RngStream(EVAL_SEED, e).generator()``.

A changed ``weights`` digest means training moved; a changed accuracy or
score digest with the same weights means evaluation moved.

To recompute the pinned values after a deliberate change to training or
scoring output, run from the repository root:

    PYTHONPATH=src python tests/golden/align_digests.py

and list every changed digest, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from fsvc.core import RngStream, load_manifest, load_split, sample_episode
from fsvc.harness import accuracy_vector
from fsvc.protocols import (
    METRIC_METHODS,
    MethodConfig,
    TrainedModel,
    episode_arrays,
    method_scores,
    train_model,
)
from fsvc.synthdata import MANIFEST_NAME, GeneratorSpec, gen_benchmark

DIGESTS_PATH = Path(__file__).with_suffix(".json")

# fsvcbench/workloads.py warp_spec(1001, tiny=True)
SPEC = GeneratorSpec(6, 5, 6, 5, 8, 4, 12, 0.3, 0.7, 1001)
EVAL_SPEC = replace(SPEC, videos_per_class=7)
METHODS = METRIC_METHODS
MODEL_SEED = 1001
EVAL_SEED = 4_100_096
EPISODES = 300
SHOTS = (1, 5)


def train_cfg(method: str) -> MethodConfig:
    """fsvcbench's TINY ``metric_cfg`` with the eval-align schedule."""
    return MethodConfig(
        method=method,
        n_way=5,
        k_shot=1,
        seed=MODEL_SEED,
        embed_dim=4,
        episodes_per_epoch=10,
        max_epochs=1,
        patience=1,
        val_episodes=5,
    )


def eval_cfg(model: TrainedModel, k_shot: int) -> MethodConfig:
    return replace(model.config, k_shot=k_shot, seed=EVAL_SEED)


def accuracy_digest(model: TrainedModel, split, k_shot: int) -> str:
    vec = accuracy_vector(model, eval_cfg(model, k_shot), split, EPISODES)
    return hashlib.sha256(vec.tobytes()).hexdigest()


def scores_digest(model: TrainedModel, split, k_shot: int) -> str:
    cfg = eval_cfg(model, k_shot)
    h = hashlib.sha256()
    for e in range(EPISODES):
        gen = RngStream(cfg.seed, e).generator()
        episode = sample_episode(split, cfg.n_way, cfg.k_shot, gen)
        h.update(method_scores(model, episode_arrays(episode, cfg.n_way), cfg).tobytes())
    return h.hexdigest()


def method_digests(manifest, split, method: str) -> dict:
    model = train_model(manifest, train_cfg(method))
    record = {"weights": model.weight_digest()}
    for k in SHOTS:
        record[f"acc_{k}shot"] = accuracy_digest(model, split, k)
        record[f"scores_{k}shot"] = scores_digest(model, split, k)
    return record


def build(workdir: Path):
    """Generate both trees; return the training manifest and the eval split."""
    gen_benchmark(SPEC, workdir / "train")
    gen_benchmark(EVAL_SPEC, workdir / "eval")
    manifest = load_manifest(workdir / "train" / MANIFEST_NAME)
    split = load_split(load_manifest(workdir / "eval" / MANIFEST_NAME), "test")
    return manifest, split


def compute(workdir: Path) -> dict:
    manifest, split = build(workdir)
    return {m: method_digests(manifest, split, m) for m in METHODS}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute(Path(tmp))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} method digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
