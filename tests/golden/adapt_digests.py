"""Digests of trained classifier models and their adaptation accuracy, pinned by
``tests/test_adapt_golden.py``.

``baseline`` and ``baseline-plus`` are trained as fsvcbench's TINY
``eval-adapt`` set-up trains them: the TINY standard spec (seed 2002),
model seed 1001, embedding width 8, 20 base steps with a 5-episode
validation pass every 10.  So training runs ``train_head`` both in the
validation passes and after.  Each method then records:

- ``weights``: ``TrainedModel.weight_digest()`` of the trained model;
- ``acc_1shot`` and ``acc_5shot``: the SHA-256 of the bytes of the
  200-episode ``accuracy_vector`` on the test split, 5-way, evaluation seed
  ``EVAL_SEED``, with 100 Adam steps of support-head fitting per episode.

A changed ``weights`` digest means training moved; a changed accuracy digest
with the same weights means evaluation moved.

To recompute the pinned values after a deliberate change to training or
adaptation output, run from the repository root:

    PYTHONPATH=src python tests/golden/adapt_digests.py

and list every changed digest, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from fsvc.core import load_manifest, load_split
from fsvc.harness import accuracy_vector
from fsvc.protocols import MethodConfig, TrainedModel, train_model
from fsvc.synthdata import MANIFEST_NAME, GeneratorSpec, gen_benchmark

DIGESTS_PATH = Path(__file__).with_suffix(".json")

# fsvcbench/workloads.py standard_spec(2002, tiny=True)
SPEC = GeneratorSpec(8, 5, 6, 7, 12, 4, 12, 0.5, 0.1, 2002)
METHODS = ("baseline", "baseline-plus")
MODEL_SEED = 1001
EVAL_SEED = 4_100_096
EPISODES = 200
SHOTS = (1, 5)


def train_cfg(method: str) -> MethodConfig:
    """fsvcbench's TINY ``classifier_cfg`` with the eval-adapt schedule."""
    return MethodConfig(
        method=method,
        n_way=5,
        k_shot=1,
        seed=MODEL_SEED,
        embed_dim=8,
        train_steps=20,
        val_every=10,
        val_episodes=5,
    )


def accuracy_digest(model: TrainedModel, split, k_shot: int) -> str:
    cfg = replace(model.config, k_shot=k_shot, seed=EVAL_SEED)
    vec = accuracy_vector(model, cfg, split, EPISODES)
    return hashlib.sha256(vec.tobytes()).hexdigest()


def method_digests(manifest, split, method: str) -> dict:
    model = train_model(manifest, train_cfg(method))
    record = {"weights": model.weight_digest()}
    for k in SHOTS:
        record[f"acc_{k}shot"] = accuracy_digest(model, split, k)
    return record


def compute(workdir: Path) -> dict:
    gen_benchmark(SPEC, workdir)
    manifest = load_manifest(workdir / MANIFEST_NAME)
    split = load_split(manifest, "test")
    return {m: method_digests(manifest, split, m) for m in METHODS}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute(Path(tmp))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} method digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
