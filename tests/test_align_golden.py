"""Trained metric-method models, their episode accuracy and their scores match
pinned digests.

``tests/golden/align_digests.json`` holds, for ``meta-baseline``, ``cmn-lite``
and ``otam-lite`` trained on the TINY warp spec, the weight digest and the
SHA-256 of the 300-episode accuracy vectors and ``method_scores`` bytes at 1
and 5 shots; ``tests/golden/align_digests.py`` defines the set-up and
recomputes the file.  The weights are compared first, so a failure says
whether training or evaluation moved.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fsvc.protocols import train_model

_SCRIPT = Path(__file__).resolve().parent / "golden" / "align_digests.py"


def _load():
    spec = importlib.util.spec_from_file_location("align_digests", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


golden = _load()
PINNED = json.loads(golden.DIGESTS_PATH.read_text())


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    return golden.build(tmp_path_factory.mktemp("align-golden"))


def test_every_method_is_pinned():
    assert sorted(PINNED) == sorted(golden.METHODS)


@pytest.mark.parametrize("method", golden.METHODS)
def test_training_and_scoring_match_digests(method, trees):
    manifest, split = trees
    pinned = PINNED[method]
    model = train_model(manifest, golden.train_cfg(method))
    assert model.weight_digest() == pinned["weights"], (
        f"training moved: {method} weights differ from the pinned digest"
    )
    for k in golden.SHOTS:
        for kind, digest in (
            ("acc", golden.accuracy_digest),
            ("scores", golden.scores_digest),
        ):
            assert digest(model, split, k) == pinned[f"{kind}_{k}shot"], (
                f"evaluation moved: {method} {k}-shot {kind} digest differs "
                f"from the pinned one, with the pinned weights"
            )
