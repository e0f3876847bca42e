"""Trained classifier models and their adaptation accuracy match pinned digests.

``tests/golden/adapt_digests.json`` holds, for ``baseline`` and
``baseline-plus`` trained on the TINY standard spec, the weight digest and the
SHA-256 of the 200-episode accuracy vectors at 1 and 5 shots;
``tests/golden/adapt_digests.py`` defines the set-up and recomputes the file.
The weights are compared first, so a failure says whether training or
evaluation moved.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fsvc.core import load_manifest, load_split
from fsvc.protocols import train_model

_SCRIPT = Path(__file__).resolve().parent / "golden" / "adapt_digests.py"


def _load():
    spec = importlib.util.spec_from_file_location("adapt_digests", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


golden = _load()
PINNED = json.loads(golden.DIGESTS_PATH.read_text())


@pytest.fixture(scope="module")
def test_split(tmp_path_factory):
    root = tmp_path_factory.mktemp("adapt-golden")
    golden.gen_benchmark(golden.SPEC, root)
    manifest = load_manifest(root / golden.MANIFEST_NAME)
    return manifest, load_split(manifest, "test")


def test_every_method_is_pinned():
    assert sorted(PINNED) == sorted(golden.METHODS)


@pytest.mark.parametrize("method", golden.METHODS)
def test_training_and_adaptation_match_digests(method, test_split):
    manifest, split = test_split
    pinned = PINNED[method]
    model = train_model(manifest, golden.train_cfg(method))
    assert model.weight_digest() == pinned["weights"], (
        f"training moved: {method} weights differ from the pinned digest"
    )
    for k in golden.SHOTS:
        got = golden.accuracy_digest(model, split, k)
        assert got == pinned[f"acc_{k}shot"], (
            f"evaluation moved: {method} {k}-shot accuracy vector differs from "
            f"the pinned digest, with the pinned weights"
        )
