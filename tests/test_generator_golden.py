"""Generated benchmark trees are byte-identical to the pinned digests.

``tests/golden/generator_digests.json`` holds, per spec, the SHA-256 of the
manifest, of the pretrain manifest and of every ``.fsvf`` file that
``gen_benchmark`` writes; ``tests/golden/generator_digests.py`` defines the
specs and recomputes the file.  A changed digest is a changed benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent / "golden" / "generator_digests.py"


def _load():
    spec = importlib.util.spec_from_file_location("generator_digests", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


golden = _load()
PINNED = json.loads(golden.DIGESTS_PATH.read_text())


def test_every_spec_is_pinned():
    assert sorted(PINNED) == sorted(golden.SPECS)


@pytest.mark.parametrize("name", sorted(golden.SPECS))
def test_generated_tree_matches_digest(name, tmp_path):
    got = golden.generated_digest(golden.SPECS[name], tmp_path / name)
    assert got == PINNED[name]


def test_regenerating_in_place_keeps_digest(tmp_path):
    spec = golden.SPECS["corr-pretrain"]
    golden.generated_digest(spec, tmp_path / "b")
    assert golden.generated_digest(spec, tmp_path / "b") == PINNED["corr-pretrain"]
