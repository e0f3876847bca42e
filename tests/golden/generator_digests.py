"""SHA-256 digests of generated benchmark trees, pinned by
``tests/test_generator_golden.py``.

For each spec in ``SPECS`` the tree that ``gen_benchmark`` writes is reduced
to the digest of ``manifest.json``, the digest of ``pretrain_manifest.json``
(null when the spec has no pretrain classes), the number of ``.fsvf`` files
and one digest over all of them: the SHA-256 of the ``sha256sum``-style
listing ``<file digest>  <relative path>``, one line per file, sorted by path.

To recompute the pinned values after a deliberate change to the generator's
output, run from the repository root:

    PYTHONPATH=src python tests/golden/generator_digests.py

and list every changed digest, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from fsvc.synthdata import (
    MANIFEST_NAME,
    PRETRAIN_MANIFEST_NAME,
    GeneratorSpec,
    gen_benchmark,
)

DIGESTS_PATH = Path(__file__).with_suffix(".json")

# field order of GeneratorSpec: n_train_classes, n_val_classes,
# n_test_classes, videos_per_class, feature_dim, frame_count, prototype_len,
# noise_sigma, warp_strength, seed
SPECS: dict[str, GeneratorSpec] = {
    # fsvcbench/workloads.py warp_spec(1001) and standard_spec(2002), TINY
    # and FULL scale; the FULL ones are WARP_SPEC and STANDARD_SPEC of
    # tests/test_acceptance.py
    "warp-tiny": GeneratorSpec(6, 5, 6, 5, 8, 4, 12, 0.3, 0.7, 1001),
    "standard-tiny": GeneratorSpec(8, 5, 6, 7, 12, 4, 12, 0.5, 0.1, 2002),
    "warp": GeneratorSpec(10, 5, 8, 15, 32, 8, 32, 0.3, 0.7, 1001),
    "standard": GeneratorSpec(64, 12, 24, 40, 64, 8, 32, 0.5, 0.1, 2002),
    # no noise draws at all, and the pure sorted-uniform warp (no repair)
    "noiseless-full-warp": GeneratorSpec(5, 3, 4, 6, 8, 6, 20, 0.0, 1.0, 11),
    # the uniform grid: every video of a class has the same positions
    "no-warp": GeneratorSpec(5, 3, 4, 6, 8, 6, 20, 0.25, 0.0, 12),
    # correlated prototype steps and a second manifest
    "corr-pretrain": GeneratorSpec(
        4, 3, 3, 5, 16, 5, 16, 0.2, 0.4, 13, pretrain_classes=6, feature_corr=1.5
    ),
    # frame_count == prototype_len, where the repair pins every position
    "tight": GeneratorSpec(3, 2, 3, 4, 3, 9, 9, 0.1, 0.6, 14),
    # one frame per video
    "one-frame": GeneratorSpec(3, 2, 3, 4, 5, 1, 7, 0.1, 0.5, 15),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> dict:
    """The digest record of one generated tree (see the module docstring)."""
    listing = "".join(
        f"{_sha256(p)}  {p.relative_to(root).as_posix()}\n"
        for p in sorted(root.rglob("*.fsvf"), key=lambda p: p.relative_to(root).as_posix())
    )
    pretrain = root / PRETRAIN_MANIFEST_NAME
    return {
        "manifest": _sha256(root / MANIFEST_NAME),
        "pretrain_manifest": _sha256(pretrain) if pretrain.exists() else None,
        "fsvf_files": listing.count("\n"),
        "fsvf": hashlib.sha256(listing.encode()).hexdigest(),
    }


def generated_digest(spec: GeneratorSpec, out: Path) -> dict:
    gen_benchmark(spec, out)
    return tree_digest(out)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            name: generated_digest(spec, Path(tmp) / name)
            for name, spec in SPECS.items()
        }
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
