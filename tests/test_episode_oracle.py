"""Differential tests: the episode sampler and the metric-method scores against
their frozen ``Generator.choice`` and ``np.mean`` forms.

Every comparison is exact: the same picks, labels and class map, the same
Philox state after sampling (so whatever the episode draws next, such as a
baseline head's initial weights, is unchanged), and the same score bytes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from fsvc import harness, protocols
from fsvc.align import SaliencyParams
from fsvc.core import FeatureSequence, FsvcError
from fsvc.harness import SplitData
from fsvc.protocols import EmbeddingParams, MethodConfig, TrainedModel

SETTINGS = settings(max_examples=60, deadline=None)


def state_of(gen: np.random.Generator):
    """The bit generator's state with its arrays as lists, for ==."""

    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return np.asarray(value).tolist()

    return plain(gen.bit_generator.state)


def advanced(seed: int, draws: int) -> np.random.Generator:
    """A Philox generator after ``draws`` 32-bit draws; an odd count leaves
    the upper half of its last 64-bit output buffered."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    gen.integers(0, 1 << 32, size=draws, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == draws % 2
    return gen


def episode_view(episode):
    return (
        [(seq.video_id, lab) for seq, lab in episode.support],
        (episode.query[0].video_id, episode.query[1]),
        episode.class_map,
    )


def outcome(fn, *args):
    """Score bytes of a call, or the type and message of the error it raised."""
    try:
        return fn(*args).tobytes()
    except FsvcError as exc:
        return (type(exc), str(exc))


@st.composite
def episode_cases(draw):
    n_way = draw(st.integers(2, 8))
    k_shot = draw(st.integers(1, 12))
    n_classes = draw(st.integers(n_way, 40))
    counts = draw(
        st.lists(
            st.integers(k_shot + 1, max(k_shot + 1, 30)),
            min_size=n_classes,
            max_size=n_classes,
        )
    )
    return {
        "n_way": n_way,
        "k_shot": k_shot,
        "counts": counts,
        "frames": draw(st.integers(1, 6)),
        "in_dim": draw(st.integers(1, 5)),
        "dim": draw(st.integers(1, 6)),
        "heads": draw(st.integers(1, 4)),
        "normalize": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "skip": 2 * draw(st.integers(0, 3)) + 1,
    }


def build_split(case, rs: np.random.Generator) -> SplitData:
    """Classes with ids 100, 101, ... and ``counts`` random videos each."""
    by_class = {}
    for c, n in enumerate(case["counts"]):
        frames = rs.standard_normal((n, case["frames"], case["in_dim"]))
        by_class[100 + c] = tuple(
            FeatureSequence(f"c{c}v{v}", 100 + c, frames[v]) for v in range(n)
        )
    return SplitData(class_ids=tuple(sorted(by_class)), by_class=by_class)


def random_models(case, rs: np.random.Generator):
    dim, in_dim = case["dim"], case["in_dim"]
    emb = EmbeddingParams(
        rs.standard_normal((dim, in_dim)), rs.standard_normal(dim)
    )
    sal = SaliencyParams(rs.standard_normal((case["heads"], dim)))
    for method in protocols.METRIC_METHODS:
        cfg = MethodConfig(
            method=method,
            n_way=case["n_way"],
            k_shot=case["k_shot"],
            embed_dim=dim,
            saliency_heads=case["heads"],
            dtw_normalize=case["normalize"],
        )
        yield TrainedModel(emb, None, sal, cfg), cfg


@SETTINGS
@given(episode_cases())
# 5-way 1-shot, as evaluation and the benchmark draw it
@example(
    {"n_way": 5, "k_shot": 1, "counts": [15] * 8, "frames": 6, "in_dim": 4,
     "dim": 4, "heads": 4, "normalize": False, "seed": 1001, "skip": 1}
)
# 8-shot: the otam class mean crosses numpy's 8-element pairwise block
@example(
    {"n_way": 8, "k_shot": 12, "counts": [30] * 40, "frames": 3, "in_dim": 2,
     "dim": 3, "heads": 2, "normalize": True, "seed": 7, "skip": 3}
)
def test_episode_path_matches_oracle_bitwise(case):
    rs = np.random.default_rng(case["seed"])
    data = build_split(case, rs)
    n_way, k_shot = case["n_way"], case["k_shot"]
    gen = advanced(case["seed"], case["skip"])
    ref_gen = advanced(case["seed"], case["skip"])
    # two episodes in a row, so the second starts from whatever buffered
    # half the first one left behind
    for _ in range(2):
        episode = harness.sample_episode(data, n_way, k_shot, gen)
        ref = oracle.sample_episode(data, n_way, k_shot, ref_gen)
        assert episode_view(episode) == episode_view(ref)
        assert state_of(gen) == state_of(ref_gen)
        ep = protocols.episode_arrays(episode, n_way)
        ref_ep = oracle.episode_arrays(ref, n_way)
        for model, cfg in random_models(case, rs):
            got = outcome(protocols.method_scores, model, ep, cfg)
            want = outcome(oracle.method_scores, model, ref_ep, cfg)
            assert got == want, cfg.method


POPULATIONS = (
    # (population, sizes): small ones, both sides of 10000, and both sides
    # of pop // 50 above it, where choice switches to a tail shuffle
    (1, (0, 1)),
    (2, (0, 1, 2)),
    (7, tuple(range(8))),
    (40, (1, 2, 3, 13, 39, 40)),
    (10_000, (1, 2, 200, 201, 10_000)),
    (10_001, (1, 2, 200, 201)),
    (20_000, (1, 2, 400, 401)),
    (1 << 33, (1, 2)),  # draws past 32 bits
)


def floyd_side(pop: int, size: int) -> bool:
    return pop <= 10_000 or size <= pop // 50


@pytest.mark.parametrize("scalar_max", [None, 1 << 20])
@pytest.mark.parametrize("skip", [0, 1, 2, 3])
def test_choice_helper_matches_generator_choice(scalar_max, skip, monkeypatch):
    """``_choice`` as it runs, and with its scalar draws used for every size on
    the Floyd side, against ``Generator.choice`` from the same state."""
    if scalar_max is not None:
        monkeypatch.setattr(harness, "_SCALAR_PICKS_MAX", scalar_max)
    for pop, sizes in POPULATIONS:
        for size in sizes:
            if scalar_max is not None and not floyd_side(pop, size):
                continue
            seed = pop * 1009 + size
            gen = advanced(seed, skip)
            ref_gen = advanced(seed, skip)
            picks = harness._choice(gen, pop, size)
            ref = ref_gen.choice(pop, size=size, replace=False).tolist()
            assert picks == ref, (pop, size)
            assert state_of(gen) == state_of(ref_gen), (pop, size)
