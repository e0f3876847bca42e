"""Differential tests: the episode sampler and the metric-method scores against
their frozen ``Generator.choice`` and ``np.mean`` forms.

Every comparison is exact: the same picks and labels, the same
Philox state after sampling (so whatever the episode draws next, such as a
baseline head's initial weights, is unchanged), and the same score bytes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from fsvc import core, protocols
from fsvc.align import SaliencyParams
from fsvc.core import FeatureSequence, FsvcError, SplitData
from fsvc.heads import LinearHead
from fsvc.protocols import MethodConfig, TrainedModel

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
    """Classes with ids 100, 101, ... and ``counts`` random videos each, held
    in one read-only block as a loaded split holds them."""
    shape = (case["frames"], case["in_dim"])
    block = np.concatenate([rs.standard_normal((n, *shape)) for n in case["counts"]])
    block.flags.writeable = False
    by_class = {}
    start = 0
    for c, n in enumerate(case["counts"]):
        by_class[100 + c] = tuple(
            FeatureSequence(f"c{c}v{v}", 100 + c, block[start + v]) for v in range(n)
        )
        start += n
    labels = np.repeat(np.arange(len(case["counts"])), case["counts"])
    return SplitData(
        class_ids=tuple(sorted(by_class)), by_class=by_class, frames=block, labels=labels
    )


def random_models(case, rs: np.random.Generator):
    dim, in_dim = case["dim"], case["in_dim"]
    emb = LinearHead(
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
# every class is picked: the class draw's Floyd j = 0 step takes no word
@example(
    {"n_way": 5, "k_shot": 2, "counts": [4] * 5, "frames": 2, "in_dim": 3,
     "dim": 2, "heads": 2, "normalize": False, "seed": 11, "skip": 1}
)
# every class holds exactly k_shot + 1 videos, so the query class's j = 0
# step takes no word either
@example(
    {"n_way": 3, "k_shot": 4, "counts": [5] * 6, "frames": 2, "in_dim": 2,
     "dim": 2, "heads": 1, "normalize": True, "seed": 12, "skip": 3}
)
# one short class among larger ones: the words drawn ahead assume the query
# class is the short one, and a larger query class draws one more
@example(
    {"n_way": 4, "k_shot": 2, "counts": [20, 20, 3, 20, 20, 20], "frames": 2,
     "in_dim": 2, "dim": 2, "heads": 2, "normalize": False, "seed": 13, "skip": 5}
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
        episode = core.sample_episode(data, n_way, k_shot, gen)
        ref = oracle.sample_episode(data, n_way, k_shot, ref_gen)
        assert episode_view(episode) == episode_view(ref)
        assert state_of(gen) == state_of(ref_gen)
        ep = protocols.episode_arrays(episode, n_way)
        ref_ep = oracle.episode_arrays(ref, n_way)
        for model, cfg in random_models(case, rs):
            got = outcome(protocols.method_scores, model, ep, cfg)
            want = outcome(oracle.method_scores, model, ref_ep, cfg)
            assert got == want, cfg.method


@pytest.mark.parametrize(
    "counts, n_way, k_shot",
    [
        ([3, 5, 4], 1, 2),  # 1-way: the query-slot draw integers(1) takes no word
        ([2] * 10_001, 201, 1),  # the class draw tail-shuffles
        ([10_001] * 2, 2, 200),  # the query class's draw tail-shuffles
    ],
)
def test_one_way_and_tail_shuffle_episodes_match_oracle(counts, n_way, k_shot):
    """Episodes outside the fuzzed range.  Where ``choice`` may take its
    tail-shuffle side, no words are drawn ahead and that draw is its own."""
    case = {"counts": counts, "frames": 1, "in_dim": 1}
    data = build_split(case, np.random.default_rng(9))
    for skip in (0, 1, 3):
        gen, ref_gen = advanced(9, skip), advanced(9, skip)
        for _ in range(2):
            episode = core.sample_episode(data, n_way, k_shot, gen)
            ref = oracle.sample_episode(data, n_way, k_shot, ref_gen)
            assert episode_view(episode) == episode_view(ref)
            assert state_of(gen) == state_of(ref_gen)


BOUNDS = (1, 2, 3, 7, 8, 15, (1 << 31) + 1, 3 << 30, 1 << 32)


@pytest.mark.parametrize("skip", [0, 1, 2, 3])
def test_word_draws_match_generator_integers(skip):
    """``_below`` against ``Generator.integers(n)`` from the same state: 64
    draws, the first words drawn ahead and the rest one at a time."""
    for n in BOUNDS:
        seed = n % 100_003 + skip
        gen, ref_gen = advanced(seed, skip), advanced(seed, skip)
        ahead = gen.integers(0, 1 << 32, size=32 if n > 1 else 0, dtype=np.uint32)
        words = ahead.tolist()[::-1]
        picks = [core._below(n, words, gen) for _ in range(64)]
        assert picks == [int(ref_gen.integers(n)) for _ in range(64)], n
        assert state_of(gen) == state_of(ref_gen), n
        if n == (1 << 31) + 1:
            # about half of all words are rejected at this bound
            threshold = ((1 << 32) - n) % n
            assert any((int(w) * n) % (1 << 32) < threshold for w in ahead)


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
    (1 << 32, (1, 2)),  # the largest population a draw takes
)


def floyd_side(pop: int, size: int) -> bool:
    return pop <= 10_000 or size <= pop // 50


@pytest.mark.parametrize("ahead_max", [None, 1 << 20])
@pytest.mark.parametrize("skip", [0, 1, 2, 3])
def test_choice_helper_matches_generator_choice(ahead_max, skip):
    """``_choice`` against ``Generator.choice`` from the same state.  With
    ``ahead_max`` None no words are drawn ahead, so every Floyd-side draw takes
    its words from the generator one at a time, as when an episode is too large
    to draw ahead.  Otherwise up to ``ahead_max`` of the words a Floyd-side
    draw takes at the least (2 * size - 1, one fewer when size = pop) are drawn
    ahead.  On the tail-shuffle side none are."""
    for pop, sizes in POPULATIONS:
        for size in sizes:
            seed = pop * 1009 + size
            gen, ref_gen = advanced(seed, skip), advanced(seed, skip)
            ahead = 0
            if ahead_max is not None and floyd_side(pop, size) and size:
                ahead = min(ahead_max, 2 * size - 1 - (size == pop))
            words = gen.integers(0, 1 << 32, size=ahead, dtype=np.uint32).tolist()
            picks = core._choice(pop, size, words[::-1], gen)
            ref = ref_gen.choice(pop, size=size, replace=False).tolist()
            assert picks == ref, (pop, size)
            assert state_of(gen) == state_of(ref_gen), (pop, size)
