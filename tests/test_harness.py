"""Episode sampling, evaluation statistics, split construction, reports."""

import os
import re
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fsvc.core import (
    CapacityError,
    RngStream,
    ValidationError,
    load_manifest,
    load_split,
    read_feature_file,
    sample_episode,
)
from fsvc.harness import (
    EvalReport,
    accuracy_vector,
    build_splits,
    ci95_halfwidth,
    evaluate,
    report_bytes,
    report_to_dict,
)
from fsvc.protocols import (
    METHODS,
    STREAM_VAL_EPISODE,
    MethodConfig,
    TrainedModel,
    _val_accuracy,
    adapt_and_predict,
    init_embedding,
    train_classification,
    train_model,
)
from fsvc.synthdata import GeneratorSpec, gen_benchmark


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    spec = GeneratorSpec(
        n_train_classes=6,
        n_val_classes=5,
        n_test_classes=8,
        videos_per_class=6,
        feature_dim=10,
        frame_count=5,
        prototype_len=12,
        noise_sigma=0.2,
        warp_strength=0.3,
        seed=17,
    )
    out = tmp_path_factory.mktemp("hb")
    return gen_benchmark(spec, out)


def check_episode(episode, n_way: int, k_shot: int) -> None:
    """Assert the episode's structure: k_shot distinct supports for each of
    n_way labels, each label one class, and a query of a labeled class that
    is not among the supports."""
    counts = [0] * n_way
    class_of: dict[int, int] = {}
    for seq, lab in episode.support:
        assert 0 <= lab < n_way, f"support label {lab} out of range"
        assert class_of.setdefault(lab, seq.class_id) == seq.class_id, (
            f"support {seq.video_id!r}: class {seq.class_id} under label {lab} "
            f"of class {class_of[lab]}"
        )
        counts[lab] += 1
    assert counts == [k_shot] * n_way, f"support counts {counts}"
    support_ids = {seq.video_id for seq, _ in episode.support}
    assert len(support_ids) == n_way * k_shot, "duplicate support video ids"
    assert len(set(class_of.values())) == n_way, "episode classes are not distinct"
    q_seq, q_lab = episode.query
    assert 0 <= q_lab < n_way, f"query label {q_lab} out of range"
    assert q_seq.class_id == class_of[q_lab], "query label does not match its class"
    assert q_seq.video_id not in support_ids, "query video is also a support"


def test_episode_structural_fuzz(bench):
    data = load_split(bench, "test")
    for e in range(100_000):
        gen = RngStream(5, e).generator()
        n_way = 3 + e % 3
        k_shot = 1 + e % 4
        episode = sample_episode(data, n_way, k_shot, gen)
        check_episode(episode, n_way, k_shot)


def test_episode_deterministic_per_stream(bench):
    data = load_split(bench, "test")
    for e in (0, 1, 99):
        a = sample_episode(data, 5, 1, RngStream(3, e))
        b = sample_episode(data, 5, 1, RngStream(3, e))
        assert [s.video_id for s, _ in a.support] == [s.video_id for s, _ in b.support]
        assert a.query[0].video_id == b.query[0].video_id
        assert [lab for _, lab in a.support] == [lab for _, lab in b.support]
        assert a.query[1] == b.query[1]


def test_capacity_errors(bench):
    data = load_split(bench, "test")
    with pytest.raises(CapacityError, match="classes"):
        sample_episode(data, 9, 1, RngStream(0, 0))
    # a class with exactly k videos leaves no query candidate
    with pytest.raises(CapacityError, match="query candidate"):
        sample_episode(data, 5, 6, RngStream(0, 0))
    # thin the third class to 2 videos and the fifth to 1: the first class
    # short of k + 1 videos is named, not the smallest
    third, fifth = data.class_ids[2], data.class_ids[4]
    drop = {s.video_id for s in data.by_class[third][2:] + data.by_class[fifth][1:]}
    videos = tuple(v for v in bench.videos if v.video_id not in drop)
    thin = load_split(replace(bench, videos=videos), "test")
    assert thin.smallest == 1 and data.smallest == 6
    message = (
        f"class {third} of the split has 2 videos, need 3 "
        "(2 supports plus a query candidate)"
    )
    with pytest.raises(CapacityError, match=re.escape(message) + "$"):
        sample_episode(thin, 5, 2, RngStream(0, 0))


@pytest.mark.parametrize("n_way, k_shot", [(0, 1), (-1, 1), (5, 0), (5, -1), (0, 99)])
def test_non_positive_way_or_shot_is_a_validation_error(n_way, k_shot, bench):
    # checked before capacity: (0, 99) is named as invalid, not as too large
    data = load_split(bench, "test")
    message = f"need n_way >= 1 and k_shot >= 1, got n_way={n_way}, k_shot={k_shot}"
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        sample_episode(data, n_way, k_shot, RngStream(0, 0))


def test_ci_formula_against_statistics_module():
    gen = RngStream(6, 0).generator()
    for _ in range(100):
        n = int(gen.integers(2, 400))
        v = (gen.random(n) < gen.random()).astype(float)
        if v.std() == 0:
            v[0] = 1.0 - v[0]
        expected = 1.96 * statistics.stdev(v.tolist()) / np.sqrt(n)
        assert ci95_halfwidth(v) == pytest.approx(expected, abs=1e-12)


def test_ci_closed_forms():
    ones = np.ones(10_000)
    assert ci95_halfwidth(ones) == 0.0
    alternating = np.tile([0.0, 1.0], 5000)
    expected = 1.96 * 0.5 * np.sqrt(10000 / 9999) / 100
    assert ci95_halfwidth(alternating) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.0098, abs=1e-4)


def test_random_model_near_chance(tmp_path):
    # noise drowns the class signal, so prediction is effectively a coin flip;
    # 10,000 episodes concentrate the mean tightly around 0.2
    spec = GeneratorSpec(
        n_train_classes=0,
        n_val_classes=0,
        n_test_classes=8,
        videos_per_class=6,
        feature_dim=10,
        frame_count=5,
        prototype_len=12,
        noise_sigma=100.0,
        warp_strength=0.3,
        seed=17,
    )
    noisy = gen_benchmark(spec, tmp_path / "noise")
    cfg = MethodConfig(method="meta-baseline", n_way=5, k_shot=1, seed=0, embed_dim=8)
    emb = init_embedding(RngStream(123, 0), 8, noisy.feature_dim)
    model = TrainedModel(emb, None, None, cfg)
    report = evaluate(model, cfg, noisy, n_episodes=10_000)
    assert 0.17 <= report.mean_accuracy <= 0.23


def test_evaluate_env_variable_controls_threads(bench, monkeypatch):
    cfg = MethodConfig(method="meta-baseline", n_way=5, k_shot=1, seed=9, embed_dim=8)
    emb = init_embedding(RngStream(7, 0), 8, bench.feature_dim)
    model = TrainedModel(emb, None, None, cfg)
    monkeypatch.setenv("FSVC_THREADS", "3")
    r1 = evaluate(model, cfg, bench, n_episodes=300)
    monkeypatch.setenv("FSVC_THREADS", "0")
    r2 = evaluate(model, cfg, bench, n_episodes=300)
    assert r1.mean_accuracy == r2.mean_accuracy
    assert report_bytes(r1) == report_bytes(r2)


def test_report_schema_and_formats(bench):
    cfg = MethodConfig(method="meta-baseline", n_way=5, k_shot=5, seed=2, embed_dim=8)
    emb = init_embedding(RngStream(8, 0), 8, bench.feature_dim)
    model = TrainedModel(emb, None, None, cfg)
    report = evaluate(model, cfg, bench, n_episodes=200)
    doc = report_to_dict(report)
    for field in (
        "method",
        "n_way",
        "k_shot",
        "episodes",
        "mean_accuracy",
        "ci95_halfwidth",
        "seed",
        "fingerprint",
    ):
        assert field in doc
    assert doc["n_way"] == 5 and doc["k_shot"] == 5
    assert doc["episodes"] == 200
    assert 0.0 <= doc["mean_accuracy"] <= 1.0
    assert "wall_time" not in doc  # reports stay byte-deterministic
    csv = report_bytes(report, "csv").decode()
    header, row = csv.strip().split("\n")
    assert header.startswith("method,n_way,k_shot,episodes")
    assert row.startswith("meta-baseline,5,5,200")
    js = report_bytes(report, "json")
    assert js == report_bytes(report, "json")


def test_eval_report_mean_range_guard():
    with pytest.raises(Exception):
        EvalReport(
            method="baseline",
            n_way=5,
            k_shot=1,
            episodes=10,
            mean_accuracy=1.5,
            ci95_halfwidth=0.0,
            seed=0,
            fingerprint="x",
            wall_time=0.0,
        )


# ---------------------------------------------------------------------------
# split construction


@pytest.fixture(scope="module")
def big_manifest(tmp_path_factory):
    spec = GeneratorSpec(
        n_train_classes=20,
        n_val_classes=0,
        n_test_classes=0,
        videos_per_class=15,
        feature_dim=6,
        frame_count=4,
        prototype_len=8,
        noise_sigma=0.1,
        warp_strength=0.0,
        seed=23,
    )
    out = tmp_path_factory.mktemp("big")
    return gen_benchmark(spec, out)


def test_build_splits_partitions_exactly(big_manifest):
    result = build_splits(big_manifest, 12, 3, 5, seed=4)
    train = result.split_class_ids("train")
    val = result.split_class_ids("val")
    test = result.split_class_ids("test")
    assert len(train) == 12 and len(val) == 3 and len(test) == 5
    assert not (train & val) and not (train & test) and not (val & test)
    assert len(result.classes) == 20


def test_build_splits_cap_limits_train_videos(big_manifest):
    result = build_splits(big_manifest, 12, 3, 5, cap=10, seed=4)
    for cid in result.split_class_ids("train"):
        count = sum(1 for v in result.videos if v.class_id == cid)
        assert count <= 10
    for cid in result.split_class_ids("test"):
        count = sum(1 for v in result.videos if v.class_id == cid)
        assert count == 15  # cap applies to train only


def test_build_splits_deterministic(big_manifest, tmp_path):
    from fsvc.core import save_manifest

    a = build_splits(big_manifest, 10, 4, 6, cap=7, seed=9)
    b = build_splits(big_manifest, 10, 4, 6, cap=7, seed=9)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_manifest(a, pa)
    save_manifest(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = build_splits(big_manifest, 10, 4, 6, cap=7, seed=10)
    assert {v.video_id for v in a.videos if v.split == "train"} != {
        v.video_id for v in c.videos if v.split == "train"
    }


# ---------------------------------------------------------------------------
# episode streams: each episode gets a fresh RngStream(seed, stream) generator


@pytest.fixture(scope="module")
def models(bench):
    """One briefly trained model per method, on the ``bench`` tree."""
    schedule = dict(
        embed_dim=6,
        train_steps=6,
        val_every=3,
        episodes_per_epoch=6,
        max_epochs=1,
        val_episodes=3,
    )
    return {
        m: train_model(bench, MethodConfig(method=m, seed=31, **schedule))
        for m in METHODS
    }


def reference_predictions(model, cfg, data, stream_ids) -> list[int]:
    """Whether each episode is right, with a new generator per stream, as
    evaluation drew episodes before it re-keyed one generator per loop.
    ``baseline`` draws its head from the generator after sampling, so its
    predictions also depend on the post-sample state."""
    hits = []
    for s in stream_ids:
        gen = RngStream(cfg.seed, s).generator()
        episode = sample_episode(data, cfg.n_way, cfg.k_shot, gen)
        pred = adapt_and_predict(model, episode, cfg, rng=gen)
        hits.append(int(pred == episode.query[1]))
    return hits


@pytest.mark.parametrize("k_shot", [1, 3])
@pytest.mark.parametrize("method", METHODS)
def test_accuracy_vector_streams_match_fresh_generators(method, k_shot, bench, models):
    model = models[method]
    cfg = MethodConfig(method=method, k_shot=k_shot, seed=77, embed_dim=6)
    data = load_split(bench, "test")
    vec = accuracy_vector(model, cfg, data, 40)
    assert vec.tolist() == reference_predictions(model, cfg, data, range(40))


@pytest.mark.parametrize("method", METHODS)
def test_val_accuracy_streams_match_fresh_generators(method, bench, models):
    model = models[method]
    cfg = MethodConfig(method=method, seed=78, embed_dim=6, val_episodes=40)
    data = load_split(bench, "val")
    streams = range(STREAM_VAL_EPISODE, STREAM_VAL_EPISODE + 40)
    hits = reference_predictions(model, cfg, data, streams)
    assert _val_accuracy(model, cfg, data) == sum(hits) / 40


def test_build_splits_insufficient_classes(big_manifest):
    with pytest.raises(CapacityError):
        build_splits(big_manifest, 15, 4, 4)


def test_split_manifest_loads_and_evaluates(big_manifest, tmp_path):
    from fsvc.core import rebase_manifest, save_manifest

    result = build_splits(big_manifest, 10, 5, 5, cap=None, seed=1)
    out = tmp_path / "splits.json"
    save_manifest(rebase_manifest(result, tmp_path), out)
    back = load_manifest(out)
    cfg = MethodConfig(
        method="baseline",
        n_way=5,
        k_shot=1,
        seed=0,
        embed_dim=6,
        train_steps=60,
        val_every=30,
        val_episodes=20,
    )
    model = train_classification(back, cfg)
    report = evaluate(model, cfg, back, n_episodes=50)
    assert report.episodes == 50


# ---------------------------------------------------------------------------
# a loaded split holds its frames once


def test_split_frames_are_one_read_only_block(bench):
    split = load_split(bench, "train")
    assert split.frames.shape == (36, bench.frame_count, bench.feature_dim)
    assert split.frames.dtype == np.float32 and not split.frames.flags.writeable
    labels = split.labels
    assert labels.shape == (36,) and not labels.flags.writeable
    paths = {v.video_id: bench.resolve(v) for v in bench.split_videos("train")}
    row = 0
    for label, cid in enumerate(split.class_ids):
        for seq in split.by_class[cid]:
            assert not seq.frames.flags.writeable
            assert np.shares_memory(seq.frames, split.frames)
            assert seq.frames.tobytes() == split.frames[row].tobytes()
            on_disk = read_feature_file(paths[seq.video_id]).frames
            assert split.frames[row].tobytes() == on_disk.tobytes()
            # the file's payload, and the float64 frames computation sees
            data = Path(paths[seq.video_id]).read_bytes()
            payload = np.frombuffer(data, "<f4", offset=16)
            assert split.frames[row].tobytes() == payload.tobytes()
            widened = np.asarray(split.frames[row], dtype=np.float64)
            assert widened.tobytes() == payload.astype(np.float64).tobytes()
            assert labels[row] == label
            row += 1
    assert row == split.frames.shape[0]
    with pytest.raises(ValueError):
        split.frames[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        split.by_class[split.class_ids[0]][0].frames[0, 0] = 1.0


def test_empty_split_has_an_empty_block(bench):
    no_test = replace(bench, videos=bench.split_videos("train"))
    split = load_split(no_test, "test")
    assert split.class_ids == () and split.by_class == {}
    assert split.frames.shape == (0, bench.frame_count, bench.feature_dim)
    assert split.labels.shape == (0,)


_RSS_PROBE = """
import resource, sys
from fsvc.core import load_manifest
from fsvc.protocols import MethodConfig, train_classification

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux

cfg = MethodConfig("baseline", train_steps=1, embed_dim=16)
train_classification(load_manifest(sys.argv[1]), cfg, select_by_val=False)  # warm-up
manifest = load_manifest(sys.argv[2])
before = peak()
train_classification(manifest, cfg, select_by_val=False)
print(peak() - before)
"""


def _rss_rise(probe: str, small, big) -> int:
    """The peak-RSS rise that ``probe`` prints, run on the manifests of the
    ``small`` (warm-up) and ``big`` benchmarks."""
    # a process starts with the ru_maxrss of the one that forked it, so the
    # probe is forked by a small interpreter, not by this one
    launch = "import subprocess, sys; subprocess.run([sys.executable, *sys.argv[1:]], check=True)"
    manifests = [str(m.root / "manifest.json") for m in (small, big)]
    proc = subprocess.run(
        [sys.executable, "-c", launch, "-c", probe, *manifests],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    return int(proc.stdout.split()[-1])


def test_training_holds_the_train_split_once(tmp_path):
    # the standard benchmark's train split: 64 classes of 40 videos, 8 x 64
    spec = GeneratorSpec(64, 5, 5, 40, 64, 8, 32, 0.5, 0.1, seed=2002)
    big = gen_benchmark(spec, tmp_path / "big")
    small = gen_benchmark(replace(spec, n_train_classes=6, videos_per_class=6), tmp_path / "small")
    block = 64 * 40 * 8 * 64 * 4  # float32, as the files hold it
    rise = _rss_rise(_RSS_PROBE, small, big)
    assert rise < 1.5 * block, f"peak RSS rose {rise / block:.2f}x the block's bytes"


_EVAL_RSS_PROBE = """
import resource, sys
from fsvc.core import RngStream, load_manifest, load_split
from fsvc.harness import accuracy_vector
from fsvc.heads import init_head
from fsvc.protocols import MethodConfig, TrainedModel, init_embedding

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux

cfg = MethodConfig("baseline-plus", embed_dim=64)

def evaluate(manifest, seeds):
    data = load_split(manifest, "test")
    for seed in seeds:
        emb = init_embedding(RngStream(seed), cfg.embed_dim, manifest.feature_dim)
        head = init_head(RngStream(seed, 1), 64, cfg.embed_dim)
        accuracy_vector(TrainedModel(emb, head, None, cfg), cfg, data, 20)

evaluate(load_manifest(sys.argv[1]), [0])  # warm-up
manifest = load_manifest(sys.argv[2])
before = peak()
evaluate(manifest, [1, 2])
print(peak() - before)
"""


def test_evaluation_holds_the_test_split_once(tmp_path):
    # the standard benchmark's test split: 24 classes of 40 videos, 8 x 64;
    # two models evaluated on it must not each hold state the split's size
    spec = GeneratorSpec(0, 0, 24, 40, 64, 8, 32, 0.5, 0.1, seed=2002)
    big = gen_benchmark(spec, tmp_path / "big")
    small = gen_benchmark(replace(spec, n_test_classes=6, videos_per_class=6), tmp_path / "small")
    block = 24 * 40 * 8 * 64 * 4  # float32, as the files hold it
    rise = _rss_rise(_EVAL_RSS_PROBE, small, big)
    assert rise < 1.5 * block, f"peak RSS rose {rise / block:.2f}x the block's bytes"
