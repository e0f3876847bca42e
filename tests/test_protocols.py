"""Method implementations: gradients, training, adaptation, checkpoints."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from fsvc.align import SaliencyParams
from fsvc.core import (
    CapacityError,
    FeatureSequence,
    FormatError,
    LeakageError,
    LengthError,
    RngStream,
    SplitData,
    ValidationError,
    load_manifest,
    load_split,
    sample_episode,
)
from fsvc.protocols import (
    CLASSIFIER_METHODS,
    METRIC_METHODS,
    EpisodeArrays,
    MethodConfig,
    TrainedModel,
    adapt_and_predict,
    classification_loss_and_grads,
    cmn_loss_and_grads,
    embed_frames,
    episode_arrays,
    init_embedding,
    load_checkpoint,
    meta_train,
    metabaseline_loss_and_grads,
    method_scores,
    otam_loss_and_grads,
    pretrain_embedding,
    save_checkpoint,
    train_classification,
    train_model,
)
from fsvc.harness import accuracy_vector
from fsvc.heads import LinearHead, dropout_mask, init_head
from fsvc.selftest import _random_episode_arrays, max_fd_error
from fsvc.synthdata import GeneratorSpec, gen_benchmark

GRAD_TOL = 1e-4


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    spec = GeneratorSpec(
        n_train_classes=6,
        n_val_classes=5,
        n_test_classes=6,
        videos_per_class=8,
        feature_dim=12,
        frame_count=6,
        prototype_len=16,
        noise_sigma=0.15,
        warp_strength=0.2,
        seed=3,
        pretrain_classes=6,
    )
    out = tmp_path_factory.mktemp("bench")
    manifest = gen_benchmark(spec, out)
    pretrain = load_manifest(out / "pretrain_manifest.json")
    return manifest, pretrain


def _fast_cfg(method, **kw):
    base = dict(
        method=method,
        n_way=5,
        k_shot=1,
        seed=0,
        embed_dim=8,
        train_steps=120,
        val_every=60,
        val_episodes=30,
        episodes_per_epoch=60,
        max_epochs=2,
    )
    base.update(kw)
    return MethodConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_lr_defaults_follow_init_and_method_family():
    assert MethodConfig(method="baseline").resolved_lr_base() == 1e-3
    assert MethodConfig(method="otam-lite").resolved_lr_base() == 1e-3
    assert (
        MethodConfig(method="baseline", init="pretrained").resolved_lr_base() == 1e-4
    )
    assert (
        MethodConfig(method="baseline-plus", init="pretrained").resolved_lr_base()
        == 1e-4
    )
    for m in METRIC_METHODS:
        assert MethodConfig(method=m, init="pretrained").resolved_lr_base() == 1e-5
    assert MethodConfig(method="baseline", lr_base=0.02).resolved_lr_base() == 0.02


def test_config_validation():
    with pytest.raises(ValidationError):
        MethodConfig(method="nope")
    with pytest.raises(ValidationError):
        MethodConfig(method="baseline", temperature=0.0)
    with pytest.raises(ValidationError):
        MethodConfig(method="baseline", init="imagenet")


@pytest.mark.parametrize(
    "field, value",
    [
        ("batch_size", 0),
        ("train_steps", 0),
        ("val_every", 0),
        ("episodes_per_epoch", 0),
        ("max_epochs", -1),
        ("patience", 0),
        ("val_episodes", 0),
        ("lr_base", -1.0),
        ("lr_base", 0.0),
        ("lr_base", float("nan")),
        ("lr_adapt", 0.0),
        ("lr_adapt", float("inf")),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
    ],
)
def test_config_rejects_bad_schedule_and_rates(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be"):
        MethodConfig(method="baseline", **{field: value})


def test_config_seed_must_fit_a_stream_key():
    assert MethodConfig(method="baseline", seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValidationError, match=r"seed must be below 2\*\*64"):
        MethodConfig(method="baseline", seed=2**64 + 5)


def test_config_fingerprint_is_unchanged_by_validation():
    # the fingerprint goes into every report, so it must not move when the
    # config gains checks
    assert MethodConfig(method="baseline").fingerprint() == "923c284d3c4c97dd"
    assert MethodConfig(method="otam-lite", lr_base=0.02).fingerprint() == (
        "3520d5edf75b9f95"
    )


def test_model_component_presence():
    emb = init_embedding(RngStream(0, 0), 4, 6)
    with pytest.raises(ValidationError):
        TrainedModel(emb, None, None, MethodConfig(method="baseline"))
    with pytest.raises(ValidationError):
        TrainedModel(emb, None, None, MethodConfig(method="cmn-lite"))


# ---------------------------------------------------------------------------
# gradients (finite-difference oracle)


def test_classification_gradient_matches_fd():
    gen = RngStream(21, 0).generator()
    for _ in range(25):
        emb = init_embedding(gen, 4, 5)
        head = init_head(gen, 3, 4, scale=0.5)
        frames = gen.standard_normal((6, 4, 5))
        labels = gen.integers(0, 3, size=6)
        mask = None
        if gen.random() < 0.5:
            mask = (gen.random((6, 4)) >= 0.5) / 0.5
        params = {
            "embed_w": np.array(emb.weight),
            "embed_b": np.array(emb.bias),
            "head_w": np.array(head.weight),
            "head_b": np.array(head.bias),
        }

        def loss_fn(p):
            return classification_loss_and_grads(
                LinearHead(p["embed_w"], p["embed_b"]),
                LinearHead(p["head_w"], p["head_b"]),
                frames,
                labels,
                mask,
            )[0]

        _, grads = classification_loss_and_grads(emb, head, frames, labels, mask)
        assert max_fd_error(loss_fn, params, grads, gen) < GRAD_TOL


def test_metabaseline_gradient_matches_fd():
    gen = RngStream(22, 0).generator()
    for _ in range(25):
        emb = init_embedding(gen, 4, 5)
        ep = _random_episode_arrays(gen)
        params = {"embed_w": np.array(emb.weight), "embed_b": np.array(emb.bias)}

        def loss_fn(p):
            return metabaseline_loss_and_grads(
                LinearHead(p["embed_w"], p["embed_b"]), ep, 7.0
            )[0]

        _, grads = metabaseline_loss_and_grads(emb, ep, 7.0)
        assert max_fd_error(loss_fn, params, grads, gen) < GRAD_TOL


def test_cmn_gradient_matches_fd():
    gen = RngStream(23, 0).generator()
    for _ in range(25):
        emb = init_embedding(gen, 4, 5)
        sal_q = 0.5 * gen.standard_normal((3, 4))
        ep = _random_episode_arrays(gen)
        params = {
            "embed_w": np.array(emb.weight),
            "embed_b": np.array(emb.bias),
            "sal_q": sal_q.copy(),
        }

        def loss_fn(p):
            return cmn_loss_and_grads(
                LinearHead(p["embed_w"], p["embed_b"]),
                SaliencyParams(p["sal_q"]),
                ep,
                7.0,
            )[0]

        _, grads = cmn_loss_and_grads(emb, SaliencyParams(sal_q), ep, 7.0)
        assert max_fd_error(loss_fn, params, grads, gen) < GRAD_TOL


def test_otam_gradient_matches_fd_with_frozen_path():
    gen = RngStream(24, 0).generator()
    for _ in range(25):
        emb = init_embedding(gen, 4, 5)
        ep = _random_episode_arrays(gen)
        params = {"embed_w": np.array(emb.weight), "embed_b": np.array(emb.bias)}
        _, grads, paths = otam_loss_and_grads(emb, ep, 7.0)

        def loss_fn(p):
            return otam_loss_and_grads(
                LinearHead(p["embed_w"], p["embed_b"]), ep, 7.0, paths=paths
            )[0]

        assert max_fd_error(loss_fn, params, grads, gen) < GRAD_TOL


# ---------------------------------------------------------------------------
# episode loss behavior


def _one_shot_episode(gen, n_way=4, t=5, c_in=6, query_is_support=True):
    support = tuple(gen.standard_normal((1, t, c_in)) for _ in range(n_way))
    label = int(gen.integers(n_way))
    query = support[label][0].copy() if query_is_support else gen.standard_normal((t, c_in))
    return EpisodeArrays(support=support, query=query, label=label)


def test_metabaseline_self_query_bounds_loss():
    gen = RngStream(25, 0).generator()
    for _ in range(10):
        ep = _one_shot_episode(gen)
        emb = init_embedding(gen, 4, 6)
        loss, _ = metabaseline_loss_and_grads(emb, ep, 10.0)
        assert loss < np.log(len(ep.support))


def test_cmn_with_zero_queries_equals_metabaseline():
    gen = RngStream(26, 0).generator()
    for _ in range(10):
        ep = _random_episode_arrays(gen, n_way=3, k_shot=2)
        emb = init_embedding(gen, 4, 5)
        sal = SaliencyParams(np.zeros((4, 4)))
        loss_mb, _ = metabaseline_loss_and_grads(emb, ep, 10.0)
        loss_cmn, _ = cmn_loss_and_grads(emb, sal, ep, 10.0)
        assert loss_cmn == pytest.approx(loss_mb, abs=1e-12)


def test_otam_equals_metabaseline_predictions_for_single_frame():
    gen = RngStream(27, 0).generator()
    emb = init_embedding(gen, 4, 6)
    cfg_mb = MethodConfig(method="meta-baseline", n_way=4, k_shot=1)
    cfg_ot = MethodConfig(method="otam-lite", n_way=4, k_shot=1)
    model_mb = TrainedModel(emb, None, None, cfg_mb)
    model_ot = TrainedModel(emb, None, None, cfg_ot)
    for _ in range(30):
        ep = _one_shot_episode(gen, t=1, query_is_support=False)
        mb = int(np.argmax(method_scores(model_mb, ep, cfg_mb)))
        ot = int(np.argmax(method_scores(model_ot, ep, cfg_ot)))
        assert mb == ot


def test_temperature_scaling_leaves_metric_predictions_unchanged(bench):
    manifest, _ = bench
    data = load_split(manifest, "test")
    gen = RngStream(28, 0).generator()
    emb = init_embedding(gen, 8, manifest.feature_dim)
    for method in METRIC_METHODS:
        for tau_pair in ((1.0, 37.0), (10.0, 0.5)):
            preds = []
            for tau in tau_pair:
                cfg = MethodConfig(method=method, n_way=5, k_shot=1, temperature=tau)
                sal = SaliencyParams(np.zeros((4, 8))) if method == "cmn-lite" else None
                model = TrainedModel(emb, None, sal, cfg)
                ep_gen = RngStream(1, 0).generator()
                episode = sample_episode(data, 5, 1, ep_gen)
                preds.append(adapt_and_predict(model, episode, cfg, rng=ep_gen))
            assert preds[0] == preds[1]


def test_query_identical_to_support_predicts_its_class(bench):
    manifest, _ = bench
    gen = RngStream(29, 0).generator()
    t, c_in = manifest.frame_count, manifest.feature_dim
    # orthogonal class features make self-match unambiguous
    frames = [np.tile(np.eye(c_in)[i] * (1.0 + i), (t, 1)) for i in range(4)]
    support = tuple(
        (FeatureSequence(f"s{i}", i, frames[i]), i) for i in range(4)
    )
    for label in range(4):
        episode = type("E", (), {})()
        episode.support = support
        episode.query = (FeatureSequence("q", label, frames[label]), label)
        for method in METRIC_METHODS + CLASSIFIER_METHODS:
            # lr_adapt large enough that the disposable head actually fits
            # its 4 support samples within the fixed 100 iterations
            cfg = MethodConfig(
                method=method, n_way=4, k_shot=1, embed_dim=8, seed=1, lr_adapt=1e-2
            )
            emb = init_embedding(RngStream(2, 0), 8, c_in)
            sal = SaliencyParams(np.zeros((4, 8))) if method == "cmn-lite" else None
            head = init_head(RngStream(2, 1), 6, 8, scale=0.6) if method in CLASSIFIER_METHODS else None
            model = TrainedModel(emb, head, sal, cfg)
            pred = adapt_and_predict(model, episode, cfg, rng=RngStream(3, label))
            assert pred == label, method


def test_baseline_plus_finetune_zero_is_imprint_rule(bench):
    manifest, _ = bench
    data = load_split(manifest, "test")
    gen = RngStream(30, 0).generator()
    emb = init_embedding(gen, 8, manifest.feature_dim)
    head = init_head(gen, 6, 8, scale=0.6)
    cfg = MethodConfig(method="baseline-plus", n_way=5, k_shot=1, iters_adapt=0)
    model = TrainedModel(emb, head, None, cfg)
    from fsvc.align import cosine
    from fsvc.heads import linear_forward
    from fsvc.protocols import pooled_embedding

    for e in range(50):
        ep_gen = RngStream(4, e).generator()
        episode = sample_episode(data, 5, 1, ep_gen)
        pred = adapt_and_predict(model, episode, cfg, rng=ep_gen)
        by_class = {}
        for seq, lab in episode.support:
            z = linear_forward(head, pooled_embedding(emb, seq.frames))
            by_class.setdefault(lab, []).append(z)
        templates = [np.mean(by_class[lab], axis=0) for lab in range(5)]
        zq = linear_forward(head, pooled_embedding(emb, episode.query[0].frames))
        assert pred == int(np.argmax([cosine(t, zq) for t in templates]))


# ---------------------------------------------------------------------------
# training


def test_train_classification_reaches_high_accuracy(tmp_path):
    spec = GeneratorSpec(
        n_train_classes=2,
        n_val_classes=0,
        n_test_classes=2,
        videos_per_class=20,
        feature_dim=10,
        frame_count=5,
        prototype_len=12,
        noise_sigma=0.1,
        warp_strength=0.0,
        seed=9,
    )
    manifest = gen_benchmark(spec, tmp_path / "easy")
    cfg = MethodConfig(
        method="baseline", n_way=2, k_shot=1, seed=0, embed_dim=6, train_steps=500
    )
    model = train_classification(manifest, cfg, select_by_val=False)
    data = load_split(manifest, "train")
    from fsvc.heads import linear_forward
    from fsvc.protocols import pooled_embedding

    pooled = pooled_embedding(model.embedding, data.frames)
    logits = linear_forward(model.base_head, pooled)
    assert (logits.argmax(axis=1) == data.labels).mean() > 0.95


def test_train_classification_deterministic(bench):
    manifest, _ = bench
    cfg = _fast_cfg("baseline")
    a = train_classification(manifest, cfg)
    b = train_classification(manifest, cfg)
    assert np.array_equal(a.embedding.weight, b.embedding.weight)
    assert np.array_equal(a.base_head.weight, b.base_head.weight)


def test_meta_train_runs_and_keeps_components(bench):
    manifest, _ = bench
    for method in METRIC_METHODS:
        cfg = _fast_cfg(method)
        model = meta_train(manifest, cfg)
        assert model.base_head is None
        assert (model.saliency is not None) == (method == "cmn-lite")


# ---------------------------------------------------------------------------
# training schedule: when validation fires and which parameters are kept


def _small_bench(tmp_path_factory, n_val_classes):
    spec = GeneratorSpec(
        n_train_classes=5,
        n_val_classes=n_val_classes,
        n_test_classes=2,
        videos_per_class=4,
        feature_dim=12,
        frame_count=6,
        prototype_len=16,
        noise_sigma=0.15,
        warp_strength=0.2,
        seed=4,
    )
    return gen_benchmark(spec, tmp_path_factory.mktemp(f"val{n_val_classes}"))


@pytest.fixture(scope="module")
def bench_no_val(tmp_path_factory):
    return _small_bench(tmp_path_factory, 0)


@pytest.fixture(scope="module")
def bench_small_val(tmp_path_factory):
    return _small_bench(tmp_path_factory, 3)


@pytest.fixture
def scripted_schedule(monkeypatch):
    """Record the parameters after every Adam step and, at each validation,
    the step it followed; validation returns ``accs`` in order."""
    from fsvc import protocols

    record = {"params": [], "val_steps": [], "accs": []}
    real_adam_step = protocols.adam_step

    def counting_adam_step(state, params, grads):
        out = real_adam_step(state, params, grads)
        assert state.step == len(record["params"]) + 1
        record["params"].append(out)
        return out

    def scripted_val_accuracy(model, cfg, val_data):
        record["val_steps"].append(len(record["params"]))
        return record["accs"][len(record["val_steps"]) - 1]

    monkeypatch.setattr(protocols, "adam_step", counting_adam_step)
    monkeypatch.setattr(protocols, "_val_accuracy", scripted_val_accuracy)
    return record


def _is_model_after(model, record, step):
    params = record["params"][step - 1]
    return np.array_equal(model.embedding.weight, params["embed_w"]) and (
        np.array_equal(model.embedding.bias, params["embed_b"])
    )


@pytest.mark.parametrize(
    "accs, kept",
    [
        ([0.2, 0.6, 0.4], 20),
        ([0.5, 0.5, 0.3], 10),  # a tie keeps the earlier model
        ([0.1, 0.2, 0.9], 25),
    ],
)
def test_classification_validates_each_block_and_keeps_best(
    bench, scripted_schedule, accs, kept
):
    manifest, _ = bench
    scripted_schedule["accs"] = accs
    cfg = _fast_cfg("baseline-plus", train_steps=25, val_every=10)
    model = train_classification(manifest, cfg)
    assert scripted_schedule["val_steps"] == [10, 20, 25]
    assert len(scripted_schedule["params"]) == 25
    assert _is_model_after(model, scripted_schedule, kept)
    params = scripted_schedule["params"][kept - 1]
    assert np.array_equal(model.base_head.weight, params["head_w"])
    assert np.array_equal(model.base_head.bias, params["head_b"])


def test_classification_without_selection_returns_final(bench, scripted_schedule):
    manifest, _ = bench
    cfg = _fast_cfg("baseline", train_steps=25, val_every=10)
    model = train_classification(manifest, cfg, select_by_val=False)
    assert scripted_schedule["val_steps"] == []
    assert len(scripted_schedule["params"]) == 25
    assert _is_model_after(model, scripted_schedule, 25)


def test_meta_train_stops_after_patience_epochs(bench, scripted_schedule):
    manifest, _ = bench
    scripted_schedule["accs"] = [0.4, 0.6, 0.6, 0.5, 0.9, 0.9]
    cfg = _fast_cfg(
        "cmn-lite", episodes_per_epoch=3, max_epochs=6, patience=2
    )
    model = meta_train(manifest, cfg)
    # epoch 2 is the best; epochs 3 and 4 do not beat it, so training stops
    assert scripted_schedule["val_steps"] == [3, 6, 9, 12]
    assert len(scripted_schedule["params"]) == 12
    assert _is_model_after(model, scripted_schedule, 6)
    assert np.array_equal(
        model.saliency.queries, scripted_schedule["params"][5]["sal_q"]
    )


@pytest.mark.parametrize("method", ["baseline", "meta-baseline"])
def test_empty_val_split_returns_final(bench_no_val, scripted_schedule, method):
    cfg = _fast_cfg(method, train_steps=25, val_every=10, episodes_per_epoch=3)
    train = train_classification if method in CLASSIFIER_METHODS else meta_train
    model = train(bench_no_val, cfg)
    steps = 25 if method in CLASSIFIER_METHODS else 3 * cfg.max_epochs
    assert scripted_schedule["val_steps"] == []
    assert len(scripted_schedule["params"]) == steps
    assert _is_model_after(model, scripted_schedule, steps)


@pytest.mark.parametrize("method", ["baseline", "meta-baseline"])
def test_val_split_without_capacity_fails_before_training(
    bench_small_val, scripted_schedule, method
):
    cfg = _fast_cfg(method, train_steps=25, val_every=10, episodes_per_epoch=3)
    train = train_classification if method in CLASSIFIER_METHODS else meta_train
    with pytest.raises(CapacityError, match="val split .*3 classes, need 5"):
        train(bench_small_val, cfg)
    assert scripted_schedule["params"] == []


def test_train_split_without_capacity_fails_before_training(
    bench_no_val, scripted_schedule
):
    # five train classes of four videos each; drop three videos of one class
    # so that it holds exactly k_shot = 1
    thin = {v.video_id for v in bench_no_val.split_videos("train")[1:4]}
    videos = tuple(v for v in bench_no_val.videos if v.video_id not in thin)
    manifest = replace(bench_no_val, videos=videos)
    cfg = _fast_cfg("meta-baseline", episodes_per_epoch=3)
    message = r"class \d+ of the train split has 1 videos, need 2"
    with pytest.raises(CapacityError, match=message):
        meta_train(manifest, cfg)
    assert scripted_schedule["params"] == []


def test_adaptation_never_mutates_model(bench):
    manifest, _ = bench
    data = load_split(manifest, "test")
    cfg = _fast_cfg("baseline-plus")
    model = train_classification(manifest, cfg)
    digest = model.weight_digest()
    for e in range(1000):
        gen = RngStream(11, e).generator()
        episode = sample_episode(data, 5, 1, gen)
        adapt_and_predict(model, episode, cfg, rng=gen)
    assert model.weight_digest() == digest


@pytest.mark.parametrize("method", ["baseline", "meta-baseline"])
def test_adapt_rejects_support_label_beyond_n_way(bench, method):
    # a 5-way episode under a 3-way config used to end in a bare IndexError
    manifest, _ = bench
    episode = sample_episode(load_split(manifest, "test"), 5, 1, RngStream(8, 0))
    cfg = MethodConfig(method=method, n_way=3, embed_dim=8)
    emb = init_embedding(RngStream(2, 0), 8, manifest.feature_dim)
    head = init_head(RngStream(2, 1), 6, 8) if method == "baseline" else None
    model = TrainedModel(emb, head, None, cfg)
    message = r"support label [34] out of range for n_way=3"
    with pytest.raises(ValidationError, match=message):
        adapt_and_predict(model, episode, cfg, rng=RngStream(8, 1))


def test_episode_arrays_rejects_negative_label():
    frames = np.ones((3, 2))
    episode = type("E", (), {})()
    episode.support = (
        (FeatureSequence("a", 0, frames), 0),
        (FeatureSequence("b", 1, frames), -1),
    )
    episode.query = (FeatureSequence("q", 0, frames), 0)
    message = "support label -1 out of range for n_way=2"
    with pytest.raises(ValidationError, match=message):
        episode_arrays(episode, 2)


def test_adapt_rejects_method_mismatch(bench):
    manifest, _ = bench
    data = load_split(manifest, "test")
    cfg = _fast_cfg("baseline")
    model = train_classification(manifest, cfg)
    gen = RngStream(12, 0).generator()
    episode = sample_episode(data, 5, 1, gen)
    with pytest.raises(ValidationError, match="baseline"):
        adapt_and_predict(model, episode, replace(cfg, method="meta-baseline"), rng=gen)


# ---------------------------------------------------------------------------
# pretraining


def test_train_classification_rejects_empty_train_split(bench):
    manifest, _ = bench
    no_train = replace(
        manifest, videos=tuple(v for v in manifest.videos if v.split != "train")
    )
    with pytest.raises(ValidationError, match="train split has no videos"):
        train_classification(no_train, _fast_cfg("baseline"))


def test_pretrain_without_data_rejected(bench):
    manifest, pretrain = bench
    cfg = _fast_cfg("baseline")
    for data in (None, replace(pretrain, videos=())):
        with pytest.raises(ValidationError, match="pretraining manifest"):
            pretrain_embedding(data, cfg, benchmark=manifest)


def test_pretrain_deterministic(bench):
    manifest, pretrain = bench
    cfg = _fast_cfg("baseline")
    a = pretrain_embedding(pretrain, cfg, benchmark=manifest)
    b = pretrain_embedding(pretrain, cfg, benchmark=manifest)
    assert np.array_equal(a.weight, b.weight)


def test_pretrain_leakage_rejected(bench):
    manifest, _ = bench
    cfg = _fast_cfg("baseline")
    with pytest.raises(LeakageError):
        pretrain_embedding(manifest, cfg, benchmark=manifest)


def test_pretrained_init_lowers_early_training_loss(bench):
    manifest, pretrain = bench
    from fsvc.heads import AdamState, adam_step, init_head
    from fsvc.protocols import STREAM_BATCH, STREAM_INIT

    train_data = load_split(manifest, "train")
    frames, labels = train_data.frames, train_data.labels
    wins = 0
    for seed in range(5):
        cfg = _fast_cfg("baseline", seed=seed, train_steps=240)
        losses = {}
        for kind in ("random", "pretrained"):
            if kind == "pretrained":
                emb = pretrain_embedding(pretrain, cfg, benchmark=manifest)
            else:
                emb = init_embedding(
                    RngStream(seed, STREAM_INIT), cfg.embed_dim, manifest.feature_dim
                )
            # small head init isolates the embedding-transfer effect from
            # head-initialization noise
            head = init_head(RngStream(seed, STREAM_INIT + 1), 6, cfg.embed_dim, scale=0.01)
            params = {
                "embed_w": np.array(emb.weight),
                "embed_b": np.array(emb.bias),
                "head_w": np.array(head.weight),
                "head_b": np.array(head.bias),
            }
            state = AdamState.for_params(params, 1e-3)
            gen = RngStream(seed, STREAM_BATCH).generator()
            total = 0.0
            for _ in range(100):
                idx = gen.choice(frames.shape[0], size=24, replace=False)
                loss, grads = classification_loss_and_grads(
                    LinearHead(params["embed_w"], params["embed_b"]),
                    __import__("fsvc.heads", fromlist=["LinearHead"]).LinearHead(
                        params["head_w"], params["head_b"]
                    ),
                    frames[idx],
                    labels[idx],
                )
                total += loss
                params = adam_step(state, params, grads)
            losses[kind] = total
        wins += int(losses["pretrained"] < losses["random"])
    assert wins >= 4  # transfer helps in (nearly) every seed


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(bench, tmp_path):
    manifest, _ = bench
    for method in ("baseline-plus", "cmn-lite"):
        cfg = _fast_cfg(method)
        model = (
            train_classification(manifest, cfg)
            if method in CLASSIFIER_METHODS
            else meta_train(manifest, cfg)
        )
        path = tmp_path / f"{method}.fsvm"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.config == model.config
        assert np.array_equal(back.embedding.weight, model.embedding.weight)
        assert np.array_equal(back.embedding.bias, model.embedding.bias)
        if model.base_head is not None:
            assert np.array_equal(back.base_head.weight, model.base_head.weight)
        if model.saliency is not None:
            assert np.array_equal(back.saliency.queries, model.saliency.queries)
        assert back.fingerprint == model.fingerprint


def test_checkpoint_magic_guard(tmp_path):
    path = tmp_path / "junk.fsvm"
    path.write_bytes(b"NOPE" + bytes(20))
    from fsvc.core import FormatError

    with pytest.raises(FormatError):
        load_checkpoint(path)


def _small_model(method):
    gen = np.random.default_rng(1)
    cfg = _fast_cfg(method, embed_dim=3, saliency_heads=2)
    head = init_head(gen, 4, 3) if method in CLASSIFIER_METHODS else None
    sal = SaliencyParams(gen.standard_normal((2, 3))) if method == "cmn-lite" else None
    return TrainedModel(init_embedding(gen, 3, 2), head, sal, cfg)


@pytest.mark.parametrize("method", ["baseline-plus", "cmn-lite"])
def test_truncated_checkpoint_is_typed_error(tmp_path, method):
    path = tmp_path / "whole.fsvm"
    save_checkpoint(_small_model(method), path)
    data = path.read_bytes()
    cut = tmp_path / "cut.fsvm"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        # a cut inside the magic is a bad magic, anywhere later a short read
        with pytest.raises(LengthError if n >= 4 else FormatError):
            load_checkpoint(cut)
    cut.write_bytes(data)
    assert load_checkpoint(cut).config == _small_model(method).config


def _checkpoint_bytes(blocks, cfg=None):
    config = (cfg or MethodConfig("meta-baseline")).canonical_json().encode()
    parts = [b"FSVM", struct.pack("<II", 1, len(config)), config]
    parts.append(struct.pack("<I", len(blocks)))
    for name, arr in blocks:
        parts += [struct.pack("<I", len(name)), name.encode()]
        parts += [struct.pack("<II", *arr.shape), arr.astype("<f8").tobytes()]
    return b"".join(parts)


@pytest.mark.parametrize(
    "names",
    [["embed.weight"], ["embed.bias"], ["embed.weight", "embed.bias", "head.weight"]],
)
def test_checkpoint_missing_block_is_format_error(tmp_path, names):
    shapes = {"embed.weight": (3, 2), "embed.bias": (3, 1), "head.weight": (4, 3)}
    path = tmp_path / "partial.fsvm"
    path.write_bytes(_checkpoint_bytes([(n, np.ones(shapes[n])) for n in names]))
    with pytest.raises(FormatError, match="missing checkpoint block"):
        load_checkpoint(path)


_GOOD_BLOCKS = {
    "embed.weight": (3, 2),
    "embed.bias": (3, 1),
    "head.weight": (4, 3),
    "head.bias": (4, 1),
    "saliency.queries": (2, 3),
}


@pytest.mark.parametrize(
    "method, changes, message",
    [
        ("baseline", {}, None),
        ("cmn-lite", {}, None),
        ("cmn-lite", {"junk": (1, 1)}, "unknown checkpoint block 'junk'"),
        ("baseline", {"embed.bias": (3, 0)}, "'embed.bias' has shape"),
        ("baseline", {"embed.bias": (2, 1)}, "'embed.bias' has shape"),
        ("baseline", {"embed.weight": (4, 2)}, "'embed.weight' has shape"),
        ("baseline", {"embed.weight": (3, 0)}, "'embed.weight' has shape"),
        ("baseline", {"head.weight": (4, 2)}, "'head.weight' has shape"),
        ("baseline", {"head.bias": (5, 1)}, "'head.bias' has shape"),
        ("baseline", {"head.weight": (0, 3), "head.bias": (0, 1)}, "'head.weight' has shape"),
        ("cmn-lite", {"saliency.queries": (3, 3)}, "'saliency.queries' has shape"),
        ("cmn-lite", {"saliency.queries": (2, 4)}, "'saliency.queries' has shape"),
    ],
)
def test_checkpoint_block_names_and_shapes_checked(tmp_path, method, changes, message):
    cfg = _fast_cfg(method, embed_dim=3, saliency_heads=2)
    wanted = ["embed.weight", "embed.bias"]
    wanted += ["head.weight", "head.bias"] if method in CLASSIFIER_METHODS else ["saliency.queries"]
    shapes = {name: _GOOD_BLOCKS[name] for name in wanted}
    shapes.update(changes)
    path = tmp_path / "shaped.fsvm"
    path.write_bytes(_checkpoint_bytes([(n, np.ones(sh)) for n, sh in shapes.items()], cfg))
    if message is None:
        assert load_checkpoint(path).config == cfg
    else:
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)


def test_checkpoint_duplicate_block_is_format_error(tmp_path):
    blocks = [("embed.weight", np.ones((16, 2))), ("embed.bias", np.ones((16, 1)))]
    path = tmp_path / "dup.fsvm"
    path.write_bytes(_checkpoint_bytes(blocks + blocks[1:]))
    with pytest.raises(FormatError, match="duplicate checkpoint block 'embed.bias'"):
        load_checkpoint(path)


def test_checkpoint_bad_config_is_format_error(tmp_path):
    data = bytearray(_checkpoint_bytes([]))
    data[12] = ord("[")  # first byte of the config JSON
    path = tmp_path / "badcfg.fsvm"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="bad config block"):
        load_checkpoint(path)


def test_train_model_dispatch(bench):
    manifest, pretrain = bench
    model = train_model(manifest, _fast_cfg("baseline"))
    assert model.base_head is not None
    model = train_model(manifest, _fast_cfg("meta-baseline"))
    assert model.base_head is None
    cfg = _fast_cfg("baseline", init="pretrained")
    model = train_model(manifest, cfg, pretrain_manifest=pretrain)
    assert model.config.init == "pretrained"


# ---------------------------------------------------------------------------
# a split held at the files' float32 precision computes as float64 frames do


def _float64_twin(split: SplitData) -> SplitData:
    """The same split, its values held as a read-only float64 block."""
    block = split.frames.astype(np.float64)
    block.flags.writeable = False
    rows = iter(block)
    by_class = {
        cid: tuple(FeatureSequence(s.video_id, cid, next(rows)) for s in seqs)
        for cid, seqs in split.by_class.items()
    }
    return SplitData(split.class_ids, by_class, block, split.labels)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_grads(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)


@pytest.fixture(scope="module")
def split_twins(bench):
    manifest, _ = bench
    twins = {}
    for name in ("train", "test"):
        held = load_split(manifest, name)
        twin = _float64_twin(held)
        assert held.frames.dtype == np.float32 and twin.frames.dtype == np.float64
        seq = twin.by_class[twin.class_ids[0]][0]
        assert seq.frames.dtype == np.float64 and np.shares_memory(seq.frames, twin.frames)
        twins[name] = held, twin
    return twins


def _random_models(in_dim: int, n_base: int, dim: int = 8) -> dict[str, TrainedModel]:
    gen = np.random.default_rng(11)
    emb = LinearHead(gen.standard_normal((dim, in_dim)), gen.standard_normal(dim))
    head = LinearHead(gen.standard_normal((n_base, dim)), gen.standard_normal(n_base))
    models = {}
    for method in (*METRIC_METHODS, *CLASSIFIER_METHODS):
        cfg = MethodConfig(method, embed_dim=dim, iters_adapt=20)
        sal = SaliencyParams(gen.standard_normal((cfg.saliency_heads, dim)))
        models[method] = TrainedModel(
            emb,
            head if method in CLASSIFIER_METHODS else None,
            sal if method == "cmn-lite" else None,
            cfg,
        )
    return models


@pytest.mark.parametrize("k_shot", [1, 5])
def test_float32_split_adapts_and_scores_as_float64(bench, split_twins, k_shot):
    held, twin = split_twins["test"]
    models = _random_models(bench[0].feature_dim, n_base=6)
    for method, model in models.items():
        cfg = replace(model.config, k_shot=k_shot)
        for e in range(8):
            eps = [sample_episode(s, 5, k_shot, RngStream(3, e)) for s in (held, twin)]
            assert eps[0].query[0].frames.dtype == np.float32
            assert eps[1].query[0].frames.dtype == np.float64
            preds = [adapt_and_predict(model, ep, cfg, RngStream(4, e)) for ep in eps]
            assert preds[0] == preds[1], (method, e)
            if method in METRIC_METHODS:
                a, b = (method_scores(model, episode_arrays(ep, 5), cfg) for ep in eps)
                assert _same(a, b), (method, e)


def test_float32_split_accuracy_vector_is_float64s(bench, split_twins):
    held, twin = split_twins["test"]
    for method, model in _random_models(bench[0].feature_dim, n_base=6).items():
        a, b = (accuracy_vector(model, model.config, s, 200) for s in (held, twin))
        assert _same(a, b), method


def test_float32_split_losses_and_grads_are_float64s(bench, split_twins):
    held, twin = split_twins["train"]
    models = _random_models(bench[0].feature_dim, n_base=len(held.class_ids))
    emb, sal = models["cmn-lite"].embedding, models["cmn-lite"].saliency
    for k_shot in (1, 3):
        for e in range(4):
            a, b = (
                episode_arrays(sample_episode(s, 5, k_shot, RngStream(5, e)), 5)
                for s in (held, twin)
            )
            assert a.query.dtype == np.float32 and b.query.dtype == np.float64
            for loss in (metabaseline_loss_and_grads, cmn_loss_and_grads):
                args = (emb, sal) if loss is cmn_loss_and_grads else (emb,)
                la, ga = loss(*args, a, 10.0)
                lb, gb = loss(*args, b, 10.0)
                assert _same(la, lb) and _same_grads(ga, gb), (loss, k_shot, e)
            for normalize in (False, True):
                la, ga, pa = otam_loss_and_grads(emb, a, 10.0, normalize)
                lb, gb, pb = otam_loss_and_grads(emb, b, 10.0, normalize)
                assert _same(la, lb) and _same_grads(ga, gb) and pa == pb
    head = models["baseline"].base_head
    gen = np.random.default_rng(6)
    idx = gen.choice(len(held.labels), size=16, replace=False)
    for mask in (None, dropout_mask(gen, 0.3, (16, emb.n_out))):
        la, ga = classification_loss_and_grads(emb, head, held.frames[idx], held.labels[idx], mask)
        lb, gb = classification_loss_and_grads(emb, head, twin.frames[idx], twin.labels[idx], mask)
        assert _same(la, lb) and _same_grads(ga, gb)
