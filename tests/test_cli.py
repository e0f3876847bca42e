"""End-to-end CLI flows: gen, splits, train, eval, selftest."""

import json
import subprocess
import sys

import numpy as np
import pytest

from fsvc.cli import main

SPEC = {
    "n_train_classes": 6,
    "n_val_classes": 5,
    "n_test_classes": 6,
    "videos_per_class": 6,
    "feature_dim": 10,
    "frame_count": 5,
    "prototype_len": 12,
    "noise_sigma": 0.2,
    "warp_strength": 0.3,
    "seed": 5,
    "pretrain_classes": 4,
}

FAST_TRAIN = [
    "--train-steps", "80",
    "--episodes-per-epoch", "40",
    "--max-epochs", "2",
    "--val-episodes", "20",
    "--embed-dim", "8",
]


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    assert main(["gen", "--spec", str(spec_path), "--out", str(out / "bench")]) == 0
    return out


def test_gen_writes_manifests(bench_dir):
    assert (bench_dir / "bench" / "manifest.json").exists()
    assert (bench_dir / "bench" / "pretrain_manifest.json").exists()


def test_splits_command(bench_dir):
    out = bench_dir / "splits.json"
    rc = main(
        [
            "splits",
            "--manifest", str(bench_dir / "bench" / "manifest.json"),
            "--classes", "8,4,5",
            "--cap", "4",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    from fsvc.core import load_manifest

    m = load_manifest(out)
    assert len(m.split_class_ids("train")) == 8
    assert len(m.split_class_ids("val")) == 4
    assert len(m.split_class_ids("test")) == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--classes", "a,b,c"], "wants train,val,test counts"),
        (["--classes", "8,4"], "wants train,val,test counts"),
        (["--classes=-1,4,5"], "class counts must be >= 0, got -1/4/5"),
        (["--classes", "8,4,5", "--cap", "-1"], "cap must be >= 1, got -1"),
        (["--classes", "8,4,5", "--cap", "0"], "cap must be >= 1, got 0"),
    ],
)
def test_splits_rejects_bad_input(bench_dir, argv, message):
    out = bench_dir / "never-splits.json"
    proc = _run_cli(
        "splits", "--manifest", str(bench_dir / "bench" / "manifest.json"),
        *argv, "--out", str(out),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert not out.exists()


def test_train_and_eval_round_trip(bench_dir, capsys):
    manifest = str(bench_dir / "bench" / "manifest.json")
    ckpt = str(bench_dir / "mb.ckpt")
    rc = main(
        ["train", "--method", "meta-baseline", "--manifest", manifest,
         "--seed", "2", "--out", ckpt] + FAST_TRAIN
    )
    assert rc == 0
    report = bench_dir / "report.json"
    rc = main(
        ["eval", "--ckpt", ckpt, "--manifest", manifest, "--way", "5",
         "--shot", "1", "--episodes", "100", "--seed", "0",
         "--report", str(report)]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["method"] == "meta-baseline"
    assert doc["n_way"] == 5 and doc["k_shot"] == 1
    assert doc["episodes"] == 100


def test_eval_reports_are_byte_identical(bench_dir):
    manifest = str(bench_dir / "bench" / "manifest.json")
    ckpt = str(bench_dir / "mb.ckpt")
    paths = [bench_dir / f"rep{i}.json" for i in range(2)]
    for p in paths:
        rc = main(
            ["eval", "--ckpt", ckpt, "--manifest", manifest, "--way", "5",
             "--shot", "1", "--episodes", "150", "--seed", "7",
             "--report", str(p)]
        )
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    csvs = [bench_dir / f"rep{i}.csv" for i in range(2)]
    for p in csvs:
        main(
            ["eval", "--ckpt", ckpt, "--manifest", manifest, "--way", "5",
             "--shot", "1", "--episodes", "150", "--seed", "7",
             "--report", str(p), "--format", "csv"]
        )
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


def test_eval_records_requested_shot(bench_dir):
    manifest = str(bench_dir / "bench" / "manifest.json")
    ckpt = str(bench_dir / "mb.ckpt")
    report = bench_dir / "shot5.json"
    rc = main(
        ["eval", "--ckpt", ckpt, "--manifest", manifest, "--way", "5",
         "--shot", "5", "--episodes", "50", "--seed", "0",
         "--report", str(report)]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["n_way"] == 5 and doc["k_shot"] == 5


def test_train_pretrained_flow(bench_dir):
    manifest = str(bench_dir / "bench" / "manifest.json")
    pre = str(bench_dir / "bench" / "pretrain_manifest.json")
    ckpt = str(bench_dir / "plus.ckpt")
    rc = main(
        ["train", "--method", "baseline-plus", "--manifest", manifest,
         "--init", "pretrained", "--pretrain-manifest", pre,
         "--seed", "2", "--out", ckpt] + FAST_TRAIN
    )
    assert rc == 0
    from fsvc.protocols import load_checkpoint

    model = load_checkpoint(ckpt)
    assert model.config.init == "pretrained"
    assert model.config.resolved_lr_base() == pytest.approx(1e-4)


def test_every_train_flag_lands_in_its_field(bench_dir):
    from fsvc.protocols import MethodConfig, load_checkpoint

    # flag -> (MethodConfig field, a value other than the field's default)
    flags = {
        "--init": ("init", "pretrained"),
        "--seed": ("seed", 4),
        "--way": ("n_way", 3),
        "--shot": ("k_shot", 2),
        "--temperature": ("temperature", 7.5),
        "--lr-base": ("lr_base", 0.002),
        "--lr-adapt": ("lr_adapt", 0.01),
        "--finetune-iters": ("iters_adapt", 7),
        "--dropout": ("dropout_p", 0.25),
        "--embed-dim": ("embed_dim", 6),
        "--train-steps": ("train_steps", 3),
        "--episodes-per-epoch": ("episodes_per_epoch", 3),
        "--max-epochs": ("max_epochs", 2),
        "--val-episodes": ("val_episodes", 2),
        "--batch-size": ("batch_size", 4),
    }
    defaults = MethodConfig("baseline-plus")
    assert all(getattr(defaults, f) != v for f, v in flags.values())
    ckpt = bench_dir / "every-flag.fsvm"
    rc = main(
        ["train", "--method", "baseline-plus",
         "--manifest", str(bench_dir / "bench" / "manifest.json"),
         "--pretrain-manifest", str(bench_dir / "bench" / "pretrain_manifest.json"),
         "--out", str(ckpt), "--dtw-normalize",
         *[arg for flag, (_, value) in flags.items() for arg in (flag, str(value))]]
    )
    assert rc == 0
    expected = MethodConfig("baseline-plus", dtw_normalize=True, **dict(flags.values()))
    assert load_checkpoint(ckpt).config == expected


@pytest.fixture(scope="module")
def untrained_ckpt(bench_dir):
    from fsvc.protocols import (
        MethodConfig,
        TrainedModel,
        init_embedding,
        save_checkpoint,
    )

    path = bench_dir / "untrained.fsvm"
    emb = init_embedding(np.random.default_rng(0), 8, SPEC["feature_dim"])
    cfg = MethodConfig("meta-baseline", embed_dim=8)
    save_checkpoint(TrainedModel(emb, None, None, cfg), path)
    return path


@pytest.mark.parametrize("episodes", ["-3", "0"])
def test_eval_rejects_fewer_than_one_episode(bench_dir, untrained_ckpt, episodes):
    proc = subprocess.run(
        [sys.executable, "-m", "fsvc.cli", "eval",
         "--ckpt", str(untrained_ckpt),
         "--manifest", str(bench_dir / "bench" / "manifest.json"),
         "--episodes", episodes,
         "--report", str(bench_dir / "never.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert f"got {episodes}" in proc.stderr
    assert not (bench_dir / "never.json").exists()


# counts that overflow intp, so no vector is ever allocated
@pytest.mark.parametrize("episodes", [str(2**62), str(2**63)])
def test_eval_unallocatable_episode_count_is_clean_error(
    bench_dir, untrained_ckpt, episodes
):
    proc = _run_cli(
        "eval", "--ckpt", str(untrained_ckpt),
        "--manifest", str(bench_dir / "bench" / "manifest.json"),
        "--episodes", episodes,
        "--report", str(bench_dir / "never.json"),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"error: accuracy vector: cannot allocate episodes {episodes}: "
    )
    assert not (bench_dir / "never.json").exists()


# a seed of 2**64 + s would alias seed s in the 64-bit Philox key
def test_gen_seed_of_2_to_the_64_is_clean_error(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "seed": 2**64 + 3}))
    proc = _run_cli("gen", "--spec", str(spec), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: seed must be below 2**64, got {2**64 + 3}")
    assert not (tmp_path / "out").exists()


def test_train_seed_of_2_to_the_64_is_clean_error(bench_dir, tmp_path):
    out = tmp_path / "model.fsvm"
    proc = _run_cli(
        "train", "--method", "baseline",
        "--manifest", str(bench_dir / "bench" / "manifest.json"),
        "--seed", str(2**64 + 5), "--out", str(out),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: seed must be below 2**64, got {2**64 + 5}")
    assert not out.exists()


def test_eval_seed_of_2_to_the_64_is_clean_error(bench_dir, untrained_ckpt):
    proc = _run_cli(
        "eval", "--ckpt", str(untrained_ckpt),
        "--manifest", str(bench_dir / "bench" / "manifest.json"),
        "--seed", str(2**64 + 5),
        "--report", str(bench_dir / "never.json"),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: seed must be below 2**64, got {2**64 + 5}")
    assert not (bench_dir / "never.json").exists()


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "fsvc.cli", *argv], capture_output=True, text=True
    )


def test_eval_rejects_checkpoint_of_other_feature_dim(bench_dir):
    from fsvc.protocols import MethodConfig, TrainedModel, init_embedding, save_checkpoint

    path = bench_dir / "dim7.fsvm"
    emb = init_embedding(np.random.default_rng(0), 8, 7)  # manifest has 10
    save_checkpoint(TrainedModel(emb, None, None, MethodConfig("meta-baseline", embed_dim=8)), path)
    proc = _run_cli(
        "eval", "--ckpt", str(path),
        "--manifest", str(bench_dir / "bench" / "manifest.json"),
        "--report", str(bench_dir / "never.json"),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "feature_dim is 10" in proc.stderr
    assert not (bench_dir / "never.json").exists()


def test_eval_rejects_nonfinite_saliency_queries(bench_dir, tmp_path):
    from fsvc.align import SaliencyParams
    from fsvc.protocols import MethodConfig, TrainedModel, init_embedding, save_checkpoint

    path = tmp_path / "nan-query.fsvm"
    emb = init_embedding(np.random.default_rng(0), 8, SPEC["feature_dim"])
    sal = SaliencyParams(np.zeros((4, 8)))
    save_checkpoint(TrainedModel(emb, None, sal, MethodConfig("cmn-lite", embed_dim=8)), path)
    # saliency.queries is the last block, so the file ends with its last value
    path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], "<f8").tobytes())
    report = tmp_path / "report.json"
    proc = _run_cli(
        "eval", "--ckpt", str(path),
        "--manifest", str(bench_dir / "bench" / "manifest.json"),
        "--episodes", "3", "--report", str(report),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: saliency queries must be finite\n"
    assert not report.exists()


# an embedding of 2**62 rows overflows intp, so nothing is allocated
@pytest.mark.parametrize("method", ["baseline", "meta-baseline"])
def test_train_unallocatable_embed_dim_is_clean_error(bench_dir, tmp_path, method):
    out = tmp_path / "model.fsvm"
    proc = _run_cli(
        "train", "--method", method,
        "--manifest", str(bench_dir / "bench" / "manifest.json"),
        "--embed-dim", str(2**62), "--out", str(out),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"error: embedding: cannot allocate embed_dim {2**62} x feature_dim 10: "
    )
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("method", ["baseline", "meta-baseline"])
def test_train_rejects_pretraining_of_other_feature_dim(bench_dir, method):
    spec_path = bench_dir / "spec7.json"
    spec_path.write_text(json.dumps(dict(SPEC, feature_dim=7)))
    assert main(["gen", "--spec", str(spec_path), "--out", str(bench_dir / "dim7")]) == 0
    out = bench_dir / f"{method}-dim7.fsvm"
    proc = _run_cli(
        "train", "--method", method,
        "--manifest", str(bench_dir / "bench" / "manifest.json"),
        "--init", "pretrained",
        "--pretrain-manifest", str(bench_dir / "dim7" / "pretrain_manifest.json"),
        "--out", str(out), *FAST_TRAIN,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "7 wide" in proc.stderr and "10" in proc.stderr
    assert not out.exists()


def test_train_pretrained_without_pretraining_manifest_is_clean_error(bench_dir):
    out = bench_dir / "no-pretrain.fsvm"
    proc = _run_cli(
        "train", "--method", "baseline",
        "--manifest", str(bench_dir / "bench" / "manifest.json"),
        "--init", "pretrained", "--out", str(out), *FAST_TRAIN,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "pretraining manifest" in proc.stderr
    assert not out.exists()


def test_gen_spec_with_missing_fields_is_clean_error(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 1}))
    proc = _run_cli("gen", "--spec", str(spec), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: missing generator fields")
    assert "videos_per_class" in proc.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        (
            json.dumps({**SPEC, "seed": "x"}),
            "error: generator field 'seed' must be an integer",
        ),
        (json.dumps(SPEC)[:40], "error: "),  # truncated file
    ],
)
def test_gen_bad_spec_is_clean_error(tmp_path, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    proc = _run_cli("gen", "--spec", str(spec), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(message)
    assert not (tmp_path / "out").exists()


# each spec's first array overflows intp, so numpy refuses before allocating:
# a (2**40, 2**40) prototype, or the (2**62, 5) warp draws of a class's videos
@pytest.mark.parametrize(
    "dims, message",
    [
        (
            {"feature_dim": 2**40, "prototype_len": 2**40},
            f"error: prototype: cannot allocate prototype_len {2**40} x "
            f"feature_dim {2**40}: ",
        ),
        (
            {"videos_per_class": 2**62},
            f"error: video block: cannot allocate videos {2**62} x frame_count 5: ",
        ),
    ],
    ids=["prototype", "video-block"],
)
def test_gen_unallocatable_spec_dims_are_clean_error(tmp_path, dims, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, **dims}))
    proc = _run_cli("gen", "--spec", str(spec), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(message)
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("key, value", [("frame_count", "eight"), ("feature_dim", 8.7)])
def test_train_bad_manifest_header_is_clean_error(bench_dir, tmp_path, key, value):
    doc = json.loads((bench_dir / "bench" / "manifest.json").read_text())
    doc[key] = value
    manifest = bench_dir / "bench" / f"bad_{key}.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "model.fsvm"
    proc = _run_cli(
        "train", "--method", "baseline", "--manifest", str(manifest), "--out", str(out)
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert f"'{key}' must be an integer" in proc.stderr
    assert not out.exists()


def test_train_unallocatable_manifest_dims_are_clean_error(bench_dir, tmp_path):
    doc = json.loads((bench_dir / "bench" / "manifest.json").read_text())
    # (2**40)**2 frames a video overflow intp, so nothing is ever allocated
    doc["frame_count"] = doc["feature_dim"] = 2**40
    manifest = bench_dir / "bench" / "huge_dims.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "model.fsvm"
    proc = _run_cli(
        "train", "--method", "baseline", "--manifest", str(manifest), "--out", str(out)
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: train split: ")
    assert f"frame_count {2**40} x feature_dim {2**40}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["splits", "train", "eval"])
def test_manifest_that_is_not_utf8_is_clean_error(untrained_ckpt, tmp_path, command):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b'{"frame_count": 5, "classes": ["\xff"]}')
    out = tmp_path / "out"
    argv = {
        "splits": ["--classes", "2,2,2", "--out", str(out)],
        "train": ["--method", "baseline", "--out", str(out)],
        "eval": ["--ckpt", str(untrained_ckpt), "--report", str(out)],
    }[command]
    proc = _run_cli(command, "--manifest", str(manifest), *argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {manifest}: not valid manifest JSON: ")
    assert not out.exists()


# json.loads raises RecursionError on arrays nested this deep
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["splits", "gen", "eval"])
def test_json_nested_too_deeply_is_clean_error(bench_dir, untrained_ckpt, tmp_path, command):
    import struct

    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    out = tmp_path / "out"
    manifest = str(bench_dir / "bench" / "manifest.json")
    if command == "eval":
        # a checkpoint whose config block is the deep text
        data = untrained_ckpt.read_bytes()
        (n,) = struct.unpack_from("<I", data, 8)
        text = DEEP_JSON.encode()
        path = tmp_path / "deep.fsvm"
        path.write_bytes(data[:8] + struct.pack("<I", len(text)) + text + data[12 + n :])
    argv = {
        "splits": ["--manifest", str(path), "--classes", "1,1,1", "--out", str(out)],
        "gen": ["--spec", str(path), "--out", str(out)],
        "eval": ["--ckpt", str(path), "--manifest", manifest, "--report", str(out)],
    }[command]
    proc = _run_cli(command, *argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: ")
    assert "recursion" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "method, flag, value, field",
    [
        ("meta-baseline", "--val-episodes", "0", "val_episodes"),
        ("baseline", "--val-episodes", "0", "val_episodes"),
        ("baseline", "--batch-size", "0", "batch_size"),
        ("baseline", "--train-steps", "0", "train_steps"),
        ("meta-baseline", "--episodes-per-epoch", "0", "episodes_per_epoch"),
        ("meta-baseline", "--max-epochs", "0", "max_epochs"),
        ("baseline", "--lr-base", "-1", "lr_base"),
        ("baseline", "--lr-adapt", "inf", "lr_adapt"),
        ("otam-lite", "--temperature", "nan", "temperature"),
    ],
)
def test_train_rejects_bad_schedule_and_rates(
    bench_dir, tmp_path, capsys, method, flag, value, field
):
    out = tmp_path / "model.fsvm"
    rc = main(
        ["train", "--method", method,
         "--manifest", str(bench_dir / "bench" / "manifest.json"),
         "--out", str(out), flag, value]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")
    assert "Traceback" not in err
    assert not out.exists()


def test_unknown_method_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--method", "svm", "--manifest", "x", "--out", "y"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--bogus", "1"])
    assert exc.value.code == 2


def test_missing_file_is_clean_error(tmp_path, capsys):
    rc = main(
        ["eval", "--ckpt", str(tmp_path / "none.fsvm"),
         "--manifest", str(tmp_path / "none.json"),
         "--report", str(tmp_path / "r.json")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_selftest_subcommand_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "fsvc.cli", "selftest"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS") == 6
    assert "FAIL" not in proc.stdout


def test_gen_unwritable_feature_file_is_clean_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    blocked = tmp_path / "out" / "features" / "cls000" / "cls000_v001.fsvf"
    blocked.mkdir(parents=True)
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: {str(blocked)!r}\n"


@pytest.mark.parametrize(
    "rename, message",
    [(None, "is listed twice"), ("dup_v", "is also video")],
)
def test_duplicate_manifest_video_is_clean_error(bench_dir, tmp_path, rename, message):
    doc = json.loads((bench_dir / "bench" / "manifest.json").read_text())
    row = list(doc["videos"][0])
    if rename is not None:
        row[0] = rename  # a new id for the same file
    doc["videos"].append(row)
    manifest = bench_dir / "bench" / f"dup_{rename}.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "model.fsvm"
    proc = _run_cli(
        "train", "--method", "baseline", "--manifest", str(manifest), "--out", str(out)
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr and repr(row[0]) in proc.stderr
    assert not out.exists()


@pytest.fixture(scope="module")
def baseline_ckpt(bench_dir):
    from fsvc.heads import init_head
    from fsvc.protocols import MethodConfig, TrainedModel, init_embedding, save_checkpoint

    path = bench_dir / "untrained-baseline.fsvm"
    gen = np.random.default_rng(0)
    emb = init_embedding(gen, 8, SPEC["feature_dim"])
    head = init_head(gen, SPEC["n_train_classes"], 8)
    save_checkpoint(TrainedModel(emb, head, None, MethodConfig("baseline", embed_dim=8)), path)
    return path


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("iters_adapt", 1.5, "an integer"),  # was a TypeError traceback
        # these loaded silently and changed the report fingerprint
        ("embed_dim", 8.0, "an integer"),
        ("saliency_heads", 4.0, "an integer"),
        ("lr_adapt", True, "a real number"),
        # was an OverflowError traceback
        pytest.param("lr_adapt", 10**400, "a real number", id="lr_adapt-10**400"),
        ("dtw_normalize", "yes", "a bool"),
    ],
)
def test_checkpoint_config_field_types_are_checked(
    bench_dir, baseline_ckpt, tmp_path, field, value, kind
):
    import struct

    data = baseline_ckpt.read_bytes()
    (n,) = struct.unpack_from("<I", data, 8)
    config = json.loads(data[12 : 12 + n])
    config[field] = value
    text = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "mistyped.fsvm"
    path.write_bytes(data[:8] + struct.pack("<I", len(text)) + text + data[12 + n :])
    report = tmp_path / "report.json"
    proc = _run_cli(
        "eval", "--ckpt", str(path),
        "--manifest", str(bench_dir / "bench" / "manifest.json"),
        "--episodes", "3", "--report", str(report),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {field} must be {kind}, got ")
    assert not report.exists()
