"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Benchmark parameters and thresholds for the directional criteria
(5, 6, 7) were confirmed by calibration runs before being frozen here.
"""

import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from fsvc.align import dtw, dtw_bruteforce, path_cost, validate_path
from fsvc.core import RngStream, load_split
from fsvc.harness import (
    accuracy_vector,
    build_splits,
    ci95_halfwidth,
    evaluate,
    report_bytes,
)
from fsvc.protocols import (
    MethodConfig,
    train_classification,
    meta_train,
)
from fsvc.selftest import check_gradients, check_imprint_argmax
from fsvc.synthdata import GeneratorSpec, gen_benchmark


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. DTW oracle equivalence


def test_criterion_1_dtw_oracle_equivalence():
    gen = RngStream(101, 0).generator()
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        tq = int(gen.integers(2, 5))
        ts = int(gen.integers(2, 5))
        d = gen.random((tq, ts)) * 2.0
        cost, path = dtw(d)
        brute = dtw_bruteforce(d)
        worst = max(worst, abs(cost - brute))
        validate_path(path, (tq, ts))
        assert abs(path_cost(d, path) - cost) <= 1e-9
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, ok, f"max |dp - bruteforce| {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. gradient suite


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    details = []
    ok = True
    for kind in ("classification", "meta-baseline", "cmn-lite", "otam-lite"):
        failure = check_gradients(kind, n_points=100, tol=1e-4, seed=202)
        details.append(f"{kind}: {'ok' if failure is None else failure}")
        ok = ok and failure is None
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(2, ok, f"{'; '.join(details)}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. imprinting argmax equivalence


def test_criterion_3_imprint_argmax_equivalence():
    failure = check_imprint_argmax(n_episodes=1000, seed=303)
    _report(3, failure is None, failure or "1000 episodes, exact agreement")


# ---------------------------------------------------------------------------
# 4. noiseless sanity: every method scores 100%


NOISELESS_SPEC = GeneratorSpec(
    n_train_classes=6,
    n_val_classes=5,
    n_test_classes=6,
    videos_per_class=4,
    feature_dim=32,
    frame_count=8,
    prototype_len=32,
    noise_sigma=0.0,
    warp_strength=0.0,
    seed=404,
)


def test_criterion_4_noiseless_sanity(tmp_path):
    manifest = gen_benchmark(NOISELESS_SPEC, tmp_path / "clean")
    test_data = load_split(manifest, "test")
    results = {}
    for method in ("baseline", "baseline-plus"):
        # lr_adapt large enough that the disposable head interpolates its
        # 5 support samples within the fixed 100-iteration budget
        cfg = MethodConfig(
            method=method,
            n_way=5,
            k_shot=1,
            seed=0,
            embed_dim=16,
            lr_adapt=1e-2,
            train_steps=400,
            val_every=100,
            val_episodes=50,
        )
        model = train_classification(manifest, cfg)
        results[method] = accuracy_vector(model, cfg, test_data, 2000).mean()
    for method in ("meta-baseline", "cmn-lite", "otam-lite"):
        cfg = MethodConfig(
            method=method,
            n_way=5,
            k_shot=1,
            seed=0,
            embed_dim=16,
            episodes_per_epoch=100,
            max_epochs=2,
            val_episodes=50,
        )
        model = meta_train(manifest, cfg)
        results[method] = accuracy_vector(model, cfg, test_data, 2000).mean()
    ok = all(acc == 1.0 for acc in results.values())
    detail = ", ".join(f"{m} {a:.4f}" for m, a in results.items())
    _report(4, ok, detail)


# ---------------------------------------------------------------------------
# 5. alignment pays under warping


WARP_SPEC = GeneratorSpec(
    n_train_classes=10,
    n_val_classes=5,
    n_test_classes=8,
    videos_per_class=15,
    feature_dim=32,
    frame_count=8,
    prototype_len=32,
    noise_sigma=0.3,
    warp_strength=0.7,
    seed=1001,
)


def test_criterion_5_alignment_pays_under_warping(tmp_path):
    manifest = gen_benchmark(WARP_SPEC, tmp_path / "warp")
    test_data = load_split(manifest, "test")
    gaps = []
    for seed in range(5):
        accs = {}
        for method in ("meta-baseline", "otam-lite"):
            cfg = MethodConfig(
                method=method,
                n_way=5,
                k_shot=1,
                seed=seed,
                embed_dim=16,
                episodes_per_epoch=200,
                max_epochs=6,
                patience=2,
                val_episodes=100,
            )
            model = meta_train(manifest, cfg)
            accs[method] = accuracy_vector(model, cfg, test_data, 2000).mean()
        gaps.append(accs["otam-lite"] - accs["meta-baseline"])
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 0.03
    _report(5, ok, f"otam - meta-baseline = {100 * mean_gap:+.2f} points (>= 3)")


# ---------------------------------------------------------------------------
# 6. baseline-plus >= baseline on the standard benchmark


STANDARD_SPEC = GeneratorSpec(
    n_train_classes=64,
    n_val_classes=12,
    n_test_classes=24,
    videos_per_class=40,
    feature_dim=64,
    frame_count=8,
    prototype_len=32,
    noise_sigma=0.5,
    warp_strength=0.1,
    seed=2002,
)


def _classifier_cfg(method, seed, k_shot=1):
    return MethodConfig(
        method=method,
        n_way=5,
        k_shot=k_shot,
        seed=seed,
        embed_dim=64,
        train_steps=3500,
        val_every=350,
        val_episodes=100,
    )


@pytest.fixture(scope="module")
def standard_bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("standard")
    return gen_benchmark(STANDARD_SPEC, out)


def test_criterion_6_baseline_plus_beats_baseline(standard_bench):
    test_data = load_split(standard_bench, "test")
    diffs = []
    for seed in range(5):
        accs = {}
        for method in ("baseline", "baseline-plus"):
            cfg = _classifier_cfg(method, seed)
            model = train_classification(standard_bench, cfg)
            accs[method] = accuracy_vector(model, cfg, test_data, 2000).mean()
        diffs.append(accs["baseline-plus"] - accs["baseline"])
    wins = sum(d > 0 for d in diffs)
    mean_diff = float(np.mean(diffs))
    ok = mean_diff >= 0.0 and wins >= 4
    _report(
        6,
        ok,
        f"plus - baseline = {100 * mean_diff:+.2f} points, wins {wins}/5",
    )


# ---------------------------------------------------------------------------
# 7. more base data helps (per-class cap contrast, 5-shot)

# Correlated feature columns put all classes in a shared subspace whose
# estimation quality, unlike per-class means, keeps improving with base-data
# volume; noise 1.2 makes that quality matter at test time.
DATA_SCALE_SPEC = GeneratorSpec(
    n_train_classes=64,
    n_val_classes=12,
    n_test_classes=24,
    videos_per_class=80,
    feature_dim=64,
    frame_count=8,
    prototype_len=32,
    noise_sigma=1.2,
    warp_strength=0.1,
    seed=2002,
    feature_corr=2.0,
)


def test_criterion_7_more_base_data_helps(tmp_path):
    manifest = gen_benchmark(DATA_SCALE_SPEC, tmp_path / "scale")
    gaps = []
    for seed in range(5):
        accs = {}
        for cap in (10, None):
            splits = build_splits(manifest, 64, 12, 24, cap=cap, seed=3000)
            cfg = _classifier_cfg("baseline-plus", seed, k_shot=5)
            model = train_classification(splits, cfg)
            accs[cap] = accuracy_vector(
                model, cfg, load_split(splits, "test"), 2000
            ).mean()
        gaps.append(accs[None] - accs[10])
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 0.03
    _report(7, ok, f"cap-inf - cap-10 = {100 * mean_gap:+.2f} points (>= 3)")


# ---------------------------------------------------------------------------
# 8. confidence-interval statistics


def test_criterion_8_statistics():
    gen = RngStream(808, 0).generator()
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 500))
        v = (gen.random(n) < gen.random()).astype(float)
        if v.std() == 0:
            v[0] = 1.0 - v[0]
        independent = 1.96 * statistics.stdev(v.tolist()) / np.sqrt(n)
        worst = max(worst, abs(ci95_halfwidth(v) - independent))
    alternating = np.tile([0.0, 1.0], 5000)
    closed_form = 1.96 * 0.5 * np.sqrt(10000 / 9999) / 100
    exact = abs(ci95_halfwidth(alternating) - closed_form)
    ok = worst <= 1e-12 and exact <= 1e-15
    _report(8, ok, f"max dev vs statistics.stdev {worst:.2e}, alternating dev {exact:.2e}")


# ---------------------------------------------------------------------------
# 9. determinism and performance of evaluation


def test_criterion_9_determinism_and_performance(tmp_path, monkeypatch):
    manifest = gen_benchmark(WARP_SPEC, tmp_path / "perf")
    cfg = MethodConfig(
        method="baseline-plus",
        n_way=5,
        k_shot=1,
        seed=0,
        embed_dim=16,
        train_steps=600,
        val_every=200,
        val_episodes=60,
    )
    model = train_classification(manifest, cfg)

    monkeypatch.setenv("FSVC_THREADS", "0")
    started = time.perf_counter()
    serial = evaluate(model, cfg, manifest, n_episodes=10000)
    elapsed = time.perf_counter() - started
    serial_again = evaluate(model, cfg, manifest, n_episodes=10000)
    monkeypatch.setenv("FSVC_THREADS", "4")
    threaded = evaluate(model, cfg, manifest, n_episodes=10000)

    same_runs = report_bytes(serial) == report_bytes(serial_again)
    same_threads = report_bytes(serial) == report_bytes(threaded)
    ok = elapsed < 60.0 and same_runs and same_threads
    _report(
        9,
        ok,
        f"10k episodes serial {elapsed:.1f}s (< 60), "
        f"byte-identical runs={same_runs}, threads={same_threads}",
    )
