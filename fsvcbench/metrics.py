"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json at the repository root is generated from these lists
(`python3 fsvcbench/metrics.py > BENCHMARK.json`) and `selfcheck.py` checks
that the two agree.
"""

from __future__ import annotations

import json

# (name, unit, better, bound): printed by every workload with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("mix_rel", "ref", "lower", 0.25),
    ("gmean_rel", "ref", "lower", 0.25),
)

WORKLOAD_WHY = (
    ("eval-align", "metric methods on the warped benchmark: align and method_scores do the work, heads is never called"),
    ("eval-adapt", "classifier methods 1- and 5-shot on the 8x larger standard test split: heads.train_head dominates, align is never called"),
    ("train", "train_model plus checkpoint round trip for all five methods: the write path with backward passes, Adam and validation adaptation"),
)

EVAL_CASES = (
    "meta-baseline",
    "cmn-lite",
    "otam-lite",
    "baseline",
    "baseline-plus",
    "baseline-plus-5shot",
)
TRAIN_CASES = ("meta-baseline", "cmn-lite", "otam-lite", "baseline", "baseline-plus")

# functions traced only in set-up; every other traced function also gets
# measured-phase metrics
SETUP_ONLY = ("synthdata.gen_benchmark", "core.load_manifest")

# functions whose total time differs from their self time (they have traced
# children) and is worth its own metric
TOTAL_S = (
    "harness.accuracy_vector",
    "protocols.method_scores",
    "protocols.adapt_and_predict",
    "protocols.classification_loss_and_grads",
    "protocols.metabaseline_loss_and_grads",
    "protocols.cmn_loss_and_grads",
    "protocols.otam_loss_and_grads",
    "protocols.train_model",
    "align.otam_similarity",
    "align.saliency_similarity",
)

# per-call functions whose latency distribution is reported
LATENCY = (
    "harness.sample_episode",
    "protocols.episode_arrays",
    "protocols.embed_frames",
    "protocols.method_scores",
    "protocols.adapt_and_predict",
    "protocols.classification_loss_and_grads",
    "protocols.metabaseline_loss_and_grads",
    "protocols.cmn_loss_and_grads",
    "protocols.otam_loss_and_grads",
    "heads.train_head",
    "heads.adam_step",
    "align.dtw",
    "align.frame_distance_matrix",
    "align.otam_similarity",
    "align.multi_saliency",
    "align.saliency_similarity",
)

# (function, stat) measured over the traced set-up
SETUP = (
    ("synthdata.gen_benchmark", "total_s"),
    ("core.load_manifest", "total_s"),
    ("core.read_feature_file", "calls"),
    ("core.read_feature_file", "total_s"),
    ("harness.load_split", "total_s"),
    ("protocols.train_model", "total_s"),
    ("protocols.save_checkpoint", "total_s"),
    ("protocols.load_checkpoint", "total_s"),
)

def measured_span_names() -> tuple[str, ...]:
    """Traced functions that get measured-phase metrics."""
    from tracer import SPAN_NAMES

    return tuple(n for n in SPAN_NAMES if n not in SETUP_ONLY)


UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_us": "us", "tail_us": "us"}


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric printed with --trace 1."""
    out: list[tuple[str, str, str]] = []
    for name in measured_span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in TOTAL_S:
            out.append((f"{name}.total_s", "s", "lower"))
        if name in LATENCY:
            out.append((f"{name}.p50_us", "us", "lower"))
            out.append((f"{name}.tail_us", "us", "lower"))
    out += [
        ("core.read_feature_file.bytes", "B", "lower"),
        ("protocols.save_checkpoint.bytes", "B", "lower"),
        ("align.dtw.cells", "count", "lower"),
        ("protocols.embed_frames.videos_per_episode", "count", "lower"),
        ("protocols.embed.useful_share", "ratio", "higher"),
        ("harness.fanout2_speedup", "ratio", "higher"),
    ]
    out += [(f"setup.{f}.{stat}", UNITS[stat], "lower") for f, stat in SETUP]
    out += [(f"eval_eps.{c}", "1/s", "higher") for c in EVAL_CASES]
    out += [(f"train_s.{m}", "s", "lower") for m in TRAIN_CASES]
    out += [(f"train.{m}.val_share", "ratio", "lower") for m in TRAIN_CASES]
    out += [
        ("train.baseline-plus.train_head_share", "ratio", "lower"),
        ("train.otam-lite.dtw_share", "ratio", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.failed_calls", "count", "lower"),
    ]
    return out


def benchmark_doc(run_seconds: int) -> dict:
    return {
        "command": ["python3", "fsvcbench/run.py"],
        "paths": ["fsvcbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


RUN_SECONDS = 15

if __name__ == "__main__":
    print(json.dumps(benchmark_doc(RUN_SECONDS), indent=2))
