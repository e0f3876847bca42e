"""Benchmark of the fsvc package: set-up, evaluation and training.

Run from the root of a checkout of the repository:

    python3 fsvcbench/run.py --workload eval-align --seed 1001 --seconds 15 --trace 0

With ``--trace 0`` the run measures end-to-end metrics with no wrappers
installed.  With ``--trace 1`` it runs an untraced pass, then wraps the
public fsvc functions, runs a traced set-up and a fixed number of traced
rounds, and reports per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A fuller
record, with the machine and every check, goes to
``fsvcbench/out/<workload>-seed<seed>-trace<t>.json``; spans of a traced run
go to ``fsvcbench/out/spans-<workload>-seed<seed>.jsonl``.
"""

import os

# One BLAS thread and serial evaluation, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FSVC_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import RUN_SECONDS, WORKLOAD_WHY  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
DEFAULT_SEED = 1001  # WARP_SPEC seed; the standard benchmark uses seed + 1001
# setup_s is set-up wall time rescaled to a machine on which one run of
# workloads.reference_seconds takes this long (its typical time on the
# 2-core machine the benchmark was written on), so host speed drift cancels
REF_NOMINAL_S = 0.015

# Serial figures of the re-anchor table in ROADMAP.md, for the cross-check
# printed by traced runs.
REANCHOR_MS_PER_EPISODE = {
    "meta-baseline": 0.33,
    "cmn-lite": 0.52,
    "otam-lite": 0.80,
    "baseline": 3.99,
    "baseline-plus": 3.87,
}
REANCHOR_SAMPLE_EPISODE_MS = (0.09, 0.15)
REANCHOR_TRAIN_HEAD_SHARE = 4.6 / 7.3  # validation adaptation in baseline-plus training
REANCHOR_DTW_SHARE = 0.47 / 2.3  # dtw in otam-lite training


def import_fsvc() -> None:
    """Import fsvc from this checkout's sources, or exit with an error."""
    init = SRC / "fsvc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout of the fsvc repository")
    sys.path.insert(0, str(SRC))
    import fsvc

    if Path(fsvc.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported fsvc from {fsvc.__file__}, expected {init}")


def git_sha() -> str:
    """Commit of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_lib = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_lib,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "fsvc_threads": "unset (serial)",
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def mix_and_gmean(per_case: dict[str, float]) -> tuple[float, float]:
    """Sum and geometric mean of the per-case figures."""
    values = list(per_case.values())
    if not values:
        raise RuntimeError("no operation completed")
    return sum(values), math.exp(statistics.fmean(math.log(v) for v in values))


def timed_setup(w) -> tuple[float, float]:
    """Wall time of one set-up and the mean reference time around it."""
    from workloads import reference_seconds

    w.ops += 1
    before = reference_seconds()
    started = time.perf_counter()
    w.setup()
    elapsed = time.perf_counter() - started
    ref = (before + reference_seconds()) / 2.0
    gc.collect()
    return elapsed, ref


def run_untraced(w, seconds: float):
    """End-to-end metrics and the log of the timed rounds."""
    from workloads import RoundLog

    first, _ = timed_setup(w)  # creates the files; see Workload.setup_dir
    setups = [timed_setup(w) for _ in range(w.scale.setup_repeats)]
    setup_s = statistics.median(REF_NOMINAL_S * wall / ref for wall, ref in setups)
    w.warm_up()
    log = RoundLog()
    rounds = w.run_rounds(log, 0, None, seconds)
    rss = peak_rss_mb()  # before the checks, which are not part of the workload
    w.run_checks()
    w.checks.add("every case timed", len(log.times) == len(w.cases))
    mix_rel, gmean_rel = mix_and_gmean(log.relative())
    mix_s, _ = mix_and_gmean(log.medians())
    print(
        f"# {rounds} timed rounds, {len(w.cases)} cases; set-up creating files "
        f"{first:.3f}s, timed set-ups {[round(wall, 3) for wall, _ in setups]}s wall, "
        f"median {setup_s:.3f}s at reference speed"
    )
    print(f"# mix of per-case medians: {1000 * mix_s:.4f} ms wall time, {mix_rel:.4f} reference units")
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "mix_rel": mix_rel,
        "gmean_rel": gmean_rel,
    }
    return metrics, log


def run_traced(w, seconds: float, spans_path: Path):
    """Per-layer metrics and the log of the untraced rounds."""
    import metrics as defs
    from tracer import Tracer, func_stats, installed_wrappers, self_times, under
    from workloads import EvalWorkload, RoundLog

    is_eval = isinstance(w, EvalWorkload)
    timed_setup(w)  # creates the files; see Workload.setup_dir
    setup_untraced, _ = timed_setup(w)
    w.warm_up()
    log_u = RoundLog()
    w.run_rounds(log_u, 0, None, seconds / 2.0)
    fan = w.fanout(2) if is_eval else None

    rounds = w.scale.traced_rounds_eval if is_eval else w.scale.traced_rounds_train
    tracer = Tracer()
    log_t = RoundLog()
    tracer.install()
    try:
        tracer.run = "setup"
        setup_traced, _ = timed_setup(w)
        tracer.run = "measure"
        w.run_rounds(log_t, 0, rounds, 0.0)
    finally:
        tracer.uninstall()
    w.checks.add("no wrappers left after tracing", not installed_wrappers())
    w.run_checks()

    spans = tracer.spans
    selfs = self_times(spans)
    w.checks.add("span self times >= 0", min(selfs, default=0.0) >= -1e-9)
    stats = func_stats(spans, selfs, "measure")
    setup_stats = func_stats(spans, selfs, "setup")

    vals: dict[str, float] = {}
    for name, st in stats.items():
        for stat in ("calls", "self_s", "total_s", "p50_us", "tail_us"):
            vals[f"{name}.{stat}"] = getattr(st, stat)
    vals["core.read_feature_file.bytes"] = stats["core.read_feature_file"].work
    vals["protocols.save_checkpoint.bytes"] = stats["protocols.save_checkpoint"].work
    vals["align.dtw.cells"] = stats["align.dtw"].work
    adapt_ids = [
        s.id for s in spans if s.run == "measure" and s.name == "protocols.adapt_and_predict"
    ]
    _, videos = under(spans, adapt_ids, ("protocols.embed_frames",))
    vals["protocols.embed_frames.videos_per_episode"] = videos / len(adapt_ids) if adapt_ids else 0.0
    vals["protocols.embed.useful_share"] = (
        w.touched_videos(rounds) / videos if is_eval and videos else 0.0
    )
    vals["harness.fanout2_speedup"] = fan[0] / fan[1] if fan else 0.0
    for func, stat in defs.SETUP:
        vals[f"setup.{func}.{stat}"] = getattr(setup_stats[func], stat)

    per_case = log_u.medians()
    for c in defs.EVAL_CASES:
        vals[f"eval_eps.{c}"] = 1.0 / per_case[c] if is_eval and c in per_case else 0.0
    for m in defs.TRAIN_CASES:
        vals[f"train_s.{m}"] = per_case[m] if not is_eval and m in per_case else 0.0
        vals[f"train.{m}.val_share"] = 0.0
    vals["train.baseline-plus.train_head_share"] = 0.0
    vals["train.otam-lite.dtw_share"] = 0.0
    if not is_eval:
        roots = [
            s for s in spans
            if s.run == "measure" and s.parent == -1 and s.name == "protocols.train_model"
        ]
        order = [c.method for r in range(rounds) for c in w.order(r)]
        for span, method in zip(roots, order):
            dur = span.end - span.start
            vals[f"train.{method}.val_share"] = (
                under(spans, [span.id], ("protocols.adapt_and_predict",))[0] / dur
            )
            if method == "baseline-plus":
                vals["train.baseline-plus.train_head_share"] = (
                    under(spans, [span.id], ("heads.train_head",))[0] / dur
                )
            if method == "otam-lite":
                vals["train.otam-lite.dtw_share"] = under(spans, [span.id], ("align.dtw",))[0] / dur
    mix_u, _ = mix_and_gmean(log_u.relative())
    mix_t, _ = mix_and_gmean(log_t.relative())
    vals["trace.overhead"] = mix_t / mix_u
    vals["trace.failed_calls"] = sum(int(s.failed) for s in spans)

    # call counts must match the values derived from the workload exactly
    expected = w.expected_counts(rounds)
    for name in defs.measured_span_names():
        want = expected.get(name, 0)
        got = stats[name].calls
        w.checks.add(f"calls {name}", got == want, f"traced {got}, derived {want}")
    for name, got in (
        ("protocols.embed_frames.videos", stats["protocols.embed_frames"].work),
        ("align.dtw.cells", stats["align.dtw"].work),
    ):
        want = expected.get(name, 0)
        w.checks.add(f"work {name}", got == want, f"traced {got}, derived {want}")

    print(f"# traced: {rounds} rounds, {len(spans)} spans, set-up {setup_traced:.3f}s traced vs {setup_untraced:.3f}s untraced")
    for name in defs.LATENCY:
        st = stats[name]
        if st.calls:
            print(
                f"# layer {name}: {st.calls} calls, self {st.self_s:.4f}s, total {st.total_s:.4f}s, "
                f"p50 {st.p50_us:.1f}us, p{st.tail_pct:g} {st.tail_us:.1f}us"
            )
    print_reanchor(w, per_case, stats, vals, is_eval)
    tracer.write_jsonl(spans_path)
    return {n: vals[n] for n, _, _ in defs.per_layer()}, log_u


def print_reanchor(w, per_case, stats, vals, is_eval) -> None:
    """Traced figures beside the re-anchor table of ROADMAP.md."""
    if is_eval:
        for c in w.cases:
            if c.name in per_case and c.name in REANCHOR_MS_PER_EPISODE:
                print(
                    f"# re-anchor: {c.name} {1000 * per_case[c.name]:.3f} ms/episode serial "
                    f"(ROADMAP {REANCHOR_MS_PER_EPISODE[c.name]:.2f})"
                )
    lo, hi = REANCHOR_SAMPLE_EPISODE_MS
    st = stats["harness.sample_episode"]
    if st.calls:
        print(f"# re-anchor: sample_episode p50 {st.p50_us / 1000:.3f} ms (ROADMAP {lo}-{hi})")
    if not is_eval:
        print(
            f"# re-anchor: train_head share of baseline-plus training "
            f"{vals['train.baseline-plus.train_head_share']:.2f} (ROADMAP {REANCHOR_TRAIN_HEAD_SHARE:.2f})"
        )
        print(
            f"# re-anchor: dtw share of otam-lite training "
            f"{vals['train.otam-lite.dtw_share']:.2f} (ROADMAP {REANCHOR_DTW_SHARE:.2f})"
        )


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    """One benchmark run; returns the full record, ending in the result line."""
    import metrics as defs
    from workloads import FULL, WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{stem}-", dir=OUT))
    w = WORKLOADS[workload](scale or FULL, seed, workdir)
    try:
        if trace:
            metrics, log = run_traced(w, seconds, OUT / f"spans-{stem}.jsonl")
            units = {n: u for n, u, _ in defs.per_layer()}
        else:
            metrics, log = run_untraced(w, seconds)
            units = {n: u for n, u, _, _ in defs.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    per_case = log.medians()

    for case in w.cases:
        if case.name in per_case:
            acc = getattr(w, "accuracies", {}).get(case.name)
            acc_text = f", accuracy {acc:.4f}" if acc is not None else ""
            print(f"# case {case.name}: {1000 * per_case[case.name]:.4f} ms per {w.op_unit}{acc_text}")
    for name, ok, detail in w.checks.results:
        if not ok:
            print(f"# check FAILED: {name} {detail}")
    print(f"# {len(w.checks.results)} checks, {w.checks.failed} failed; {w.ops} operations, {w.op_failures} raised")
    for name, value in metrics.items():
        print(f"# metric {name} {value:.6g} {units[name]}")

    failed = w.checks.failed + w.op_failures
    result = {
        "correct": failed == 0,
        "attempted": len(w.checks.results) + w.ops,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    record = {
        "machine": machine_record(workload, seed),
        "trace": int(trace),
        "per_case_s": per_case,
        "round_s": log.times,
        "round_ref_s": log.refs,
        "checks": [list(c) for c in w.checks.results],
        "result": result,
    }
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[n for n, _ in WORKLOAD_WHY])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_fsvc()
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print("error: benchmark run failed before producing a result", file=sys.stderr)
        return 1
    print("# machine " + json.dumps(record["machine"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
