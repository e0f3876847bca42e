"""Self-tests of the benchmark at a tiny size.

Run from the root of a checkout:  python3 fsvcbench/selfcheck.py

For every workload, one untraced and one traced run at the TINY scale must
pass every output check, print every metric of BENCHMARK.json with its unit,
reproduce the derived call counts exactly (`calls ...` checks), keep span self
times non-negative and leave no tracing wrapper installed.
"""

import json
import sys

import run  # sets the BLAS and FSVC_THREADS environment first
import metrics
from tracer import installed_wrappers


def check_benchmark_json() -> list[str]:
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = metrics.benchmark_doc(metrics.RUN_SECONDS)
    return [] if on_disk == want else ["BENCHMARK.json differs from metrics.benchmark_doc()"]


def check_case_names() -> list[str]:
    from workloads import WORKLOADS, Train

    eval_cases = {c.name for w in WORKLOADS.values() if w is not Train for c in w.cases}
    train_cases = {c.name for c in Train.cases}
    problems = []
    if eval_cases != set(metrics.EVAL_CASES) or train_cases != set(metrics.TRAIN_CASES):
        problems.append("case names in metrics.py differ from the workloads")
    if set(WORKLOADS) != {n for n, _ in metrics.WORKLOAD_WHY}:
        problems.append("workload names in metrics.py differ from the workloads")
    return problems


def check_run(workload: str, trace: bool, scale) -> list[str]:
    record = run.run(workload, seed=3, seconds=0.01, trace=trace, scale=scale)
    result = record["result"]
    problems = []
    if not result["correct"]:
        bad = [c for c in record["checks"] if not c[1]]
        problems.append(f"{workload} trace={int(trace)}: failed {result['failed']}: {bad}")
    if trace:
        want = {n: u for n, u, _ in metrics.per_layer()}
        names = {c[0] for c in record["checks"]}
        for required in ("span self times >= 0", "no wrappers left after tracing", "calls align.dtw"):
            if required not in names:
                problems.append(f"{workload}: check {required!r} did not run")
    else:
        want = {n: u for n, u, _, _ in metrics.END_TO_END}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{workload} trace={int(trace)}: metric names or units differ from BENCHMARK.json")
    if installed_wrappers():
        problems.append(f"{workload}: wrappers left installed: {installed_wrappers()}")
    return problems


def main() -> int:
    run.import_fsvc()
    from workloads import TINY

    problems = check_benchmark_json() + check_case_names()
    for workload, _ in metrics.WORKLOAD_WHY:
        for trace in (False, True):
            problems += check_run(workload, trace, TINY)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
