"""The three benchmark workloads and their output checks.

Every workload is a closed loop with one caller: the next call into fsvc
starts only when the previous one has returned.  A workload is set up, then
warmed up by one untimed pass, then runs rounds; every round performs the
same operations, one per case, in an order rotated by the round number so no
case always runs first.

* ``eval-align``: episodic evaluation of the three metric methods on the
  warped benchmark.  Alignment (DTW, saliency, cosines) and
  ``protocols.method_scores`` do the work; ``heads`` is never called.
* ``eval-adapt``: episodic evaluation of the two classifier methods on the
  standard benchmark, 1-shot and 5-shot.  ``heads.train_head`` dominates;
  ``align`` is never called.
* ``train``: ``train_model`` for all five methods plus the checkpoint round
  trip that ``fsvc train`` performs.  This is the write path: backward
  passes, Adam updates and validation adaptation.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# fsvc functions are called through their modules so that a tracer
# installed on the module attributes sees every call the benchmark makes
from fsvc import core, harness, protocols, synthdata
from fsvc.core import RngStream
from fsvc.harness import EvalReport, ci95_halfwidth, report_bytes
from fsvc.protocols import CLASSIFIER_METHODS, METHODS, METRIC_METHODS, MethodConfig
from fsvc.synthdata import MANIFEST_NAME, GeneratorSpec

N_WAY = 5
# a method passes the above-chance check when its accuracy is this many
# binomial standard errors above 1 / N_WAY
CHANCE_Z = 3.0
# criterion 5 of the acceptance suite: alignment pays under warping
ALIGN_GAP = 0.03


def warp_spec(seed: int, tiny: bool = False) -> GeneratorSpec:
    """WARP_SPEC of the acceptance suite (seed 1001 there)."""
    if tiny:
        return GeneratorSpec(6, 5, 6, 5, 8, 4, 12, 0.3, 0.7, seed)
    return GeneratorSpec(10, 5, 8, 15, 32, 8, 32, 0.3, 0.7, seed)


def standard_spec(seed: int, tiny: bool = False) -> GeneratorSpec:
    """STANDARD_SPEC of the acceptance suite (seed 2002 there)."""
    if tiny:
        return GeneratorSpec(8, 5, 6, 7, 12, 4, 12, 0.5, 0.1, seed)
    return GeneratorSpec(64, 12, 24, 40, 64, 8, 32, 0.5, 0.1, seed)


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run; FULL is what the benchmark measures."""

    tiny: bool
    setup_repeats: int  # timed set-ups, after one untimed set-up that creates the files
    align_episodes: int  # per case and round on eval-align
    adapt_episodes: int  # per case and round on eval-adapt
    align_spot_every: int
    adapt_spot_every: int
    # test episodes of the above-chance check of each model trained on
    # `train`: (metric method, classifier method).  The metric methods score
    # near 0.27 on the warped benchmark, so they need more episodes for the
    # check to have power; they are also about ten times cheaper per episode.
    check_episodes: tuple[int, int]
    traced_rounds_eval: int
    traced_rounds_train: int
    min_rounds: int
    # training schedules: (episodes_per_epoch, max_epochs, val_episodes) for
    # the metric methods, (train_steps, val_every, val_episodes) for the
    # classifier methods
    align_setup_schedule: tuple[int, int, int]
    adapt_setup_schedule: tuple[int, int, int]
    train_metric_schedule: tuple[int, int, int]
    train_classifier_schedule: tuple[int, int, int]


FULL = Scale(
    tiny=False,
    setup_repeats=3,
    align_episodes=300,
    adapt_episodes=30,
    align_spot_every=50,
    adapt_spot_every=10,
    check_episodes=(3000, 300),
    traced_rounds_eval=3,
    traced_rounds_train=1,
    min_rounds=3,
    align_setup_schedule=(100, 2, 50),
    adapt_setup_schedule=(350, 350, 50),
    train_metric_schedule=(200, 2, 100),
    train_classifier_schedule=(350, 350, 100),
)

TINY = Scale(
    tiny=True,
    setup_repeats=2,
    align_episodes=12,
    adapt_episodes=4,
    align_spot_every=4,
    adapt_spot_every=2,
    check_episodes=(20, 20),
    traced_rounds_eval=2,
    traced_rounds_train=1,
    min_rounds=2,
    align_setup_schedule=(10, 1, 5),
    adapt_setup_schedule=(20, 10, 5),
    train_metric_schedule=(8, 2, 4),
    train_classifier_schedule=(12, 6, 4),
)


def metric_cfg(method: str, seed: int, schedule: tuple[int, int, int], tiny: bool) -> MethodConfig:
    """Criterion-5 config with a shortened schedule.

    ``patience`` equals ``max_epochs``, so early stopping never fires and every
    seed trains the same number of episodes.
    """
    per_epoch, epochs, val = schedule
    return MethodConfig(
        method=method,
        n_way=N_WAY,
        k_shot=1,
        seed=seed,
        embed_dim=4 if tiny else 16,
        episodes_per_epoch=per_epoch,
        max_epochs=epochs,
        patience=epochs,
        val_episodes=val,
    )


def classifier_cfg(method: str, seed: int, schedule: tuple[int, int, int], tiny: bool) -> MethodConfig:
    """`_classifier_cfg` of the acceptance suite with a shortened schedule.

    The ratio of training steps to validation episodes is kept, so
    validation adaptation keeps its share of training time.
    """
    steps, every, val = schedule
    return MethodConfig(
        method=method,
        n_way=N_WAY,
        k_shot=1,
        seed=seed,
        embed_dim=8 if tiny else 64,
        train_steps=steps,
        val_every=every,
        val_episodes=val,
    )


def val_passes(cfg: MethodConfig) -> int:
    """Validation passes one training run makes (early stopping disabled)."""
    if cfg.method in METRIC_METHODS:
        return cfg.max_epochs
    return sum(
        1
        for step in range(1, cfg.train_steps + 1)
        if step % cfg.val_every == 0 or step == cfg.train_steps
    )


# ---------------------------------------------------------------------------
# checks


@dataclass
class Checks:
    """Outcomes of output checks; each one is an attempted operation."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def above_chance(acc: float, n: int) -> tuple[bool, str]:
    p = 1.0 / N_WAY
    z = (acc - p) / np.sqrt(p * (1.0 - p) / n)
    return z >= CHANCE_Z, f"accuracy {acc:.4f} over {n} episodes, z={z:.1f}"


# ---------------------------------------------------------------------------
# call counts a traced run must reproduce exactly


def _add(counts: dict[str, int], name: str, n: int) -> None:
    counts[name] = counts.get(name, 0) + n


def adapt_counts(counts: dict[str, int], cfg: MethodConfig, k: int, episodes: int, frames: int) -> None:
    """Traced calls made by `episodes` calls of adapt_and_predict.

    Besides `<function>` call counts this fills `protocols.embed_frames.videos`
    (videos embedded) and `align.dtw.cells` (DTW matrix cells).
    """
    n = episodes
    videos = 1 + N_WAY * k
    _add(counts, "protocols.adapt_and_predict", n)
    _add(counts, "protocols.episode_arrays", n)
    _add(counts, "protocols.embed_frames.videos", n * videos)
    if cfg.method in METRIC_METHODS:
        _add(counts, "protocols.method_scores", n)
    if cfg.method == "meta-baseline":
        _add(counts, "protocols.embed_frames", n * (1 + N_WAY))
        _add(counts, "align.cosine", n * N_WAY)
    elif cfg.method == "cmn-lite":
        _add(counts, "protocols.embed_frames", n * videos)
        _add(counts, "align.multi_saliency", n * videos)
        _add(counts, "align.saliency_similarity", n * N_WAY)
        _add(counts, "align.cosine", n * N_WAY * cfg.saliency_heads)
    elif cfg.method == "otam-lite":
        _add(counts, "protocols.embed_frames", n * videos)
        for name in ("align.dtw", "align.frame_distance_matrix", "align.otam_similarity"):
            _add(counts, name, n * N_WAY * k)
        _add(counts, "align.dtw.cells", n * N_WAY * k * frames * frames)
    else:
        _add(counts, "protocols.embed_frames", n * (1 + N_WAY))
        if cfg.method == "baseline":
            _add(counts, "heads.init_head", n)
            _add(counts, "heads.train_head", n)
        else:
            _add(counts, "heads.imprint", n)
            if cfg.iters_adapt > 0:
                _add(counts, "heads.train_head", n)


LOSS = {
    "meta-baseline": "protocols.metabaseline_loss_and_grads",
    "cmn-lite": "protocols.cmn_loss_and_grads",
    "otam-lite": "protocols.otam_loss_and_grads",
}


def train_counts(counts: dict[str, int], cfg: MethodConfig, manifest) -> None:
    """Traced calls made by one train_model call (scratch init, no early stop)."""
    k = cfg.k_shot
    frames = manifest.frame_count
    _add(counts, "protocols.train_model", 1)
    _add(counts, "harness.load_split", 2)
    _add(
        counts,
        "core.read_feature_file",
        len(manifest.split_videos("train")) + len(manifest.split_videos("val")),
    )
    val = val_passes(cfg) * cfg.val_episodes
    _add(counts, "harness.sample_episode", val)
    adapt_counts(counts, cfg, k, val, frames)
    if cfg.method in METRIC_METHODS:
        n = cfg.episodes_per_epoch * cfg.max_epochs
        videos = 1 + N_WAY * k
        for name in ("harness.sample_episode", "protocols.episode_arrays", "heads.adam_step", LOSS[cfg.method]):
            _add(counts, name, n)
        _add(counts, "protocols.embed_frames.videos", n * videos)
        if cfg.method == "cmn-lite":
            _add(counts, "protocols.embed_frames", n * videos)
        else:
            _add(counts, "protocols.embed_frames", n * (1 + N_WAY))
        if cfg.method == "otam-lite":
            _add(counts, "align.dtw", n * N_WAY * k)
            _add(counts, "align.frame_distance_matrix", n * N_WAY * k)
            _add(counts, "align.dtw.cells", n * N_WAY * k * frames * frames)
    else:
        steps = cfg.train_steps
        batch = min(cfg.batch_size, len(manifest.split_videos("train")))
        for name in ("protocols.classification_loss_and_grads", "heads.adam_step", "protocols.embed_frames"):
            _add(counts, name, steps)
        _add(counts, "protocols.embed_frames.videos", steps * batch)
        _add(counts, "heads.init_head", 1)


@contextmanager
def fsvc_threads(value: str | None):
    """Run the block with FSVC_THREADS set to `value` (None: unset, serial)."""
    os.environ.pop("FSVC_THREADS", None)
    if value is not None:
        os.environ["FSVC_THREADS"] = value
    try:
        yield
    finally:
        os.environ.pop("FSVC_THREADS", None)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Case:
    name: str
    method: str
    k_shot: int = 1


_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((8, 32))
_REF_W = _REF_RNG.standard_normal((16, 32))


def reference_seconds() -> float:
    """Wall time of a fixed loop of small numpy operations.

    Its mix of interpreter work and small-array calls resembles fsvc's
    per-episode code, and it does not depend on fsvc.  Timed next to every
    operation, it measures how fast the machine runs at that moment: on a
    shared host that speed was seen to change by up to 2x within seconds.
    """
    started = time.perf_counter()
    for _ in range(1000):
        a = _REF_X @ _REF_W.T
        a = a / np.linalg.norm(a, axis=1)[:, None]
        c = a @ a.T
        float(np.exp(c - c.max()).sum())
    return time.perf_counter() - started


@dataclass
class RoundLog:
    """Per-case wall times of the timed rounds, in seconds per operation,
    and the reference time measured just before each operation."""

    times: dict[str, list[float]] = field(default_factory=dict)
    refs: dict[str, list[float]] = field(default_factory=dict)

    def add(self, case: str, seconds: float, ref: float) -> None:
        self.times.setdefault(case, []).append(seconds)
        self.refs.setdefault(case, []).append(ref)

    def medians(self) -> dict[str, float]:
        """Median seconds per operation of each case."""
        return {c: float(np.median(v)) for c, v in self.times.items()}

    def relative(self) -> dict[str, float]:
        """Median over rounds of each case's time in reference units."""
        return {
            c: float(np.median(np.divide(v, self.refs[c]))) for c, v in self.times.items()
        }


class Workload:
    name = ""
    cases: tuple[Case, ...] = ()
    op_unit = ""  # what one timed operation of a case is

    def __init__(self, scale: Scale, seed: int, workdir: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.ops = 0  # operations attempted
        self.op_failures = 0  # operations that raised
        self.models: dict = {}

    def setup_dir(self) -> Path:
        """The directory every set-up of this run generates into.

        The first set-up creates the files; later ones overwrite them, as
        `fsvc gen` over an existing benchmark does.  Creating a file costs
        about 0.5 ms of kernel time on the machine this benchmark was
        written on, and that cost grew with every file deleted before, so
        only set-ups that overwrite are timed (see run.py).
        """
        path = self.workdir / "setup"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def order(self, r: int) -> tuple[Case, ...]:
        k = r % len(self.cases)
        return self.cases[k:] + self.cases[:k]

    def run_rounds(self, log: RoundLog, first: int, count: int | None, seconds: float) -> int:
        """Run timed rounds from `first`; `count` rounds, or until `seconds`
        have passed and at least `min_rounds` rounds ran.  Returns the count."""
        started = time.perf_counter()
        r = first
        while True:
            done = r - first
            if count is not None and done >= count:
                break
            if (
                count is None
                and done >= self.scale.min_rounds
                and time.perf_counter() - started >= seconds
            ):
                break
            for case in self.order(r):
                self.ops += 1
                ref = reference_seconds()
                try:
                    log.add(case.name, self.timed_op(case, r), ref)
                except Exception as exc:  # a raising call is a failed operation
                    self.op_failures += 1
                    print(f"# operation failed: {case.name} round {r}: {exc!r}")
                # collect garbage at the same points in every run, so that the
                # peak resident set does not depend on where collection fell
                gc.collect()
            r += 1
        return r - first


# ---------------------------------------------------------------------------
# evaluation workloads


class EvalWorkload(Workload):
    op_unit = "episode"

    def __init__(self, scale: Scale, seed: int, workdir: Path) -> None:
        super().__init__(scale, seed, workdir)
        self.vectors: dict[tuple[str, int], np.ndarray] = {}

    def episodes(self) -> int:
        raise NotImplementedError

    def spot_every(self) -> int:
        raise NotImplementedError

    def spec(self) -> GeneratorSpec:
        raise NotImplementedError

    def train_cfgs(self) -> list[MethodConfig]:
        raise NotImplementedError

    def setup(self) -> None:
        """Gen, manifest and split load, then train, save and reload models."""
        out = self.setup_dir()
        synthdata.gen_benchmark(self.spec(), out / "data")
        self.manifest = core.load_manifest(out / "data" / MANIFEST_NAME)
        self.test = harness.load_split(self.manifest, "test")
        for cfg in self.train_cfgs():
            model = protocols.train_model(self.manifest, cfg)
            path = out / f"{cfg.method}.fsvm"
            protocols.save_checkpoint(model, path)
            loaded = protocols.load_checkpoint(path)
            digest = model.weight_digest()
            self.checks.add(
                f"checkpoint round trip {cfg.method}",
                loaded.weight_digest() == digest,
            )
            if cfg.method in self.models:
                self.checks.add(
                    f"set-up deterministic {cfg.method}",
                    self.models[cfg.method].weight_digest() == digest,
                )
            self.models[cfg.method] = loaded

    def round_seed(self, r: int) -> int:
        return self.seed * 4096 + r

    def case_cfg(self, case: Case, r: int) -> MethodConfig:
        model = self.models[case.method]
        return replace(model.config, n_way=N_WAY, k_shot=case.k_shot, seed=self.round_seed(r))

    def timed_op(self, case: Case, r: int) -> float:
        cfg = self.case_cfg(case, r)
        n = self.episodes()
        started = time.perf_counter()
        vec = harness.accuracy_vector(self.models[case.method], cfg, self.test, n)
        elapsed = time.perf_counter() - started
        key = (case.name, r)
        if key in self.vectors:
            self.checks.add(
                f"repeat identical {case.name} round {r}",
                np.array_equal(self.vectors[key], vec),
            )
        else:
            self.vectors[key] = vec
        return elapsed / n

    def warm_up(self) -> None:
        """One untimed pass: round 0 of every case, repeated by the timed run."""
        log = RoundLog()
        self.run_rounds(log, 0, 1, 0.0)

    def fanout(self, reps: int) -> tuple[float, float]:
        """Serial and FSVC_THREADS=2 wall time over the round-0 episodes."""
        serial, fanned = [], []
        n = self.episodes()
        for _ in range(reps):
            for threads in (None, "2"):
                total = 0.0
                for case in self.cases:
                    cfg = self.case_cfg(case, 0)
                    with fsvc_threads(threads):
                        started = time.perf_counter()
                        vec = harness.accuracy_vector(self.models[case.method], cfg, self.test, n)
                        total += time.perf_counter() - started
                    self.checks.add(
                        f"FSVC_THREADS={threads or 'unset'} vector {case.name}",
                        np.array_equal(vec, self.vectors[(case.name, 0)]),
                    )
                (serial if threads is None else fanned).append(total)
        return float(np.median(serial)), float(np.median(fanned))

    def run_checks(self) -> None:
        n = self.episodes()
        accs = {}
        for case in self.cases:
            model = self.models[case.method]
            rounds = sorted(r for c, r in self.vectors if c == case.name)
            if not rounds:
                self.checks.add(f"evaluated {case.name}", False, "no round completed")
                continue
            # report bytes: the timed vector, evaluate() serial, evaluate() fanned out
            cfg0 = self.case_cfg(case, 0)
            vec0 = self.vectors[(case.name, 0)]
            from_vector = report_bytes(
                EvalReport(
                    method=case.method,
                    n_way=N_WAY,
                    k_shot=case.k_shot,
                    episodes=n,
                    mean_accuracy=float(vec0.mean()),
                    ci95_halfwidth=ci95_halfwidth(vec0),
                    seed=cfg0.seed,
                    fingerprint=model.fingerprint,
                    wall_time=0.0,
                )
            )
            serial = report_bytes(harness.evaluate(model, cfg0, self.manifest, n))
            with fsvc_threads("2"):
                fanned = report_bytes(harness.evaluate(model, cfg0, self.manifest, n))
            self.checks.add(f"report bytes repeat {case.name}", serial == from_vector)
            self.checks.add(f"report bytes FSVC_THREADS=2 {case.name}", fanned == serial)
            # spot-check: re-predict every k-th episode on its own stream
            bad = 0
            spots = 0
            for r in rounds:
                cfg = self.case_cfg(case, r)
                vec = self.vectors[(case.name, r)]
                for e in range(0, n, self.spot_every()):
                    gen = RngStream(cfg.seed, e).generator()
                    episode = harness.sample_episode(self.test, N_WAY, case.k_shot, gen)
                    pred = protocols.adapt_and_predict(model, episode, cfg, rng=gen)
                    spots += 1
                    bad += int(float(pred == episode.query[1]) != vec[e])
            self.checks.add(f"spot-check {case.name}", bad == 0, f"{bad}/{spots} differ")
            acc = float(np.mean([self.vectors[(case.name, r)] for r in rounds]))
            accs[case.name] = acc
            if not self.scale.tiny:
                ok, detail = above_chance(acc, n * len(rounds))
                self.checks.add(f"above chance {case.name}", ok, detail)
        self.accuracies = accs
        self.extra_checks()

    def extra_checks(self) -> None:
        pass

    def expected_counts(self, rounds: int) -> dict[str, int]:
        """Traced calls of `rounds` timed rounds."""
        counts: dict[str, int] = {}
        n = self.episodes()
        for case in self.cases:
            cfg = self.case_cfg(case, 0)
            _add(counts, "harness.accuracy_vector", rounds)
            _add(counts, "harness.sample_episode", rounds * n)
            adapt_counts(counts, cfg, case.k_shot, rounds * n, self.manifest.frame_count)
        return counts

    def touched_videos(self, rounds: int) -> int:
        """Distinct (model, test video) pairs the episodes of `rounds` rounds use."""
        seen: dict[str, set[str]] = {}
        for case in self.cases:
            for r in range(rounds):
                cfg = self.case_cfg(case, r)
                for e in range(self.episodes()):
                    ep = harness.sample_episode(self.test, N_WAY, case.k_shot, RngStream(cfg.seed, e))
                    ids = seen.setdefault(case.method, set())
                    ids.update(seq.video_id for seq, _ in ep.support)
                    ids.add(ep.query[0].video_id)
        return sum(len(ids) for ids in seen.values())


class EvalAlign(EvalWorkload):
    name = "eval-align"
    cases = (
        Case("meta-baseline", "meta-baseline"),
        Case("cmn-lite", "cmn-lite"),
        Case("otam-lite", "otam-lite"),
    )

    def episodes(self) -> int:
        return self.scale.align_episodes

    def spot_every(self) -> int:
        return self.scale.align_spot_every

    def spec(self) -> GeneratorSpec:
        return warp_spec(self.seed, self.scale.tiny)

    def train_cfgs(self) -> list[MethodConfig]:
        return [
            metric_cfg(m, self.seed, self.scale.align_setup_schedule, self.scale.tiny)
            for m in METRIC_METHODS
        ]

    def extra_checks(self) -> None:
        if self.scale.tiny or len(self.accuracies) < 3:
            return
        gap = self.accuracies["otam-lite"] - self.accuracies["meta-baseline"]
        self.checks.add(
            "otam-lite beats meta-baseline by 3 points",
            gap >= ALIGN_GAP,
            f"gap {100 * gap:+.2f} points",
        )


class EvalAdapt(EvalWorkload):
    name = "eval-adapt"
    cases = (
        Case("baseline", "baseline"),
        Case("baseline-plus", "baseline-plus"),
        Case("baseline-plus-5shot", "baseline-plus", 5),
    )

    def episodes(self) -> int:
        return self.scale.adapt_episodes

    def spot_every(self) -> int:
        return self.scale.adapt_spot_every

    def spec(self) -> GeneratorSpec:
        return standard_spec(self.seed + 1001, self.scale.tiny)

    def train_cfgs(self) -> list[MethodConfig]:
        return [
            classifier_cfg(m, self.seed, self.scale.adapt_setup_schedule, self.scale.tiny)
            for m in CLASSIFIER_METHODS
        ]


# ---------------------------------------------------------------------------
# training workload


class Train(Workload):
    name = "train"
    cases = tuple(Case(m, m) for m in METHODS)
    op_unit = "training run"

    def __init__(self, scale: Scale, seed: int, workdir: Path) -> None:
        super().__init__(scale, seed, workdir)
        self.digests: dict[str, set[str]] = {}

    def setup(self) -> None:
        """Gen and manifest load of both benchmarks."""
        out = self.setup_dir()
        synthdata.gen_benchmark(warp_spec(self.seed, self.scale.tiny), out / "warp")
        synthdata.gen_benchmark(standard_spec(self.seed + 1001, self.scale.tiny), out / "standard")
        self.manifests = {
            "warp": core.load_manifest(out / "warp" / MANIFEST_NAME),
            "standard": core.load_manifest(out / "standard" / MANIFEST_NAME),
        }
        self.ckpt_dir = out

    def cfg(self, method: str, warm: bool = False) -> MethodConfig:
        tiny = self.scale.tiny
        if method in METRIC_METHODS:
            schedule = (4, 1, 2) if warm else self.scale.train_metric_schedule
            return metric_cfg(method, self.seed, schedule, tiny)
        schedule = (4, 2, 2) if warm else self.scale.train_classifier_schedule
        return classifier_cfg(method, self.seed, schedule, tiny)

    def manifest_for(self, method: str):
        return self.manifests["warp" if method in METRIC_METHODS else "standard"]

    def train_once(self, method: str, cfg: MethodConfig):
        """What `fsvc train` does after loading the manifest."""
        model = protocols.train_model(self.manifest_for(method), cfg)
        path = self.ckpt_dir / f"{method}.fsvm"
        protocols.save_checkpoint(model, path)
        return model, protocols.load_checkpoint(path)

    def timed_op(self, case: Case, r: int) -> float:
        started = time.perf_counter()
        model, loaded = self.train_once(case.method, self.cfg(case.method))
        elapsed = time.perf_counter() - started
        self.digests.setdefault(case.method, set()).update(
            (model.weight_digest(), loaded.weight_digest())
        )
        self.models[case.method] = loaded
        return elapsed

    def warm_up(self) -> None:
        """One untimed pass over every method with a very short schedule."""
        for case in self.cases:
            self.train_once(case.method, self.cfg(case.method, warm=True))

    def expected_counts(self, rounds: int) -> dict[str, int]:
        """Traced calls of `rounds` timed rounds."""
        counts: dict[str, int] = {}
        for case in self.cases:
            _add(counts, "protocols.save_checkpoint", rounds)
            _add(counts, "protocols.load_checkpoint", rounds)
            for _ in range(rounds):
                train_counts(counts, self.cfg(case.method), self.manifest_for(case.method))
        return counts

    def run_checks(self) -> None:
        self.accuracies = {}
        for case in self.cases:
            digests = self.digests.get(case.method, set())
            self.checks.add(
                f"training deterministic {case.method}",
                len(digests) == 1,
                f"{len(digests)} distinct weight digests",
            )
            if case.method not in self.models:
                continue
            model = self.models[case.method]
            test = harness.load_split(self.manifest_for(case.method), "test")
            cfg = replace(model.config, seed=self.seed)
            n = self.scale.check_episodes[case.method not in METRIC_METHODS]
            acc = float(harness.accuracy_vector(model, cfg, test, n).mean())
            self.accuracies[case.method] = acc
            if not self.scale.tiny:
                ok, detail = above_chance(acc, n)
                self.checks.add(f"above chance {case.method}", ok, detail)


WORKLOADS = {w.name: w for w in (EvalAlign, EvalAdapt, Train)}
