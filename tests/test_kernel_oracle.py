"""Differential tests: the tuned kernels against their frozen numpy forms.

Every comparison is bitwise: costs and distances must have the same IEEE
bytes, paths the same steps, and errors the same type and message.
"""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scalar_oracle as oracle
from fsvc import align, heads, protocols
from fsvc.core import FeatureSequence, FsvcError, RngStream

SETTINGS = settings(max_examples=100, deadline=None)

# rounding to 0.1 makes ties between DTW predecessors common, and a few
# distinct levels make them more common still
tenths = st.integers(-20, 20).map(lambda k: k / 10)
values = st.one_of(tenths, st.floats(-2.0, 2.0, allow_nan=False, width=64))
distances = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2]), tenths.map(abs), st.floats(0.0, 2.0)
)


def same_bits(x, y) -> bool:
    x = np.asarray(x)
    y = np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def outcome(fn, *args):
    """Result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except FsvcError as exc:
        return (type(exc), str(exc))


@SETTINGS
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 10), st.integers(1, 10)),
        elements=distances,
    )
)
@example(np.zeros((1, 1)))
@example(np.zeros((8, 8)))
@example(np.zeros((1, 10)))
@example(np.zeros((10, 1)))
@example(np.ones((3, 7)))
@example(np.array([[0.0, 0.0, 0.5], [0.0, 0.9, 0.0], [0.5, 0.0, 0.0]]))
def test_dtw_matches_oracle_bitwise(d):
    cost, path = align.dtw(d)
    ref_cost, ref_path = oracle.dtw(d)
    assert type(cost) is float
    assert struct.pack("<d", cost) == struct.pack("<d", ref_cost)
    assert path == ref_path


def test_dtw_accepts_non_contiguous_views():
    d = np.arange(64, dtype=np.float64).reshape(8, 8) % 3 / 10
    view = d[::2, 1::2].T
    assert align.dtw(view) == oracle.dtw(view)


@st.composite
def same_width(draw, rows):
    """Two float arrays of ``rows`` shapes (None: 1-D) with one last dim."""
    c = draw(st.integers(1, 16))
    return tuple(
        draw(
            hnp.arrays(
                np.float64,
                (c,) if r is None else (draw(st.integers(1, r)), c),
                elements=values,
            )
        )
        for r in rows
    )


@SETTINGS
@given(same_width((None, None)))
@example((np.zeros(4), np.ones(4)))
def test_cosine_matches_oracle_bitwise(pair):
    a, b = pair
    got = outcome(align.cosine, a, b)
    ref = outcome(oracle.cosine, a, b)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", ref)


@SETTINGS
@given(same_width((10, 10)))
@example((np.zeros((8, 16)), np.ones((8, 16))))
@example((np.ones((1, 5)), np.ones((10, 5))))
@example((np.ones((3, 4)), np.eye(4)[[0, 1]] * [[1.0], [0.0]]))  # support only
@example((np.eye(3)[[2, 0, 1]] * [[1.0], [0.0], [1.0]], np.zeros((2, 3))))  # both
@example((np.zeros((0, 6)), np.ones((4, 6))))
@example((np.ones((4, 6)), np.zeros((0, 6))))
@example((np.zeros((0, 6)), np.zeros((0, 6))))
def test_frame_distance_matrix_matches_oracle_bitwise(pair):
    q, s = pair
    got = outcome(align.frame_distance_matrix, q, s)
    ref = outcome(oracle.frame_distance_matrix, q, s)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert same_bits(got, ref)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 5), max_size=2),
    t=st.integers(1, 10),
    c_in=st.integers(1, 12),
    d=st.integers(1, 16),
    rounded=st.booleans(),
)
def test_pooled_embedding_matches_oracle_bitwise(seed, lead, t, c_in, d, rounded):
    gen = np.random.default_rng(seed)
    emb = heads.LinearHead(
        gen.standard_normal((d, c_in)), gen.standard_normal(d)
    )
    frames = gen.standard_normal((*lead, t, c_in))
    if rounded:
        frames = np.round(frames, 1)
    assert same_bits(
        protocols.pooled_embedding(emb, frames),
        oracle.pooled_embedding(emb, frames),
    )


class _Episode:
    def __init__(self, support, query):
        self.support = support
        self.query = query


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_way=st.integers(2, 5),
    k_shot=st.integers(1, 5),
    t=st.integers(1, 10),
)
def test_episode_arrays_matches_oracle_bitwise(seed, n_way, k_shot, t):
    gen = np.random.default_rng(seed)
    support = [
        (FeatureSequence(f"v{c}_{k}", c, gen.standard_normal((t, 6))), c)
        for k in range(k_shot)
        for c in gen.permutation(n_way)
    ]
    label = int(gen.integers(n_way))
    query = (FeatureSequence("q", label, gen.standard_normal((t, 6))), label)
    episode = _Episode(support, query)
    got = protocols.episode_arrays(episode, n_way)
    ref = oracle.episode_arrays(episode, n_way)
    assert got.label == ref.label
    assert same_bits(got.query, ref.query)
    assert len(got.support) == len(ref.support) == n_way
    for g, r in zip(got.support, ref.support):
        assert same_bits(g, r)


def test_episode_arrays_missing_class_matches_oracle():
    frames = np.ones((3, 2))
    episode = _Episode(
        [(FeatureSequence("a", 0, frames), 0)], (FeatureSequence("q", 0, frames), 0)
    )
    with pytest.raises(FsvcError) as got:
        protocols.episode_arrays(episode, 2)
    with pytest.raises(FsvcError) as ref:
        oracle.episode_arrays(episode, 2)
    assert (got.type, str(got.value)) == (ref.type, str(ref.value))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    shots=st.lists(st.integers(1, 5), min_size=2, max_size=12),
    d=st.integers(1, 80),
    log_scale=st.floats(-3.0, 3.0),
    iters=st.integers(0, 150),
    log_lr=st.floats(-3.0, -1.0),
)
@example(seed=0, shots=[1] * 5, d=64, log_scale=0.0, iters=100, log_lr=-3.0)
@example(seed=1, shots=[5] * 12, d=80, log_scale=3.0, iters=150, log_lr=-1.0)
def test_train_head_matches_oracle_bitwise(seed, shots, d, log_scale, iters, log_lr):
    # n_way up to 12 takes the row sums past numpy's 8-element pairwise
    # block, D up to 80 covers the benchmark's 65 augmented columns, and
    # scales up to 1e3 saturate the softmax as base-head logits can
    gen = np.random.default_rng(seed)
    labels = gen.permutation(np.repeat(np.arange(len(shots)), shots))
    x = 10.0**log_scale * gen.standard_normal((len(labels), d))
    feats = [(row, int(c)) for row, c in zip(x, labels)]
    init = heads.init_head(gen, len(shots), d)
    lr = 10.0**log_lr
    got = heads.train_head(x, labels, init, iters, lr)
    ref = oracle.train_head(feats, init, iters, lr, 0.0, RngStream(0))
    assert same_bits(got.weight, ref.weight)
    assert same_bits(got.bias, ref.bias)


# the numpy behaviour baseline-plus's support logits rest on: a stacked
# (N, 1, D) @ W.T rounds as the N vector products f @ W.T do, at every
# OpenBLAS thread count (a flat (N, D) @ W.T does not)
_STACKED_PRODUCT_CHECK = """
import numpy as np
gen = np.random.default_rng(20)
shapes = [(n, d, k) for n in (1, 25) for d in (1, 80) for k in (1, 64)]
shapes += [tuple(gen.integers(1, (26, 81, 65)).tolist()) for _ in range(500)]
for n, d, k in shapes:
    x = 10.0 ** gen.uniform(-3, 3) * gen.standard_normal((n, d))
    w = gen.standard_normal((k, d))
    got = (x[:, None] @ w.T)[:, 0]
    ref = np.stack([f @ w.T for f in x])
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (n, d, k)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_stacked_row_products_equal_per_row_products(threads):
    proc = subprocess.run(
        [sys.executable, "-c", _STACKED_PRODUCT_CHECK],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# the numpy behaviour train_head and frame_distance_matrix rest on: np.dot
# of two 2-D float64 operands, into a given ``out`` as train_head writes,
# rounds as np.matmul does, for plain and transposed-view layouts and 1-sized
# dims, at every OpenBLAS thread count
_DOT_PRODUCT_CHECK = """
import numpy as np
gen = np.random.default_rng(24)
for case in range(4000):
    m, k, n = gen.integers(1, 90, 3).tolist()
    if case % 3 == 0:
        dims = [m, k, n]
        dims[case % 9 // 3] = 1
        m, k, n = dims
    scale = 10.0 ** gen.uniform(-3, 3)
    a, b = scale * gen.standard_normal((m, k)), gen.standard_normal((k, n))
    for x, y in ((a, b), (a.T.copy().T, b), (a, b.T.copy().T), (a.T.copy().T, b.T.copy().T)):
        ref = np.matmul(x, y)
        out = np.empty((m, n))
        got = np.dot(x, y, out)
        assert got is out and out.tobytes() == ref.tobytes(), (case, m, k, n)
        assert np.dot(x, y).tobytes() == ref.tobytes(), (case, m, k, n)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_dot_equals_matmul_on_2d_products(threads):
    proc = subprocess.run(
        [sys.executable, "-c", _DOT_PRODUCT_CHECK],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    shots=st.lists(st.integers(1, 6), min_size=2, max_size=12),
    d=st.integers(1, 80),
    log_scale=st.floats(-3.0, 3.0),
    fault=st.sampled_from([None, "zero-norm", "missing"]),
    fault_class=st.integers(0, 11),
)
@example(seed=0, shots=[1] * 5, d=64, log_scale=0.0, fault=None, fault_class=0)
@example(seed=1, shots=[5] * 5, d=64, log_scale=3.0, fault=None, fault_class=0)
@example(seed=2, shots=[3, 1, 4], d=8, log_scale=0.0, fault="zero-norm", fault_class=1)
@example(seed=3, shots=[2, 2, 2, 2], d=5, log_scale=0.0, fault="missing", fault_class=2)
def test_imprint_matches_oracle_bitwise(seed, shots, d, log_scale, fault, fault_class):
    # unequal shots in shuffled label order, so each class's rows are
    # scattered through the support set
    gen = np.random.default_rng(seed)
    k = fault_class % len(shots)
    if fault == "missing":
        shots = shots[:k] + [0] + shots[k + 1 :]
    labels = gen.permutation(np.repeat(np.arange(len(shots)), shots))
    z = 10.0**log_scale * gen.standard_normal((len(labels), d))
    if fault == "zero-norm":
        z[labels == k] = 0.0
    got = outcome(heads.imprint, z, labels, len(shots))
    ref = outcome(oracle.imprint, z, labels, len(shots))
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert same_bits(got.weight, ref.weight)
        assert same_bits(got.bias, ref.bias)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
    steps=st.integers(1, 8),
    lr=st.sampled_from([1e-5, 1e-3, 0.1]),
)
def test_adam_step_matches_shared_kernel_bitwise(seed, shape, steps, lr):
    gen = np.random.default_rng(seed)
    params = {"w": gen.standard_normal(shape), "b": gen.standard_normal(shape[0])}
    state = heads.AdamState.for_params(params, lr)
    ref = {k: p.copy() for k, p in params.items()}
    moments = {k: heads._AdamBuffers.zeros(p.shape) for k, p in params.items()}
    for t in range(1, steps + 1):
        grads = {k: gen.standard_normal(p.shape) for k, p in params.items()}
        prev = params
        saved = {k: (prev[k].copy(), grads[k].copy()) for k in prev}
        params = heads.adam_step(state, prev, grads)
        assert state.step == t
        for k, g in grads.items():
            moments[k].g[...] = g
            heads._adam_update(ref[k], moments[k], *heads._step_constants(lr, t))
            assert same_bits(params[k], ref[k])
            # adam_step returns new arrays and leaves its inputs alone
            assert same_bits(prev[k], saved[k][0]) and same_bits(g, saved[k][1])


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    # (40, 64) is past _DENSE_BETAS, so its betas are stride-0 views
    shape=st.one_of(st.tuples(st.integers(1, 4), st.integers(1, 6)), st.just((40, 64))),
    steps=st.integers(1, 8),
    lr=st.sampled_from([1e-5, 1e-3, 0.1]),
    log_scale=st.floats(-3.0, 3.0),
)
def test_adam_step_matches_oracle_bitwise(seed, shape, steps, lr, log_scale):
    gen = np.random.default_rng(seed)
    params = {"w": gen.standard_normal(shape), "b": gen.standard_normal(shape[0])}
    state = heads.AdamState.for_params(params, lr)
    ref = dict(params)
    moments = {k: (np.zeros_like(p), np.zeros_like(p)) for k, p in params.items()}
    for t in range(1, steps + 1):
        grads = {
            k: 10.0**log_scale * gen.standard_normal(p.shape)
            for k, p in params.items()
        }
        params = heads.adam_step(state, params, grads)
        ref = oracle.adam_step(moments, ref, grads, t, lr)
        for k in params:
            assert same_bits(params[k], ref[k])
