"""Alignment kernels: pooling, cosine, DTW (with brute-force oracle), saliency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fsvc.align import (
    SaliencyParams,
    cosine,
    dtw,
    dtw_bruteforce,
    frame_distance_matrix,
    multi_saliency,
    otam_similarity,
    path_cost,
    saliency_attention,
    validate_path,
)
from fsvc.core import (
    DegenerateInputError,
    RngStream,
    ShapeError,
    ValidationError,
)
from fsvc.heads import LinearHead
from fsvc.protocols import pooled_embedding


def mean_pool(seq):
    """Temporal mean pooling as the methods do it: pooled_embedding under the
    identity embedding."""
    c = seq.shape[1]
    return pooled_embedding(LinearHead(np.eye(c), np.zeros(c)), seq)


def test_mean_pool_arithmetic():
    assert np.allclose(mean_pool(np.array([[1.0, 2.0], [3.0, 4.0]])), [2.0, 3.0])


def test_mean_pool_single_frame_identity():
    frame = np.array([[5.0, -1.0, 2.0]])
    assert np.array_equal(mean_pool(frame), frame[0])


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 6), st.integers(1, 5)),
        elements=st.floats(-10, 10),
    )
)
@settings(max_examples=50, deadline=None)
def test_mean_pool_permutation_invariant(seq):
    gen = np.random.default_rng(0)
    perm = gen.permutation(seq.shape[0])
    assert np.allclose(mean_pool(seq), mean_pool(seq[perm]))


def test_cosine_basic_cases():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    v = np.array([0.3, -2.0, 1.0])
    assert cosine(v, 3 * v) == pytest.approx(1.0)
    assert cosine(v, -v) == pytest.approx(-1.0)


def test_cosine_zero_norm_is_error():
    with pytest.raises(DegenerateInputError):
        cosine([0.0, 0.0], [1.0, 0.0])


@pytest.mark.parametrize(
    "a, b",
    [
        ([1.0, 2.0], [1.0, 2.0, 3.0]),
        (np.ones((2, 2)), np.ones((2, 2))),
        (np.ones((1, 3)), np.ones(3)),
        (1.0, 2.0),
    ],
)
def test_cosine_rejects_non_vector_shapes(a, b):
    with pytest.raises(ShapeError, match="1-D vectors of equal length"):
        cosine(a, b)


def test_distance_matrix_orthonormal_rows():
    q = np.eye(3)
    d = frame_distance_matrix(q, q)
    assert np.allclose(np.diag(d), 0.0)
    off = d[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 1.0)


def test_distance_matrix_antipodal():
    q = np.array([[1.0, 2.0], [0.5, -1.0]])
    d = frame_distance_matrix(q, -q)
    assert d[0, 0] == pytest.approx(2.0)
    assert d[1, 1] == pytest.approx(2.0)


def test_distance_matrix_range():
    gen = RngStream(3, 0).generator()
    q = gen.standard_normal((6, 4))
    s = gen.standard_normal((5, 4))
    d = frame_distance_matrix(q, s)
    assert d.shape == (6, 5)
    assert np.all(d >= -1e-12)
    assert np.all(d <= 2.0 + 1e-12)


def test_distance_matrix_zero_frame_identified():
    q = np.array([[1.0, 0.0], [0.0, 0.0]])
    s = np.array([[1.0, 1.0]])
    with pytest.raises(DegenerateInputError, match="query frame 1"):
        frame_distance_matrix(q, s)
    with pytest.raises(DegenerateInputError, match="support frame 0"):
        frame_distance_matrix(s, np.zeros((1, 2)))


def test_dtw_zero_matrix_path():
    cost, path = dtw(np.zeros((2, 4)))
    assert cost == 0.0
    # backtracking prefers diagonal from the end, then completes along the edge
    assert path == [(0, 0), (0, 1), (0, 2), (1, 3)]
    cost, path = dtw(np.zeros((3, 3)))
    assert cost == 0.0
    assert path == [(0, 0), (1, 1), (2, 2)]


def test_dtw_identical_orthonormal_sequences():
    d = frame_distance_matrix(np.eye(4), np.eye(4))
    cost, path = dtw(d)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert path == [(i, i) for i in range(4)]


def test_dtw_two_by_two_by_hand():
    # paths: diag -> 0, right+down -> 2, down+right -> 2
    assert dtw_bruteforce(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(0.0)
    cost, path = dtw(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert cost == pytest.approx(0.0)
    assert path == [(0, 0), (1, 1)]


def test_dtw_bruteforce_single_cell():
    assert dtw_bruteforce(np.array([[0.7]])) == pytest.approx(0.7)


def test_dtw_bruteforce_size_guard():
    with pytest.raises(ValidationError):
        dtw_bruteforce(np.zeros((7, 7)))


def test_dtw_matches_bruteforce_on_random_cases():
    gen = RngStream(11, 0).generator()
    for _ in range(300):
        tq = int(gen.integers(2, 5))
        ts = int(gen.integers(2, 5))
        d = gen.random((tq, ts)) * 2
        cost, path = dtw(d)
        assert cost == pytest.approx(dtw_bruteforce(d), abs=1e-9)
        validate_path(path, (tq, ts))
        assert path_cost(d, path) == pytest.approx(cost, abs=1e-9)


def test_dtw_diagonal_upper_bound():
    gen = RngStream(12, 0).generator()
    for _ in range(50):
        t = int(gen.integers(2, 6))
        d = gen.random((t, t)) * 2
        cost, _ = dtw(d)
        assert cost <= np.trace(d) + 1e-12


def test_dtw_monotone_in_entries():
    gen = RngStream(13, 0).generator()
    for _ in range(50):
        d = gen.random((4, 4))
        cost, _ = dtw(d)
        bumped = d.copy()
        i, j = gen.integers(4), gen.integers(4)
        bumped[i, j] += gen.random()
        cost2, _ = dtw(bumped)
        assert cost2 >= cost - 1e-12


def test_dtw_transpose_symmetry():
    gen = RngStream(14, 0).generator()
    for _ in range(50):
        d = gen.random((int(gen.integers(2, 6)), int(gen.integers(2, 6)))) * 2
        assert dtw(d)[0] == pytest.approx(dtw(d.T)[0], abs=1e-9)


def test_otam_similarity_identical_is_zero_max():
    gen = RngStream(15, 0).generator()
    for _ in range(20):
        a = gen.standard_normal((5, 3))
        assert otam_similarity(a, a) == pytest.approx(0.0, abs=1e-12)
        b = gen.standard_normal((5, 3))
        assert otam_similarity(a, b) <= 1e-12


def test_otam_similarity_normalized():
    a = np.eye(4)
    b = -np.eye(4)
    cost, path = dtw(frame_distance_matrix(a, b))
    raw = otam_similarity(a, b)
    norm = otam_similarity(a, b, normalize=True)
    assert raw == pytest.approx(-cost)
    assert norm == pytest.approx(-cost / len(path))


def test_multi_saliency_zero_queries_is_mean_pool():
    gen = RngStream(16, 0).generator()
    seq = gen.standard_normal((6, 5))
    params = SaliencyParams(np.zeros((3, 5)))
    desc = multi_saliency(seq, params)
    for row in desc:
        assert np.allclose(row, seq.mean(axis=0), atol=1e-12)


def test_multi_saliency_single_frame():
    gen = RngStream(17, 0).generator()
    seq = gen.standard_normal((1, 4))
    params = SaliencyParams(gen.standard_normal((2, 4)))
    desc = multi_saliency(seq, params)
    assert np.allclose(desc, np.vstack([seq[0], seq[0]]))


def test_multi_saliency_saturates_to_one_frame():
    seq = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    # large query along e1 concentrates all attention on frame 0
    params = SaliencyParams(np.array([[1e6, 0.0]]))
    desc = multi_saliency(seq, params)
    assert np.allclose(desc[0], seq[0], atol=1e-9)


def test_saliency_attention_rows_sum_to_one():
    gen = RngStream(18, 0).generator()
    for _ in range(20):
        seq = gen.standard_normal((7, 6))
        params = SaliencyParams(gen.standard_normal((4, 6)))
        att = saliency_attention(seq, params)
        assert np.allclose(att.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(att >= 0)


def test_saliency_attention_on_a_stack_matches_each_video():
    gen = RngStream(19, 0).generator()
    stack = gen.standard_normal((3, 7, 6))
    params = SaliencyParams(gen.standard_normal((4, 6)))
    att = saliency_attention(stack, params)
    for v in range(len(stack)):
        assert np.array_equal(att[v], saliency_attention(stack[v], params))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_saliency_queries_must_be_finite(bad):
    q = np.zeros((2, 3))
    q[1, 2] = bad
    with pytest.raises(ValidationError, match="finite"):
        SaliencyParams(q)


def test_validate_path_rejects_bad_paths():
    with pytest.raises(ValidationError):
        validate_path([(0, 0), (2, 2)], (3, 3))
    with pytest.raises(ValidationError):
        validate_path([(0, 0), (1, 1)], (3, 3))
