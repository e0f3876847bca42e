"""Classifier machinery: forward, cross-entropy, dropout, Adam, imprint, training."""

import numpy as np
import pytest

from fsvc.core import (
    CoverageError,
    DegenerateInputError,
    RngStream,
    ShapeError,
    ValidationError,
)
from fsvc.heads import (
    AdamState,
    LinearHead,
    adam_step,
    dropout_mask,
    imprint,
    init_head,
    linear_forward,
    softmax_xent,
    softmax_xent_batch,
    train_head,
)


def test_linear_forward_identity():
    head = LinearHead(np.eye(3), np.zeros(3))
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(linear_forward(head, x), x)


def test_linear_forward_constant():
    head = LinearHead(np.zeros((2, 3)), np.array([4.0, -1.0]))
    for _ in range(3):
        x = np.random.default_rng(0).standard_normal(3)
        assert np.array_equal(linear_forward(head, x), [4.0, -1.0])


def test_linear_forward_numeric():
    head = LinearHead(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0]))
    assert np.array_equal(linear_forward(head, np.array([1.0, 1.0])), [4.0, 6.0])


def test_linear_forward_shape_error_names_shapes():
    head = LinearHead(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        linear_forward(head, np.ones(4))


def test_softmax_xent_uniform():
    loss, dlogits = softmax_xent(np.zeros(5), 2)
    assert loss == pytest.approx(np.log(5), abs=1e-12)
    expected = np.full(5, 0.2)
    expected[2] -= 1.0
    assert np.allclose(dlogits, expected, atol=1e-12)


def test_softmax_xent_large_logits_stable():
    loss, dlogits = softmax_xent(np.array([1000.0, 0.0, 0.0]), 0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(dlogits))


def test_softmax_xent_label_out_of_range():
    with pytest.raises(ValidationError):
        softmax_xent(np.zeros(3), 3)


@pytest.mark.parametrize("bad", [-1, 3])
def test_softmax_xent_batch_label_out_of_range(bad):
    # -1 used to train as class K-1 and K to end in a bare IndexError
    with pytest.raises(ValidationError, match=f"label {bad} out of range for 3"):
        softmax_xent_batch(np.zeros((2, 3)), np.array([0, bad]))


@pytest.mark.parametrize("labels", [[0], [0, 1, 2], [[0, 1]]])
def test_softmax_xent_batch_label_count_mismatch(labels):
    with pytest.raises(ShapeError, match="for 2 logit rows"):
        softmax_xent_batch(np.zeros((2, 3)), np.array(labels))


def test_softmax_xent_gradient_matches_finite_differences():
    gen = RngStream(5, 0).generator()
    h = 1e-5
    for _ in range(100):
        k = int(gen.integers(2, 8))
        logits = gen.standard_normal(k) * 3
        label = int(gen.integers(k))
        _, dlogits = softmax_xent(logits, label)
        for i in range(k):
            up = logits.copy()
            up[i] += h
            down = logits.copy()
            down[i] -= h
            fd = (softmax_xent(up, label)[0] - softmax_xent(down, label)[0]) / (2 * h)
            assert abs(dlogits[i] - fd) < 1e-6 * max(abs(fd), abs(dlogits[i]), 1.0)


def test_dropout_zero_probability_all_ones():
    mask = dropout_mask(RngStream(1, 0), 0.0, 50)
    assert np.array_equal(mask, np.ones(50))


def test_dropout_expectation_near_one():
    gen = RngStream(2, 0).generator()
    total = np.zeros(8)
    n = 100_000
    for _ in range(n):
        total += dropout_mask(gen, 0.5, 8)
    means = total / n
    assert np.all(means >= 0.98)
    assert np.all(means <= 1.02)


def test_dropout_values_and_probability():
    gen = RngStream(3, 0).generator()
    mask = dropout_mask(gen, 0.25, 10_000)
    values = np.unique(mask)
    assert len(values) == 2
    assert values[0] == 0.0
    assert values[1] == pytest.approx(4.0 / 3.0, abs=1e-12)
    drop_rate = float(np.mean(mask == 0.0))
    assert abs(drop_rate - 0.25) < 0.02


def test_dropout_mask_shape_matches_inline_form():
    # the batch mask of base training: one (batch, C) draw, bitwise
    mask = dropout_mask(RngStream(4, 0), 0.3, (6, 5))
    draw = RngStream(4, 0).generator().random((6, 5))
    assert mask.shape == (6, 5)
    assert np.array_equal(mask, (draw >= 0.3) / (1.0 - 0.3))


def test_dropout_p_one_rejected():
    with pytest.raises(ValidationError):
        dropout_mask(RngStream(1, 0), 1.0, 4)


def test_adam_zero_gradient_no_move():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState.for_params(params, lr=1e-3)
    out = adam_step(state, params, {"w": np.zeros(2)})
    assert np.array_equal(out["w"], params["w"])


def test_adam_first_step_magnitude_is_lr():
    for g in (0.5, -3.0, 100.0):
        params = {"w": np.array([2.0])}
        state = AdamState.for_params(params, lr=1e-3)
        out = adam_step(state, params, {"w": np.array([g])})
        step = out["w"][0] - 2.0
        assert abs(abs(step) - 1e-3) < 1e-6
        assert np.sign(step) == -np.sign(g)


def test_adam_constant_gradient_sign_opposition():
    params = {"w": np.array([0.0])}
    state = AdamState.for_params(params, lr=1e-2)
    prev = params["w"][0]
    for _ in range(20):
        params = adam_step(state, params, {"w": np.array([2.5])})
        assert params["w"][0] < prev  # positive gradient, updates always negative
        prev = params["w"][0]


def test_adam_shape_mismatch():
    params = {"w": np.zeros((2, 2))}
    state = AdamState.for_params(params, lr=1e-3)
    with pytest.raises(ShapeError):
        adam_step(state, params, {"w": np.zeros(3)})


def test_imprint_orthogonal_templates():
    head = imprint(np.eye(5) * 5.0, np.arange(5), 5)
    assert np.allclose(head.weight, np.eye(5))
    assert np.array_equal(head.bias, np.zeros(5))
    for j in range(5):
        query = np.eye(5)[j] * 2.0
        assert int(np.argmax(linear_forward(head, query))) == j


def test_imprint_multishot_identical_equals_oneshot():
    z = np.array([3.0, -1.0, 2.0])
    e0 = np.array([1.0, 0, 0])
    one = imprint(np.stack([z, e0]), np.array([0, 1]), 2)
    five = imprint(np.stack([z] * 5 + [e0]), np.array([0] * 5 + [1]), 2)
    assert np.allclose(one.weight[0], five.weight[0], atol=1e-12)


def test_imprint_rows_unit_norm():
    gen = RngStream(7, 0).generator()
    for _ in range(1000):
        n_way = int(gen.integers(2, 6))
        k = int(gen.integers(1, 4))
        logits = gen.standard_normal((n_way * k, 6))
        head = imprint(logits, np.repeat(np.arange(n_way), k), n_way)
        norms = np.linalg.norm(head.weight, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.array_equal(head.bias, np.zeros(n_way))


def test_imprint_missing_class_named():
    with pytest.raises(CoverageError, match=r"class\(es\) \[1\]"):
        imprint(np.ones((2, 3)), np.array([0, 2]), 3)
    with pytest.raises(CoverageError, match="empty"):
        imprint(np.empty((0, 3)), np.empty(0, dtype=int), 3)


@pytest.mark.parametrize("bad", [-1, 3])
def test_imprint_label_out_of_range_rejected(bad):
    with pytest.raises(ValidationError, match=f"class index {bad} out of range"):
        imprint(np.ones((4, 3)), np.array([0, 1, 2, bad]), 3)


def test_imprint_zero_norm_mean_rejected():
    logits = np.array([[1.0, 2.0], [-1.0, -2.0], [0.5, 0.5]])
    with pytest.raises(DegenerateInputError, match="class 0"):
        imprint(logits, np.array([0, 0, 1]), 2)


@pytest.mark.parametrize(
    "logits, labels",
    [
        (np.ones(3), np.array([0])),
        (np.ones((2, 1, 3)), np.array([0, 1])),
        (np.ones((2, 3)), np.array([0, 1, 1])),
        (np.ones((2, 3)), np.array([[0, 1]])),
    ],
    ids=["vector", "rank3", "label-long", "label-matrix"],
)
def test_imprint_shape_rejected(logits, labels):
    with pytest.raises(ShapeError):
        imprint(logits, labels, 2)


def test_train_head_separable_toy_set():
    gen = RngStream(8, 0).generator()
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.arange(20) % 2
    x = np.stack([(e1 if c == 0 else -e1) + 0.05 * gen.standard_normal(4) for c in y])
    init = init_head(RngStream(8, 1), 2, 4)
    head = train_head(x, y, init, 100, 1e-3)
    preds = linear_forward(head, x).argmax(axis=1)
    assert np.array_equal(preds, y)


def test_train_head_zero_iters_returns_init():
    init = init_head(RngStream(9, 0), 3, 4)
    out = train_head(np.ones((3, 4)), np.arange(3), init, 0, 1e-3)
    assert np.array_equal(out.weight, init.weight)
    assert np.array_equal(out.bias, init.bias)


def test_train_head_bitwise_deterministic():
    gen = RngStream(10, 0).generator()
    x = np.concatenate([gen.standard_normal((12, 5)), np.ones((3, 5))])
    y = np.concatenate([gen.integers(3, size=12), np.arange(3)])  # all covered
    init = init_head(RngStream(10, 1), 3, 5)
    a = train_head(x, y, init, 50, 1e-3)
    b = train_head(x, y, init, 50, 1e-3)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.bias, b.bias)


def test_train_head_missing_class_rejected():
    init = init_head(RngStream(11, 0), 3, 4)
    with pytest.raises(CoverageError):
        train_head(np.ones((1, 4)), np.array([0]), init, 10, 1e-3)
    with pytest.raises(CoverageError):
        train_head(np.empty((0, 4)), np.empty(0, dtype=int), init, 10, 1e-3)


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_train_head_label_out_of_range_rejected(bad):
    init = init_head(RngStream(11, 1), 3, 4)
    y = np.array([0, 1, 2, bad])
    with pytest.raises(ValidationError, match=f"class index {bad} out of range"):
        train_head(np.ones((4, 4)), y, init, 10, 1e-3)


@pytest.mark.parametrize(
    "features, labels",
    [
        (np.ones(4), np.array([0])),
        (np.ones((2, 1, 4)), np.array([0, 1])),
        (np.ones((2, 5)), np.array([0, 1])),  # wider than the head
        (np.ones((2, 4)), np.array([0])),
        (np.ones((2, 4)), np.array([0, 1, 1])),
        (np.ones((2, 4)), np.array([[0, 1]])),
    ],
    ids=["vector", "rank3", "wider", "label-short", "label-long", "label-matrix"],
)
def test_train_head_shape_rejected(features, labels):
    init = init_head(RngStream(11, 2), 2, 4)
    with pytest.raises(ShapeError):
        train_head(features, labels, init, 10, 1e-3)


def test_train_head_loss_decreases_over_seeds():
    from fsvc.heads import softmax_xent_batch

    for seed in range(20):
        gen = RngStream(seed, 100).generator()
        e1 = np.zeros(4)
        e1[0] = 1.0
        y = np.arange(10) % 2
        x = np.stack(
            [(e1 if c == 0 else -e1) + 0.05 * gen.standard_normal(4) for c in y]
        )
        init = init_head(gen, 2, 4)

        def mean_loss(head):
            return softmax_xent_batch(linear_forward(head, x), y)[0]

        trained = train_head(x, y, init, 100, 1e-3)
        assert mean_loss(trained) < mean_loss(init)
