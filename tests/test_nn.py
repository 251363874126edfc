import math

import numpy as np
import pytest

from blindtrain import nn
from blindtrain.data import gen_blobs
from blindtrain.nn import (
    LocalExecutor,
    Linear,
    Network,
    TrainConfig,
    accuracy,
    backward,
    cross_entropy_softmax,
    forward,
    predict,
    softmax_cols,
    train,
)
from blindtrain.tensor import ShapeError, make_rng


def tiny_net():
    net = Network([Linear(2, 2), Linear(2, 2)])
    net.linears[0].W = np.array([[1.0, -1.0], [2.0, 0.0]])
    net.linears[0].b = np.array([0.5, -0.5])
    net.linears[1].W = np.array([[1.0, 1.0], [-1.0, 1.0]])
    net.linears[1].b = np.array([0.0, 1.0])
    return net


# -- structure -------------------------------------------------------------

def test_network_validates_structure():
    with pytest.raises(ValueError, match="at least one linear layer"):
        Network([])
    with pytest.raises(ShapeError):
        Network([Linear(3, 2), Linear(2, 4)])  # dims do not chain
    with pytest.raises(ValueError):
        Network.from_dims([2])
    with pytest.raises(ValueError):
        Network.from_dims([2, 3, 2], policies=["tensor"])
    with pytest.raises(ValueError):
        Linear(2, 2, policy="weird")


def test_train_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(0.1, 8, 1, seed=-1)


def test_from_dims_layout():
    net = Network.from_dims([2, 16, 16, 3])
    assert [(l.out_dim, l.in_dim) for l in net.linears] == [(16, 2), (16, 16), (3, 16)]
    assert [l.layer_id for l in net.linears] == [0, 1, 2]
    assert net.in_dim == 2 and net.out_dim == 3


def test_init_weights_bounds_and_determinism():
    net = Network.from_dims([4, 8, 3])
    net.init_weights(5)
    for lin in net.linears:
        bound = math.sqrt(1.0 / lin.in_dim)
        assert np.max(np.abs(lin.W)) <= bound
        assert np.all(lin.b == 0.0)
    other = Network.from_dims([4, 8, 3])
    other.init_weights(5)
    assert all(a.W.tobytes() == b.W.tobytes() for a, b in zip(net.linears, other.linears))


# -- forward ---------------------------------------------------------------

def test_forward_hand_trace():
    net = tiny_net()
    x = np.array([[1.0], [2.0]])
    probs, cache = forward(net, x, LocalExecutor())
    # a hidden layer's entry holds its ReLU output: relu([-0.5, 1.5])
    assert np.max(np.abs(cache.preacts[0] - [[0.0], [1.5]])) < 1e-12
    assert np.max(np.abs(cache.preacts[1] - [[1.5], [2.5]])) < 1e-12
    expected = np.array([math.exp(1.5), math.exp(2.5)])
    expected /= expected.sum()
    assert np.max(np.abs(probs[:, 0] - expected)) < 1e-12


def test_forward_passes_each_returned_array_on_as_the_next_input():
    """The ReLU runs in place on the array the executor returned: layer
    i + 1 multiplies that very array, and the cache holds it, so no
    operand-sized copy is made between layers."""

    class Recording(LocalExecutor):
        def __init__(self):
            super().__init__()
            self.inputs, self.outputs = [], []

        def multiply_forward(self, layer_id, w, x):
            self.inputs.append(x)
            self.outputs.append(super().multiply_forward(layer_id, w, x))
            return self.outputs[-1]

    net = Network.from_dims([3, 5, 4, 2])
    net.init_weights(7)
    x = make_rng(8).standard_normal((3, 6))
    kept = x.copy()
    ex = Recording()
    probs, cache = forward(net, x, ex)
    assert ex.inputs[0] is x and x.tobytes() == kept.tobytes()
    for i in range(len(net.linears) - 1):
        assert ex.inputs[i + 1] is ex.outputs[i]
        assert cache.preacts[i] is ex.outputs[i]
        assert ex.outputs[i].min() >= 0.0
    assert cache.preacts[2] is ex.outputs[2]
    assert probs.tobytes() == forward(net, x, LocalExecutor())[0].tobytes()


def test_forward_rejects_bad_input_dim():
    with pytest.raises(ShapeError):
        forward(tiny_net(), np.zeros((3, 1)), LocalExecutor())


def test_softmax_columns_sum_to_one_and_survive_huge_logits():
    z = np.array([[1000.0, -1000.0], [1000.5, -999.0]])
    p = softmax_cols(z)
    assert np.allclose(p.sum(axis=0), 1.0)
    assert np.all(np.isfinite(p))


# -- loss ------------------------------------------------------------------

def test_cross_entropy_hand_case():
    z = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
    labels = np.array([0, 2])
    loss, delta = cross_entropy_softmax(z, labels)
    # column 0: -log softmax_0 of (1,2,3); column 1: -log softmax_2 of (0,1,2)
    e = [math.exp(1.0), math.exp(2.0), math.exp(3.0)]
    l0 = -math.log(e[0] / sum(e))
    f = [math.exp(0.0), math.exp(1.0), math.exp(2.0)]
    l1 = -math.log(f[2] / sum(f))
    assert loss == pytest.approx((l0 + l1) / 2.0, rel=1e-12)
    probs = softmax_cols(z)
    onehot = np.zeros_like(z)
    onehot[0, 0] = onehot[2, 1] = 1.0
    assert np.max(np.abs(delta - (probs - onehot))) < 1e-15


def test_cross_entropy_uniform_logits_is_log_c():
    z = np.zeros((5, 7))
    loss, _ = cross_entropy_softmax(z, np.zeros(7, dtype=int))
    assert loss == pytest.approx(math.log(5.0), rel=1e-12)


def test_cross_entropy_confident_correct_is_near_zero():
    z = np.zeros((3, 1))
    z[1, 0] = 50.0
    loss, _ = cross_entropy_softmax(z, np.array([1]))
    assert loss < 1e-12


def test_cross_entropy_validates_labels():
    z = np.zeros((3, 2))
    with pytest.raises(ValueError):
        cross_entropy_softmax(z, np.array([0, 3]))
    with pytest.raises(ShapeError):
        cross_entropy_softmax(z, np.array([0]))


# -- backward --------------------------------------------------------------

def manual_two_layer_step(w1, b1, w2, b2, x, labels, lr):
    """Textbook backprop written independently of the library code."""
    batch = x.shape[1]
    z1 = w1 @ x + b1[:, None]
    a1 = np.maximum(z1, 0.0)
    z2 = w2 @ a1 + b2[:, None]
    p = np.exp(z2 - z2.max(axis=0)) / np.exp(z2 - z2.max(axis=0)).sum(axis=0)
    d2 = p.copy()
    d2[labels, np.arange(batch)] -= 1.0
    g_w2 = d2 @ a1.T
    g_b2 = d2.sum(axis=1)
    d1 = (w2.T @ d2) * (z1 > 0.0)
    g_w1 = d1 @ x.T
    g_b1 = d1.sum(axis=1)
    return (w1 - lr / batch * g_w1, b1 - lr / batch * g_b1,
            w2 - lr / batch * g_w2, b2 - lr / batch * g_b2)


def test_backward_matches_manual_backprop():
    rng = make_rng(9)
    net = Network.from_dims([3, 5, 4])
    net.init_weights(9)
    x = rng.standard_normal((3, 6))
    labels = rng.integers(0, 4, size=6)
    w1, b1 = net.linears[0].W.copy(), net.linears[0].b.copy()
    w2, b2 = net.linears[1].W.copy(), net.linears[1].b.copy()
    ex = LocalExecutor()
    _, cache = forward(net, x, ex)
    expect_loss, _ = cross_entropy_softmax(cache.preacts[net.linears[-1].layer_id], labels)
    assert backward(net, cache, labels, ex, learning_rate=0.1, batch_size=6) == expect_loss
    e_w1, e_b1, e_w2, e_b2 = manual_two_layer_step(w1, b1, w2, b2, x, labels, 0.1)
    assert np.max(np.abs(net.linears[0].W - e_w1)) < 1e-12
    assert np.max(np.abs(net.linears[0].b - e_b1)) < 1e-12
    assert np.max(np.abs(net.linears[1].W - e_w2)) < 1e-12
    assert np.max(np.abs(net.linears[1].b - e_b2)) < 1e-12


def numeric_gradients(net, x, labels, eps=1e-5):
    """Central finite differences of the batch loss for every parameter."""

    def loss_now():
        _, cache = forward(net, x, LocalExecutor())
        loss, _ = cross_entropy_softmax(cache.preacts[net.linears[-1].layer_id], labels)
        return loss

    grads = []
    for lin in net.linears:
        g_w = np.zeros_like(lin.W)
        for i in range(lin.W.shape[0]):
            for j in range(lin.W.shape[1]):
                orig = lin.W[i, j]
                lin.W[i, j] = orig + eps
                up = loss_now()
                lin.W[i, j] = orig - eps
                down = loss_now()
                lin.W[i, j] = orig
                g_w[i, j] = (up - down) / (2.0 * eps)
        g_b = np.zeros_like(lin.b)
        for i in range(lin.b.size):
            orig = lin.b[i]
            lin.b[i] = orig + eps
            up = loss_now()
            lin.b[i] = orig - eps
            down = loss_now()
            lin.b[i] = orig
            g_b[i] = (up - down) / (2.0 * eps)
        grads.append((g_w, g_b))
    return grads


def analytic_gradients(net, x, labels):
    """Pull gradients out of the executor seam products."""
    batch = x.shape[1]
    ex = LocalExecutor()
    _, cache = forward(net, x, ex)
    _, delta = cross_entropy_softmax(cache.preacts[net.linears[-1].layer_id], labels)
    grads = [None] * len(net.linears)
    for i in range(len(net.linears) - 1, -1, -1):
        lin = net.linears[i]
        t1, t2 = ex.multiply_backward(lin.layer_id, delta)
        grads[i] = (t1.T / batch, delta.sum(axis=1) / batch)
        if i > 0:
            delta = t2.T * (cache.preacts[net.linears[i - 1].layer_id] > 0.0)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_gradients_match_finite_differences():
    rng = make_rng(13)
    net = Network.from_dims([4, 6, 5, 3])
    net.init_weights(13)
    x = rng.standard_normal((4, 8))
    labels = rng.integers(0, 3, size=8)
    err = max_relative_error(analytic_gradients(net, x, labels),
                             numeric_gradients(net, x, labels))
    assert err <= 1e-4


def test_backward_applies_no_update_on_executor_failure():
    class Exploding(LocalExecutor):
        def multiply_backward(self, layer_id, delta):
            if layer_id == 0:
                raise RuntimeError("boom")
            return super().multiply_backward(layer_id, delta)

    rng = make_rng(14)
    net = Network.from_dims([3, 4, 2])
    net.init_weights(14)
    before = [lin.W.copy() for lin in net.linears]
    ex = Exploding()
    x = rng.standard_normal((3, 5))
    labels = rng.integers(0, 2, size=5)
    _, cache = forward(net, x, ex)
    with pytest.raises(RuntimeError):
        backward(net, cache, labels, ex, 0.1, 5)
    for lin, w in zip(net.linears, before):
        assert np.array_equal(lin.W, w)


# -- training --------------------------------------------------------------

def test_training_reaches_accuracy_and_loss_drops():
    ds = gen_blobs(100, 2, 2, separation=10.0, seed=3)
    net = Network.from_dims([2, 16, 2])
    net.init_weights(7)
    losses = [e["loss"] for e in train(net, ds, TrainConfig(0.05, 25, 12, seed=7),
                                       LocalExecutor())]
    assert len(losses) == 12
    assert losses[-1] < losses[0]
    assert accuracy(net, ds) >= 0.95
    for lin in net.linears:
        assert lin.W.shape == (lin.out_dim, lin.in_dim)
        assert np.all(np.isfinite(lin.W)) and np.all(np.isfinite(lin.b))


def test_train_returns_one_log_entry_per_epoch(monkeypatch):
    """Each entry is its epoch's number, the mean of its batches' losses
    and its wall time."""
    ds = gen_blobs(13, 2, 2, separation=8.0, seed=2)  # 26 samples, batch 8 -> 4 batches
    net = Network.from_dims([2, 4, 2])
    net.init_weights(2)
    batch_losses = []
    step = nn.backward

    def record(*args):
        batch_losses.append(step(*args))
        return batch_losses[-1]

    monkeypatch.setattr(nn, "backward", record)
    log = train(net, ds, TrainConfig(0.1, 8, 3, seed=2), LocalExecutor())
    assert [sorted(e) for e in log] == [["epoch", "loss", "seconds"]] * 3
    assert [e["epoch"] for e in log] == [0, 1, 2]
    assert [e["loss"] for e in log] == [float(np.mean(batch_losses[i:i + 4]))
                                        for i in (0, 4, 8)]
    assert all(e["seconds"] >= 0.0 for e in log)


def test_training_is_deterministic_under_seed():
    ds = gen_blobs(40, 2, 2, separation=6.0, seed=1)

    def run():
        net = Network.from_dims([2, 8, 2])
        net.init_weights(4)
        train(net, ds, TrainConfig(0.1, 16, 3, seed=4), LocalExecutor())
        return net

    a, b = run(), run()
    assert all(x.W.tobytes() == y.W.tobytes() for x, y in zip(a.linears, b.linears))
    assert all(x.b.tobytes() == y.b.tobytes() for x, y in zip(a.linears, b.linears))


def test_training_handles_partial_final_batch():
    ds = gen_blobs(13, 2, 2, separation=8.0, seed=2)  # 26 samples, batch 8 -> 3+1 batches
    net = Network.from_dims([2, 4, 2])
    net.init_weights(2)
    seen = [e["loss"] for e in train(net, ds, TrainConfig(0.1, 8, 1, seed=2), LocalExecutor())]
    assert len(seen) == 1 and np.isfinite(seen[0])


def test_zero_epochs_changes_nothing():
    ds = gen_blobs(10, 2, 2, separation=5.0, seed=0)
    net = Network.from_dims([2, 4, 2])
    net.init_weights(1)
    before = [lin.W.copy() for lin in net.linears]
    assert train(net, ds, TrainConfig(0.1, 5, 0, seed=1), LocalExecutor()) == []
    for lin, w in zip(net.linears, before):
        assert np.array_equal(lin.W, w)


def test_train_rejects_batch_larger_than_dataset():
    ds = gen_blobs(3, 2, 2, separation=5.0, seed=0)
    net = Network.from_dims([2, 4, 2])
    net.init_weights(1)
    with pytest.raises(ShapeError):
        train(net, ds, TrainConfig(0.1, 100, 1, seed=1), LocalExecutor())


def test_predict_shape_and_single_sample():
    net = tiny_net()
    labels = predict(net, np.array([[1.0], [2.0]]))
    assert labels.shape == (1,)
    assert labels[0] in (0, 1)
