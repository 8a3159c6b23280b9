import json

import numpy as np
import pytest

from ernie_lab.net import (GradBundle, Net, grads_to_vector, hvp, load_net,
                           n_params, net_forward, net_from_json, net_grads,
                           net_init, net_to_json, net_vjp, params_to_vector,
                           save_net, vector_to_net)


def test_init_deterministic():
    a = net_init([2, 2], seed=3)
    b = net_init([2, 2], seed=3)
    for wa, wb in zip(a.weights, b.weights):
        assert wa.tobytes() == wb.tobytes()
    for ba, bb in zip(a.biases, b.biases):
        assert ba.tobytes() == bb.tobytes()


def test_init_rejects_bad_params():
    with pytest.raises(ValueError):
        net_init([], seed=0)
    with pytest.raises(ValueError):
        net_init([4], seed=0)
    with pytest.raises(ValueError):
        net_init([4, 2], seed=0, scale=0.0)


def test_init_weight_range():
    net = net_init([4, 8, 2], seed=0, scale=1.0)
    assert np.abs(net.weights[0]).max() <= 1.0 / np.sqrt(4)
    assert np.abs(net.weights[1]).max() <= 1.0 / np.sqrt(8)
    assert all(np.all(b == 0) for b in net.biases)


def test_forward_zero_params():
    net = net_init([3, 4, 2], seed=1)
    zero = vector_to_net(net, np.zeros(n_params(net)))
    assert np.array_equal(net_forward(zero, np.ones(3)), np.zeros(2))


def test_forward_identity_layer():
    net = Net(layer_dims=(2, 2), weights=(np.eye(2),), biases=(np.zeros(2),),
              activation="identity")
    x = np.array([0.3, -1.2])
    assert np.array_equal(net_forward(net, x), x)


def test_forward_single_affine():
    net = Net(layer_dims=(1, 1), weights=(np.array([[2.0]]),),
              biases=(np.array([1.0]),), activation="relu")
    assert net_forward(net, np.array([3.0]))[0] == 7.0


def test_forward_shape_error():
    net = net_init([3, 2], seed=0)
    with pytest.raises(ValueError):
        net_forward(net, np.ones(4))


def test_grads_single_affine_oracle():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 4))
    net = Net(layer_dims=(4, 3), weights=(w,), biases=(np.zeros(3),),
              activation="identity")
    x = rng.standard_normal(4)
    u = rng.standard_normal(3)
    g = net_grads(net, x, u)
    assert np.allclose(g.grad_input, w.T @ u)
    assert np.allclose(g.grad_params[0][0], np.outer(u, x))
    assert np.allclose(g.grad_params[0][1], u)


def test_grads_zero_upstream():
    net = net_init([3, 5, 2], seed=4)
    g = net_grads(net, np.ones(3), np.zeros(2))
    assert not np.any(g.grad_input)
    assert not np.any(grads_to_vector(g.grad_params))


def test_grads_match_finite_differences():
    net = net_init([3, 6, 2], activation="tanh", seed=9)
    x = np.array([0.4, -0.2, 0.7])
    u = np.array([1.0, -0.5])
    theta = params_to_vector(net)
    h = 1e-6 * (1.0 + np.linalg.norm(theta))
    fd = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        fp = u @ net_forward(vector_to_net(net, theta + e), x)
        fm = u @ net_forward(vector_to_net(net, theta - e), x)
        fd[i] = (fp - fm) / (2 * h)
    got = grads_to_vector(net_grads(net, x, u).grad_params)
    assert np.linalg.norm(got - fd) / np.linalg.norm(fd) < 1e-6


def test_hvp_quadratic():
    a = np.array([1.0, 2.0])
    out = hvp(lambda t: a * t, np.zeros(2), np.ones(2))
    assert np.abs(out - a).max() < 1e-6


def test_hvp_linear_in_v():
    net = net_init([2, 3, 1], activation="tanh", seed=2)
    theta = params_to_vector(net)
    x = np.array([0.2, -0.8])

    def grad_fn(t):
        m = vector_to_net(net, t)
        return grads_to_vector(net_grads(m, x, net_forward(m, x)).grad_params)

    v = np.random.default_rng(5).standard_normal(theta.size)
    a, b = hvp(grad_fn, theta, 10 * v), 10 * hvp(grad_fn, theta, v)
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-5


def test_hvp_zero_v_rejected():
    with pytest.raises(ValueError):
        hvp(lambda t: t, np.ones(2), np.zeros(2))


def test_batched_forward_matches_rows():
    net = net_init([3, 4, 2], seed=11)
    xs = np.random.default_rng(0).standard_normal((5, 3))
    batched = net_forward(net, xs)
    for i in range(5):
        # matrix-matrix and matrix-vector BLAS paths differ at ulp level
        assert np.abs(batched[i] - net_forward(net, xs[i])).max() < 1e-12


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_vjp_reuses_forward_bit_for_bit(activation):
    net = net_init([5, 7, 6, 3], activation=activation, seed=4)
    rng = np.random.default_rng(2)
    x, u = rng.standard_normal((9, 5)), rng.standard_normal((9, 3))
    y, vjp = net_vjp(net, x)
    assert y.tobytes() == net_forward(net, x).tobytes()
    got, want = vjp(u), net_grads(net, x, u)
    assert got.grad_input.tobytes() == want.grad_input.tobytes()
    assert grads_to_vector(got.grad_params).tobytes() == \
        grads_to_vector(want.grad_params).tobytes()
    with pytest.raises(ValueError):
        vjp(u[:4])
    with pytest.raises(ValueError):
        vjp(u[:, :2])
    with pytest.raises(ValueError):
        net_vjp(net, x[0])


def test_json_roundtrip(tmp_path):
    net = net_init([3, 4, 2], activation="tanh", seed=8)
    path = tmp_path / "net.json"
    save_net(net, path)
    loaded = load_net(path)
    assert loaded.layer_dims == net.layer_dims
    assert loaded.activation == net.activation
    for a, b in zip(loaded.weights, net.weights):
        assert np.array_equal(a, b)
    doc = json.loads(path.read_text())
    assert set(doc) == {"layer_dims", "activation", "weights", "biases"}


def test_json_rejects_nonfinite():
    net = net_init([2, 2], seed=0)
    doc = net_to_json(net)
    doc["weights"][0][0][0] = float("nan")
    with pytest.raises(ValueError):
        net_from_json(json.loads(json.dumps(doc)))
