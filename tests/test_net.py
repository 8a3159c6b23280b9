import pickle

import numpy as np
import pytest

from ernie_lab.net import (Net, hvp, load_net, n_params, net_forward, net_grads,
                           net_init, net_vjp, params_to_vector, save_net,
                           stack_nets, vector_to_net)


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
    # one affine layer applies no activation
    net = Net(layer_dims=(2, 2), weights=(np.eye(2),), biases=(np.zeros(2),),
              activation="relu")
    x = np.array([0.3, -1.2])
    assert np.array_equal(net_forward(net, x), x)


def test_forward_single_affine():
    net = Net(layer_dims=(1, 1), weights=(np.array([[2.0]]),),
              biases=(np.array([1.0]),), activation="relu")
    assert net_forward(net, np.array([3.0]))[0] == 7.0


def test_unknown_activation_rejected():
    # an unknown name used to compute tanh silently
    with pytest.raises(ValueError, match="activation must be one of"):
        Net(layer_dims=(1, 1, 1), weights=(np.ones((1, 1)), np.ones((1, 1))),
            biases=(np.zeros(1), np.zeros(1)), activation="sigmoid")
    with pytest.raises(ValueError, match="activation must be one of"):
        net_init([2, 3, 1], activation="identity")


def test_forward_shape_error():
    net = net_init([3, 2], seed=0)
    with pytest.raises(ValueError):
        net_forward(net, np.ones(4))


def test_grads_single_affine_oracle():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 4))
    net = Net(layer_dims=(4, 3), weights=(w,), biases=(np.zeros(3),),
              activation="relu")
    x = rng.standard_normal(4)
    u = rng.standard_normal(3)
    g = net_grads(net, x, u)
    assert np.allclose(g.grad_input, w.T @ u)
    assert np.allclose(g.grad_theta, np.concatenate([np.outer(u, x).ravel(), u]))


def test_grads_zero_upstream():
    net = net_init([3, 5, 2], seed=4)
    g = net_grads(net, np.ones(3), np.zeros(2))
    assert not np.any(g.grad_input)
    assert not np.any(g.grad_theta)


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
    got = net_grads(net, x, u).grad_theta
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
        return net_grads(m, x, net_forward(m, x)).grad_theta

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
    assert got.grad_theta.tobytes() == want.grad_theta.tobytes()
    with pytest.raises(ValueError):
        vjp(u[:4])
    with pytest.raises(ValueError):
        vjp(u[:, :2])
    with pytest.raises(ValueError):
        net_vjp(net, x[0])


def _agents(activation, n=3, dims=(6, 8, 3), seed=0):
    # per-agent nets with nonzero biases, and their stack
    rng = np.random.default_rng(seed)
    nets = []
    for i in range(n):
        net = net_init(dims, activation=activation, seed=seed + i)
        nets.append(vector_to_net(net, net.theta + 0.1 * rng.standard_normal(net.theta.size)))
    return nets, stack_nets(nets)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("batch", [1, 32, 64])
def test_stack_forward_and_vjp_match_per_agent_bit_for_bit(activation, batch):
    nets, stack = _agents(activation)
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 3, 6))           # (B, N, d), as a replay batch
    u = rng.standard_normal((3, batch, 3))
    xs = x.transpose(1, 0, 2)                        # agent-major view, not a copy
    y = net_forward(stack, xs)
    y_vjp, vjp = net_vjp(stack, xs)
    got = vjp(u)
    assert y.shape == (3, batch, 3) and got.grad_theta.shape == stack.theta.shape
    assert y_vjp.tobytes() == y.tobytes()
    for i, net in enumerate(nets):
        assert y[i].tobytes() == net_forward(net, x[:, i]).tobytes()
        want = net_grads(net, x[:, i], u[i])
        assert got.grad_theta[i].tobytes() == want.grad_theta.tobytes()
        assert got.grad_input[i].tobytes() == want.grad_input.tobytes()
    stacked_grads = net_grads(stack, xs, u)
    assert stacked_grads.grad_theta.tobytes() == got.grad_theta.tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("dims", [(6, 3), (6, 8, 3), (6, 8, 5, 3)])
@pytest.mark.parametrize("stacked", [False, True])
def test_selective_reverse_pass_matches_both(activation, dims, stacked):
    # wrt="theta" and wrt="input" compute their field bit for bit as the
    # full pass does and leave the other None; the closure can be called
    # again, in any order, with the same results
    nets, stack = _agents(activation, dims=dims, seed=len(dims))
    net = stack if stacked else nets[1]
    rng = np.random.default_rng(len(dims))
    lead = (3, 16) if stacked else (16,)
    x, u = rng.standard_normal(lead + (6,)), rng.standard_normal(lead + (3,))
    u_before = u.copy()
    _, vjp = net_vjp(net, x)
    both, theta, inp = vjp(u), vjp(u, wrt="theta"), vjp(u, wrt="input")
    assert theta.grad_input is None and inp.grad_theta is None
    assert theta.grad_theta.tobytes() == both.grad_theta.tobytes()
    assert inp.grad_input.tobytes() == both.grad_input.tobytes()
    again = vjp(u, wrt="both")
    assert again.grad_theta.tobytes() == both.grad_theta.tobytes()
    assert again.grad_input.tobytes() == both.grad_input.tobytes()
    assert vjp(u, wrt="theta").grad_theta.tobytes() == theta.grad_theta.tobytes()
    assert vjp(u, wrt="input").grad_input.tobytes() == inp.grad_input.tobytes()
    assert u.tobytes() == u_before.tobytes()
    with pytest.raises(ValueError, match="wrt must be one of"):
        vjp(u, wrt="params")


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stack_forward_one_observation_per_agent(activation):
    # (N, d): each agent's 1-D single-input result, bit for bit
    nets, stack = _agents(activation, n=4)
    obs = np.random.default_rng(5).standard_normal((4, 6))
    y = net_forward(stack, obs)
    assert y.shape == (4, 3)
    for i, net in enumerate(nets):
        assert y[i].tobytes() == net_forward(net, obs[i]).tobytes()
    for bad in (obs[:3], obs[0], obs[:, :5]):
        with pytest.raises(ValueError):
            net_forward(stack, bad)
    with pytest.raises(ValueError):
        net_vjp(stack, obs)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("n", [1, 3])
def test_stack_forward_row_stacks_match_per_episode_calls(activation, n):
    # (M, N, 1, d): row stack m is bit for bit the (N, d) call on episode m,
    # as lock-step evaluation relies on
    nets, stack = _agents(activation, n=n)
    obs = np.random.default_rng(8).standard_normal((15, n, 6))
    y = net_forward(stack, obs[:, :, None, :])
    assert y.shape == (15, n, 1, 3)
    for m in range(15):
        assert y[m, :, 0].tobytes() == net_forward(stack, obs[m]).tobytes()
    with pytest.raises(ValueError):
        net_vjp(stack, obs[:, :, None, :])


def test_stack_rejects_row_stacks_of_another_agent_count():
    # Without the guard a 1-agent stack would broadcast over any agent axis.
    _, one = _agents("relu", n=1)
    _, three = _agents("relu", n=3)
    x = np.random.default_rng(9).standard_normal((4, 3, 1, 6))
    assert net_forward(three, x).shape == (4, 3, 1, 3)
    with pytest.raises(ValueError, match=r"is not \(1, B, 6\) or \(M, 1, 1, 6\)"):
        net_forward(one, x)
    for bad in (x[:, :2], np.repeat(x, 2, axis=2)):
        with pytest.raises(ValueError, match="agent stack input shape"):
            net_forward(three, bad)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_row_stack_forward_matches_single_inputs(activation):
    # (M, 1, d) through a single net: row r is net_forward of the 1-D row,
    # bit for bit, unlike an (M, d) batch (test_batched_forward_matches_rows)
    net = _agents(activation, n=1, dims=(28, 64, 1))[0][0]
    xs = np.random.default_rng(6).standard_normal((20, 28))
    y = net_forward(net, xs[:, None, :])
    for r in range(20):
        assert y[r, 0].tobytes() == net_forward(net, xs[r]).tobytes()


def test_stack_rows_are_read_only_views():
    nets, stack = _agents("tanh")
    assert stack.stacked and not nets[0].stacked and len(stack) == 3
    assert not stack.theta.flags.writeable
    for i, row in enumerate(stack):
        assert np.shares_memory(row.theta, stack.theta)
        assert row.theta.tobytes() == nets[i].theta.tobytes()
        assert row.weights[0].tobytes() == stack.weights[0][i].tobytes()
        assert row.biases[1].tobytes() == stack.biases[1][i].tobytes()
    assert stack.weights[0].shape == (3, 8, 6) and stack.biases[0].shape == (3, 8)
    with pytest.raises(ValueError):
        stack_nets([nets[0], net_init([6, 9, 3], activation="tanh")])
    with pytest.raises(ValueError):
        stack_nets([nets[0], net_init([6, 8, 3], activation="relu")])
    with pytest.raises(TypeError):
        nets[0][0]
    with pytest.raises(ValueError):
        save_net(stack, "unused.npy")


def test_params_are_one_read_only_vector():
    w0, b0 = np.arange(6.0).reshape(2, 3), np.array([6.0, 7.0])
    w1, b1 = np.array([[8.0, 9.0]]), np.array([10.0])
    net = Net((3, 2, 1), (w0, w1), (b0, b1))
    theta = params_to_vector(net)
    assert theta is net.theta and np.array_equal(theta, np.arange(11.0))
    assert not theta.flags.writeable
    for view, want in zip(net.weights + net.biases, (w0, w1, b0, b1)):
        assert view.base is theta and np.array_equal(view, want)
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 1.0
    with pytest.raises(AttributeError):
        net.theta = theta
    with pytest.raises(ValueError):
        Net((3, 2, 1), (w0.T, w1), (b0, b1))
    # vector_to_net copies, so the caller's buffer stays its own
    vec = np.ones(11)
    ones = vector_to_net(net, vec)
    vec[0] = 5.0
    assert ones.weights[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        vector_to_net(net, np.ones(10))
    back = pickle.loads(pickle.dumps(net))
    assert back.theta.tobytes() == theta.tobytes() and back.layer_dims == net.layer_dims


def test_checkpoint_roundtrip(tmp_path):
    net = net_init([3, 4, 2], activation="tanh", seed=8)
    path = tmp_path / "net.npy"
    save_net(net, path)
    loaded = load_net(path, [3, 4, 2], "tanh")
    assert loaded.layer_dims == net.layer_dims
    assert loaded.activation == net.activation
    assert loaded.theta.tobytes() == net.theta.tobytes()
    assert not loaded.theta.flags.writeable
    # a bare .npy vector: header plus 8 bytes per parameter, readable by numpy
    assert np.array_equal(np.load(path), net.theta)
    assert path.stat().st_size == 128 + 8 * n_params(net)
    # written to exactly the given path, also without an .npy suffix
    save_net(net, tmp_path / "plain")
    assert (tmp_path / "plain").read_bytes() == path.read_bytes()


def test_checkpoint_rejects_bad_files(tmp_path):
    net = net_init([2, 2], seed=0)
    bad = tmp_path / "bad.npy"
    nan = net.theta.copy()
    nan[0] = float("nan")
    np.save(bad, nan)
    with pytest.raises(ValueError, match="non-finite"):
        load_net(bad, [2, 2], "relu")
    np.save(bad, np.ones(n_params(net) + 1))
    with pytest.raises(ValueError, match="parameters"):
        load_net(bad, [2, 2], "relu")
    np.save(bad, net.theta.astype(np.float32))
    with pytest.raises(ValueError, match="float64"):
        load_net(bad, [2, 2], "relu")
    np.save(bad, np.array([net.theta], dtype=object), allow_pickle=True)
    with pytest.raises(ValueError):
        load_net(bad, [2, 2], "relu")
    bad.write_bytes(pickle.dumps(net.theta))
    with pytest.raises(ValueError):
        load_net(bad, [2, 2], "relu")
    save_net(net, bad)
    with pytest.raises(ValueError):
        load_net(bad, [2, 2], "softplus")
    with pytest.raises(ValueError):
        load_net(bad, [2, 0, 2], "relu")
