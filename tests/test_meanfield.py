# The mean-field cloud attack on the critic (train._cloud_regularizer_grad)
# and the transport distances between particle clouds.
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ernie_lab.config import ConfigError, resolve_config
from ernie_lab.meanfield import w_distance
from ernie_lab.net import Net, net_init, net_vjp, vector_to_net
from ernie_lab.train import _cloud_regularizer_grad

N_AGENTS, ROWS = 3, 6
STATE_DIM = 6 * N_AGENTS           # coopnav: agent positions come first
IN_DIM = STATE_DIM + 2 * N_AGENTS  # plus the joint action


def _batch(seed):
    rng = np.random.default_rng(seed)
    return {"state": rng.uniform(-1, 1, size=(ROWS, STATE_DIM)),
            "actions": rng.uniform(-1, 1, size=(ROWS, N_AGENTS, 2))}


def _linear_critic(w, bias=0.0):
    return Net(layer_dims=(IN_DIM, 1), weights=(np.asarray(w, float)[None, :],),
               biases=(np.array([bias]),), activation="relu")


def _cloud(critic, batch, steps=0, eta=0.05, lam_w=1.0, jitter=0.01, seed=0):
    return _cloud_regularizer_grad(critic, batch, N_AGENTS, ROWS, steps, eta, lam_w,
                                   jitter, np.random.default_rng(seed))


def test_w_distance_identical_clouds():
    cloud = np.random.default_rng(0).standard_normal((4, 2))
    assert w_distance(cloud, cloud, "identity_coupling") == 0.0
    assert w_distance(cloud, cloud, "exact_matching") == 0.0
    one_d = cloud[:, :1]
    assert w_distance(one_d, one_d, "closed_form_1d") == 0.0


def test_w_distance_point_masses():
    x, y = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
    for mode in ("identity_coupling", "exact_matching"):
        assert abs(w_distance(x, y, mode) - 5.0) < 1e-12
    assert w_distance([[0.0]], [[2.0]], "closed_form_1d") == 2.0


def test_w_distance_swap_cloud_oracle():
    a = np.array([[0.0], [1.0]])
    b = np.array([[1.0], [0.0]])
    assert w_distance(a, b, "closed_form_1d") == 0.0
    assert w_distance(a, b, "identity_coupling") == 1.0
    assert w_distance(a, b, "exact_matching") == 0.0


def test_identity_coupling_upper_bounds_exact():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 2))
        assert (w_distance(a, b, "identity_coupling")
                >= w_distance(a, b, "exact_matching") - 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    *[st.lists(st.floats(-1e3, 1e3), min_size=2 * n, max_size=2 * n)] * 2)))
def test_identity_coupling_upper_bounds_exact_property(clouds):
    # two equal-size 2-D clouds of n <= 8 points, as flat coordinate lists
    a, b = (np.reshape(c, (-1, 2)) for c in clouds)
    assert (w_distance(a, b, "identity_coupling")
            >= w_distance(a, b, "exact_matching") - 1e-9)


def test_closed_form_1d_matches_exact():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, 1))
        b = rng.standard_normal((n, 1))
        assert abs(w_distance(a, b, "closed_form_1d")
                   - w_distance(a, b, "exact_matching")) < 1e-9


def test_w_distance_symmetry():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
    assert abs(w_distance(a, b, "exact_matching")
               - w_distance(b, a, "exact_matching")) < 1e-12


def test_w_distance_assignment_branch():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((12, 2)), rng.standard_normal((12, 2))
    d = w_distance(a, b, "exact_matching")
    assert d >= 0.0
    with pytest.raises(ValueError):
        w_distance(rng.standard_normal((17, 2)), rng.standard_normal((17, 2)),
                   "exact_matching")
    with pytest.raises(ValueError):
        w_distance(a, b, "closed_form_1d")


def test_exact_matching_matches_brute_force():
    # the assignment solver against every permutation, at n <= 7
    rng = np.random.default_rng(12)
    for n in range(1, 8):
        for _ in range(3):
            a, b = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
            costs = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
            brute = min(sum(costs[i, p[i]] for i in range(n))
                        for p in itertools.permutations(range(n))) / n
            assert abs(w_distance(a, b, "exact_matching") - brute) < 1e-12


def test_mf_regularizer_zero_cases():
    batch = _batch(5)
    critic = net_init([IN_DIM, 8, 1], activation="tanh", seed=3)
    value, grad, move = _cloud(critic, batch, jitter=0.0)
    assert (value, move) == (0.0, 0.0) and not grad.any()
    const = _linear_critic(np.zeros(IN_DIM), bias=4.2)
    value, grad, move = _cloud(const, batch, jitter=0.5)
    assert value == 0.0 and not grad.any() and move > 0.0


def test_mf_regularizer_linear_closed_form():
    # Q linear in the agent positions: a cloud shift v changes Q by w.v, so
    # the regularizer is the mean of (w.v)^2 over rows
    w = np.zeros(IN_DIM)
    w[:2 * N_AGENTS] = np.random.default_rng(6).standard_normal(2 * N_AGENTS)
    shift = 0.3 * np.random.default_rng(0).standard_normal((ROWS, 2 * N_AGENTS))
    value, _, move = _cloud(_linear_critic(w), _batch(6), jitter=0.3)
    assert value == pytest.approx(np.mean((shift @ w[:2 * N_AGENTS]) ** 2), rel=1e-12)
    want = np.mean(np.linalg.norm(shift.reshape(ROWS, N_AGENTS, 2), axis=2))
    assert move == pytest.approx(want, rel=1e-12)


def test_mf_attack_constant_q_penalty_only():
    # with no Q gradient each particle steps eta * lam_w / N toward its clean
    # position, so it ends within one step of it
    const = _linear_critic(np.zeros(IN_DIM))
    batch = _batch(7)
    _, _, start = _cloud(const, batch, steps=0)
    value, _, move = _cloud(const, batch, steps=40, eta=0.005)
    assert value == 0.0
    assert move <= 0.005 / N_AGENTS + 1e-12 < start


def test_mf_attack_large_penalty_pins_cloud():
    critic = net_init([IN_DIM, 8, 1], activation="tanh", seed=3)
    _, _, move = _cloud(critic, _batch(8), steps=100, eta=1e-9, lam_w=1e6)
    assert move < 1e-3


def test_mf_attack_deterministic():
    critic = net_init([IN_DIM, 8, 1], activation="tanh", seed=4)
    batch = _batch(9)
    a = _cloud(critic, batch, steps=3, seed=5)
    b = _cloud(critic, batch, steps=3, seed=5)
    assert a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2] == b[2]
    assert a[0] >= 0.0
    # the jitter is the attack stream's only draw
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    _cloud_regularizer_grad(critic, batch, N_AGENTS, ROWS, 3, 0.05, 1.0, 0.01, rng)
    ref.standard_normal((ROWS, 2 * N_AGENTS))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_mf_attack_validation():
    doc = {"algo": "mf_ddpg", "env": "coopnav"}
    for bad in ({"mf_steps": -1}, {"lambda_w": -1.0}):
        with pytest.raises(ConfigError):
            resolve_config(dict(doc, meanfield=dict(bad, enabled=True)))
    # the cloud attack runs on mf_ddpg only
    for algo, env in (("ddpg", "coopnav"), ("qcombo", "gridq")):
        with pytest.raises(ConfigError, match="meanfield.enabled"):
            resolve_config({"algo": algo, "env": env, "meanfield": {"enabled": True}})
    assert resolve_config(dict(doc, meanfield={"enabled": True}))["meanfield"]["enabled"]


def _cloud_reference(critic, batch, n_agents, rows, steps, eta, lam_w, jitter,
                     attack_rng):
    # The cloud regularizer as one full net_vjp pass per ascent step, each
    # keeping its parameter gradient unread: the form the input-only ascent
    # must reproduce bit for bit.
    rows = min(rows, batch["state"].shape[0])
    acts = batch["actions"][:rows].reshape(rows, -1)
    x0 = np.concatenate([batch["state"][:rows], acts], axis=1)
    q0, vjp0 = net_vjp(critic, x0)
    q0 = q0[:, 0]
    pdim = 2 * n_agents
    pos0 = x0[:, :pdim]
    pos = pos0 + (jitter * attack_rng.standard_normal(pos0.shape) if jitter > 0
                  else 0.0)
    for _ in range(steps):
        x = x0.copy()
        x[:, :pdim] = pos
        q, vjp = net_vjp(critic, x)
        gin = vjp((2.0 * (q[:, 0] - q0))[:, None]).grad_input[:, :pdim]
        dpos = (pos - pos0).reshape(rows, n_agents, 2)
        nrm = np.linalg.norm(dpos, axis=2, keepdims=True)
        pen = np.where(nrm > 1e-12, dpos / np.maximum(nrm, 1e-12), 0.0)
        pos = pos + eta * (gin - lam_w * pen.reshape(rows, pdim) / n_agents)
    x = x0.copy()
    x[:, :pdim] = pos
    q, vjp = net_vjp(critic, x)
    diff = q[:, 0] - q0
    value = float(np.mean(diff ** 2))
    up = (2.0 * diff / rows)[:, None]
    grad = vjp(up).grad_theta - vjp0(up).grad_theta
    move = float(np.mean(np.linalg.norm((pos - pos0).reshape(rows, n_agents, 2), axis=2)))
    return value, grad, move


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("steps", [0, 1, 10])
@pytest.mark.parametrize("jitter", [0.0, 0.01, 0.4])
def test_cloud_regularizer_matches_per_step_vjp_reference(activation, steps, jitter):
    for seed in range(4):
        critic = net_init([IN_DIM, 16, 1], activation=activation, seed=seed)
        critic = vector_to_net(critic, critic.theta + 0.1 * np.random.default_rng(
            seed).standard_normal(critic.theta.size))
        batch = _batch(20 + seed)
        args = (critic, batch, N_AGENTS, ROWS, steps, 0.05, 1.0, jitter)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        value, grad, move = _cloud_regularizer_grad(*args, rng)
        want = _cloud_reference(*args, ref_rng)
        assert (value, grad.tobytes(), move) == (want[0], want[1].tobytes(), want[2])
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_cloud_regularizer_grad_matches_fd():
    # steps = 0: the jittered positions do not depend on theta, so the
    # returned theta-gradient is the derivative of the returned value
    critic = net_init([IN_DIM, 8, 1], activation="tanh", seed=6)
    batch = _batch(11)
    value, grad, _ = _cloud(critic, batch, jitter=0.4, seed=2)
    assert value > 0.0
    theta, h = critic.theta, 1e-6
    fd = np.empty_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd[j] = (_cloud(vector_to_net(critic, theta + e), batch, jitter=0.4, seed=2)[0]
                 - _cloud(vector_to_net(critic, theta - e), batch, jitter=0.4,
                          seed=2)[0]) / (2 * h)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6
