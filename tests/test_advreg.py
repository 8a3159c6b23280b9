import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ernie_lab import advreg as advreg_module
from ernie_lab import net as net_module
from ernie_lab.advreg import (KL_FLOOR, AttackConfig, _divergence_grads, _init_delta,
                              _joint_grad_dir, _project_vjp, pgd_attack, project,
                              reg_value_and_grads, sample_ball, stackelberg_grad)
from ernie_lab.net import (Net, _forward_cached, hvp, net_init, net_vjp, stack_nets,
                           vector_to_net)
from ernie_lab.train import _obs_regularizer


def _linear_net(w):
    w = np.asarray(w, dtype=float)
    return Net(layer_dims=(w.shape[1], w.shape[0]), weights=(w,),
               biases=(np.zeros(w.shape[0]),), activation="relu")


def _divergence(a, b, metric):
    return float(_divergence_grads(np.asarray([a]), np.asarray([b]), metric)[0][0])


def _value(net, obs, delta, metric):
    # the regularizer value D(pi(obs + delta), pi(obs)) of one (1, d) row
    return reg_value_and_grads(net, obs, delta, metric, net_vjp(net, obs), wrt="input")[0][0]


def test_divergence_zero_at_equality():
    p = np.array([0.3, 0.7])
    assert _divergence(p, p, "kl") == 0.0
    assert _divergence(p, p, "sq_l2") == 0.0


def test_divergence_kl_oracle():
    got = _divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]), "kl")
    assert abs(got - math.log(2)) < 1e-12


def test_divergence_sq_l2_oracle():
    assert _divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0]), "sq_l2") == 2.0


def test_kl_nonnegative_on_random_simplex_pairs():
    rng = np.random.default_rng(0)
    pairs = np.array([[rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))]
                      for _ in range(200)])
    assert (_divergence_grads(pairs[:, 0], pairs[:, 1], "kl")[0] >= 0.0).all()


def _simplex_rows(rng, rows, m, spread):
    # softmax rows of logits at scale spread: strictly positive distributions
    z = spread * rng.standard_normal((rows, m))
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), rows=st.integers(1, 6), m=st.integers(1, 6),
       spread=st.floats(0.0, 20.0), closeness=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
       metric=st.sampled_from(["kl", "sq_l2"]))
def test_divergence_nonnegative_and_zero_at_equality(seed, rows, m, spread, closeness,
                                                    metric):
    rng = np.random.default_rng(seed)
    a = _simplex_rows(rng, rows, m, spread)
    # b near a (closeness 0: b is a), renormalized onto the simplex
    b = a * np.exp(closeness * rng.standard_normal(a.shape))
    b /= b.sum(axis=-1, keepdims=True)
    vals, _, _ = _divergence_grads(a, b, metric)
    # Gibbs' inequality holds for rows summing to exactly 1. KL floors b at
    # KL_FLOOR, which can lift its sum to 1 + m * KL_FLOOR, and rows
    # normalized in floating point sum to 1 only within rounding; either may
    # take the value below 0 by that much (-1.7e-16 for two 2-entry rows
    # equal up to rounding, -7.9e-13 where softmax entries fall below the floor).
    floor = m * KL_FLOOR + 4 * m * np.finfo(float).eps
    assert vals.shape == (rows,) and (vals >= -floor).all()
    same, da, db = _divergence_grads(a, a.copy(), metric)
    assert (same == 0.0).all()
    if metric == "sq_l2":
        assert (da == 0.0).all() and (db == 0.0).all()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), rows=st.integers(1, 5), dim=st.integers(1, 8),
       log_scale=st.floats(-4.0, 4.0), epsilon=st.floats(1e-3, 10.0),
       norm=st.sampled_from(["l2", "linf"]))
def test_project_lands_in_ball_and_is_idempotent(seed, rows, dim, log_scale, epsilon, norm):
    delta = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal((rows, dim))
    once = project(delta, epsilon, norm)
    twice = project(once, epsilon, norm)
    if norm == "linf":
        assert (np.abs(once) <= epsilon).all()
        assert twice.tobytes() == once.tobytes()
    else:
        # the rescaled row's norm is epsilon up to rounding, so a second
        # projection may rescale it by a factor within rounding of 1
        assert (np.linalg.norm(once, axis=-1) <= epsilon * (1.0 + 1e-12)).all()
        np.testing.assert_allclose(twice, once, rtol=1e-12, atol=0.0)
    inside = np.linalg.norm(delta, axis=-1) <= epsilon if norm == "l2" \
        else np.abs(delta).max(axis=-1) <= epsilon
    assert once[inside].tobytes() == delta[inside].tobytes()  # the ball is left fixed


def test_pgd_constant_policy_keeps_init():
    net = _linear_net(np.zeros((2, 3)))
    cfg = AttackConfig(epsilon=0.2, k_steps=5, metric="sq_l2")
    obs = np.zeros((1, 3))
    delta = pgd_attack(net, obs, cfg, np.random.default_rng(1), net_vjp(net, obs))
    rng = np.random.default_rng(1)
    init = sample_ball((1, 3), 0.1 * cfg.epsilon, "l2", rng)
    assert np.allclose(delta, init)


def test_pgd_epsilon_zero():
    net = net_init([3, 2], seed=0)
    cfg = AttackConfig(epsilon=0.0, k_steps=4, metric="sq_l2")
    obs = np.ones((1, 3))
    delta = pgd_attack(net, obs, cfg, np.random.default_rng(0), net_vjp(net, obs))
    assert np.array_equal(delta, np.zeros((1, 3)))


def test_pgd_linear_top_singular_direction():
    # y = diag(2,1) x: the strongest l2 perturbation of norm 0.1 is (+-0.1, 0)
    net = _linear_net(np.diag([2.0, 1.0]))
    cfg = AttackConfig(epsilon=0.1, k_steps=200, eta=0.01, metric="sq_l2")
    obs = np.array([[0.5, -0.5]])
    delta = pgd_attack(net, obs, cfg, np.random.default_rng(3), net_vjp(net, obs))
    assert abs(abs(delta[0, 0]) - 0.1) < 1e-6
    assert abs(delta[0, 1]) < 1e-4
    assert abs(_value(net, obs, delta, "sq_l2") - 0.04) < 1e-6


def test_pgd_projection_invariant():
    rng = np.random.default_rng(7)
    for norm in ("l2", "linf"):
        for _ in range(20):
            net = net_init([4, 6, 3], seed=int(rng.integers(2 ** 31)))
            cfg = AttackConfig(epsilon=0.3, k_steps=3, metric="sq_l2", norm=norm)
            attack_rng = np.random.default_rng(int(rng.integers(2 ** 31)))
            obs = rng.standard_normal((1, 4))
            delta = pgd_attack(net, obs, cfg, attack_rng, net_vjp(net, obs))
            nrm = np.linalg.norm(delta) if norm == "l2" else np.abs(delta).max()
            assert nrm <= cfg.epsilon + 1e-12


def test_regularizer_zero_delta():
    net = net_init([3, 4, 2], seed=0)
    assert _value(net, np.ones((1, 3)), np.zeros((1, 3)), "sq_l2") == 0.0


def test_regularizer_identity_linear():
    net = _linear_net(np.eye(3))
    delta = np.array([[0.1, 0.0, 0.0]])
    assert abs(_value(net, np.ones((1, 3)), delta, "sq_l2") - 0.01) < 1e-15


def test_gaussian_delta():
    # The gaussian ERNIE baseline draws delta = sigma * N(0, I) for all rows
    # in one draw from the attack stream, and none at sigma = 0. Through an
    # identity net at obs = 0, the sq_l2 value of a row is ||delta||^2.
    policy = stack_nets([_linear_net(np.eye(4))])
    obs = np.zeros((1, 10 ** 4, 4))
    rng = np.random.default_rng(3)
    value, norm, grad = _obs_regularizer(policy, obs[:, :5], AttackConfig(epsilon=0.0),
                                         "gaussian", rng, False)
    assert (value[0], norm[0]) == (0.0, 0.0) and not grad.any()
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
    for sigma in (1.0, 0.3):
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        (value,), (norm,), _ = _obs_regularizer(policy, obs, AttackConfig(epsilon=sigma),
                                                "gaussian", rng, False)
        delta = sigma * ref.standard_normal(obs.shape)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert value == pytest.approx(np.mean(np.sum(delta ** 2, axis=-1)), rel=1e-12)
        assert norm == pytest.approx(np.mean(np.linalg.norm(delta, axis=-1)), rel=1e-12)
        assert abs(delta.mean()) < 0.05 * sigma
        assert 0.9 < value / (4 * sigma ** 2) < 1.1


def test_stackelberg_k0_equals_plain_gradient():
    net = net_init([3, 4, 2], activation="tanh", seed=5)
    obs = np.array([[0.2, -0.4, 0.9]])
    cfg = AttackConfig(epsilon=0.3, k_steps=0, metric="sq_l2")
    clean = net_vjp(net, obs)
    got = stackelberg_grad(net, obs, cfg, np.random.default_rng(11), clean)[0]
    rng = np.random.default_rng(11)
    delta0 = _init_delta((1, 3), cfg, rng)
    _, _, plain = reg_value_and_grads(net, obs, delta0, "sq_l2", clean)
    assert np.array_equal(got, plain)


def test_stackelberg_constant_policy_zero():
    net = _linear_net(np.zeros((2, 3)))
    cfg = AttackConfig(epsilon=0.2, k_steps=2, metric="sq_l2")
    obs = np.ones((1, 3))
    g = stackelberg_grad(net, obs, cfg, np.random.default_rng(0), net_vjp(net, obs))[0]
    # weight gradients vanish except through the (zero) divergence value
    assert np.allclose(g, 0.0)


def test_attack_soundness_pgd_beats_gaussian():
    # PGD at least matches a random direction of the same norm in >= 80% of trials
    rng = np.random.default_rng(42)
    wins = 0
    trials = 500
    for i in range(trials):
        net = net_init([4, 8, 3], seed=int(rng.integers(2 ** 31)), scale=2.0)
        obs = rng.uniform(-1, 1, size=(1, 4))
        cfg = AttackConfig(epsilon=0.5, k_steps=10, metric="sq_l2")
        delta = pgd_attack(net, obs, cfg, np.random.default_rng(int(rng.integers(2 ** 31))),
                           net_vjp(net, obs))
        raw = np.random.default_rng(i).standard_normal((1, 4))
        rand = raw / np.linalg.norm(raw) * np.linalg.norm(delta)
        v_pgd = _value(net, obs, delta, "sq_l2")
        v_rand = _value(net, obs, rand, "sq_l2")
        wins += v_pgd >= v_rand
    assert wins >= 0.8 * trials, f"pgd won only {wins}/{trials}"


def _project_vjp_row(pre, epsilon, norm, u):
    # Per-row reference: the transposed Jacobian of the l2 / linf projection.
    if norm == "linf":
        return np.where(np.abs(pre) <= epsilon, u, 0.0)
    n = float(np.linalg.norm(pre))
    if n <= epsilon:
        return u
    unit = pre / n
    return (epsilon / n) * (u - unit * float(unit @ u))


def test_project_vjp_batched_matches_rows():
    rng = np.random.default_rng(3)
    eps = 0.5
    for norm in ("l2", "linf"):
        # rows inside, outside and on either side of the ball's surface
        pre = rng.standard_normal((12, 4)) * np.repeat([0.05, 0.2, 1.0, 3.0], 3)[:, None]
        u = rng.standard_normal((12, 4))
        got = _project_vjp(pre, eps, norm, u)
        want = np.stack([_project_vjp_row(p, eps, norm, v) for p, v in zip(pre, u)])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        inside = (np.linalg.norm(pre, axis=1) <= eps if norm == "l2"
                  else np.abs(pre).max(axis=1) <= eps)
        assert inside.any() and not inside.all()
        assert np.allclose(_project_vjp(pre[5], eps, norm, u[5]), want[5], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("metric", ["sq_l2", "kl"])
def test_joint_grad_dir_matches_fd_hvp(metric):
    # Exact forward-over-reverse vs the finite-difference HVP of the joint
    # (delta, theta) gradient along (u, 0), on tanh nets with the metric's head.
    rng = np.random.default_rng(17)
    for trial in range(5):
        net = net_init([4, 6, 3], activation="tanh", seed=trial, scale=1.5)
        rows, dim = 3, net.in_dim
        obs = rng.uniform(-1.0, 1.0, size=(rows, dim))
        delta = 0.3 * rng.standard_normal((rows, dim))
        u = rng.standard_normal((rows, dim))
        theta = net.theta

        def joint_grad(z):
            m = vector_to_net(net, z[rows * dim:])
            _, gd, gt = reg_value_and_grads(m, obs, z[:rows * dim].reshape(rows, dim),
                                            metric, net_vjp(m, obs))
            return np.concatenate([gd.ravel(), gt])

        fd = hvp(joint_grad, np.concatenate([delta.ravel(), theta]),
                 np.concatenate([u.ravel(), np.zeros_like(theta)]))
        h_delta, h_theta = _joint_grad_dir(net, _forward_cached(net, obs + delta), u, metric,
                                           net_vjp(net, obs))
        exact = np.concatenate([h_delta.ravel(), h_theta])
        assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("metric,norm", [("sq_l2", "l2"), ("kl", "linf")])
def test_stackelberg_batched_equals_sum_of_rows(metric, norm):
    rng = np.random.default_rng(5)
    net = net_init([5, 7, 3], activation="tanh", seed=9, scale=2.0)
    obs = rng.uniform(-1.0, 1.0, size=(6, 5))
    cfg = AttackConfig(epsilon=0.4, k_steps=3, metric=metric, norm=norm)
    # one rng shared by the row calls draws the same initial points as the
    # batched call
    batched = stackelberg_grad(net, obs, cfg, np.random.default_rng(8), net_vjp(net, obs))[0]
    row_rng = np.random.default_rng(8)
    rows = sum(stackelberg_grad(net, o[None, :], cfg, row_rng, net_vjp(net, o[None, :]))[0]
               for o in obs)
    assert np.linalg.norm(batched - rows) <= 1e-10 * np.linalg.norm(rows)


def test_stackelberg_attack_is_pgd_attack():
    rng = np.random.default_rng(2)
    net = net_init([4, 6, 2], seed=4)
    obs = rng.uniform(-1.0, 1.0, size=(5, 4))
    cfg = AttackConfig(epsilon=0.6, k_steps=2, metric="sq_l2")
    r1, r2 = np.random.default_rng(13), np.random.default_rng(13)
    clean = net_vjp(net, obs)
    _, delta, vals = stackelberg_grad(net, obs, cfg, r1, clean)
    want = pgd_attack(net, obs, cfg, r2, clean)
    assert np.array_equal(delta, want)
    assert np.array_equal(vals, reg_value_and_grads(net, obs, want, "sq_l2", clean)[0])
    assert r1.bit_generator.state == r2.bit_generator.state


def _sample_ball_row(dim, radius, norm, rng):
    # The per-point formula, called once per row: the first dim of dim + 2
    # standard normals over their norm.
    if norm == "linf":
        return rng.uniform(-radius, radius, size=dim)
    g = rng.standard_normal(dim + 2)
    g_norm = math.sqrt(g.dot(g))
    if g_norm == 0.0:
        return np.zeros(dim)
    return g[:dim] / g_norm * radius


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_sample_ball_block_matches_rows(norm):
    for dim in range(1, 65):
        got_rng, want_rng = np.random.default_rng(dim), np.random.default_rng(dim)
        got = sample_ball((2, 3, dim), 0.7, norm, got_rng)
        want = np.stack([_sample_ball_row(dim, 0.7, norm, want_rng) for _ in range(6)])
        assert got.tobytes() == want.reshape(2, 3, dim).tobytes()
        point = sample_ball(dim, 0.7, norm, got_rng)
        assert point.tobytes() == _sample_ball_row(dim, 0.7, norm, want_rng).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class _ZeroSecondRow:
    """A generator whose normal draws come out all zero in their second row,
    recording the shape of each draw."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def standard_normal(self, size):
        self.sizes.append(size)
        x = self.rng.standard_normal(size)
        x[1] = 0.0
        return x


def test_sample_ball_zero_norm_row():
    # A zero (d + 2) draw gives a zero row; each row draws exactly d + 2
    # normals, in one draw for the block.
    rng = _ZeroSecondRow(4)
    got = sample_ball((3, 5), 0.2, "l2", rng)
    assert rng.sizes == [(3, 7)]
    assert not got[1].any() and got[0].any() and got[2].any()
    want_rng = np.random.default_rng(4)
    want = [_sample_ball_row(5, 0.2, "l2", want_rng) for _ in range(3)]
    for i in (0, 2):
        assert got[i].tobytes() == want[i].tobytes()
    assert rng.rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("dim", [1, 3, 14])
def test_sample_ball_radius_is_uniform_in_volume(dim):
    # Uniform in the ball: (|x| / r)^d, the fraction of the volume within
    # |x|, is uniform on [0, 1], with mean 1/2 and standard deviation
    # 1/sqrt(12); over 200k rows 0.004 is six standard errors.
    x = sample_ball((200_000, dim), 0.3, "l2", np.random.default_rng(dim))
    frac = (np.linalg.norm(x, axis=-1) / 0.3) ** dim
    assert frac.max() <= 1.0 + 1e-12
    assert abs(frac.mean() - 0.5) < 0.004


def _policy_stack_and_rows():
    policy = stack_nets([net_init([4, 6, 3], activation="tanh", seed=i, scale=2.0)
                         for i in range(3)])
    return policy, np.random.default_rng(6).uniform(-1.0, 1.0, size=(3, 5, 4))


@pytest.mark.parametrize("metric", ["sq_l2", "kl"])
def test_reg_value_and_grads_wrt_fields_are_those_of_both(metric):
    # Each field computed under wrt="theta" or "input" is bitwise the one
    # computed under "both", the contract of net_vjp's closure; the field
    # not asked for is None.
    stack, rows = _policy_stack_and_rows()
    agent_1 = net_init([4, 6, 3], activation="tanh", seed=1, scale=2.0)
    for policy, obs in ((stack, rows), (agent_1, rows[1])):
        clean = net_vjp(policy, obs)
        delta = np.random.default_rng(2).uniform(-0.3, 0.3, size=obs.shape)
        vals, gd, gt = reg_value_and_grads(policy, obs, delta, metric, clean)
        for wrt, want in (("theta", (vals, None, gt)), ("input", (vals, gd, None))):
            got = reg_value_and_grads(policy, obs, delta, metric, clean, wrt=wrt)
            for a, b in zip(got, want):
                assert a is None if b is None else a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k_steps", [1, 2, 3])
@pytest.mark.parametrize("stackelberg", [False, True])
def test_attack_runs_one_clean_pass(monkeypatch, k_steps, stackelberg):
    # One regularizer update runs one forward pass per attack input: K + 2
    # policy forward passes under both arms (K ascent steps, the clean pass,
    # the final perturbed pass); the Stackelberg reverse pass reuses the
    # ascent's. Reverse passes: K ascent steps asking for the input gradient,
    # then the final pass and the clean pass; Stackelberg adds one clean
    # reverse pass per reverse step. The PGD arm's final passes ask for the
    # parameter gradient only.
    forward, backward = [], []
    real_forward, real_backward = net_module._forward_cached, net_module._backward

    def counting_forward(net, x):
        forward.append(np.shape(x))
        return real_forward(net, x)

    def counting_backward(net, acts, upstream, wrt="both"):
        backward.append(wrt)
        return real_backward(net, acts, upstream, wrt)

    for module in (net_module, advreg_module):
        monkeypatch.setattr(module, "_forward_cached", counting_forward)
        monkeypatch.setattr(module, "_backward", counting_backward)
    policy, obs = _policy_stack_and_rows()
    cfg = AttackConfig(epsilon=0.5, k_steps=k_steps, metric="sq_l2")
    _obs_regularizer(policy, obs, cfg, "pgd", np.random.default_rng(0), stackelberg)
    assert len(forward) == k_steps + 2
    assert all(shape == obs.shape for shape in forward)
    final = ["both", "theta"] + ["theta"] * k_steps if stackelberg else ["theta", "theta"]
    assert backward == ["input"] * k_steps + final


def test_stackelberg_zero_direction_agent():
    # Under linf with a huge step every coordinate of agent 0 is clipped in
    # the last ascent step, so its reverse pass is all zero from the start;
    # agent 1's flat net never leaves the ball. Each agent's gradient is
    # bitwise its own call's.
    nets = [net_init([4, 6, 3], activation="tanh", seed=1, scale=3.0),
            net_init([4, 6, 3], activation="tanh", seed=2, scale=1e-4)]
    policy = stack_nets(nets)
    obs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, 5, 4))
    for metric in ("sq_l2", "kl"):
        cfg = AttackConfig(epsilon=0.1, k_steps=2, eta=1e4, norm="linf", metric=metric)
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = stackelberg_grad(policy, obs, cfg, got_rng, net_vjp(policy, obs))[0]
        for i in range(2):
            want = stackelberg_grad(nets[i], obs[i], cfg, want_rng,
                                    net_vjp(nets[i], obs[i]))[0]
            assert got[i].tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        # agent 0 gets only the partial gradient at delta^K, agent 1 more
        rng = np.random.default_rng(3)
        for i, reversed_ in ((0, False), (1, True)):
            clean = net_vjp(nets[i], obs[i])
            delta = pgd_attack(nets[i], obs[i], cfg, rng, clean)
            plain = reg_value_and_grads(nets[i], obs[i], delta, metric, clean)[2]
            assert np.array_equal(got[i], plain) != reversed_
