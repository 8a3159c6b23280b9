# Learner-level checks: soft updates, action selection, and finite-difference
# verification of the QCOMBO and DDPG gradients on frozen minibatches. The
# per-agent nets are agent stacks; the selection oracles loop over agents.
import numpy as np
import pytest

from ernie_lab.algos import (
    Agents,
    apply_grad,
    ddpg_updates,
    qcombo_losses,
    select_action_continuous,
    select_action_discrete,
    soft_update,
    trainable,
)
from ernie_lab.net import (
    Net,
    net_forward,
    net_init,
    stack_nets,
    vector_to_net,
)


def _linear_net(w: np.ndarray, b: np.ndarray) -> Net:
    return Net(layer_dims=(w.shape[1], w.shape[0]), weights=(w,), biases=(b,),
               activation="tanh")


def _updated(update, net: Net, *args) -> Net:
    # A trainable copy of net, after one in-place update of its buffer.
    copy, buf = trainable(net)
    update(copy, buf, *args)
    return copy


def test_trainable_is_a_read_only_view_of_its_own_buffer():
    net = stack_nets([net_init([3, 4, 2], seed=s) for s in range(2)])
    copy, buf = trainable(net)
    assert copy.theta.tobytes() == net.theta.tobytes() and copy.stacked
    assert not np.shares_memory(buf, net.theta) and np.shares_memory(buf, copy.theta)
    assert buf.flags.writeable and not copy.theta.flags.writeable
    with pytest.raises(ValueError):
        copy.weights[0][0, 0, 0] = 1.0
    buf[0, 0] = 5.0  # the net reads its buffer's new values
    assert copy.theta[0, 0] == 5.0 and copy.weights[0][0, 0, 0] == 5.0
    assert copy[1].theta.tobytes() == net[1].theta.tobytes()


def test_soft_update_endpoints_and_midpoint():
    target = net_init([3, 4, 2], seed=0)
    online = net_init([3, 4, 2], seed=1)
    same = _updated(soft_update, target, online, 0.0)
    assert np.array_equal(same.theta, target.theta)
    full = _updated(soft_update, target, online, 1.0)
    assert np.array_equal(full.theta, online.theta)
    mid = _updated(soft_update, target, online, 0.25)
    want = 0.75 * target.theta + 0.25 * online.theta
    assert np.allclose(mid.theta, want, atol=0, rtol=1e-15)


def test_soft_update_validation():
    a, buf = trainable(net_init([2, 3], seed=0))
    with pytest.raises(ValueError):
        soft_update(a, buf, net_init([2, 4], seed=0), tau=0.1)


def test_updates_write_only_the_nets_own_buffer():
    # A buffer that is not the one under net.theta (a copy, or a net that
    # owns its parameters) is refused, so an update cannot miss its net.
    net, buf = trainable(net_init([2, 3], seed=0))
    before = buf.copy()
    for target, other in ((net, buf.copy()), (net_init([2, 3], seed=0), buf)):
        with pytest.raises(ValueError, match="parameter buffer"):
            soft_update(target, other, net, tau=0.5)
        with pytest.raises(ValueError, match="parameter buffer"):
            apply_grad(target, other, np.ones(net.theta.shape), 0.1)
    assert buf.tobytes() == before.tobytes()


def test_apply_grad_is_sgd():
    net = net_init([2, 2], seed=3)
    g = np.ones(net.theta.size)
    stepped = _updated(apply_grad, net, g, 0.1)
    assert np.allclose(stepped.theta, net.theta - 0.1, atol=1e-15)


def test_flat_updates_match_per_layer_formulas():
    # apply_grad and soft_update act on the flat vectors; per element the
    # arithmetic is the per-layer formula's, so the bits must agree.
    rng = np.random.default_rng(6)
    net = net_init([5, 7, 3], activation="tanh", seed=2)
    other = net_init([5, 7, 3], activation="tanh", seed=3)
    grad = rng.standard_normal(net.theta.size)
    lr, tau = 0.0137, 0.01
    g_layers, k = [], 0
    for w, b in zip(net.weights, net.biases):
        g_layers.append((grad[k:k + w.size].reshape(w.shape),
                         grad[k + w.size:k + w.size + b.size]))
        k += w.size + b.size
    stepped = _updated(apply_grad, net, grad, lr)
    mixed = _updated(soft_update, net, other, tau)
    for i, (gw, gb) in enumerate(g_layers):
        assert stepped.weights[i].tobytes() == (net.weights[i] - lr * gw).tobytes()
        assert stepped.biases[i].tobytes() == (net.biases[i] - lr * gb).tobytes()
        for got, t, o in ((mixed.weights[i], net.weights[i], other.weights[i]),
                          (mixed.biases[i], net.biases[i], other.biases[i])):
            assert got.tobytes() == ((1.0 - tau) * t + tau * o).tobytes()
    with pytest.raises(ValueError):
        apply_grad(*trainable(net), grad[:-1], lr)


def test_select_action_discrete_greedy_and_explore():
    # Q(a) = [x0, 2*x0, 1.5*x0, 1.5*x0]: greedy picks 1 for positive input, 0
    # for negative; exploring draws from all out_dim = 4 actions
    net = stack_nets([_linear_net(np.array([[1.0], [2.0], [1.5], [1.5]]), np.zeros(4))] * 2)
    obs = np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert select_action_discrete(net, obs, 0.0, rng).tolist() == [1, 0]
    assert rng.bit_generator.state == before  # rate 0 draws nothing
    picks = {int(a) for _ in range(100)
             for a in select_action_discrete(net, obs, 1.0, rng)}
    assert picks == {0, 1, 2, 3}


def test_select_action_continuous_clips_and_noise():
    net = stack_nets([_linear_net(np.array([[5.0]]), np.zeros(1))] * 2)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    a = select_action_continuous(net, np.array([[1.0], [-0.1]]), 0.0, rng)
    assert a.tolist() == [[1.0], [-0.5]]
    assert rng.bit_generator.state == before  # noise 0 draws nothing
    b = select_action_continuous(net, np.array([[0.0], [0.0]]), 0.5, rng)
    assert np.all((-1.0 <= b) & (b <= 1.0))


def _select_loop_discrete(nets, obs, rate, rng, n_actions):
    # The per-agent selection the stacked one replaces.
    out = []
    for net, o in zip(nets, obs):
        if rate > 0.0 and rng.uniform() < rate:
            out.append(int(rng.integers(n_actions)))
        else:
            out.append(int(np.argmax(net_forward(net, o))))
    return np.array(out)


def _select_loop_continuous(nets, obs, noise, rng):
    out = []
    for net, o in zip(nets, obs):
        a = net_forward(net, o)
        if noise > 0.0:
            a = a + noise * rng.standard_normal(a.shape)
        out.append(np.clip(a, -1.0, 1.0))
    return np.stack(out)


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
def test_select_action_discrete_matches_per_agent_loop(rate):
    nets = [net_init([9, 16, 3], seed=s) for s in range(4)]
    stack = stack_nets(nets)
    obs_rng = np.random.default_rng(1)
    rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(30):
        obs = obs_rng.standard_normal((4, 9))
        got = select_action_discrete(stack, obs, rate, rng_a)
        assert got.tolist() == _select_loop_discrete(nets, obs, rate, rng_b, 3).tolist()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_select_action_continuous_matches_per_agent_loop(noise):
    nets = [net_init([14, 16, 2], activation="tanh", seed=s) for s in range(3)]
    stack = stack_nets(nets)
    obs_rng = np.random.default_rng(3)
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(30):
        obs = obs_rng.standard_normal((3, 14))
        got = select_action_continuous(stack, obs, noise, rng_a)
        assert got.tobytes() == _select_loop_continuous(nets, obs, noise, rng_b).tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _qcombo_agents(seed: int, n: int = 2, obs_dim: int = 3, state_dim: int = 4,
                   n_actions: int = 2) -> Agents:
    ind = stack_nets([net_init([obs_dim, 5, n_actions], activation="tanh", seed=seed + i)
                      for i in range(n)])
    glob = net_init([state_dim + n * n_actions, 5, 1], activation="tanh",
                    seed=seed + 100)
    ind_t = stack_nets([net_init([obs_dim, 5, n_actions], activation="tanh",
                                 seed=seed + 50 + i) for i in range(n)])
    glob_t = net_init([state_dim + n * n_actions, 5, 1], activation="tanh",
                      seed=seed + 200)
    return Agents(policy=ind, central=glob, policy_target=ind_t, central_target=glob_t)


def _qcombo_batch(rng: np.random.Generator, b: int = 4, n: int = 2,
                  obs_dim: int = 3, state_dim: int = 4) -> dict:
    return {
        "obs": rng.uniform(-1, 1, size=(b, n, obs_dim)),
        "state": rng.uniform(-1, 1, size=(b, state_dim)),
        "actions": rng.integers(0, 2, size=(b, n)),
        "rewards": rng.uniform(-1, 1, size=(b, n)),
        "global_reward": rng.uniform(-1, 1, size=b),
        "next_obs": rng.uniform(-1, 1, size=(b, n, obs_dim)),
        "next_state": rng.uniform(-1, 1, size=(b, state_dim)),
        "done": (rng.uniform(size=b) < 0.2).astype(float),
    }


def test_qcombo_zero_nets_losses_from_rewards_only():
    n, obs_dim, state_dim, a_count = 2, 3, 4, 2
    zero = Net(layer_dims=(obs_dim, a_count),
               weights=(np.zeros((a_count, obs_dim)),),
               biases=(np.zeros(a_count),), activation="tanh")
    zglob = Net(layer_dims=(state_dim + n * a_count, 1),
                weights=(np.zeros((1, state_dim + n * a_count)),),
                biases=(np.zeros(1),), activation="tanh")
    agents = Agents(policy=stack_nets([zero, zero]), central=zglob,
                    policy_target=stack_nets([zero, zero]), central_target=zglob)
    batch = _qcombo_batch(np.random.default_rng(0))
    losses, grads = qcombo_losses(batch, agents, gamma=0.9, lambda_q=1.0)
    # all Q values are zero, so TD residuals reduce to the rewards
    assert losses["ind"] == pytest.approx(0.5 * np.mean(batch["rewards"] ** 2))
    assert losses["glob"] == pytest.approx(0.5 * np.mean(batch["global_reward"] ** 2))
    assert losses["reg"] == 0.0


def test_qcombo_total_is_weighted_sum():
    agents = _qcombo_agents(seed=7)
    batch = _qcombo_batch(np.random.default_rng(1))
    for lam in [0.0, 0.5, 2.0]:
        losses, _ = qcombo_losses(batch, agents, gamma=0.95, lambda_q=lam)
        want = losses["ind"] + losses["glob"] + lam * losses["reg"]
        assert losses["total"] == pytest.approx(want, rel=1e-15)


def test_qcombo_grads_match_finite_differences():
    agents = _qcombo_agents(seed=11)
    batch = _qcombo_batch(np.random.default_rng(5))
    gamma, lam = 0.9, 0.7
    _, grads = qcombo_losses(batch, agents, gamma, lam)
    h = 1e-6

    def total_with(ind0: Net, glob: Net) -> float:
        trial = Agents(policy=stack_nets([ind0, agents.policy[1]]), central=glob,
                       policy_target=agents.policy_target,
                       central_target=agents.central_target)
        return qcombo_losses(batch, trial, gamma, lam)[0]["total"]

    for net, flat, rebuild in [
        (agents.policy[0], grads["policy"][0],
         lambda v: total_with(vector_to_net(agents.policy[0], v), agents.central)),
        (agents.central, grads["central"],
         lambda v: total_with(agents.policy[0], vector_to_net(agents.central, v))),
    ]:
        theta = net.theta
        fd = np.empty_like(theta)
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = h
            fd[j] = (rebuild(theta + e) - rebuild(theta - e)) / (2 * h)
        assert np.linalg.norm(flat - fd) / max(np.linalg.norm(fd), 1e-9) < 1e-5


def _ddpg_agents(seed: int, n: int = 2, obs_dim: int = 3, state_dim: int = 4,
                 da: int = 2) -> Agents:
    actors = stack_nets([net_init([obs_dim, 5, da], activation="tanh", seed=seed + i)
                         for i in range(n)])
    critic = net_init([state_dim + n * da, 5, 1], activation="tanh", seed=seed + 100)
    actors_t = stack_nets([net_init([obs_dim, 5, da], activation="tanh", seed=seed + 50 + i)
                           for i in range(n)])
    critic_t = net_init([state_dim + n * da, 5, 1], activation="tanh",
                        seed=seed + 200)
    return Agents(policy=actors, central=critic, policy_target=actors_t,
                  central_target=critic_t)


def _ddpg_batch(rng: np.random.Generator, b: int = 4, n: int = 2,
                obs_dim: int = 3, state_dim: int = 4, da: int = 2) -> dict:
    return {
        "obs": rng.uniform(-1, 1, size=(b, n, obs_dim)),
        "state": rng.uniform(-1, 1, size=(b, state_dim)),
        "actions": rng.uniform(-1, 1, size=(b, n, da)),
        "rewards": rng.uniform(-1, 1, size=(b, n)),
        "global_reward": rng.uniform(-1, 1, size=b),
        "next_obs": rng.uniform(-1, 1, size=(b, n, obs_dim)),
        "next_state": rng.uniform(-1, 1, size=(b, state_dim)),
        "done": (rng.uniform(size=b) < 0.2).astype(float),
    }


def test_ddpg_linear_critic_actor_grad_hand_check():
    # critic Q(s, a) = w_a . a with a linear actor mu(o) = W o: the policy
    # gradient on W must be -w_a(block) outer mean(o)
    n, obs_dim, state_dim, da = 1, 2, 2, 2
    w_a = np.array([0.3, -0.7])
    critic = _linear_net(np.concatenate([np.zeros(state_dim), w_a])[None, :],
                         np.zeros(1))
    actor_w = np.array([[1.0, 0.0], [0.0, 1.0]])
    actor = _linear_net(actor_w, np.zeros(da))
    agents = Agents(policy=stack_nets([actor]), central=critic,
                    policy_target=stack_nets([actor]), central_target=critic)
    batch = _ddpg_batch(np.random.default_rng(2), b=3, n=n, obs_dim=obs_dim,
                        state_dim=state_dim, da=da)
    _, grads = ddpg_updates(batch, agents, gamma=0.9)
    obs = batch["obs"][:, 0]
    want_w = -np.einsum("i,bj->ij", w_a, obs) / obs.shape[0]
    want = np.concatenate([want_w.ravel(), -w_a])
    assert np.allclose(grads["policy"][0], want, atol=1e-12)


def test_ddpg_grads_match_finite_differences():
    agents = _ddpg_agents(seed=9)
    batch = _ddpg_batch(np.random.default_rng(7))
    gamma = 0.95
    losses, grads = ddpg_updates(batch, agents, gamma)
    h = 1e-6

    # critic gradient against FD of the critic loss
    theta = agents.central.theta

    def critic_loss(v: np.ndarray) -> float:
        trial = Agents(policy=agents.policy,
                       central=vector_to_net(agents.central, v),
                       policy_target=agents.policy_target,
                       central_target=agents.central_target)
        return ddpg_updates(batch, trial, gamma)[0]["critic"]

    fd = np.empty_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd[j] = (critic_loss(theta + e) - critic_loss(theta - e)) / (2 * h)
    # the actor objective also moves with critic params; isolate the TD part
    assert np.linalg.norm(grads["central"] - fd) / np.linalg.norm(fd) < 1e-5

    # actor gradient is descent on -mean Q(mu); FD the objective directly
    for i in range(2):
        phi = agents.policy[i].theta

        def actor_obj(v: np.ndarray, i=i) -> float:
            trial_actors = list(agents.policy)
            trial_actors[i] = vector_to_net(agents.policy[i], v)
            trial = Agents(policy=stack_nets(trial_actors), central=agents.central,
                           policy_target=agents.policy_target,
                           central_target=agents.central_target)
            return ddpg_updates(batch, trial, gamma)[0]["actor_obj"]

        fd = np.empty_like(phi)
        for j in range(phi.size):
            e = np.zeros_like(phi)
            e[j] = h
            fd[j] = (actor_obj(phi + e) - actor_obj(phi - e)) / (2 * h)
        assert np.linalg.norm(grads["policy"][i] + fd) / np.linalg.norm(fd) < 1e-5
