# Baseline cooperative MARL learners: QCOMBO (discrete) and a MADDPG-style
# deterministic actor-critic (continuous). Losses and gradients are produced
# here; adversarial-regularizer hooks live in the trainers.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import Net, _from_vector, net_forward, net_vjp


@dataclass
class QComboAgents:
    ind: list          # per-agent Net, obs -> |A| values
    glob: Net          # (state, joint one-hot) -> scalar
    ind_target: list
    glob_target: Net
    n_actions: int


@dataclass
class DdpgAgents:
    actors: list       # per-agent Net, obs -> action vector
    critic: Net        # (state, joint action) -> scalar
    actor_target: list
    critic_target: Net
    action_dim: int


def soft_update(target: Net, online: Net, tau: float) -> Net:
    """target <- (1 - tau) * target + tau * online, on the parameter vectors."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0,1], got {tau}")
    if target.layer_dims != online.layer_dims:
        raise ValueError("target/online layer shapes differ")
    return _from_vector(target.layer_dims, (1.0 - tau) * target.theta + tau * online.theta,
                        target.activation)


def apply_grad(net: Net, flat_grad: np.ndarray, lr: float) -> Net:
    """Plain SGD step on the parameter vector."""
    if np.shape(flat_grad) != net.theta.shape:
        raise ValueError(f"gradient shape {np.shape(flat_grad)} != param count {net.theta.size}")
    return _from_vector(net.layer_dims, net.theta - lr * flat_grad, net.activation)


def select_action_discrete(qnet: Net, obs: np.ndarray, explore_rate: float,
                           rng: np.random.Generator | None, n_actions: int) -> int:
    if not 0.0 <= explore_rate <= 1.0:
        raise ValueError(f"explore rate must be in [0,1], got {explore_rate}")
    if explore_rate > 0.0 and rng is not None and rng.uniform() < explore_rate:
        return int(rng.integers(n_actions))
    return int(np.argmax(net_forward(qnet, obs)))


def select_action_continuous(actor: Net, obs: np.ndarray, noise_scale: float,
                             rng: np.random.Generator | None,
                             low: float = -1.0, high: float = 1.0) -> np.ndarray:
    if noise_scale < 0:
        raise ValueError(f"noise scale must be >= 0, got {noise_scale}")
    a = net_forward(actor, obs)
    if noise_scale > 0.0 and rng is not None:
        a = a + noise_scale * rng.standard_normal(a.shape)
    return np.clip(a, low, high)


def _joint_onehot(actions: np.ndarray, n_actions: int) -> np.ndarray:
    """(B, N) int actions -> (B, N * n_actions) concatenated one-hots."""
    b, n = actions.shape
    out = np.zeros(b * n * n_actions)
    out[np.arange(b * n) * n_actions + actions.ravel()] = 1.0
    return out.reshape(b, n * n_actions)


def global_q_fn(glob: Net, ind: list):
    """Q_glob(state, joint action) as a callable, with the action count taken
    from the individual Q-nets' output width."""
    n_actions = ind[0].out_dim

    def q(state_vec, joint):
        joint = np.asarray(joint, dtype=int)
        x = np.concatenate([state_vec, _joint_onehot(joint[None, :], n_actions)[0]])
        return float(net_forward(glob, x)[0])
    return q


def qcombo_losses(batch: dict, agents: QComboAgents, gamma: float, lambda_q: float):
    """QCOMBO losses and flat gradients.

    L_ind averages the per-agent TD losses; L_glob is the central Bellman
    residual with next actions from per-agent target argmaxes; L_reg ties the
    global Q to the sum of chosen individual Qs. Bootstrap targets are
    gradient constants.
    """
    actions = batch["actions"]
    if not np.issubdtype(actions.dtype, np.integer):
        raise TypeError("qcombo requires discrete actions")
    b, n = actions.shape
    a_count = agents.n_actions
    rows = np.arange(b)
    not_done = 1.0 - batch["done"]

    q_sel = np.empty((b, n))
    vjp_ind = []
    for i in range(n):
        qi, vjp = net_vjp(agents.ind[i], batch["obs"][:, i])
        vjp_ind.append(vjp)
        q_sel[:, i] = qi[rows, actions[:, i]]

    # individual TD targets and next greedy joint action from the target nets
    y_ind = np.empty((b, n))
    a_next = np.empty((b, n), dtype=int)
    for i in range(n):
        qt = net_forward(agents.ind_target[i], batch["next_obs"][:, i])
        y_ind[:, i] = batch["rewards"][:, i] + gamma * not_done * qt.max(axis=1)
        a_next[:, i] = qt.argmax(axis=1)
    td_ind = q_sel - y_ind
    loss_ind = 0.5 * float(np.mean(td_ind ** 2))

    x_glob = np.concatenate([batch["state"], _joint_onehot(actions, a_count)], axis=1)
    x_next = np.concatenate([batch["next_state"], _joint_onehot(a_next, a_count)], axis=1)
    q_glob, vjp_glob = net_vjp(agents.glob, x_glob)
    q_glob = q_glob[:, 0]
    y_glob = batch["global_reward"] + gamma * not_done * net_forward(
        agents.glob_target, x_next)[:, 0]
    td_glob = q_glob - y_glob
    loss_glob = 0.5 * float(np.mean(td_glob ** 2))

    consistency = q_glob - q_sel.sum(axis=1)
    loss_reg = 0.5 * float(np.mean(consistency ** 2))
    total = loss_glob + loss_ind + lambda_q * loss_reg

    grads_ind = []
    for i in range(n):
        upstream = np.zeros((b, a_count))
        upstream[rows, actions[:, i]] = td_ind[:, i] / (b * n) - lambda_q * consistency / b
        grads_ind.append(vjp_ind[i](upstream).grad_theta)
    up_glob = ((td_glob + lambda_q * consistency) / b)[:, None]
    grad_glob = vjp_glob(up_glob).grad_theta

    losses = {"ind": loss_ind, "glob": loss_glob, "reg": loss_reg, "total": total}
    return losses, {"ind": grads_ind, "glob": grad_glob}


def ddpg_updates(batch: dict, agents: DdpgAgents, gamma: float):
    """Critic TD gradient and per-agent deterministic policy gradients."""
    actions = batch["actions"]
    if np.issubdtype(actions.dtype, np.integer):
        raise TypeError("ddpg requires continuous actions")
    b, n, da = actions.shape
    not_done = 1.0 - batch["done"]

    x_c = np.concatenate([batch["state"], actions.reshape(b, n * da)], axis=1)
    a_next = np.stack([net_forward(agents.actor_target[i], batch["next_obs"][:, i])
                       for i in range(n)], axis=1)
    x_next = np.concatenate([batch["next_state"], a_next.reshape(b, n * da)], axis=1)
    q, vjp_c = net_vjp(agents.critic, x_c)
    q = q[:, 0]
    y = batch["global_reward"] + gamma * not_done * net_forward(
        agents.critic_target, x_next)[:, 0]
    td = q - y
    loss_critic = 0.5 * float(np.mean(td ** 2))
    grad_critic = vjp_c((td / b)[:, None]).grad_theta

    # actor gradients: ascend Q at the actors' current outputs
    mu, vjp_actors = zip(*(net_vjp(agents.actors[i], batch["obs"][:, i]) for i in range(n)))
    mu = np.stack(mu, axis=1)
    x_mu = np.concatenate([batch["state"], mu.reshape(b, n * da)], axis=1)
    q_mu, vjp_mu = net_vjp(agents.critic, x_mu)
    actor_obj = float(np.mean(q_mu[:, 0]))
    dq_dinput = vjp_mu(np.full((b, 1), 1.0 / b)).grad_input
    state_dim = batch["state"].shape[1]
    grads_actors = []
    for i in range(n):
        block = dq_dinput[:, state_dim + i * da: state_dim + (i + 1) * da]
        grads_actors.append(vjp_actors[i](-block).grad_theta)

    losses = {"critic": loss_critic, "actor_obj": actor_obj}
    return losses, {"critic": grad_critic, "actors": grads_actors}
