# Baseline cooperative MARL learners: QCOMBO (discrete) and a MADDPG-style
# deterministic actor-critic (continuous). Losses and gradients are produced
# here; adversarial-regularizer hooks live in the trainer.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import Net, _from_vector, net_forward, net_vjp


# Checkpoint names of each learner's policy stack (row i saved as
# "<name>_i") and of its central net.
NET_NAMES = {"qcombo": ("ind", "glob"), "ddpg": ("actor", "critic"),
             "mf_ddpg": ("actor", "critic")}


@dataclass
class Agents:
    """QCOMBO's individual Q-nets and global Q, or DDPG's actors and critic."""
    policy: Net          # agent stack, obs -> |A| Q-values or an action vector
    central: Net         # (state, joint action) -> scalar
    policy_target: Net   # agent stack
    central_target: Net


def soft_update(target: Net, online: Net, tau: float) -> Net:
    """target <- (1 - tau) * target + tau * online, on the parameter vectors
    (on the whole block for an agent stack)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0,1], got {tau}")
    if target.layer_dims != online.layer_dims or target.theta.shape != online.theta.shape:
        raise ValueError("target/online layer shapes differ")
    return _from_vector(target.layer_dims, (1.0 - tau) * target.theta + tau * online.theta,
                        target.activation)


def apply_grad(net: Net, flat_grad: np.ndarray, lr: float) -> Net:
    """Plain SGD step on the parameter vector (the whole (N, P) block for an
    agent stack)."""
    if np.shape(flat_grad) != net.theta.shape:
        raise ValueError(f"gradient shape {np.shape(flat_grad)} != parameter shape "
                         f"{net.theta.shape}")
    return _from_vector(net.layer_dims, net.theta - lr * flat_grad, net.activation)


def select_action_discrete(qnets: Net, obs: np.ndarray, explore_rate: float,
                           rng: np.random.Generator | None, n_actions: int) -> np.ndarray:
    """Joint action (N,) from the agent stack's greedy actions on obs (N, d);
    agent by agent, each explores with probability explore_rate, drawing
    first the coin and then the uniform action from rng."""
    if not 0.0 <= explore_rate <= 1.0:
        raise ValueError(f"explore rate must be in [0,1], got {explore_rate}")
    actions = np.argmax(net_forward(qnets, obs), axis=1)
    if explore_rate > 0.0 and rng is not None:
        for i in range(actions.size):
            if rng.uniform() < explore_rate:
                actions[i] = rng.integers(n_actions)
    return actions


def select_action_continuous(actors: Net, obs: np.ndarray, noise_scale: float,
                             rng: np.random.Generator | None,
                             low: float = -1.0, high: float = 1.0) -> np.ndarray:
    """Joint action (N, action_dim) from the agent stack on obs (N, d), with
    one (N, action_dim) Gaussian draw as exploration noise, clipped."""
    if noise_scale < 0:
        raise ValueError(f"noise scale must be >= 0, got {noise_scale}")
    a = net_forward(actors, obs)
    if noise_scale > 0.0 and rng is not None:
        a = a + noise_scale * rng.standard_normal(a.shape)
    return np.clip(a, low, high)


def _joint_onehot(actions: np.ndarray, n_actions: int) -> np.ndarray:
    """(B, N) int actions -> (B, N * n_actions) concatenated one-hots."""
    b, n = actions.shape
    out = np.zeros(b * n * n_actions)
    out[np.arange(b * n) * n_actions + actions.ravel()] = 1.0
    return out.reshape(b, n * n_actions)


class GlobalQ:
    """Q_glob(state, joint action) of a global Q-net over n_actions actions
    per agent. Calling it scores one pair; `rows` scores M pairs in one
    forward pass, each bit for bit the value of the single call."""

    def __init__(self, glob: Net, n_actions: int):
        self.glob = glob
        self.n_actions = n_actions

    def __call__(self, state_vec, joint) -> float:
        joint = np.asarray(joint, dtype=int)
        x = np.concatenate([state_vec, _joint_onehot(joint[None, :], self.n_actions)[0]])
        return float(net_forward(self.glob, x)[0])

    def rows(self, states: np.ndarray, joints: np.ndarray) -> np.ndarray:
        """(M,) values for states (M, state_dim) and joint actions (M, N)."""
        x = np.concatenate([states, _joint_onehot(joints, self.n_actions)], axis=1)
        return net_forward(self.glob, x[:, None, :])[:, 0, 0]


def qcombo_losses(batch: dict, agents: Agents, gamma: float, lambda_q: float):
    """QCOMBO losses and gradients: an (N, P) block for the individual
    Q-nets' stack (policy) and a vector for the global Q (central).

    L_ind averages the per-agent TD losses; L_glob is the central Bellman
    residual with next actions from per-agent target argmaxes; L_reg ties the
    global Q to the sum of chosen individual Qs. Bootstrap targets are
    gradient constants.
    """
    actions = batch["actions"]
    if not np.issubdtype(actions.dtype, np.integer):
        raise TypeError("qcombo requires discrete actions")
    b, n = actions.shape
    a_count = agents.policy.out_dim
    rows = np.arange(b)[:, None]
    agent = np.arange(n)
    not_done = 1.0 - batch["done"]

    # The stacks run agent-major (N, B, ...); every (B, N) array below is
    # built C-contiguous, so its reductions sum in the per-agent code's order.
    q_ind, vjp_ind = net_vjp(agents.policy, batch["obs"].transpose(1, 0, 2))
    q_sel = q_ind[agent, rows, actions]

    # individual TD targets and next greedy joint action from the target nets
    qt = net_forward(agents.policy_target, batch["next_obs"].transpose(1, 0, 2))
    y_ind = batch["rewards"] + gamma * not_done[:, None] * np.ascontiguousarray(
        qt.max(axis=2).T)
    a_next = qt.argmax(axis=2).T
    td_ind = q_sel - y_ind
    loss_ind = 0.5 * float(np.mean(td_ind ** 2))

    x_glob = np.concatenate([batch["state"], _joint_onehot(actions, a_count)], axis=1)
    x_next = np.concatenate([batch["next_state"], _joint_onehot(a_next, a_count)], axis=1)
    q_glob, vjp_glob = net_vjp(agents.central, x_glob)
    q_glob = q_glob[:, 0]
    y_glob = batch["global_reward"] + gamma * not_done * net_forward(
        agents.central_target, x_next)[:, 0]
    td_glob = q_glob - y_glob
    loss_glob = 0.5 * float(np.mean(td_glob ** 2))

    consistency = q_glob - q_sel.sum(axis=1)
    loss_reg = 0.5 * float(np.mean(consistency ** 2))
    total = loss_glob + loss_ind + lambda_q * loss_reg

    upstream = np.zeros((n, b, a_count))
    upstream[agent, rows, actions] = td_ind / (b * n) - (lambda_q * consistency / b)[:, None]
    grad_ind = vjp_ind(upstream, wrt="theta").grad_theta
    up_glob = ((td_glob + lambda_q * consistency) / b)[:, None]
    grad_glob = vjp_glob(up_glob, wrt="theta").grad_theta

    losses = {"ind": loss_ind, "glob": loss_glob, "reg": loss_reg, "total": total}
    return losses, {"policy": grad_ind, "central": grad_glob}


def ddpg_updates(batch: dict, agents: Agents, gamma: float):
    """Critic TD gradient (central), and the deterministic policy gradients
    of the actors' stack (policy) as one (N, P) block."""
    actions = batch["actions"]
    if np.issubdtype(actions.dtype, np.integer):
        raise TypeError("ddpg requires continuous actions")
    b, n, da = actions.shape
    not_done = 1.0 - batch["done"]

    x_c = np.concatenate([batch["state"], actions.reshape(b, n * da)], axis=1)
    a_next = net_forward(agents.policy_target, batch["next_obs"].transpose(1, 0, 2))
    x_next = np.concatenate([batch["next_state"],
                             a_next.transpose(1, 0, 2).reshape(b, n * da)], axis=1)
    q, vjp_c = net_vjp(agents.central, x_c)
    q = q[:, 0]
    y = batch["global_reward"] + gamma * not_done * net_forward(
        agents.central_target, x_next)[:, 0]
    td = q - y
    loss_critic = 0.5 * float(np.mean(td ** 2))
    grad_critic = vjp_c((td / b)[:, None], wrt="theta").grad_theta

    # actor gradients: ascend Q at the actors' current outputs
    mu, vjp_actors = net_vjp(agents.policy, batch["obs"].transpose(1, 0, 2))
    x_mu = np.concatenate([batch["state"], mu.transpose(1, 0, 2).reshape(b, n * da)],
                          axis=1)
    q_mu, vjp_mu = net_vjp(agents.central, x_mu)
    actor_obj = float(np.mean(q_mu[:, 0]))
    dq_dinput = vjp_mu(np.full((b, 1), 1.0 / b), wrt="input").grad_input
    state_dim = batch["state"].shape[1]
    dq_da = dq_dinput[:, state_dim:state_dim + n * da].reshape(b, n, da)
    grad_actors = vjp_actors(-np.ascontiguousarray(dq_da.transpose(1, 0, 2)),
                             wrt="theta").grad_theta

    losses = {"critic": loss_critic, "actor_obj": actor_obj}
    return losses, {"policy": grad_actors, "central": grad_critic}
