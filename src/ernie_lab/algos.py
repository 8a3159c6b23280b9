# Baseline cooperative MARL learners: QCOMBO (discrete) and a MADDPG-style
# deterministic actor-critic (continuous). Losses and gradients are produced
# here; adversarial-regularizer hooks live in the trainer.
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .net import Net, _from_vector, net_forward, net_vjp


# Checkpoint names of each learner's policy agent stack (saved as one (N, P)
# block) and of its central net.
NET_NAMES = {"qcombo": ("ind", "glob"), "ddpg": ("actor", "critic"),
             "mf_ddpg": ("actor", "critic")}


@dataclass
class Agents:
    """QCOMBO's individual Q-nets and global Q, or DDPG's actors and critic."""
    policy: Net          # agent stack, obs -> |A| Q-values or an action vector
    central: Net         # (state, joint action) -> scalar
    policy_target: Net   # agent stack
    central_target: Net


def trainable(net: Net) -> tuple[Net, np.ndarray]:
    """A copy of net over a writable parameter buffer of its own, and that
    buffer. The Net reads a read-only view of the buffer, so it stays
    read-only to every reader; apply_grad and soft_update, handed the
    buffer, update it in place and the Net sees the new values."""
    buf = np.array(net.theta)
    return _from_vector(net.layer_dims, buf.view(), net.activation), buf


def _check_buffer(net: Net, buf: np.ndarray) -> None:
    if net.theta.base is not buf:
        raise ValueError("buf is not the parameter buffer under net.theta (see trainable)")


def soft_update(target: Net, buf: np.ndarray, online: Net, tau: float) -> None:
    """target <- (1 - tau) * target + tau * online, in place on buf, the
    buffer under target.theta (the whole block for an agent stack)."""
    if target.layer_dims != online.layer_dims or target.theta.shape != online.theta.shape:
        raise ValueError("target/online layer shapes differ")
    _check_buffer(target, buf)
    buf *= 1.0 - tau
    buf += tau * online.theta


def apply_grad(net: Net, buf: np.ndarray, flat_grad: np.ndarray, lr: float) -> None:
    """Plain SGD step, in place on buf, the buffer under net.theta (the whole
    (N, P) block for an agent stack)."""
    if np.shape(flat_grad) != net.theta.shape:
        raise ValueError(f"gradient shape {np.shape(flat_grad)} != parameter shape "
                         f"{net.theta.shape}")
    _check_buffer(net, buf)
    buf -= lr * flat_grad


def _stack_out(stack: Net, obs: np.ndarray) -> np.ndarray:
    """The agent stack's outputs (..., N, out) on observations (..., N, d),
    run as (..., N, 1, d) row stacks, so that every leading index gets bit
    for bit its own (N, d) call's outputs."""
    return net_forward(stack, obs[..., None, :])[..., 0, :]


def select_action_discrete(qnets: Net, obs: np.ndarray, explore_rate: float,
                           rng: np.random.Generator | None) -> np.ndarray:
    """Joint actions (..., N) from the agent stack's greedy actions on obs
    (..., N, d); agent by agent, each explores with probability explore_rate,
    drawing first the coin and then a uniform action, one of the stack's
    qnets.out_dim, from rng; rate 0 draws nothing, and rng may then be None."""
    actions = np.argmax(_stack_out(qnets, obs), axis=-1)
    if explore_rate > 0.0:
        flat = actions.reshape(-1)
        for i in range(flat.size):
            if rng.random() < explore_rate:  # the draw rng.uniform() returns
                flat[i] = rng.integers(qnets.out_dim)
    return actions


def select_action_continuous(actors: Net, obs: np.ndarray, noise_scale: float,
                             rng: np.random.Generator | None) -> np.ndarray:
    """Joint actions (..., N, action_dim) from the agent stack on obs
    (..., N, d), with one Gaussian draw of that shape as exploration noise
    (none at scale 0, where rng may be None), clipped to [-1, 1]."""
    a = _stack_out(actors, obs)
    if noise_scale > 0.0:
        a = a + noise_scale * rng.standard_normal(a.shape)
    return np.clip(a, -1.0, 1.0)


@functools.lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _joint_onehot(actions: np.ndarray, n_actions: int) -> np.ndarray:
    """(B, N) int actions -> (B, N * n_actions) concatenated one-hots, as
    rows of the identity."""
    b, n = actions.shape
    return _identity(n_actions).take(actions, axis=0).reshape(b, n * n_actions)


class GlobalQ:
    """Q_glob(state, joint action) of a global Q-net over n_actions actions
    per agent; `rows` scores M pairs in one forward pass, each row bit for
    bit its own single-row pass."""

    def __init__(self, glob: Net, n_actions: int):
        self.glob = glob
        self.n_actions = n_actions

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

    losses = {"loss_ind": loss_ind, "loss_glob": loss_glob, "loss_reg": loss_reg,
              "loss_total": total}
    return losses, {"policy": grad_ind, "central": grad_glob}


def ddpg_updates(batch: dict, agents: Agents, gamma: float):
    """Critic TD gradient (central), and the deterministic policy gradients
    of the actors' stack (policy) as one (N, P) block."""
    actions = batch["actions"]
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

    losses = {"loss_critic": loss_critic, "actor_obj": actor_obj}
    return losses, {"policy": grad_actors, "central": grad_critic}
