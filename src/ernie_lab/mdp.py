# Tabular MDPs with metric-embedded states: smooth instance generation, exact
# policy evaluation / policy iteration, softmax policies, empirical Lipschitz
# measurement, and the perturbed-value dynamic program. A policy is its (S, A)
# array of action probabilities.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TabularMdp:
    embed: np.ndarray   # (S, d) state coordinates, d <= 3
    reward: np.ndarray  # (S, A), entries in [-1, 1]
    trans: np.ndarray   # (S, A, S) row-stochastic in the last axis
    gamma: float
    l_r: float
    l_p: float

    @property
    def n_states(self) -> int:
        return self.reward.shape[0]

    @property
    def n_actions(self) -> int:
        return self.reward.shape[1]


@dataclass(frozen=True)
class ValuePair:
    v: np.ndarray  # (S,)
    q: np.ndarray  # (S, A)


def state_distances(embed: np.ndarray) -> np.ndarray:
    diff = embed[:, None, :] - embed[None, :, :]
    return np.linalg.norm(diff, axis=-1)


def validate_mdp(mdp: TabularMdp, tol: float = 1e-9) -> None:
    """Audit all TabularMdp invariants; raises ValueError on any violation."""
    s, a = mdp.n_states, mdp.n_actions
    if mdp.embed.shape[0] != s or mdp.trans.shape != (s, a, s):
        raise ValueError("inconsistent array shapes")
    if not 0.0 < mdp.gamma < 1.0:
        raise ValueError(f"gamma must be in (0,1), got {mdp.gamma}")
    if mdp.l_r < 0 or mdp.l_p < 0:
        raise ValueError("Lipschitz constants must be >= 0")
    if np.any(np.abs(mdp.reward) > 1.0 + tol):
        raise ValueError("rewards must lie in [-1, 1]")
    if np.any(mdp.trans < -tol):
        raise ValueError("transition probabilities must be nonnegative")
    row_sums = mdp.trans.sum(axis=-1)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        raise ValueError("transition rows must sum to 1 within 1e-12")
    slopes = audit_smoothness(mdp)
    if slopes["reward_slope"] > mdp.l_r + tol:
        raise ValueError(f"measured reward slope {slopes['reward_slope']} exceeds l_r={mdp.l_r}")
    if slopes["trans_slope"] > mdp.l_p + tol:
        raise ValueError(f"measured transition slope {slopes['trans_slope']} exceeds l_p={mdp.l_p}")


def _state_pairs(embed: np.ndarray):
    """The state pairs i < j that lie more than 1e-12 apart, as index arrays
    (i, j), and their distances."""
    i, j = np.triu_indices(embed.shape[0], k=1)
    d = state_distances(embed)[i, j]
    apart = d > 1e-12
    return i[apart], j[apart], d[apart]


def audit_smoothness(mdp: TabularMdp) -> dict:
    """Exhaustive pairwise slope measurement over all (s, s', a) triples."""
    i, j, d = _state_pairs(mdp.embed)
    reward_slope, trans_slope = 0.0, 0.0
    if d.size:
        r_diff = np.abs(mdp.reward[i] - mdp.reward[j]).max(axis=1)
        p_diff = np.abs(mdp.trans[i] - mdp.trans[j]).sum(axis=-1).max(axis=1)
        reward_slope = float(np.max(r_diff / d))
        trans_slope = float(np.max(p_diff / d))
    return {"reward_slope": reward_slope, "trans_slope": trans_slope}


def gen_smooth_mdp(n_states, n_actions, l_r, l_p, gamma, seed, d=2) -> TabularMdp:
    """Random instance satisfying the smoothness invariants exactly.

    Rewards ride a clipped linear ramp along a random unit direction (slope
    l_r); transition rows interpolate between two fixed distributions with a
    clipped linear mixing weight whose slope is l_p / ||p - q||_1, so the
    L1 bound holds by construction.
    """
    if n_states < 1 or n_actions < 1:
        raise ValueError("n_states and n_actions must be >= 1")
    if not 1 <= d <= 3:
        raise ValueError(f"embedding dimension must be in [1,3], got {d}")
    rng = np.random.default_rng(seed)
    embed = rng.uniform(0.0, 1.0, size=(n_states, d))
    reward = np.empty((n_states, n_actions))
    trans = np.empty((n_states, n_actions, n_states))
    for a in range(n_actions):
        w = rng.standard_normal(d)
        w /= max(np.linalg.norm(w), 1e-12)
        base = rng.uniform(-0.5, 0.5)
        reward[:, a] = np.clip(base + l_r * (embed @ w - 0.5 * w.sum()), -1.0, 1.0)

        p = rng.dirichlet(np.ones(n_states))
        q = rng.dirichlet(np.ones(n_states))
        gap = float(np.abs(p - q).sum())
        w2 = np.abs(rng.standard_normal(d))
        w2 /= max(np.linalg.norm(w2), 1e-12)
        c = l_p / gap if gap > 1e-12 else 0.0
        t = np.clip(c * (embed @ w2), 0.0, 1.0)
        trans[:, a, :] = (1.0 - t)[:, None] * p + t[:, None] * q
    # exact renormalization guards float drift in the mixture rows
    trans /= trans.sum(axis=-1, keepdims=True)
    mdp = TabularMdp(embed, reward, trans, float(gamma), float(l_r), float(l_p))
    validate_mdp(mdp)
    return mdp


def random_policy(n_states, n_actions, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(n_actions), size=n_states)


def _check_policy(mdp: TabularMdp, probs: np.ndarray) -> None:
    if probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"policy shape {probs.shape} does not match MDP "
                         f"({mdp.n_states}, {mdp.n_actions})")


def policy_eval(mdp: TabularMdp, probs: np.ndarray, tol: float = 1e-10) -> ValuePair:
    """Exact policy evaluation by a direct linear solve, checked to leave a
    Bellman residual within tol."""
    _check_policy(mdp, probs)
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    p_pi = np.einsum("sa,sat->st", probs, mdp.trans)
    r_pi = np.sum(probs * mdp.reward, axis=1)
    v = np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * p_pi, r_pi)
    residual = np.max(np.abs(v - (r_pi + mdp.gamma * p_pi @ v)))
    if residual > tol:
        raise ArithmeticError(f"Bellman residual {residual} exceeds tol {tol}")
    q = mdp.reward + mdp.gamma * mdp.trans @ v
    return ValuePair(v, q)


def optimal_values(mdp: TabularMdp) -> ValuePair:
    """Exact V*, Q* by policy iteration from the reward-greedy policy (finite
    convergence, machine precision)."""
    greedy = mdp.reward.argmax(axis=1)
    for _ in range(mdp.n_states * mdp.n_actions + 1):
        probs = np.zeros((mdp.n_states, mdp.n_actions))
        probs[np.arange(mdp.n_states), greedy] = 1.0
        vp = policy_eval(mdp, probs, tol=1e-9)
        new_greedy = vp.q.argmax(axis=1)
        if np.array_equal(new_greedy, greedy):
            return vp
        greedy = new_greedy
    raise ArithmeticError("policy iteration failed to converge")


def softmax_policy(q_table: np.ndarray, epsilon_target: float, n_actions: int) -> np.ndarray:
    """Rows are softmax(eta * q) with eta = ln(n_actions) / epsilon_target."""
    if epsilon_target <= 0:
        raise ValueError(f"epsilon_target must be > 0, got {epsilon_target}")
    q = np.asarray(q_table, dtype=float)
    eta = np.log(n_actions) / epsilon_target
    z = eta * q
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def empirical_lipschitz(values: np.ndarray, embed: np.ndarray) -> float:
    """Max over state pairs of the l1 distance of their rows of values (e.g.
    policy rows) / embedding distance."""
    values = np.asarray(values, dtype=float)
    embed = np.asarray(embed, dtype=float)
    if embed.shape[0] < 2:
        raise ValueError("need at least 2 states")
    i, j, d = _state_pairs(embed)
    if not d.size:
        raise ValueError("all states are co-located; the metric is degenerate")
    return float(np.max(np.abs(values[i] - values[j]).sum(axis=-1) / d))


def q_lipschitz_bound(l_r: float, l_p: float, gamma: float) -> float:
    """L_Q = L_r + gamma*L_P/(1-gamma)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0,1), got {gamma}")
    if min(l_r, l_p) < 0:
        raise ValueError("Lipschitz constants must be >= 0")
    return l_r + gamma * l_p / (1.0 - gamma)


def interpolate_policy(mdp: TabularMdp, probs: np.ndarray):
    """Continuous extension of a tabular policy over the embedding.

    Blends the two nearest embedded states with inverse-distance weights
    (re-normalized); exact at the embedded states themselves.
    """
    _check_policy(mdp, probs)
    embed = mdp.embed

    def pi(x: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(embed - np.asarray(x, dtype=float), axis=1)
        if embed.shape[0] == 1:
            return probs[0]
        i1, i2 = np.argsort(d, kind="stable")[:2]
        d1, d2 = d[i1], d[i2]
        if d1 + d2 < 1e-300 or d1 < 1e-12:
            return probs[i1]
        w1 = d2 / (d1 + d2)
        return w1 * probs[i1] + (1.0 - w1) * probs[i2]

    return pi


GRID_RESOLUTION = 9


def delta_grid(epsilon: float, d: int) -> np.ndarray:
    """Finite perturbation grid inside the l2 epsilon-ball: the points of the
    GRID_RESOLUTION^d lattice on [-epsilon, epsilon]^d that lie in the ball."""
    axes = [np.linspace(-epsilon, epsilon, GRID_RESOLUTION)] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return pts[np.linalg.norm(pts, axis=1) <= epsilon + 1e-15]


@dataclass(frozen=True)
class GapResult:
    gap: float        # worst observed |V - V_perturbed| over states
    l_pi: float       # measured Lipschitz constant restricted to the searched grid
    bound: float      # 2 * l_pi * eps / (1-gamma)^2


def perturbed_value_gap(mdp: TabularMdp, probs: np.ndarray, epsilon: float,
                        horizon: int) -> GapResult:
    """Worst-case value deviation under per-step grid-searched observation shifts.

    The adversary perturbs each state's observed embedding by a grid point in
    the epsilon-ball; backward DP over the horizon yields the best perturbing
    sequence within the grid (both reward-minimizing and -maximizing runs).
    """
    _check_policy(mdp, probs)
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if mdp.gamma ** horizon / (1.0 - mdp.gamma) >= 1e-6:
        raise ValueError(f"horizon {horizon} too small: gamma^T/(1-gamma) >= 1e-6")
    s, a = mdp.n_states, mdp.n_actions
    pi = interpolate_policy(mdp, probs)
    grid = delta_grid(epsilon, mdp.embed.shape[1])
    g = grid.shape[0]

    tilde = np.empty((s, g, a))
    for i in range(s):
        for j in range(g):
            tilde[i, j] = pi(mdp.embed[i] + grid[j])

    l_pi = 0.0
    if epsilon > 0:
        norms = np.linalg.norm(grid, axis=1)
        nz = norms > 1e-12
        if np.any(nz):
            tv = np.abs(tilde - probs[:, None, :]).sum(axis=-1)  # (s, g)
            l_pi = float(np.max(tv[:, nz] / norms[nz]))

    w_min = np.zeros(s)
    w_max = np.zeros(s)
    v_clean = np.zeros(s)
    for _ in range(horizon):
        q_min = mdp.reward + mdp.gamma * mdp.trans @ w_min
        q_max = mdp.reward + mdp.gamma * mdp.trans @ w_max
        q_clean = mdp.reward + mdp.gamma * mdp.trans @ v_clean
        w_min = np.einsum("sga,sa->sg", tilde, q_min).min(axis=1)
        w_max = np.einsum("sga,sa->sg", tilde, q_max).max(axis=1)
        v_clean = np.sum(probs * q_clean, axis=1)

    gap = float(max(np.max(np.abs(v_clean - w_min)), np.max(np.abs(v_clean - w_max))))
    bound = 2.0 * l_pi * epsilon / (1.0 - mdp.gamma) ** 2
    return GapResult(gap, l_pi, bound)


def mdp_to_json(mdp: TabularMdp) -> dict:
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "gamma": mdp.gamma,
        "l_r": mdp.l_r,
        "l_p": mdp.l_p,
        "embed": mdp.embed.tolist(),
        "reward": mdp.reward.tolist(),
        "trans": mdp.trans.tolist(),
    }
