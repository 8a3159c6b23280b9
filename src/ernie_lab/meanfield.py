# The mean-field cloud attack on the centralized critic and the transport
# distances between equal-weight particle clouds that judge it. The attack's
# Wasserstein penalty is the identity coupling, and its gradient and
# w_distance's identity branch share one per-particle distance.
from __future__ import annotations

import numpy as np

from .net import Net, _backward, _forward_cached

W_MODES = ("identity_coupling", "exact_matching", "closed_form_1d")
EXACT_MAX = 16

# Radius of the Gaussian jitter that starts the cloud ascent off the clean
# positions, where the squared critic change has a zero gradient.
CLOUD_JITTER = 0.01


def _particle_dist(d: np.ndarray, out=None, work=None) -> np.ndarray:
    # np.linalg.norm(d, axis=-1), by its own formula; out and work, if given,
    # receive the distances and the squares of d
    return np.sqrt(np.add.reduce(np.multiply(d, d, out=work), axis=-1, out=out), out=out)


def w_distance(cloud_a, cloud_b, mode: str) -> float:
    """Transport-style distances between equal-weight particle clouds.

    identity_coupling: mean ||a_i - b_i||, an upper bound on W1 that stays
    differentiable in b. exact_matching: optimal-matching mean cost (true W1).
    closed_form_1d: sorted matching for 1-D clouds.
    """
    a = np.atleast_2d(np.asarray(cloud_a, dtype=float))
    b = np.atleast_2d(np.asarray(cloud_b, dtype=float))
    if mode not in W_MODES:
        raise ValueError(f"mode must be one of {W_MODES}")
    if mode == "closed_form_1d":
        if a.shape[1] != 1 or b.shape[1] != 1:
            raise ValueError("closed_form_1d needs 1-D clouds")
        if a.shape[0] != b.shape[0]:
            raise ValueError("closed_form_1d needs equal-size clouds")
        return float(np.mean(np.abs(np.sort(a[:, 0]) - np.sort(b[:, 0]))))
    if a.shape != b.shape:
        raise ValueError(f"equal-size clouds required, got {a.shape} vs {b.shape}")
    if mode == "identity_coupling":
        return float(np.mean(_particle_dist(a - b)))
    n = a.shape[0]
    if n > EXACT_MAX:
        raise ValueError(f"exact_matching limited to n <= {EXACT_MAX}")
    # scipy is loaded here only: importing it would dwarf a training run's setup
    from scipy.optimize import linear_sum_assignment
    costs = _particle_dist(a[:, None, :] - b[None, :, :])
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum() / n)


def cloud_attack(critic: Net, x0: np.ndarray, clean, n_agents: int, steps: int,
                 eta: float, lam_w: float, jitter: float,
                 rng: np.random.Generator) -> np.ndarray:
    """The critic's input rows x0 (M, d) with their agent-position block, the
    first 2 * n_agents columns, moved by penalized gradient ascent on the
    squared critic change (Q(x) - Q(x0))^2 minus lam_w times each row's
    identity-coupling distance w_distance(clean cloud, attacked cloud).

    clean is the clean pass net_vjp(critic, x0). The ascent starts from the
    clean positions plus Gaussian jitter of radius `jitter`, drawn from rng
    (no draw at 0), and takes `steps` input-only reverse passes."""
    q0 = clean[0]
    m, pdim = len(x0), 2 * n_agents
    x = x0.copy()
    x[:, :pdim] = x0[:, :pdim] + (jitter * rng.standard_normal((m, pdim)) if jitter > 0 else 0.0)
    # Every step writes into buffers allocated once per call. The penalty
    # runs on (row, agent, xy) views of the position block, which round as
    # the block does; pos is a view, so it moves x.
    outs = [np.empty((m, w.shape[0])) for w in critic.weights]
    dzs = [np.empty((m, w.shape[1])) for w in critic.weights]
    pos = x[:, :pdim].reshape(m, n_agents, 2)
    pos0 = x0[:, :pdim].reshape(m, n_agents, 2)
    gin = dzs[0][:, :pdim].reshape(m, n_agents, 2)
    d, pen = np.empty((m, n_agents, 2)), np.empty((m, n_agents, 2))
    # d's squares, laid out coordinate by coordinate: the distance's sum over
    # the two coordinates then adds two planes, which is faster
    sq = np.empty((2, m, n_agents)).transpose(1, 2, 0)
    dist, mask = np.empty((m, n_agents, 1)), np.empty((m, n_agents, 1), bool)
    for _ in range(steps):
        layer_in, q = _forward_cached(critic, x, outs)
        np.subtract(q, q0, out=q)
        q *= 2.0
        _backward(critic, layer_in, q, "input", dzs)
        # n_agents times the gradient of the row's identity coupling. The
        # masked divide over a zeroed pen writes the quotients that
        # np.where(dist > 1e-12, d / np.maximum(dist, 1e-12), 0.0) picks.
        np.subtract(pos, pos0, out=d)
        _particle_dist(d, out=dist[..., 0], work=sq)
        np.greater(dist, 1e-12, out=mask)
        pen.fill(0.0)
        np.divide(d, dist, out=pen, where=mask)
        pen *= lam_w
        pen /= n_agents
        np.subtract(gin, pen, out=pen)
        pen *= eta
        pos += pen
    return x
