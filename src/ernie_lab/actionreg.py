# Worst-case joint-action perturbation of a global Q-function under a
# Hamming-distance budget: greedy solver plus an exhaustive oracle.
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

BRUTE_MAX_AGENTS = 6
BRUTE_MAX_ACTIONS = 6


@dataclass
class ActionAttackResult:
    perturbed: np.ndarray  # (R, N) joint actions at the reported values
    value: np.ndarray      # (R,) (Q(s,a) - Q(s,a'))^2 at perturbed
    evals: int             # Q evaluations over all rows


@functools.lru_cache(maxsize=64)
def _scan_pairs(n: int, n_actions: int) -> tuple[np.ndarray, np.ndarray]:
    # Every (agent, action) pair in scan order, as read-only (agents, actions).
    pairs = (np.repeat(np.arange(n), n_actions), np.tile(np.arange(n_actions), n))
    for a in pairs:
        a.flags.writeable = False
    return pairs


def greedy_action_attack(q_global, states, actions, k: int) -> ActionAttackResult:
    """K rounds of single-agent flips on each of R rows (states (R, ...),
    joint actions (R, N)), each round committing the flip that maximizes
    (Q(s,a) - Q(s,a'))^2; reports the best value over all committed prefixes.
    Every agent has q_global.n_actions actions. Ties break deterministically
    to the lowest (agent, action) index. K > N is clamped to N.

    Rows are attacked independently; every row's candidate flips of a round
    are scored in one q_global.rows(states, joints) call (see algos.GlobalQ).
    """
    joint = np.asarray(actions, dtype=int)
    n_rows, n = joint.shape
    n_actions = q_global.n_actions
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    bad = (joint < 0) | (joint >= n_actions)
    if bad.any():  # name the lowest bad agent, then its first bad row
        i = int(bad.any(axis=0).argmax())
        raise ValueError(f"agent {i} action {joint[bad[:, i].argmax(), i]} out of range "
                         f"[0, {n_actions})")

    # A round's candidates are the (agent, action) pairs of agents not yet
    # flipped, minus each agent's current action.
    pair_agent, pair_alt = _scan_pairs(n, n_actions)
    q_orig = q_global.rows(states, joint).tolist()
    evals = n_rows
    current = joint.copy()
    flipped = np.zeros(joint.shape, dtype=bool)
    best_value = np.full(n_rows, -1.0)
    best_joint = joint.copy()
    for _ in range(k):
        valid = ~flipped[:, pair_agent] & (current[:, pair_agent] != pair_alt)
        r_idx, c_idx = np.nonzero(valid)
        if r_idx.size == 0:
            break
        cand = current[r_idx]
        cand[np.arange(r_idx.size), pair_agent[c_idx]] = pair_alt[c_idx]
        evals += r_idx.size
        # Python float arithmetic, as in a scalar scan: its ** 2 is libm's
        # pow, which differs from numpy's x * x in the last bit.
        vals = np.full(valid.shape, -np.inf)
        vals[r_idx, c_idx] = [(q_orig[r] - qc) ** 2 for r, qc in
                              zip(r_idx.tolist(), q_global.rows(states[r_idx], cand).tolist())]
        live = np.flatnonzero(valid.any(axis=1))
        pick = vals[live].argmax(axis=1)   # the first maximum: lowest (agent, action)
        agent = pair_agent[pick]
        current[live, agent] = pair_alt[pick]
        flipped[live, agent] = True
        val = vals[live, pick]
        up = val > best_value[live]
        better = live[up]
        best_value[better] = val[up]
        best_joint[better] = current[better]

    return ActionAttackResult(best_joint, np.maximum(best_value, 0.0), evals)


def brute_force_action_attack(q_global, states, actions, k: int) -> ActionAttackResult:
    """Exact maximizer over all joint actions within Hamming distance k of
    each of R rows (states (R, ...), joint actions (R, N)), with
    q_global.n_actions actions per agent; each row's candidates are scored in
    one q_global.rows call, and the first strict maximum in product order wins."""
    joint = np.asarray(actions, dtype=int)
    n_rows, n = joint.shape
    n_actions = q_global.n_actions
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    if n > BRUTE_MAX_AGENTS or n_actions > BRUTE_MAX_ACTIONS:
        raise ValueError(
            f"brute force limited to N <= {BRUTE_MAX_AGENTS}, |A| <= {BRUTE_MAX_ACTIONS}")

    every = np.array(list(product(range(n_actions), repeat=n)))
    best_joint, best_value, evals = joint.copy(), np.zeros(n_rows), 0
    for r in range(n_rows):
        dist = (every != joint[r]).sum(axis=1)
        cands = every[(dist > 0) & (dist <= k)]
        q = q_global.rows(np.repeat(states[r:r + 1], len(cands) + 1, axis=0),
                          np.vstack([joint[r], cands])).tolist()
        evals += len(q)
        for cand, qc in zip(cands, q[1:]):
            val = (q[0] - qc) ** 2
            if val > best_value[r]:
                best_value[r], best_joint[r] = val, cand
    return ActionAttackResult(best_joint, best_value, evals)
