# Worst-case joint-action perturbation of a global Q-function under a
# Hamming-distance budget: greedy solver plus an exhaustive oracle.
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

BRUTE_MAX_AGENTS = 6
BRUTE_MAX_ACTIONS = 6


@dataclass
class ActionAttackResult:
    perturbed: tuple  # joint action; (R, N) array for R rows
    value: float      # (Q(s,a) - Q(s,a'))^2 at the reported action; (R,) for R rows
    changed_agents: tuple  # agents flipped, in commit order; R tuples for R rows
    evals: int = 0
    warnings: list = field(default_factory=list)


class _CountingQ:
    def __init__(self, q_fn, state):
        self.q_fn = q_fn
        self.state = state
        self.evals = 0

    def __call__(self, joint) -> float:
        self.evals += 1
        return float(self.q_fn(self.state, tuple(joint)))


def greedy_action_attack(q_global, state, actions, n_actions: int,
                         k: int) -> ActionAttackResult:
    """K rounds of single-agent flips, each committing the flip that maximizes
    (Q(s,a) - Q(s,a'))^2; reports the best value over all committed prefixes.
    Every agent has the same n_actions actions. Ties break deterministically
    to the lowest (agent, action) index. K > N is clamped to N with a warning
    record.

    One joint action (N,) is scored through q_global(state, joint). R rows
    (R, N) with states (R, ...) are attacked independently, each as its own
    single call would be, with every row's candidate flips of a round scored
    in one q_global.rows(states, joints) call (see algos.GlobalQ); the result
    then holds perturbed (R, N), value (R,) and changed_agents as R tuples,
    and evals counts the evaluations of all rows.
    """
    joint = np.asarray(actions, dtype=int)
    batched = joint.ndim == 2
    joint = joint.reshape(-1, joint.shape[-1])
    n_rows, n = joint.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    warnings = []
    if k > n:
        warnings.append(f"k={k} clamped to the number of agents {n}")
        k = n
    for i in range(n):
        bad = (joint[:, i] < 0) | (joint[:, i] >= n_actions)
        if bad.any():
            raise ValueError(f"agent {i} action {joint[bad, i][0]} out of range "
                             f"[0, {n_actions})")

    if batched:
        states = np.asarray(state)
        score = lambda idx, joints: q_global.rows(states[idx], joints).tolist()
    else:
        score = lambda idx, joints: [float(q_global(state, tuple(j)))
                                     for j in joints.tolist()]

    # Every (agent, action) pair in scan order; a round's candidates are the
    # pairs of agents not yet flipped, minus each agent's current action.
    pair_agent = np.repeat(np.arange(n), n_actions)
    pair_alt = np.tile(np.arange(n_actions), n)
    q_orig = score(np.arange(n_rows), joint)
    evals = n_rows
    current = joint.copy()
    flipped = np.zeros(joint.shape, dtype=bool)
    order = np.zeros((n_rows, k), dtype=int)   # agents in commit order
    best_value = np.full(n_rows, -1.0)
    best_joint = joint.copy()
    best_len = np.zeros(n_rows, dtype=int)
    for rnd in range(k):
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
        vals[r_idx, c_idx] = [(q_orig[r] - qc) ** 2
                              for r, qc in zip(r_idx.tolist(), score(r_idx, cand))]
        live = np.flatnonzero(valid.any(axis=1))
        pick = vals[live].argmax(axis=1)   # the first maximum: lowest (agent, action)
        agent = pair_agent[pick]
        current[live, agent] = pair_alt[pick]
        flipped[live, agent] = True
        order[live, rnd] = agent
        val = vals[live, pick]
        up = val > best_value[live]
        better = live[up]
        best_value[better] = val[up]
        best_joint[better] = current[better]
        best_len[better] = rnd + 1

    value = np.maximum(best_value, 0.0)
    changed = [tuple(order[r, :best_len[r]].tolist()) for r in range(n_rows)]
    if batched:
        return ActionAttackResult(best_joint, value, changed, evals=evals, warnings=warnings)
    return ActionAttackResult(tuple(best_joint[0].tolist()), float(value[0]), changed[0],
                              evals=evals, warnings=warnings)


def brute_force_action_attack(q_global, state, actions, n_actions: int,
                              k: int) -> ActionAttackResult:
    """Exact maximizer over all joint actions within Hamming distance k, with
    n_actions actions per agent."""
    actions = tuple(int(a) for a in actions)
    n = len(actions)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    if n > BRUTE_MAX_AGENTS or n_actions > BRUTE_MAX_ACTIONS:
        raise ValueError(
            f"brute force limited to N <= {BRUTE_MAX_AGENTS}, |A| <= {BRUTE_MAX_ACTIONS}")

    q = _CountingQ(q_global, state)
    q_orig = q(actions)
    best_value, best_joint = 0.0, actions
    for cand in product(range(n_actions), repeat=n):
        dist = sum(1 for a, b in zip(actions, cand) if a != b)
        if dist == 0 or dist > k:
            continue
        val = (q_orig - q(cand)) ** 2
        if val > best_value:
            best_value, best_joint = val, cand
    changed = tuple(i for i, (a, b) in enumerate(zip(actions, best_joint)) if a != b)
    return ActionAttackResult(best_joint, float(best_value), changed, evals=q.evals)

