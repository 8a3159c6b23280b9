# Certification suites for the three smooth-MDP guarantees, plus a negative
# control that must be flagged as a violation.
from __future__ import annotations

import math

import numpy as np

from .mdp import (TabularMdp, empirical_lipschitz, gen_smooth_mdp, mdp_to_json,
                  optimal_values, perturbed_value_gap, policy_eval, q_lipschitz_bound,
                  random_policy, softmax_policy, state_distances)

SLACK_TOL = 1e-8
GAP_SLACK = 2e-6


def _draw_instance(rng: np.random.Generator):
    n_states = int(rng.integers(4, 21))
    n_actions = int(rng.integers(2, 5))
    gamma = float(rng.choice([0.9, 0.95]))
    l_r = float(rng.uniform(0.1, 1.0))
    l_p = float(rng.uniform(0.1, 2.0))
    seed = int(rng.integers(2 ** 31))
    return gen_smooth_mdp(n_states, n_actions, l_r, l_p, gamma, seed), seed


def q_lipschitz_slack(mdp: TabularMdp, q: np.ndarray) -> float:
    """max over (s, s', a) of |Q(s,a) - Q(s',a)| - L_Q * dist(s, s')."""
    l_q = q_lipschitz_bound(mdp.l_r, mdp.l_p, mdp.gamma)
    dist = state_distances(mdp.embed)
    gaps = np.abs(q[:, None, :] - q[None, :, :]) - l_q * dist[:, :, None]
    return float(gaps.max())


def certify_theorem1(n_instances: int = 200, seed: int = 0) -> dict:
    """Q-functions of smooth MDPs obey the L_Q = L_r + gamma L_P/(1-gamma) slope."""
    rng = np.random.default_rng(seed)
    worst, worst_seed = -np.inf, None
    offender = None
    for _ in range(n_instances):
        mdp, inst_seed = _draw_instance(rng)
        pol = random_policy(mdp.reward.shape[0], mdp.reward.shape[1], inst_seed + 1)
        for q in (policy_eval(mdp, pol).q, optimal_values(mdp).q):
            slack = q_lipschitz_slack(mdp, q)
            if slack > worst:
                worst, worst_seed = slack, inst_seed
                if slack > SLACK_TOL:
                    offender = mdp_to_json(mdp)
    report = {"theorem": 1, "instances": n_instances, "seed": seed,
              "max_slack": worst, "tolerance": SLACK_TOL,
              "worst_instance_seed": worst_seed, "passed": worst <= SLACK_TOL}
    if offender is not None:
        report["offending_instance"] = offender
    return report


def certify_theorem2(n_instances: int = 200, seed: int = 0,
                     epsilon_targets=(0.05, 0.1, 0.2)) -> dict:
    """Softmax of eta Q* with eta = ln|A|/eps is near-optimal and Lipschitz."""
    rng = np.random.default_rng(seed)
    worst_gap, worst_lip = -np.inf, -np.inf
    worst_seed, offender = None, None
    for _ in range(n_instances):
        mdp, inst_seed = _draw_instance(rng)
        n_actions = mdp.reward.shape[1]
        star = optimal_values(mdp)
        l_q = q_lipschitz_bound(mdp.l_r, mdp.l_p, mdp.gamma)
        for eps in epsilon_targets:
            pol = softmax_policy(star.q, eps, n_actions)
            v_pol = policy_eval(mdp, pol).v
            gap_slack = float((star.v - v_pol).max()) - 2.0 * eps / (1.0 - mdp.gamma)
            lip_bound = n_actions * math.log(n_actions) * l_q / eps
            lip_slack = empirical_lipschitz(pol, mdp.embed) - lip_bound
            if max(gap_slack, lip_slack) > max(worst_gap, worst_lip):
                worst_seed = inst_seed
                if max(gap_slack, lip_slack) > SLACK_TOL:
                    offender = mdp_to_json(mdp)
            worst_gap = max(worst_gap, gap_slack)
            worst_lip = max(worst_lip, lip_slack)
    passed = worst_gap <= SLACK_TOL and worst_lip <= SLACK_TOL
    report = {"theorem": 2, "instances": n_instances, "seed": seed,
              "epsilon_targets": list(epsilon_targets),
              "max_value_gap_slack": worst_gap, "max_lipschitz_slack": worst_lip,
              "tolerance": SLACK_TOL, "worst_instance_seed": worst_seed, "passed": passed}
    if offender is not None:
        report["offending_instance"] = offender
    return report


def certify_theorem3(n_instances: int = 50, seed: int = 0,
                     epsilons=(0.05, 0.1)) -> dict:
    """Adversarial observation perturbations move the value by at most
    2 L_pi eps / (1-gamma)^2 plus truncation slack."""
    rng = np.random.default_rng(seed)
    worst, worst_seed, offender = -np.inf, None, None
    results = []
    for _ in range(n_instances):
        n_states = int(rng.integers(4, 11))
        n_actions = int(rng.integers(2, 4))
        inst_seed = int(rng.integers(2 ** 31))
        mdp = gen_smooth_mdp(n_states, n_actions, l_r=float(rng.uniform(0.1, 0.8)),
                             l_p=float(rng.uniform(0.1, 1.0)), gamma=0.9, seed=inst_seed)
        pol = softmax_policy(optimal_values(mdp).q, 0.1, n_actions)
        horizon = math.ceil(math.log(1e-6 * (1.0 - mdp.gamma)) / math.log(mdp.gamma)) + 1
        for eps in epsilons:
            res = perturbed_value_gap(mdp, pol, eps, horizon)
            slack = res.gap - (res.bound + GAP_SLACK)
            results.append({"seed": inst_seed, "epsilon": eps, "gap": res.gap,
                            "bound": res.bound, "l_pi": res.l_pi})
            if slack > worst:
                worst, worst_seed = slack, inst_seed
                if slack > 0.0:
                    offender = mdp_to_json(mdp)
    report = {"theorem": 3, "instances": n_instances, "seed": seed,
              "epsilons": list(epsilons), "max_slack": worst,
              "tolerance": 0.0, "truncation_slack": GAP_SLACK,
              "worst_instance_seed": worst_seed, "passed": worst <= 0.0,
              "examples": results[:5]}
    if offender is not None:
        report["offending_instance"] = offender
    return report


def negative_control() -> dict:
    """An MDP with a reward cliff but a near-zero claimed reward slope must
    fail the Theorem-1 audit; detecting it validates the certifier itself."""
    base = gen_smooth_mdp(6, 2, l_r=0.5, l_p=0.5, gamma=0.9, seed=7)
    reward = base.reward.copy()
    reward[0, :] = 1.0
    reward[1:, :] = -1.0
    bad = TabularMdp(embed=base.embed, reward=reward, trans=base.trans,
                     gamma=base.gamma, l_r=1e-3, l_p=base.l_p)
    slack = q_lipschitz_slack(bad, policy_eval(bad, random_policy(6, 2, 0)).q)
    return {"suite": "negative_control", "slack": slack,
            "violation_detected": slack > SLACK_TOL,
            "passed": slack > SLACK_TOL}


def run_certification(n_instances: int = 200, seed: int = 0) -> dict:
    t1 = certify_theorem1(n_instances, seed)
    t2 = certify_theorem2(n_instances, seed)
    t3 = certify_theorem3(max(1, n_instances // 4), seed)
    neg = negative_control()
    return {"theorem1": t1, "theorem2": t2, "theorem3": t3,
            "negative_control": neg,
            "passed": all(r["passed"] for r in (t1, t2, t3, neg))}
