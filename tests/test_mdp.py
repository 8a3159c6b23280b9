import json

import numpy as np
import pytest

from ernie_lab.certify import _draw_instance
from ernie_lab.mdp import (TabularMdp, ValuePair, audit_smoothness, delta_grid,
                           empirical_lipschitz, gen_smooth_mdp, interpolate_policy,
                           mdp_to_json, optimal_values, perturbed_value_gap,
                           policy_eval, q_lipschitz_bound, random_policy,
                           softmax_policy, validate_mdp)


def _tiny_mdp(reward, trans, gamma, embed=None, l_r=10.0, l_p=10.0):
    reward = np.asarray(reward, dtype=float)
    n = reward.shape[0]
    if embed is None:
        embed = np.linspace(0, 1, n)[:, None] * np.ones((1, 2))
    return TabularMdp(embed=np.asarray(embed, float), reward=reward,
                      trans=np.asarray(trans, float), gamma=gamma, l_r=l_r, l_p=l_p)


def test_gen_single_state_self_loop():
    mdp = gen_smooth_mdp(1, 1, 0.3, 0.3, 0.9, seed=0)
    assert np.array_equal(mdp.trans, [[[1.0]]])
    assert np.abs(mdp.reward).max() <= 1.0


def test_gen_zero_lipschitz_constancy():
    mdp = gen_smooth_mdp(5, 3, 0.0, 0.0, 0.9, seed=1)
    for a in range(3):
        assert np.ptp(mdp.reward[:, a]) == 0.0
        for s in range(1, 5):
            assert np.allclose(mdp.trans[s, a], mdp.trans[0, a])


def test_gen_passes_audit():
    mdp = gen_smooth_mdp(8, 3, 0.5, 0.2, 0.9, seed=7)
    validate_mdp(mdp)
    audit = audit_smoothness(mdp)
    assert audit["reward_slope"] <= 0.5 + 1e-12
    assert audit["trans_slope"] <= 0.2 + 1e-12


def test_gen_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_smooth_mdp(0, 2, 0.5, 0.5, 0.9, seed=0)
    with pytest.raises(ValueError):
        gen_smooth_mdp(4, 2, -0.1, 0.5, 0.9, seed=0)
    with pytest.raises(ValueError):
        gen_smooth_mdp(4, 2, 0.5, 0.5, 1.0, seed=0)


def test_policy_eval_geometric_series():
    mdp = _tiny_mdp([[1.0]], [[[1.0]]], gamma=0.5, embed=[[0.0, 0.0]])
    vp = policy_eval(mdp, np.array([[1.0]]))
    assert abs(vp.v[0] - 2.0) < 1e-10


def test_policy_eval_two_state_cycle():
    # r(s0)=0, r(s1)=1, deterministic cycle, gamma 0.9 -> v(s0)=0.9/(1-0.81)
    mdp = _tiny_mdp([[0.0], [1.0]], [[[0.0, 1.0]], [[1.0, 0.0]]], gamma=0.9)
    vp = policy_eval(mdp, np.ones((2, 1)))
    assert abs(vp.v[0] - 0.9 / (1 - 0.81)) < 1e-9
    assert abs(vp.v[0] - 4.736842105263158) < 1e-6


def test_policy_eval_zero_reward():
    mdp = gen_smooth_mdp(6, 2, 0.4, 0.4, 0.9, seed=2)
    zero = TabularMdp(embed=mdp.embed, reward=np.zeros_like(mdp.reward),
                      trans=mdp.trans, gamma=mdp.gamma, l_r=0.0, l_p=mdp.l_p)
    vp = policy_eval(zero, random_policy(6, 2, 0))
    assert np.abs(vp.v).max() < 1e-12
    assert np.abs(vp.q).max() < 1e-12


def test_optimal_values_hand_fixed_point():
    # 1 state, rewards [0.2, 1.0], gamma 0.5: m = 1 + 0.5 m -> m = 2
    mdp = _tiny_mdp([[0.2, 1.0]], [[[1.0], [1.0]]], gamma=0.5, embed=[[0.0, 0.0]])
    q = optimal_values(mdp).q
    assert np.abs(q - np.array([[1.2, 2.0]])).max() < 1e-9


def test_optimal_values_symmetric_actions():
    mdp = gen_smooth_mdp(5, 1, 0.3, 0.3, 0.9, seed=3)
    wide = TabularMdp(embed=mdp.embed, reward=np.repeat(mdp.reward, 3, axis=1),
                      trans=np.repeat(mdp.trans, 3, axis=1), gamma=mdp.gamma,
                      l_r=mdp.l_r, l_p=mdp.l_p)
    q = optimal_values(wide).q
    assert np.ptp(q, axis=1).max() < 1e-9


def _optimal_values_reference(mdp):
    # The solver optimal_values replaced: value iteration to a Bellman
    # residual of 1e-8, then policy iteration from its greedy policy.
    q = np.zeros((mdp.n_states, mdp.n_actions))
    while True:
        tq = mdp.reward + mdp.gamma * mdp.trans @ q.max(axis=1)
        if np.max(np.abs(tq - q)) <= 1e-8:
            break
        q = tq
    greedy = tq.argmax(axis=1)
    for _ in range(mdp.n_states * mdp.n_actions + 1):
        probs = np.zeros((mdp.n_states, mdp.n_actions))
        probs[np.arange(mdp.n_states), greedy] = 1.0
        vp = policy_eval(mdp, probs, tol=1e-9)
        if np.array_equal(vp.q.argmax(axis=1), greedy):
            return vp
        greedy = vp.q.argmax(axis=1)
    raise ArithmeticError("policy iteration failed to converge")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimal_values_match_the_warm_started_solver_bit_for_bit(seed):
    # Policy iteration from the reward-greedy policy ends on the policy the
    # value-iteration warm start ended on, so V* and Q* keep their bits on
    # the instances the certificates draw.
    rng = np.random.default_rng(seed)
    for _ in range(200):
        mdp, _ = _draw_instance(rng)
        got, want = optimal_values(mdp), _optimal_values_reference(mdp)
        assert got.v.tobytes() == want.v.tobytes()
        assert got.q.tobytes() == want.q.tobytes()


def test_optimal_values_gives_up_after_its_round_bound(monkeypatch):
    # An evaluation whose greedy policy is always the other action never
    # settles: policy iteration stops after its S * A + 1 rounds and raises.
    mdp = gen_smooth_mdp(3, 2, 0.3, 0.3, 0.9, seed=4)
    rounds = []

    def unsettled(mdp, probs, tol):
        rounds.append(probs)
        return ValuePair((1.0 - probs).max(axis=1), 1.0 - probs)

    monkeypatch.setattr("ernie_lab.mdp.policy_eval", unsettled)
    with pytest.raises(ArithmeticError, match="failed to converge"):
        optimal_values(mdp)
    assert len(rounds) == 3 * 2 + 1


def test_softmax_policy_oracles():
    assert np.allclose(softmax_policy(np.array([[3.0, 3.0]]), 0.5, 2), [[0.5, 0.5]])
    # eta = ln(2)/eps; eps=1 gives eta=ln 2, rows exp([ln2,0]) ~ [2,1]
    pol = softmax_policy(np.array([[1.0, 0.0]]), 1.0, 2)
    assert np.allclose(pol, [[2 / 3, 1 / 3]])
    sharp = softmax_policy(np.array([[5.0, 0.0]]), 1e-4, 2)
    assert sharp[0, 0] > 1 - 1e-9
    with pytest.raises(ValueError):
        softmax_policy(np.array([[1.0, 0.0]]), 0.0, 2)


def test_empirical_lipschitz():
    embed = np.array([[0.0, 0.0], [1.0, 0.0]])
    const = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert empirical_lipschitz(const, embed) == 0.0
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert empirical_lipschitz(rows, embed) == 2.0
    with pytest.raises(ValueError):
        empirical_lipschitz(rows, np.zeros((2, 2)))


def test_empirical_lipschitz_matches_brute_force():
    rng = np.random.default_rng(4)
    embed = rng.uniform(0, 1, size=(6, 2))
    probs = rng.dirichlet(np.ones(3), size=6)
    got = empirical_lipschitz(probs, embed)
    best = 0.0
    for i in range(6):
        for j in range(i + 1, 6):
            d = np.linalg.norm(embed[i] - embed[j])
            best = max(best, np.abs(probs[i] - probs[j]).sum() / d)
    assert abs(got - best) < 1e-12


def test_lipschitz_bounds_oracles():
    assert q_lipschitz_bound(0.0, 0.0, 0.9) == 0.0
    assert abs(q_lipschitz_bound(0.5, 0.2, 0.9) - 2.3) < 1e-12
    assert q_lipschitz_bound(1.0, 1.0, 0.5) == 2.0
    with pytest.raises(ValueError):
        q_lipschitz_bound(1.0, 1.0, 1.0)


def test_interpolate_policy_exact_at_grid():
    mdp = gen_smooth_mdp(6, 3, 0.4, 0.4, 0.9, seed=5)
    pol = random_policy(6, 3, 1)
    interp = interpolate_policy(mdp, pol)
    for s in range(6):
        assert np.allclose(interp(mdp.embed[s]), pol[s])
    off = interp(mdp.embed[0] + 0.01)
    assert abs(off.sum() - 1.0) < 1e-12
    assert np.all(off >= 0)


def test_delta_grid_within_ball():
    grid = delta_grid(0.1, 2)
    assert np.all(np.linalg.norm(grid, axis=1) <= 0.1 + 1e-12)
    assert grid.shape[0] > 1


def test_perturbed_value_gap_trivial_cases():
    mdp = gen_smooth_mdp(5, 2, 0.3, 0.3, 0.9, seed=6)
    res = perturbed_value_gap(mdp, np.full((5, 2), 0.5), 0.1, horizon=160)
    assert res.gap < 1e-9
    pol = softmax_policy(optimal_values(mdp).q, 0.1, 2)
    res = perturbed_value_gap(mdp, pol, 0.0, horizon=160)
    assert res.gap == 0.0


def test_perturbed_value_gap_bound_holds():
    mdp = gen_smooth_mdp(8, 3, 0.5, 0.5, 0.9, seed=8)
    pol = softmax_policy(optimal_values(mdp).q, 0.1, 3)
    res = perturbed_value_gap(mdp, pol, 0.1, horizon=160)
    assert res.gap <= res.bound + 2e-6
    assert res.bound == 2 * res.l_pi * 0.1 / (1 - 0.9) ** 2


def test_perturbed_value_gap_horizon_guard():
    mdp = gen_smooth_mdp(4, 2, 0.3, 0.3, 0.9, seed=9)
    pol = random_policy(4, 2, 0)
    with pytest.raises(ValueError):
        perturbed_value_gap(mdp, pol, 0.1, horizon=10)


def test_value_pair_invariants():
    mdp = gen_smooth_mdp(7, 3, 0.5, 0.5, 0.95, seed=10)
    pol = random_policy(7, 3, 2)
    vp = policy_eval(mdp, pol)
    assert np.abs(vp.v).max() <= 1.0 / (1 - 0.95) + 1e-9
    assert np.abs(vp.v - np.sum(pol * vp.q, axis=1)).max() < 1e-8


def test_json_roundtrip():
    # certify writes offending instances with mdp_to_json
    mdp = gen_smooth_mdp(5, 2, 0.4, 0.6, 0.9, seed=11)
    doc = json.loads(json.dumps(mdp_to_json(mdp)))
    assert {"n_states", "n_actions", "gamma", "l_r", "l_p", "embed", "reward",
            "trans"} <= set(doc)
    assert (doc["n_states"], doc["n_actions"], doc["gamma"]) == (5, 2, mdp.gamma)
    assert (doc["l_r"], doc["l_p"]) == (mdp.l_r, mdp.l_p)
    for key in ("embed", "reward", "trans"):
        assert np.array_equal(np.asarray(doc[key]), getattr(mdp, key))


def test_validate_rejects_bad_mdp():
    mdp = gen_smooth_mdp(4, 2, 0.3, 0.3, 0.9, seed=12)
    bad = TabularMdp(embed=mdp.embed, reward=mdp.reward * 5.0, trans=mdp.trans,
                     gamma=mdp.gamma, l_r=mdp.l_r, l_p=mdp.l_p)
    with pytest.raises(ValueError):
        validate_mdp(bad)
