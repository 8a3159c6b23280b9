import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ernie_lab.actionreg import brute_force_action_attack, greedy_action_attack
from ernie_lab.algos import Agents, GlobalQ
from ernie_lab.net import Net, net_init, stack_nets, vector_to_net
from ernie_lab.train import _action_regularizer_grad

# Hand table: Q(0,0)=1.0 Q(1,0)=2.0 Q(0,1)=1.5 Q(1,1)=0.2
TABLE = {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 1.5, (1, 1): 0.2}


def q_table(state, joint):
    return TABLE[tuple(joint)]


def q_const(state, joint):
    return 3.5


def _random_q(rng, n_agents, n_actions):
    table = {j: rng.standard_normal()
             for j in itertools.product(range(n_actions), repeat=n_agents)}
    return lambda state, joint: table[tuple(joint)]


def test_greedy_hamming1_oracle():
    res = greedy_action_attack(q_table, None, (0, 0), 2, k=1)
    assert res.perturbed == (1, 0)
    assert res.value == (1.0 - 2.0) ** 2
    assert res.changed_agents == (0,)


def test_greedy_constant_q_tiebreak():
    res = greedy_action_attack(q_const, None, (0, 0), 2, k=1)
    assert res.value == 0.0
    # lowest (agent, action) pair: agent 0 flips to its lowest alternative
    assert res.perturbed == (1, 0)


def test_greedy_prefix_max_reporting():
    # K=2: second flip from (1,0) can only reach (1,1) with value 0.64 < 1.0;
    # the reported value keeps the better committed prefix
    res = greedy_action_attack(q_table, None, (0, 0), 2, k=2)
    assert res.value == 1.0
    assert res.perturbed == (1, 0)


def test_greedy_value_is_the_scalar_scans_square():
    # The reported value is Python's (q - q') ** 2, which goes through libm's
    # pow and, for this q, differs in the last bit from q * q.
    q0 = 1.2772299458181684
    res = greedy_action_attack(lambda s, j: q0 if j == (0, 0) else 0.0, None, (0, 0), 2, k=1)
    assert res.value == q0 ** 2


def test_greedy_k_clamped_with_warning():
    res = greedy_action_attack(q_table, None, (0, 0), 2, k=5)
    assert res.warnings
    assert len(res.changed_agents) <= 2


def test_greedy_eval_budget():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, a = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        q = _random_q(rng, n, a)
        res = greedy_action_attack(q, None, tuple([0] * n), a, k)
        assert res.evals <= a * n * k


def test_brute_equals_greedy_at_k1():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n, a = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        q = _random_q(rng, n, a)
        start = tuple(int(x) for x in rng.integers(a, size=n))
        g = greedy_action_attack(q, None, start, a, 1)
        b = brute_force_action_attack(q, None, start, a, 1)
        assert g.value == b.value
        assert g.perturbed == b.perturbed


def test_greedy_bounded_by_brute():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = _random_q(rng, 4, 3)
        start = tuple(int(x) for x in rng.integers(3, size=4))
        for k in (2, 3):
            g = greedy_action_attack(q, None, start, 3, k)
            b = brute_force_action_attack(q, None, start, 3, k)
            assert g.value <= b.value + 1e-15


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 4), a=st.integers(2, 4),
       k=st.integers(1, 4), ties=st.booleans())
def test_greedy_never_beats_brute_force(seed, n, a, k, ties):
    # greedy commits one flip per round, so it searches a subset of brute
    # force's joint actions within Hamming distance k
    rng = np.random.default_rng(seed)
    q = _random_q(rng, n, a)
    if ties:  # a coarse table, full of equal values
        table = {j: float(np.round(rng.standard_normal()))
                 for j in itertools.product(range(a), repeat=n)}
        q = lambda state, joint: table[tuple(joint)]
    start = tuple(int(x) for x in rng.integers(a, size=n))
    k = min(k, n)
    g = greedy_action_attack(q, None, start, a, k)
    b = brute_force_action_attack(q, None, start, a, k)
    assert g.value <= b.value
    assert sum(x != y for x, y in zip(g.perturbed, start)) <= k


def test_brute_monotone_in_k():
    rng = np.random.default_rng(3)
    for _ in range(30):
        q = _random_q(rng, 3, 3)
        start = (0, 0, 0)
        vals = [brute_force_action_attack(q, None, start, 3, k).value
                for k in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]


def test_brute_size_limits():
    q = _random_q(np.random.default_rng(0), 3, 3)
    with pytest.raises(ValueError):
        brute_force_action_attack(q, None, tuple([0] * 7), 3, 1)



def _greedy_loop(q_global, state, actions, counts, k):
    # Reference scan: one Q call per candidate, flips accumulating round by
    # round, the first strict maximum winning each round.
    actions = tuple(actions)
    k = min(k, len(actions))
    q_orig = float(q_global(state, actions))
    current, changed, evals = list(actions), [], 1
    best = (-1.0, actions, ())
    for _ in range(k):
        round_best = None
        for agent in range(len(actions)):
            if agent in changed:
                continue
            for alt in range(counts[agent]):
                if alt == current[agent]:
                    continue
                cand = list(current)
                cand[agent] = alt
                val = (q_orig - float(q_global(state, tuple(cand)))) ** 2
                evals += 1
                if round_best is None or val > round_best[0]:
                    round_best = (val, agent, alt)
        if round_best is None:
            break
        val, agent, alt = round_best
        current[agent] = alt
        changed.append(agent)
        if val > best[0]:
            best = (val, tuple(current), tuple(changed))
    return best[1], max(best[0], 0.0), best[2], evals


def test_greedy_matches_loop_reference():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        counts = [int(c) for c in rng.integers(1, 4, size=n)]
        table = {j: rng.standard_normal() if rng.uniform() < 0.7 else 0.5
                 for j in itertools.product(*(range(c) for c in counts))}
        q = lambda state, joint: table[tuple(joint)]
        start = tuple(int(rng.integers(c)) for c in counts)
        k = int(rng.integers(1, n + 2))
        res = greedy_action_attack(q, None, start, counts, k)
        assert (res.perturbed, res.value, res.changed_agents, res.evals) == \
            _greedy_loop(q, None, start, counts, k)


def _global_q(rng, n, a_count, state_dim, constant):
    glob = net_init([state_dim + n * a_count, 16, 1], seed=int(rng.integers(1000)))
    if constant:  # only the output bias is nonzero: every joint action ties
        glob = Net(glob.layer_dims, [np.zeros_like(w) for w in glob.weights],
                   [np.zeros(16), np.array([0.7])], glob.activation)
    return GlobalQ(glob, a_count)


@pytest.mark.parametrize("rows", [1, 4, 8])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("a_count", [2, 3])
@pytest.mark.parametrize("constant", [False, True], ids=["random", "constant"])
def test_row_stacked_greedy_equals_scalar_calls(rows, k, a_count, constant):
    # All rows' flips of a round go through one GlobalQ.rows pass; each row
    # must get exactly what its own scalar call (one Q call per candidate)
    # reports, constant-Q ties included.
    rng = np.random.default_rng(rows * 100 + k * 10 + a_count)
    n, state_dim = 4, 6
    q = _global_q(rng, n, a_count, state_dim, constant)
    states = rng.uniform(-1, 1, size=(rows, state_dim))
    actions = rng.integers(0, a_count, size=(rows, n))
    got = greedy_action_attack(q, states, actions, a_count, k)
    assert got.perturbed.shape == (rows, n) and got.value.shape == (rows,)
    evals = 0
    for r in range(rows):
        one = greedy_action_attack(q, states[r], tuple(actions[r]), a_count, k)
        assert tuple(got.perturbed[r].tolist()) == one.perturbed
        assert got.value[r] == one.value
        assert got.changed_agents[r] == one.changed_agents
        evals += one.evals
    assert got.evals == evals
    if constant:
        # first-index tie order: agent 0 flips to its lowest other action
        assert (got.value == 0.0).all() and all(c == (0,) for c in got.changed_agents)
        assert (got.perturbed[:, 0] == (actions[:, 0] == 0)).all()


def test_row_stacked_greedy_validates_every_row():
    q = _global_q(np.random.default_rng(0), 2, 2, 3, False)
    with pytest.raises(ValueError, match="agent 1 action 2"):
        greedy_action_attack(q, np.zeros((2, 3)), np.array([[0, 1], [1, 2]]), 2, 1)


@pytest.mark.parametrize("k", [1, 2])
def test_action_regularizer_grad_matches_fd(k):
    # The greedy flip is locally constant in the global Q's parameters, so the
    # returned gradient is the derivative of the returned value.
    n, a_count, state_dim, rows = 3, 3, 4, 6
    rng = np.random.default_rng(k)
    ind = stack_nets([net_init([5, 4, a_count], seed=i) for i in range(n)])
    glob = net_init([state_dim + n * a_count, 8, 1], activation="tanh", seed=10 + k)
    batch = {"state": rng.uniform(-1, 1, size=(rows + 2, state_dim)),
             "actions": rng.integers(0, a_count, size=(rows + 2, n))}

    def reg(central):
        return _action_regularizer_grad(Agents(ind, central, ind, central), batch, k, rows)

    value, grad, hits = reg(glob)
    assert value > 0.0 and hits == rows
    theta, h = glob.theta, 1e-6
    fd = np.empty_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd[j] = (reg(vector_to_net(glob, theta + e))[0]
                 - reg(vector_to_net(glob, theta - e))[0]) / (2 * h)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6
