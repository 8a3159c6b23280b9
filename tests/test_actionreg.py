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


class TableQ:
    """A global Q read from tables keyed by joint action, behind GlobalQ's
    rows interface: the state row [i] reads tables[i]."""

    def __init__(self, tables, n_actions):
        self.tables, self.n_actions = tables, n_actions

    def rows(self, states, joints):
        return np.array([self.tables[int(s[0])][tuple(j)]
                         for s, j in zip(states.tolist(), joints.tolist())])


def _random_table(rng, n_agents, n_actions, coarse=False):
    # coarse: values rounded to integers, so many joint actions tie
    return {j: float(np.round(rng.standard_normal())) if coarse else rng.standard_normal()
            for j in itertools.product(range(n_actions), repeat=n_agents)}


def _random_q(rng, n_agents, n_actions):
    return TableQ([_random_table(rng, n_agents, n_actions)], n_actions)


def _one(attack, q, start, k):
    """attack on the one row (state 0, start): its perturbed joint action as a
    tuple, its value and its evaluation count."""
    res = attack(q, np.zeros((1, 1)), np.array([start]), k)
    return tuple(res.perturbed[0].tolist()), float(res.value[0]), res.evals


def test_greedy_hamming1_oracle():
    perturbed, value, _ = _one(greedy_action_attack, TableQ([TABLE], 2), (0, 0), 1)
    assert perturbed == (1, 0)
    assert value == (1.0 - 2.0) ** 2


def test_greedy_constant_q_tiebreak():
    q = TableQ([dict.fromkeys(TABLE, 3.5)], 2)
    perturbed, value, _ = _one(greedy_action_attack, q, (0, 0), 1)
    assert value == 0.0
    # lowest (agent, action) pair: agent 0 flips to its lowest alternative
    assert perturbed == (1, 0)


def test_greedy_prefix_max_reporting():
    # K=2: second flip from (1,0) can only reach (1,1) with value 0.64 < 1.0;
    # the reported value keeps the better committed prefix
    perturbed, value, _ = _one(greedy_action_attack, TableQ([TABLE], 2), (0, 0), 2)
    assert value == 1.0
    assert perturbed == (1, 0)


def test_greedy_value_is_the_scalar_scans_square():
    # The reported value is Python's (q - q') ** 2, which goes through libm's
    # pow and, for this q, differs in the last bit from q * q.
    q0 = 1.2772299458181684
    q = TableQ([{j: q0 if j == (0, 0) else 0.0 for j in TABLE}], 2)
    assert _one(greedy_action_attack, q, (0, 0), 1)[1] == q0 ** 2


def test_greedy_k_clamped_to_agent_count():
    q = _random_q(np.random.default_rng(5), 3, 3)
    assert _one(greedy_action_attack, q, (0, 1, 2), 7) == \
        _one(greedy_action_attack, q, (0, 1, 2), 3)


def test_greedy_eval_budget():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, a = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        q = _random_q(rng, n, a)
        assert _one(greedy_action_attack, q, tuple([0] * n), k)[2] <= a * n * k


def test_brute_equals_greedy_at_k1():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n, a = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        q = _random_q(rng, n, a)
        start = tuple(int(x) for x in rng.integers(a, size=n))
        g = _one(greedy_action_attack, q, start, 1)
        b = _one(brute_force_action_attack, q, start, 1)
        assert g[:2] == b[:2]


def test_greedy_bounded_by_brute():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = _random_q(rng, 4, 3)
        start = tuple(int(x) for x in rng.integers(3, size=4))
        for k in (2, 3):
            g = _one(greedy_action_attack, q, start, k)
            b = _one(brute_force_action_attack, q, start, k)
            assert g[1] <= b[1] + 1e-15


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 4), a=st.integers(2, 4),
       k=st.integers(1, 4), ties=st.booleans(), rows=st.integers(1, 3))
def test_greedy_never_beats_brute_force(seed, n, a, k, ties, rows):
    # greedy commits one flip per round, so it searches a subset of brute
    # force's joint actions within Hamming distance k; both attack each of
    # the rows, a state with its own table, on their own
    rng = np.random.default_rng(seed)
    q = TableQ([_random_table(rng, n, a, coarse=ties) for _ in range(rows)], a)
    states = np.arange(rows)[:, None]
    start = rng.integers(a, size=(rows, n))
    k = min(k, n)
    g = greedy_action_attack(q, states, start, k)
    b = brute_force_action_attack(q, states, start, k)
    assert (g.value <= b.value).all()
    assert ((g.perturbed != start).sum(axis=1) <= k).all()
    assert ((b.perturbed != start).sum(axis=1) <= k).all()
    for r in range(rows):
        alone = _one(brute_force_action_attack, TableQ([q.tables[r]], a), tuple(start[r]), k)
        assert alone[:2] == (tuple(b.perturbed[r].tolist()), b.value[r])


def test_brute_monotone_in_k():
    rng = np.random.default_rng(3)
    for _ in range(30):
        q = _random_q(rng, 3, 3)
        vals = [_one(brute_force_action_attack, q, (0, 0, 0), k)[1] for k in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]


def test_brute_size_limits():
    q = _random_q(np.random.default_rng(0), 3, 3)
    with pytest.raises(ValueError):
        _one(brute_force_action_attack, q, tuple([0] * 7), 1)


def _greedy_loop(q_global, state, actions, k):
    # Reference scan: one Q call per candidate, flips accumulating round by
    # round, the first strict maximum winning each round.
    def q(joint):
        return float(q_global.rows(state[None, :], np.array([joint]))[0])

    actions = tuple(actions)
    k = min(k, len(actions))
    q_orig = q(actions)
    current, changed, evals = list(actions), [], 1
    best = (-1.0, actions)
    for _ in range(k):
        round_best = None
        for agent in range(len(actions)):
            if agent in changed:
                continue
            for alt in range(q_global.n_actions):
                if alt == current[agent]:
                    continue
                cand = list(current)
                cand[agent] = alt
                val = (q_orig - q(tuple(cand))) ** 2
                evals += 1
                if round_best is None or val > round_best[0]:
                    round_best = (val, agent, alt)
        if round_best is None:
            break
        val, agent, alt = round_best
        current[agent] = alt
        changed.append(agent)
        if val > best[0]:
            best = (val, tuple(current))
    return best[1], max(best[0], 0.0), evals


def test_greedy_matches_loop_reference():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n, a = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        q = TableQ([{j: rng.standard_normal() if rng.uniform() < 0.7 else 0.5
                     for j in itertools.product(range(a), repeat=n)}], a)
        start = tuple(int(x) for x in rng.integers(a, size=n))
        k = int(rng.integers(1, n + 2))
        assert _one(greedy_action_attack, q, start, k) == \
            _greedy_loop(q, np.zeros(1), start, k)


def _global_q(rng, n, a_count, state_dim, constant):
    glob = net_init([state_dim + n * a_count, 16, 1], seed=int(rng.integers(1000)))
    if constant:  # only the output bias is nonzero: every joint action ties
        glob = Net(glob.layer_dims, [np.zeros_like(w) for w in glob.weights],
                   [np.zeros(16), np.array([0.7])], glob.activation)
    return GlobalQ(glob, a_count)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 4),
       scorer=st.sampled_from(["net", "table", "coarse"]))
@pytest.mark.parametrize("rows", [1, 4, 8])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("a_count", [2, 3])
@pytest.mark.parametrize("constant", [False, True], ids=["random", "constant"])
def test_row_stacked_greedy_equals_scalar_calls(rows, k, a_count, constant, seed, n, scorer):
    # All rows' flips of a round go through one rows pass; each row must get
    # exactly what the one-call-per-candidate reference scan reports on it
    # alone, and the evaluation count must be the sum of the rows' counts.
    # The random scorer is a GlobalQ net, a table per row, or a coarse table
    # per row full of ties; the constant one a GlobalQ on which every joint
    # action ties.
    rng = np.random.default_rng(seed)
    if constant or scorer == "net":
        state_dim = 6
        q = _global_q(rng, n, a_count, state_dim, constant)
        states = rng.uniform(-1, 1, size=(rows, state_dim))
    else:
        q = TableQ([_random_table(rng, n, a_count, coarse=scorer == "coarse")
                    for _ in range(rows)], a_count)
        states = np.arange(rows)[:, None]
    actions = rng.integers(0, a_count, size=(rows, n))
    got = greedy_action_attack(q, states, actions, k)
    assert got.perturbed.shape == (rows, n) and got.value.shape == (rows,)
    evals = 0
    for r in range(rows):
        perturbed, value, row_evals = _greedy_loop(q, states[r], actions[r], k)
        assert tuple(got.perturbed[r].tolist()) == perturbed
        assert got.value[r] == value
        evals += row_evals
    assert got.evals == evals
    if constant:
        # first-index tie order: agent 0 flips to its lowest other action
        assert (got.value == 0.0).all()
        assert (got.perturbed[:, 1:] == actions[:, 1:]).all()
        assert (got.perturbed[:, 0] == (actions[:, 0] == 0)).all()


def test_row_stacked_greedy_validates_every_row():
    q = _global_q(np.random.default_rng(0), 2, 2, 3, False)
    with pytest.raises(ValueError, match="agent 1 action 2"):
        greedy_action_attack(q, np.zeros((2, 3)), np.array([[0, 1], [1, 2]]), 1)


@pytest.mark.parametrize("actions,message", [
    ([[0, 5], [7, 0]], "agent 0 action 7 "),   # a row-major scan would name agent 1
    ([[0, 5], [-1, 9]], "agent 0 action -1 "),
    ([[0, 5], [1, 9]], "agent 1 action 5 "),    # agent 1's first bad row
    ([[-3, 0], [4, 0]], "agent 0 action -3 "),
])
def test_greedy_range_check_names_the_lowest_agent_then_its_first_row(actions, message):
    q = _global_q(np.random.default_rng(0), 2, 2, 3, False)
    with pytest.raises(ValueError, match=message + r"out of range \[0, 2\)"):
        greedy_action_attack(q, np.zeros((2, 3)), np.array(actions), 1)


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
