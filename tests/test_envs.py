# Environment oracles: observation layouts, reward arithmetic, queue
# conservation, episode-batched steps, and the evaluation perturbation
# harness with its per-episode reference.
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ernie_lab.envs as envs_mod
from ernie_lab.algos import GlobalQ
from ernie_lab.envs import (
    COLLISION_DIST,
    GRIDQ_FORWARD_FRAC,
    PHASE_SERVES,
    _OPPOSITE,
    _neighbor,
    _perturb_obs,
    CoopNavEnv,
    CoopNavState,
    GridQueueEnv,
    GridQueueState,
    PerturbSpec,
    coopnav_obs_dim,
    coopnav_reset,
    coopnav_step,
    episode_rng,
    gridq_reset,
    gridq_step,
    malicious_injector,
    rollout,
)
from ernie_lab.net import net_forward, net_init, stack_nets


def test_coopnav_obs_dims():
    assert coopnav_obs_dim(3) == 14
    assert coopnav_obs_dim(1) == 6
    _, obs = coopnav_reset(3, seed=0)
    assert obs.shape == (3, 14)
    _, obs1 = coopnav_reset(1, seed=0)
    assert obs1.shape == (1, 6)


def test_coopnav_reset_ranges_and_validation():
    state, _ = coopnav_reset(4, seed=5)
    assert np.all(np.abs(state.pos) <= 1.0)
    assert np.all(state.vel == 0.0)
    assert np.all(np.abs(state.landmarks) <= 1.0)
    with pytest.raises(ValueError):
        coopnav_reset(0, seed=0)


def test_coopnav_step_kinematics_hand_check():
    # single agent at origin, zero vel, full-right action
    state = CoopNavState(pos=np.zeros((1, 2)), vel=np.zeros((1, 2)),
                         landmarks=np.array([[0.5, 0.0]]))
    new, _, rewards, g = coopnav_step(state, np.array([[1.0, 0.0]]))
    assert np.allclose(new.vel, [[0.5, 0.0]])
    assert np.allclose(new.pos, [[0.05, 0.0]])
    # reward is minus the distance from the landmark to the nearest agent
    assert rewards[0] == pytest.approx(-0.45)
    assert g == pytest.approx(-0.45)


def test_coopnav_collision_penalty():
    # two agents on top of each other, both on a shared landmark
    state = CoopNavState(pos=np.zeros((2, 2)), vel=np.zeros((2, 2)),
                         landmarks=np.zeros((2, 2)))
    _, _, rewards, _ = coopnav_step(state, np.zeros((2, 2)))
    assert rewards[0] == pytest.approx(-1.0)  # zero coverage cost, one collision


def test_coopnav_rewards_shared_and_bounded():
    env = CoopNavEnv(3)
    state, _ = env.reset(seed=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        state, _, rewards, _ = env.step(state, rng.uniform(-1, 1, size=(3, 2)))
        assert np.all(rewards == rewards[0])
        assert rewards[0] <= 0.0
    assert np.all(np.abs(state.pos) <= 1.5)


def test_gridq_obs_shape_and_reset():
    env = GridQueueEnv(2, 2)
    state, obs = env.reset(seed=0)
    assert obs.shape == (4, 9)
    assert np.all(state.queues >= 0.0)
    assert np.all((state.arrivals >= 0.05) & (state.arrivals <= 0.35))
    assert env.global_state(state).shape == (20,)


def test_gridq_serve_and_forward_oracle():
    # one car waiting northbound at cell 0; no arrivals; phase 0 serves N/S.
    # The served car must appear in the north neighbor's south queue.
    queues = np.zeros((4, 4))
    queues[0, 0] = 1.0  # DIR_N
    state = GridQueueState(queues=queues, phases=np.zeros(4, dtype=int),
                           arrivals=np.zeros((4, 4)), serve=1.0, rows=2, cols=2)
    new, _, rewards, _ = gridq_step(state, np.zeros(4, dtype=int))
    assert new.queues[0, 0] == 0.0
    # cell (1,0) south queue on the 2x2 torus gets the forwarded fraction
    assert new.queues[2, 1] == 0.5
    assert rewards.sum() == pytest.approx(-0.5)
    # serving E/W instead leaves the car in place
    new2, _, _, _ = gridq_step(state, np.ones(4, dtype=int))
    assert new2.queues[0, 0] == 1.0


def test_gridq_serve_capacity_scales_with_dynamics():
    queues = np.zeros((4, 4))
    queues[0, 0] = 2.0
    state = GridQueueState(queues=queues, phases=np.zeros(4, dtype=int),
                           arrivals=np.zeros((4, 4)), serve=1.0, rows=2, cols=2)
    new, _, _, _ = gridq_step(state, np.zeros(4, dtype=int), dynamics_scale=0.5)
    assert new.queues[0, 0] == pytest.approx(1.5)


def test_gridq_mass_conserved_without_arrivals_or_service():
    rng = np.random.default_rng(4)
    state = GridQueueState(queues=rng.uniform(0, 3, size=(4, 4)),
                           phases=np.zeros(4, dtype=int),
                           arrivals=np.zeros((4, 4)), serve=0.0, rows=2, cols=2)
    total = state.queues.sum()
    for t in range(10):
        state, _, _, _ = gridq_step(state, rng.integers(0, 2, size=4))
        assert state.queues.sum() == pytest.approx(total)


def test_gridq_service_drains_mass_and_policy_matters():
    # phases that serve the loaded directions must beat phases that do not
    env = GridQueueEnv(2, 2)
    state, _ = env.reset(seed=2)
    busy = state
    r_serve = r_idle = 0.0
    for _ in range(20):
        phases = np.argmax([busy.queues[:, [0, 1]].sum(axis=1),
                            busy.queues[:, [2, 3]].sum(axis=1)], axis=0)
        busy, _, rew, _ = env.step(busy, phases)
        r_serve += rew.sum()
    idle = state
    for _ in range(20):
        phases = np.argmin([idle.queues[:, [0, 1]].sum(axis=1),
                            idle.queues[:, [2, 3]].sum(axis=1)], axis=0)
        idle, _, rew, _ = env.step(idle, phases)
        r_idle += rew.sum()
    assert r_serve > r_idle


def _gridq_step_loop(state, phases, dynamics_scale):
    # Reference: the per-agent, per-direction loop the vectorized step
    # replaced; returns (queues, rewards).
    n = state.queues.shape[0]
    serve = state.serve * dynamics_scale
    loaded = state.queues + state.arrivals
    served = np.zeros_like(loaded)
    for i in range(n):
        for d in PHASE_SERVES[int(phases[i])]:
            served[i, d] = min(loaded[i, d], serve)
    queues = loaded - served
    for i in range(n):
        for d in range(4):
            if served[i, d] > 0.0:
                queues[_neighbor(i, d, state.rows, state.cols),
                       _OPPOSITE[d]] += GRIDQ_FORWARD_FRAC * served[i, d]
    return queues, -queues.sum(axis=1)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), data=st.data(),
       scale=st.sampled_from([0.5, 1.0, 1.25]), log_q=st.floats(-3.0, 4.0))
def test_gridq_step_matches_loop_bit_for_bit(rows, cols, data, scale, log_q):
    n = rows * cols
    seed = data.draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    queues = 10.0 ** log_q * rng.uniform(0.0, 1.0, size=(n, 4))
    queues[rng.uniform(size=(n, 4)) < 0.2] = 0.0
    state = GridQueueState(queues=queues, phases=np.zeros(n, dtype=int),
                           arrivals=rng.uniform(0.0, 0.35, size=(n, 4)) * (seed % 3 > 0),
                           serve=1.0, rows=rows, cols=cols)
    phases = rng.integers(0, 2, size=n)
    new, obs, rewards, g = gridq_step(state, phases, scale)
    want_q, want_r = _gridq_step_loop(state, phases, scale)
    assert new.queues.tobytes() == want_q.tobytes()
    assert rewards.tobytes() == want_r.tobytes()
    assert g == float(want_r.mean())


def test_gridq_step_rejects_bad_phases():
    state, _ = gridq_reset(2, 2, seed=0)
    for bad in ([0, 1, 2, 0], [0, -1, 0, 0], [0, 1, 0]):
        with pytest.raises(ValueError):
            gridq_step(state, np.array(bad))


def test_gridq_reward_is_negative_queue_mass():
    env = GridQueueEnv(2, 2)
    state, _ = env.reset(seed=1)
    new, _, rewards, g = env.step(state, np.zeros(4, dtype=int))
    assert np.allclose(rewards, -new.queues.sum(axis=1))
    assert g == pytest.approx(rewards.mean())


def test_perturb_spec_validation():
    with pytest.raises(ValueError):
        PerturbSpec(obs_noise_sigma=-0.1)
    with pytest.raises(ValueError):
        PerturbSpec(dynamics_scale=0.0)
    with pytest.raises(ValueError):
        PerturbSpec(malicious_rate=1.5)
    with pytest.raises(ValueError):
        PerturbSpec(malicious_mode="sneaky")
    assert PerturbSpec().is_identity()
    assert not PerturbSpec(obs_noise_sigma=0.1).is_identity()


def test_perturb_obs_sigma_zero_is_bitwise_identity():
    obs = np.random.default_rng(0).uniform(size=(2, 3, 5))
    rngs = [np.random.default_rng(7), np.random.default_rng(8)]
    before = [rng.bit_generator.state for rng in rngs]
    out = _perturb_obs(obs, PerturbSpec().obs_noise_sigma, rngs)
    assert out is obs
    assert [rng.bit_generator.state for rng in rngs] == before  # no draw at sigma = 0


def test_perturb_obs_noise_statistics():
    obs = np.zeros((2, 100, 50))
    rngs = [np.random.default_rng(3), np.random.default_rng(4)]
    out = _perturb_obs(obs, 0.5, rngs)
    assert abs(out.std() - 0.5) / 0.5 < 0.05
    assert abs(out.mean()) < 0.01
    # each episode's noise is its own stream's draw
    want = 0.5 * np.random.default_rng(4).standard_normal((100, 50))
    assert out[1].tobytes() == want.tobytes()


def _gridq_batch(episodes, seed=0):
    # E stacked 2x2 grid states, as rollout builds them
    return envs_mod._stack_states([gridq_reset(2, 2, seed + e)[0] for e in range(episodes)])


class _FakeQ:
    """GlobalQ.rows stand-in: q(joint) per row, and a record of the states."""

    def __init__(self, q):
        self.q, self.states = q, []

    def rows(self, states, joints):
        self.states.append(states)
        return np.array([self.q(j) for j in joints.tolist()], dtype=float)


def test_malicious_injector_random_mode():
    spec = PerturbSpec(malicious_rate=1.0, malicious_mode="random")
    env, state = GridQueueEnv(2, 2), _gridq_batch(3)
    rngs = [np.random.default_rng(e) for e in range(3)]
    base = np.zeros((3, 4), dtype=int)
    flips = 0
    for _ in range(100):
        out = malicious_injector(env, state, base, spec, rngs)
        diff = out != base
        assert (diff.sum(axis=1) <= 1).all()  # at most one victim per episode-step
        flips += diff.sum()
    assert flips > 60  # uniform replacement flips roughly half the time


class _ThreePhaseGrid(GridQueueEnv):
    n_phases = 3  # two alternatives per victim, so the minimum is a choice


def test_malicious_injector_adversarial_min_q():
    # Q prefers phase 2; the adversary must flip one agent to it in every
    # episode, and scores every episode's alternatives in one rows call
    spec = PerturbSpec(malicious_rate=1.0, malicious_mode="adversarial")
    env, state = _ThreePhaseGrid(2, 2), _gridq_batch(3)
    q = _FakeQ(lambda joint: -float(sum(1 for a in joint if a == 2)))
    rngs = [np.random.default_rng(e) for e in range(3)]
    out = malicious_injector(env, state, np.zeros((3, 4), dtype=int), spec, rngs, q)
    assert ((out == 2).sum(axis=1) == 1).all() and ((out == 1).sum(axis=1) == 0).all()
    assert len(q.states) == 1 and q.states[0].shape == (3 * 2, env.state_dim)
    # ties go to the first alternative in action order: 0 for a victim at 1
    q = _FakeQ(lambda joint: 0.5)
    out = malicious_injector(env, state, np.ones((3, 4), dtype=int), spec, rngs, q)
    assert ((out == 0).sum(axis=1) == 1).all() and ((out == 2).sum(axis=1) == 0).all()


def test_malicious_injector_rate_zero_and_continuous():
    env, state = GridQueueEnv(2, 2), _gridq_batch(2)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    a = np.array([[1, 0, 1, 0], [0, 0, 1, 1]])
    assert malicious_injector(env, state, a, PerturbSpec(), [rng, rng]) is a
    assert rng.bit_generator.state == before  # rate 0 draws nothing
    cont = np.full((2, 4), 0.5)
    spec_adv = PerturbSpec(malicious_rate=1.0, malicious_mode="adversarial")
    with pytest.raises(TypeError):
        malicious_injector(env, state, cont, spec_adv, [rng, rng])
    spec_rand = PerturbSpec(malicious_rate=1.0, malicious_mode="random")
    assert malicious_injector(env, state, cont, spec_rand, [rng, rng]) is cont
    assert rng.bit_generator.state == before


def test_rollout_deterministic_and_returns():
    env = CoopNavEnv(3)
    act = lambda obs: np.zeros(obs.shape[:-1] + (2,))
    spec = PerturbSpec(obs_noise_sigma=0.3)
    rets = rollout(env, act, 10, spec, seeds=[4, 5])
    assert rets.shape == (2,)
    assert rets.tobytes() == rollout(env, act, 10, spec, seeds=[4, 5]).tobytes()
    # an episode's return does not depend on the episodes beside it
    assert rollout(env, act, 10, spec, seeds=[5])[0] == rets[1]
    with pytest.raises(ValueError):
        rollout(env, act, 0, spec, seeds=[0])
    with pytest.raises(ValueError):
        rollout(env, act, 5, spec, seeds=[])


def test_rollout_adversarial_requires_q():
    env = GridQueueEnv(2, 2)
    act = lambda obs: np.zeros(obs.shape[:-1], dtype=int)
    spec = PerturbSpec(malicious_rate=0.5, malicious_mode="adversarial")
    with pytest.raises(ValueError):
        rollout(env, act, 5, spec, seeds=[0, 1])
    rets = rollout(env, act, 5, spec, seeds=[0, 1], q_global=_FakeQ(lambda joint: 0.0))
    assert rets.shape == (2,)


def test_rollout_builds_global_state_only_when_the_injector_fires():
    class CountingEnv(GridQueueEnv):
        episodes = []

        def global_state(self, state):
            CountingEnv.episodes.append(state.queues.shape[0])
            return super().global_state(state)

    env = CountingEnv(2, 2)
    act = lambda obs: np.zeros(obs.shape[:-1], dtype=int)
    spec = PerturbSpec(malicious_rate=0.2, malicious_mode="adversarial")
    q = _FakeQ(lambda joint: float(sum(joint)))
    rollout(env, act, 50, spec, seeds=[3, 4, 5], q_global=q)
    # one global state per episode that fired, on that step's states, and
    # one rows call per step with a firing (two phases: one alternative)
    assert len(CountingEnv.episodes) == len(q.states) < 50
    assert [s.shape[0] for s in q.states] == CountingEnv.episodes
    assert 0 < sum(CountingEnv.episodes) < 3 * 50
    assert max(CountingEnv.episodes) <= 3


# ---------------------------------------------------------------------------
# Lock-step rollout against the per-episode reference
# ---------------------------------------------------------------------------

def _inject_one(joint_action, q_global, spec, rng, n_actions):
    # Reference: the per-episode injector that the lock-step one replaced;
    # q_global(joint) scores one joint action.
    if spec.malicious_rate == 0.0:
        return joint_action
    actions = np.asarray(joint_action)
    if not np.issubdtype(actions.dtype, np.integer):
        if spec.malicious_mode == "adversarial":
            raise TypeError("adversarial malicious mode requires discrete actions")
        return joint_action
    if rng.uniform() >= spec.malicious_rate:
        return joint_action
    victim = int(rng.integers(actions.shape[0]))
    out = actions.copy()
    if spec.malicious_mode == "random":
        out[victim] = int(rng.integers(n_actions))
        return out
    best_q, best_a = None, actions[victim]
    for alt in range(n_actions):
        if alt == actions[victim]:
            continue
        cand = actions.copy()
        cand[victim] = alt
        qv = float(q_global(tuple(cand)))
        if best_q is None or qv < best_q:
            best_q, best_a = qv, alt
    out[victim] = best_a
    return out


def _rollout_one(env, act_one, T, spec, seed, q_global):
    # Reference: one episode at a time, the rollout the lock-step one
    # replaced. Returns the global return and the episode's stream.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed).spawn(1)[0])
    state, obs = env.reset(seed)
    global_return = 0.0
    for _ in range(T):
        seen = obs if spec.obs_noise_sigma == 0.0 else \
            obs + spec.obs_noise_sigma * rng.standard_normal(obs.shape)
        actions = act_one(seen)
        if env.discrete and spec.malicious_rate > 0.0:
            q_fn = None
            if spec.malicious_mode == "adversarial":
                q_fn = lambda joint, s=state: q_global(env.global_state(s), joint)
            actions = _inject_one(actions, q_fn, spec, rng, env.n_phases)
        state, obs, _, global_reward = env.step(state, actions, spec.dynamics_scale)
        global_return += float(global_reward)
    return global_return, rng


def _policy(env, seed):
    # A random agent stack with the lock-step act (E, N, d) of
    # evaluate.build_policy and the per-episode act (N, d) it replaced.
    policy = stack_nets([net_init([env.obs_dim, 8, env.n_out], seed=seed + i, scale=3.0)
                         for i in range(env.n_agents)])
    if env.discrete:
        act = lambda obs: np.argmax(
            net_forward(policy, obs[:, :, None, :])[:, :, 0, :], axis=-1)
        act_one = lambda obs: np.argmax(net_forward(policy, obs), axis=1)
    else:
        act = lambda obs: np.clip(net_forward(policy, obs[:, :, None, :])[:, :, 0, :],
                                  -1.0, 1.0)
        act_one = lambda obs: np.clip(net_forward(policy, obs), -1.0, 1.0)
    return act, act_one


_ENVS = {"coopnav1": lambda: CoopNavEnv(1), "coopnav2": lambda: CoopNavEnv(2),
         "coopnav3": lambda: CoopNavEnv(3), "coopnav5": lambda: CoopNavEnv(5),
         "gridq1x1": lambda: GridQueueEnv(1, 1), "gridq2x2": lambda: GridQueueEnv(2, 2),
         "gridq3x3": lambda: GridQueueEnv(3, 3)}

_SPECS = ([PerturbSpec(obs_noise_sigma=s, dynamics_scale=d)
           for s in (0.0, 0.5) for d in (0.5, 1.0, 1.25)]
          + [PerturbSpec(malicious_rate=r, malicious_mode=m)
             for m in ("random", "adversarial") for r in (0.03, 0.5, 1.0)]
          + [PerturbSpec(obs_noise_sigma=0.5, dynamics_scale=1.25, malicious_rate=0.5,
                         malicious_mode="adversarial")])


@pytest.mark.parametrize("episodes", [1, 2, 15])
@pytest.mark.parametrize("env_name", sorted(_ENVS))
def test_lockstep_rollout_matches_per_episode_bit_for_bit(env_name, episodes, monkeypatch):
    env = _ENVS[env_name]()
    act, act_one = _policy(env, seed=len(env_name) + episodes)
    q_global = GlobalQ(net_init([env.state_dim + env.n_agents * env.n_out, 8, 1], seed=5),
                       env.n_out)
    streams = []

    def recorded(seed):
        streams.append(episode_rng(seed))
        return streams[-1]

    monkeypatch.setattr(envs_mod, "episode_rng", recorded)
    seeds = [int(s) for s in np.random.default_rng(episodes).integers(2 ** 31, size=episodes)]
    T = 30
    for spec in _SPECS:
        if not env.discrete and spec.malicious_rate > 0.0 \
                and spec.malicious_mode == "adversarial":
            with pytest.raises(TypeError):
                rollout(env, act, T, spec, seeds, q_global)
            continue
        streams.clear()
        got = rollout(env, act, T, spec, seeds, q_global)
        want = [_rollout_one(env, act_one, T, spec, s, q_global) for s in seeds]
        assert got.tobytes() == np.array([w[0] for w in want]).tobytes(), spec
        assert [r.bit_generator.state for r in streams] == \
            [w[1].bit_generator.state for w in want], spec


def _coopnav_rewards_loop(state):
    # Reference: the per-pair loop of the step's reward from its new state.
    pos, n = state.pos, state.pos.shape[0]
    dists = np.linalg.norm(pos[:, None, :] - state.landmarks[None, :, :], axis=-1)
    collisions = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = pos[i] - pos[j]
            collisions += bool(np.sqrt(d.dot(d)) < COLLISION_DIST)
    r = -float(dists.min(axis=0).sum()) - 1.0 * collisions
    return np.full(n, r)


# Pairs at distance 0.1 to within rounding whose collision test differs
# between sqrt(d.dot(d)) (BLAS ddot) and sqrt((d * d).sum()).
_THRESHOLD_PAIRS = [
    ([0.5566259534420839, 0.4513778288034489], [0.5189078522408042, 0.3587638728261232]),
    ([-0.9859282427790798, -0.016259506598470308],
     [-1.0485741098155348, 0.06168595730579289]),
]


def test_threshold_pairs_tell_dot_from_sum():
    for p, q in _THRESHOLD_PAIRS:
        d = np.subtract(p, q)
        assert (np.sqrt(d.dot(d)) < COLLISION_DIST) != \
            (np.sqrt((d * d).sum()) < COLLISION_DIST)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), episodes=st.integers(1, 6), data=st.data(),
       scale=st.sampled_from([0.5, 1.0, 1.25]))
def test_batched_coopnav_step_equals_single_calls(n, episodes, data, scale):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    pos = rng.uniform(-1.5, 1.5, size=(episodes, n, 2))
    vel = rng.uniform(-1.0, 1.0, size=(episodes, n, 2))
    act = rng.uniform(-1.2, 1.2, size=(episodes, n, 2))
    if n > 1:
        # park some episodes' first two agents at a threshold pair: no
        # velocity, no action, so the step leaves them where they are
        for e in range(episodes):
            k = data.draw(st.integers(-1, len(_THRESHOLD_PAIRS) - 1))
            if k >= 0:
                pos[e, :2] = _THRESHOLD_PAIRS[k]
                vel[e, :2] = act[e, :2] = 0.0
    lm = rng.uniform(-1.0, 1.0, size=(episodes, n, 2))
    batch = CoopNavState(pos, vel, lm)
    new, obs, rewards, g = coopnav_step(batch, act, scale)
    assert rewards.shape == (episodes, n) and g.shape == (episodes,)
    for e in range(episodes):
        one = CoopNavState(pos[e], vel[e], lm[e])
        n1, o1, r1, g1 = coopnav_step(one, act[e], scale)
        assert new.pos[e].tobytes() == n1.pos.tobytes()
        assert new.vel[e].tobytes() == n1.vel.tobytes()
        assert obs[e].tobytes() == o1.tobytes()
        assert rewards[e].tobytes() == r1.tobytes() == _coopnav_rewards_loop(n1).tobytes()
        assert g[e] == g1 == float(r1.mean())
    assert CoopNavEnv(n).global_state(new).tobytes() == np.stack(
        [CoopNavEnv(n).global_state(CoopNavState(new.pos[e], new.vel[e], lm[e]))
         for e in range(episodes)]).tobytes()


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 3), episodes=st.integers(1, 6),
       data=st.data(), scale=st.sampled_from([0.5, 1.0, 1.25]))
def test_batched_gridq_step_equals_single_calls(rows, cols, episodes, data, scale):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    env = GridQueueEnv(rows, cols)
    batch = envs_mod._stack_states([gridq_reset(rows, cols, int(s))[0]
                                    for s in rng.integers(2 ** 31, size=episodes)])
    phases = rng.integers(0, 2, size=(episodes, env.n_agents))
    new, obs, rewards, g = gridq_step(batch, phases, scale)
    assert rewards.shape == (episodes, env.n_agents) and g.shape == (episodes,)
    singles = []
    for e in range(episodes):
        one = envs_mod._take_episodes(batch, e)
        n1, o1, r1, g1 = gridq_step(one, phases[e], scale)
        assert new.queues[e].tobytes() == n1.queues.tobytes()
        assert obs[e].tobytes() == o1.tobytes()
        assert rewards[e].tobytes() == r1.tobytes()
        assert g[e] == g1
        singles.append(env.global_state(n1))
    assert env.global_state(new).tobytes() == np.stack(singles).tobytes()
    with pytest.raises(ValueError):
        gridq_step(batch, phases[:, :-1], scale)
