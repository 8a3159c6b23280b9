# Environment oracles: observation layouts, reward arithmetic, queue
# conservation, episode-batched steps, and the evaluation perturbation
# harness with its per-episode reference.
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ernie_lab.envs as envs_mod
from ernie_lab.algos import GlobalQ, select_action_continuous, select_action_discrete
from ernie_lab.envs import (
    COLLISION_DIST,
    COOPNAV_BOUND,
    COOPNAV_DT,
    COOPNAV_VMAX,
    GRIDQ_FORWARD_FRAC,
    GRIDQ_SERVE,
    PHASE_SERVES,
    _OPPOSITE,
    _neighbor,
    CoopNavEnv,
    CoopNavState,
    GridQueueEnv,
    GridQueueState,
    PerturbSpec,
    episode_rng,
    malicious_injector,
    rollout,
)
from ernie_lab.net import net_forward, net_init, stack_nets


def test_coopnav_obs_dims():
    assert CoopNavEnv(3).obs_dim == 14
    assert CoopNavEnv(1).obs_dim == 6
    _, obs = CoopNavEnv(3).reset(seed=0)
    assert obs.shape == (3, 14)
    _, obs1 = CoopNavEnv(1).reset(seed=0)
    assert obs1.shape == (1, 6)


def test_coopnav_reset_ranges():
    state, _ = CoopNavEnv(4).reset(seed=5)
    assert np.all(np.abs(state.pos) <= 1.0)
    assert np.all(state.vel == 0.0)
    assert np.all(np.abs(state.landmarks) <= 1.0)


def test_coopnav_step_kinematics_hand_check():
    # single agent at origin, zero vel, full-right action
    state = CoopNavState(pos=np.zeros((1, 2)), vel=np.zeros((1, 2)),
                         landmarks=np.array([[0.5, 0.0]]))
    new, _, rewards, g = CoopNavEnv(1).step(state, np.array([[1.0, 0.0]]))
    assert np.allclose(new.vel, [[0.5, 0.0]])
    assert np.allclose(new.pos, [[0.05, 0.0]])
    # reward is minus the distance from the landmark to the nearest agent
    assert rewards[0] == pytest.approx(-0.45)
    assert g == pytest.approx(-0.45)


def test_coopnav_collision_penalty():
    # two agents on top of each other, both on a shared landmark
    state = CoopNavState(pos=np.zeros((2, 2)), vel=np.zeros((2, 2)),
                         landmarks=np.zeros((2, 2)))
    _, _, rewards, _ = CoopNavEnv(2).step(state, np.zeros((2, 2)))
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
    env = GridQueueEnv(2, 2)
    state = GridQueueState(queues=queues, phases=np.zeros(4, dtype=int),
                           arrivals=np.zeros((4, 4)))
    new, _, rewards, _ = env.step(state, np.zeros(4, dtype=int))
    assert new.queues[0, 0] == 0.0
    # cell (1,0) south queue on the 2x2 torus gets the forwarded fraction
    assert new.queues[2, 1] == 0.5
    assert rewards.sum() == pytest.approx(-0.5)
    # serving E/W instead leaves the car in place
    new2, _, _, _ = env.step(state, np.ones(4, dtype=int))
    assert new2.queues[0, 0] == 1.0


def test_gridq_serve_capacity_scales_with_dynamics():
    queues = np.zeros((4, 4))
    queues[0, 0] = 2.0
    state = GridQueueState(queues=queues, phases=np.zeros(4, dtype=int),
                           arrivals=np.zeros((4, 4)))
    new, _, _, _ = GridQueueEnv(2, 2).step(state, np.zeros(4, dtype=int), dynamics_scale=0.5)
    assert new.queues[0, 0] == pytest.approx(1.5)


def test_gridq_mass_conserved_without_arrivals_or_service():
    # dynamics scale 0 serves GRIDQ_SERVE * 0.0 = 0.0 cars per step
    env, rng = GridQueueEnv(2, 2), np.random.default_rng(4)
    state = GridQueueState(queues=rng.uniform(0, 3, size=(4, 4)),
                           phases=np.zeros(4, dtype=int),
                           arrivals=np.zeros((4, 4)))
    total = state.queues.sum()
    for t in range(10):
        state, _, _, _ = env.step(state, rng.integers(0, 2, size=4), dynamics_scale=0.0)
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


def _gridq_step_loop(env, state, phases, dynamics_scale):
    # Reference: the per-agent, per-direction loop the vectorized step
    # replaced; returns (queues, rewards).
    n = state.queues.shape[0]
    serve = GRIDQ_SERVE * dynamics_scale
    loaded = state.queues + state.arrivals
    served = np.zeros_like(loaded)
    for i in range(n):
        for d in PHASE_SERVES[int(phases[i])]:
            served[i, d] = min(loaded[i, d], serve)
    queues = loaded - served
    for i in range(n):
        for d in range(4):
            if served[i, d] > 0.0:
                queues[_neighbor(i, d, env.rows, env.cols),
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
    env = GridQueueEnv(rows, cols)
    state = GridQueueState(queues=queues, phases=np.zeros(n, dtype=int),
                           arrivals=rng.uniform(0.0, 0.35, size=(n, 4)) * (seed % 3 > 0))
    phases = rng.integers(0, 2, size=n)
    new, obs, rewards, g = env.step(state, phases, scale)
    want_q, want_r = _gridq_step_loop(env, state, phases, scale)
    assert new.queues.tobytes() == want_q.tobytes()
    assert rewards.tobytes() == want_r.tobytes()
    assert g == float(want_r.mean())


def test_gridq_step_rejects_bad_phases():
    env = GridQueueEnv(2, 2)
    state, _ = env.reset(seed=0)
    for bad in ([0, 1, 2, 0], [0, -1, 0, 0], [0, 1, 0]):
        with pytest.raises(ValueError):
            env.step(state, np.array(bad))


def _gridq_obs_reference(env, state):
    # Reference: the observation with its former gathered (..., N, 4, 4)
    # neighbor block, summed again, and concatenate
    table = np.array([[_neighbor(i, d, env.rows, env.cols) for d in range(4)]
                      for i in range(env.n_agents)])
    neighbor_sums = state.queues[..., table, :].sum(axis=-1)
    return np.concatenate([state.queues, neighbor_sums, state.phases[..., None]], axis=-1)


@settings(max_examples=200, deadline=None)
@given(grid=st.sampled_from([(2, 2), (3, 3), (2, 3)]), episodes=st.sampled_from([0, 1, 30]),
       data=st.data(), log_q=st.floats(-8.0, 8.0))
def test_gridq_step_and_obs_match_their_former_formulas_bit_for_bit(grid, episodes, data,
                                                                    log_q):
    # episodes 0 steps one (N, 4) state; otherwise an (E, N, 4) batch, with
    # a float scale or an (E, 1, 1) array of per-episode scales
    rows, cols = grid
    n = rows * cols
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    lead = (episodes,) if episodes else ()
    queues = 10.0 ** log_q * rng.uniform(0.0, 1.0, size=lead + (n, 4))
    queues[rng.uniform(size=queues.shape) < 0.2] = 0.0
    env = GridQueueEnv(rows, cols)
    state = GridQueueState(queues=queues, phases=rng.integers(0, 2, size=lead + (n,)),
                           arrivals=rng.uniform(0.0, 0.35, size=lead + (n, 4)))
    assert env._obs(state).tobytes() == _gridq_obs_reference(env, state).tobytes()
    if episodes and data.draw(st.booleans()):
        scale = rng.choice([0.5, 1.0, 1.25], size=(episodes, 1, 1))
    else:
        scale = data.draw(st.sampled_from([0.5, 1.0, 1.25]))
    phases = rng.integers(0, 2, size=lead + (n,))
    new, obs, rewards, g = env.step(state, phases, scale)
    want_rewards = -new.queues.sum(-1)
    assert obs.tobytes() == _gridq_obs_reference(env, new).tobytes()
    assert rewards.tobytes() == want_rewards.tobytes()
    assert np.asarray(g).tobytes() == want_rewards.mean(axis=-1).tobytes()
    for bad in (-1, 2):
        wrong = phases.copy()
        wrong.flat[rng.integers(wrong.size)] = bad
        with pytest.raises(ValueError, match="joint phases must be"):
            env.step(state, wrong, scale)


def test_gridq_reward_is_negative_queue_mass():
    env = GridQueueEnv(2, 2)
    state, _ = env.reset(seed=1)
    new, _, rewards, g = env.step(state, np.zeros(4, dtype=int))
    assert np.allclose(rewards, -new.queues.sum(axis=1))
    assert g == pytest.approx(rewards.mean())


@pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 31 - 1, 2 ** 40 + 7])
def test_episode_rng_is_the_seeds_first_child_stream(seed):
    want = np.random.default_rng(np.random.SeedSequence(entropy=seed).spawn(1)[0])
    assert episode_rng(seed).bit_generator.state == want.bit_generator.state


def _per_episode(spec, episodes):
    # The injector's per-episode rate and mode arrays of one spec, as
    # rollout builds them
    return (np.full(episodes, float(spec.malicious_rate)),
            np.full(episodes, spec.malicious_mode == "adversarial"))


def test_malicious_injector_random_mode():
    spec = PerturbSpec(malicious_rate=1.0, malicious_mode="random")
    env = GridQueueEnv(2, 2)
    rngs = [np.random.default_rng(e) for e in range(3)]
    base = np.zeros((3, 4), dtype=int)
    flips = 0
    for _ in range(100):
        out = malicious_injector(env, base, *_per_episode(spec, 3), rngs)
        diff = out != base
        assert (diff.sum(axis=1) <= 1).all()  # at most one victim per episode-step
        flips += diff.sum()
    assert flips > 60  # uniform replacement flips roughly half the time


def test_malicious_injector_adversarial_flips_the_victims_phase():
    # A fired episode flips its victim's phase a to 1 - a, the only other
    # gridq phase, and draws the coin and the victim from its stream and
    # nothing more; an episode whose coin does not fire draws the coin alone.
    spec = PerturbSpec(malicious_rate=0.5, malicious_mode="adversarial")
    env, episodes = GridQueueEnv(2, 2), 40
    actions = np.random.default_rng(0).integers(0, 2, size=(episodes, 4))
    rngs = [np.random.default_rng(e) for e in range(episodes)]
    mirrors = [np.random.default_rng(e) for e in range(episodes)]
    out = malicious_injector(env, actions, *_per_episode(spec, episodes), rngs)
    fired = 0
    for e, mirror in enumerate(mirrors):
        want = actions[e].copy()
        if mirror.random() < spec.malicious_rate:
            victim = mirror.integers(env.n_agents)
            want[victim] = 1 - want[victim]
            fired += 1
        assert out[e].tolist() == want.tolist()
        assert rngs[e].bit_generator.state == mirror.bit_generator.state
    assert 0 < fired < episodes


def test_malicious_injector_draws_as_an_episode_by_episode_mirror():
    # Mixed rates and modes over many steps: each episode draws from its own
    # stream the coin, then the victim, then (random mode) the replacement,
    # exactly as a mirror drawing one episode after another does
    env, episodes = GridQueueEnv(2, 2), 24
    rng = np.random.default_rng(5)
    rate = rng.choice([0.0, 0.03, 1.0], size=episodes)
    adversarial = rng.uniform(size=episodes) < 0.5
    rate[:6], adversarial[:6] = [0.0, 0.0, 0.03, 0.03, 1.0, 1.0], [False, True] * 3
    rngs = [np.random.default_rng(100 + e) for e in range(episodes)]
    mirrors = [np.random.default_rng(100 + e) for e in range(episodes)]
    fired = np.zeros(episodes, dtype=int)
    for _ in range(60):
        actions = rng.integers(0, env.n_out, size=(episodes, env.n_agents))
        out = malicious_injector(env, actions, rate, adversarial, rngs)
        for e, mirror in enumerate(mirrors):
            want = actions[e].copy()
            if rate[e] > 0 and mirror.random() < rate[e]:
                victim = mirror.integers(env.n_agents)
                want[victim] = 1 - want[victim] if adversarial[e] \
                    else mirror.integers(env.n_out)
                fired[e] += 1
            assert out[e].tolist() == want.tolist()
    for stream, mirror in zip(rngs, mirrors):
        assert stream.bit_generator.state == mirror.bit_generator.state
    assert not fired[rate == 0.0].any() and fired[rate == 0.03].sum() > 0


def test_malicious_injector_rate_zero_draws_nothing():
    env = GridQueueEnv(2, 2)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    a = np.array([[1, 0, 1, 0], [0, 0, 1, 1]])
    assert malicious_injector(env, a, *_per_episode(PerturbSpec(), 2), [rng, rng]) is a
    assert rng.bit_generator.state == before  # rate 0 draws nothing


def test_rollout_deterministic_and_returns():
    env = CoopNavEnv(3)
    act = lambda obs: np.zeros(obs.shape[:-1] + (2,))
    spec = PerturbSpec(obs_noise_sigma=0.3)
    rets = rollout(env, act, 10, [spec] * 2, seeds=[4, 5])
    assert rets.shape == (2,)
    assert rets.tobytes() == rollout(env, act, 10, [spec] * 2, seeds=[4, 5]).tobytes()
    # an episode's return does not depend on the episodes beside it
    assert rollout(env, act, 10, [spec], seeds=[5])[0] == rets[1]
    with pytest.raises(ValueError):
        rollout(env, act, 0, [spec], seeds=[0])
    with pytest.raises(ValueError):
        rollout(env, act, 5, [], seeds=[])


def test_rollout_never_builds_a_global_state():
    # Neither injector mode reads the state, so no step builds a global one.
    class NoGlobalStateEnv(GridQueueEnv):
        def global_state(self, state):
            raise AssertionError("rollout built a global state")

    env = NoGlobalStateEnv(2, 2)
    act = lambda obs: np.zeros(obs.shape[:-1], dtype=int)
    specs = [PerturbSpec(malicious_rate=r, malicious_mode=m)
             for m in ("random", "adversarial") for r in (0.2, 1.0)]
    seeds = [3, 4, 5, 6]
    rets = rollout(env, act, 50, specs, seeds)
    assert (rets != rollout(env, act, 50, [PerturbSpec()] * 4, seeds)).all()


# ---------------------------------------------------------------------------
# Lock-step rollout against the per-episode reference
# ---------------------------------------------------------------------------

def _inject_one(joint_action, q_global, spec, rng, n_actions):
    # Reference: the per-episode injector that the lock-step one replaced,
    # whose adversarial mode takes the argmin of q_global(joint) over the
    # victim's alternatives; with any scorer, the lock-step flip must match.
    if spec.malicious_rate == 0.0:
        return joint_action
    actions = np.asarray(joint_action)
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
    # replaced, drawing a noisy episode's T steps of noise before its first
    # step. Returns the global return and the episode's stream.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed).spawn(1)[0])
    state, obs = env.reset(seed)
    if spec.obs_noise_sigma > 0.0:
        noise = spec.obs_noise_sigma * rng.standard_normal((T,) + obs.shape)
    global_return = 0.0
    for t in range(T):
        seen = obs if spec.obs_noise_sigma == 0.0 else obs + noise[t]
        actions = act_one(seen)
        if isinstance(env, GridQueueEnv) and spec.malicious_rate > 0.0:
            q_fn = None
            if spec.malicious_mode == "adversarial":
                q_fn = lambda joint, s=state: q_global.rows(env.global_state(s)[None, :],
                                                            np.array([joint]))[0]
            actions = _inject_one(actions, q_fn, spec, rng, env.n_out)
        state, obs, _, global_reward = env.step(state, actions, spec.dynamics_scale)
        global_return += float(global_reward)
    return global_return, rng


def _policy(env, seed):
    # A random agent stack with the lock-step act (E, N, d) of
    # evaluate.build_policy, training's action head at zero exploration, and
    # the per-episode act (N, d) it replaced.
    policy = stack_nets([net_init([env.obs_dim, 8, env.n_out], seed=seed + i, scale=3.0)
                         for i in range(env.n_agents)])
    if isinstance(env, GridQueueEnv):
        act = lambda obs: select_action_discrete(policy, obs, 0.0, None)
        act_one = lambda obs: np.argmax(net_forward(policy, obs), axis=1)
    else:
        act = lambda obs: select_action_continuous(policy, obs, 0.0, None)
        act_one = lambda obs: np.clip(net_forward(policy, obs), -1.0, 1.0)
    return act, act_one


def _oracle_q(env):
    # A random global Q for the reference's adversarial argmin: the lock-step
    # injector, which consults no scorer, must pick the same flip.
    return GlobalQ(net_init([env.state_dim + env.n_agents * env.n_out, 8, 1], seed=5),
                   env.n_out)


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
    q_global = _oracle_q(env)
    streams = []

    def recorded(seed):
        streams.append(episode_rng(seed))
        return streams[-1]

    monkeypatch.setattr(envs_mod, "episode_rng", recorded)
    seeds = [int(s) for s in np.random.default_rng(episodes).integers(2 ** 31, size=episodes)]
    T = 30
    for spec in _SPECS:
        if isinstance(env, CoopNavEnv) and spec.malicious_rate > 0.0:
            continue
        streams.clear()
        got = rollout(env, act, T, [spec] * episodes, seeds)
        want = [_rollout_one(env, act_one, T, spec, s, q_global) for s in seeds]
        assert got.tobytes() == np.array([w[0] for w in want]).tobytes(), spec
        assert [r.bit_generator.state for r in streams] == \
            [w[1].bit_generator.state for w in want], spec


@pytest.mark.parametrize("env_name", sorted(_ENVS))
def test_mixed_spec_rollout_matches_per_episode_bit_for_bit(env_name, monkeypatch):
    # One rollout over every spec at once, three episodes each and the
    # specs interleaved, returns each episode's lone return and leaves each
    # stream where the lone episode leaves it.
    env = _ENVS[env_name]()
    act, act_one = _policy(env, seed=len(env_name))
    q_global = _oracle_q(env)
    streams = []

    def recorded(seed):
        streams.append(episode_rng(seed))
        return streams[-1]

    monkeypatch.setattr(envs_mod, "episode_rng", recorded)
    specs = [s for s in _SPECS
             if isinstance(env, GridQueueEnv) or s.malicious_rate == 0.0] * 3
    seeds = [int(s) for s in np.random.default_rng(7).integers(2 ** 31, size=len(specs))]
    got = rollout(env, act, 30, specs, seeds)
    want = [_rollout_one(env, act_one, 30, spec, s, q_global) for spec, s in zip(specs, seeds)]
    assert got.tobytes() == np.array([w[0] for w in want]).tobytes()
    assert [r.bit_generator.state for r in streams] == \
        [w[1].bit_generator.state for w in want]


class _SpyStream:
    """An episode stream that records the shape of each standard_normal call."""

    def __init__(self, rng):
        self.rng, self.normal_shapes = rng, []

    def standard_normal(self, size=None, out=None):
        self.normal_shapes.append(np.shape(out) if out is not None else size)
        return self.rng.standard_normal(size, out=out)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("env_name", ["coopnav3", "gridq2x2"])
def test_noise_only_episodes_draw_their_noise_in_one_call(env_name, monkeypatch):
    # Every noisy episode draws its T steps' noise in one (T, N, d) call,
    # the mixed spec's too, whose malicious coins follow it step by step; a
    # clean episode draws no normals. Returns and streams stay those of the
    # per-episode reference.
    env = _ENVS[env_name]()
    act, act_one = _policy(env, seed=11)
    specs = [PerturbSpec(obs_noise_sigma=0.5), PerturbSpec(),
             PerturbSpec(obs_noise_sigma=1.0, dynamics_scale=1.25)]
    if isinstance(env, GridQueueEnv):
        specs += [_SPECS[-1], PerturbSpec(malicious_rate=0.5)]
    specs *= 2
    streams = []

    def spied(seed):
        streams.append(_SpyStream(episode_rng(seed)))
        return streams[-1]

    monkeypatch.setattr(envs_mod, "episode_rng", spied)
    seeds = [int(s) for s in np.random.default_rng(3).integers(2 ** 31, size=len(specs))]
    T, row = 25, (env.n_agents, env.obs_dim)
    got = rollout(env, act, T, specs, seeds)
    for spec, stream in zip(specs, streams):
        want_shapes = [(T,) + row] if spec.obs_noise_sigma > 0.0 else []
        assert stream.normal_shapes == want_shapes, spec
    q_global = _oracle_q(env)
    want = [_rollout_one(env, act_one, T, spec, s, q_global) for spec, s in zip(specs, seeds)]
    assert got.tobytes() == np.array([w[0] for w in want]).tobytes()
    assert [r.bit_generator.state for r in streams] == \
        [w[1].bit_generator.state for w in want]


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
    env = CoopNavEnv(n)
    batch = CoopNavState(pos, vel, lm)
    new, obs, rewards, g = env.step(batch, act, scale)
    assert rewards.shape == (episodes, n) and g.shape == (episodes,)
    for e in range(episodes):
        one = CoopNavState(pos[e], vel[e], lm[e])
        n1, o1, r1, g1 = env.step(one, act[e], scale)
        assert new.pos[e].tobytes() == n1.pos.tobytes()
        assert new.vel[e].tobytes() == n1.vel.tobytes()
        assert obs[e].tobytes() == o1.tobytes()
        assert rewards[e].tobytes() == r1.tobytes() == _coopnav_rewards_loop(n1).tobytes()
        assert g[e] == g1 == float(r1.mean())
    assert env.global_state(new).tobytes() == np.stack(
        [env.global_state(CoopNavState(new.pos[e], new.vel[e], lm[e]))
         for e in range(episodes)]).tobytes()


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 3), episodes=st.integers(1, 6),
       data=st.data(), scale=st.sampled_from([0.5, 1.0, 1.25]))
def test_batched_gridq_step_equals_single_calls(rows, cols, episodes, data, scale):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    env = GridQueueEnv(rows, cols)
    ones = [env.reset(int(s))[0] for s in rng.integers(2 ** 31, size=episodes)]
    batch = envs_mod._stack_states(ones)
    phases = rng.integers(0, 2, size=(episodes, env.n_agents))
    new, obs, rewards, g = env.step(batch, phases, scale)
    assert rewards.shape == (episodes, env.n_agents) and g.shape == (episodes,)
    singles = []
    for e in range(episodes):
        n1, o1, r1, g1 = env.step(ones[e], phases[e], scale)
        assert new.queues[e].tobytes() == n1.queues.tobytes()
        assert obs[e].tobytes() == o1.tobytes()
        assert rewards[e].tobytes() == r1.tobytes()
        assert g[e] == g1
        singles.append(env.global_state(n1))
    assert env.global_state(new).tobytes() == np.stack(singles).tobytes()
    with pytest.raises(ValueError):
        env.step(batch, phases[:, :-1], scale)


def _coopnav_obs_reference(pos, vel, landmarks):
    # Reference: the observation with its former masked other-agent block
    n, rows = pos.shape[-2], pos.shape[:-1]
    rel = landmarks[..., None, :, :] - pos[..., :, None, :]
    others = (pos[..., None, :, :] - pos[..., :, None, :])[..., ~np.eye(n, dtype=bool), :]
    return np.concatenate([pos, vel, rel.reshape(rows + (-1,)), others.reshape(rows + (-1,))],
                          axis=-1)


def _coopnav_step_reference(state, joint_action, dynamics_scale):
    # Reference: the step with its former conditional clip, np.linalg.norm
    # distances and masked observation of the other agents. Returns (pos,
    # vel, obs, rewards, global reward).
    a = np.asarray(joint_action, dtype=float).reshape(state.pos.shape)
    if np.any(np.abs(a) > 1.0):
        a = np.clip(a, -1.0, 1.0)
    vel = 0.5 * state.vel + 0.5 * a * COOPNAV_VMAX * dynamics_scale
    pos = np.clip(state.pos + vel * COOPNAV_DT, -COOPNAV_BOUND, COOPNAV_BOUND)
    dists = np.linalg.norm(pos[..., :, None, :] - state.landmarks[..., None, :, :], axis=-1)
    coverage = -dists.min(axis=-2).sum(axis=-1)
    i, j = np.triu_indices(pos.shape[-2], 1)
    d = pos[..., i, :] - pos[..., j, :]
    collisions = (np.sqrt(np.vecdot(d, d)) < COLLISION_DIST).sum(axis=-1)
    rewards = np.full(pos.shape[:-1], (coverage - 1.0 * collisions)[..., None])
    obs = _coopnav_obs_reference(pos, vel, state.landmarks)
    return pos, vel, obs, rewards, rewards.mean(axis=-1)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), episodes=st.integers(0, 6), data=st.data(),
       scale=st.sampled_from([0.5, 1.0, 1.25]))
def test_coopnav_step_matches_its_former_arithmetic_bit_for_bit(n, episodes, data, scale):
    # episodes 0 steps one (N, 2) state; otherwise an (E, N, 2) batch
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    lead = (episodes,) if episodes else ()
    pos = rng.uniform(-1.6, 1.6, size=lead + (n, 2))
    vel = rng.uniform(-1.0, 1.0, size=lead + (n, 2))
    act = rng.uniform(-2.0, 2.0, size=lead + (n, 2))
    # every other draw keeps its actions in [-1, 1], where the former step
    # did not clip; -0.0 in both
    if data.draw(st.booleans()):
        act = np.clip(act, -1.0, 1.0)
    act[rng.uniform(size=act.shape) < 0.2] = -0.0
    flat_pos, flat_vel, flat_act = (x.reshape(-1, n, 2) for x in (pos, vel, act))
    if n > 1:
        # park some episodes' first two agents at a threshold pair, where a
        # rounding difference in the collision test would show
        for e in range(flat_pos.shape[0]):
            k = data.draw(st.integers(-1, len(_THRESHOLD_PAIRS) - 1))
            if k >= 0:
                flat_pos[e, :2] = _THRESHOLD_PAIRS[k]
                flat_vel[e, :2] = flat_act[e, :2] = 0.0
    lm = rng.uniform(-1.0, 1.0, size=lead + (n, 2))
    state = CoopNavState(pos, vel, lm)
    new, obs, rewards, g = CoopNavEnv(n).step(state, act, scale)
    for got, want in zip((new.pos, new.vel, obs, rewards, g),
                         _coopnav_step_reference(state, act, scale)):
        assert np.shape(got) == want.shape
        assert np.asarray(got).tobytes() == want.tobytes()


def test_coopnav_step_clip_keeps_signed_zero_and_nan():
    # The unconditional clip leaves -0.0 and NaN actions as they are, so a
    # -0.0 action gives the velocity it gave before the clip was unconditional
    state = CoopNavState(pos=np.zeros((2, 2)), vel=np.array([[-0.0, 0.2], [0.0, 0.0]]),
                         landmarks=np.ones((2, 2)))
    act = np.array([[-0.0, np.nan], [-0.0, 0.5]])
    new, obs, _, _ = CoopNavEnv(2).step(state, act)
    want_pos, want_vel, want_obs, _, _ = _coopnav_step_reference(state, act, 1.0)
    assert np.signbit(new.vel[0, 0]) and np.isnan(new.vel[0, 1])
    assert new.vel.tobytes() == want_vel.tobytes()
    assert new.pos.tobytes() == want_pos.tobytes()
    assert obs.tobytes() == want_obs.tobytes()


def test_coopnav_reset_obs_matches_its_former_layout():
    for n in (1, 2, 3, 5):
        state, obs = CoopNavEnv(n).reset(seed=n)
        want = _coopnav_obs_reference(state.pos, state.vel, state.landmarks)
        assert obs.tobytes() == want.tobytes()
