# Environment oracles: observation layouts, reward arithmetic, queue
# conservation, and the evaluation perturbation harness.
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ernie_lab.envs import (
    GRIDQ_FORWARD_FRAC,
    PHASE_SERVES,
    _OPPOSITE,
    _neighbor,
    _perturb_obs_rng,
    CoopNavEnv,
    CoopNavState,
    GridQueueEnv,
    GridQueueState,
    PerturbSpec,
    coopnav_obs_dim,
    coopnav_reset,
    coopnav_step,
    gridq_reset,
    gridq_step,
    malicious_injector,
    rollout,
)


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
    obs = np.random.default_rng(0).uniform(size=(3, 5))
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    out = _perturb_obs_rng(obs, PerturbSpec().obs_noise_sigma, rng)
    assert out is obs
    assert rng.bit_generator.state == before  # no draw at sigma = 0


def test_perturb_obs_noise_statistics():
    obs = np.zeros((100, 100))
    out = _perturb_obs_rng(obs, 0.5, np.random.default_rng(3))
    assert abs(out.std() - 0.5) / 0.5 < 0.05
    assert abs(out.mean()) < 0.01


def test_malicious_injector_random_mode():
    spec = PerturbSpec(malicious_rate=1.0, malicious_mode="random")
    rng = np.random.default_rng(0)
    base = np.array([0, 0, 0, 0])
    flips = 0
    for _ in range(100):
        out = malicious_injector(base, None, spec, rng, n_actions=2)
        diff = np.flatnonzero(out != base)
        assert diff.size <= 1  # at most one victim per call
        flips += diff.size
    assert flips > 20  # uniform replacement flips roughly half the time


def test_malicious_injector_adversarial_min_q():
    # Q prefers all-zeros; the adversary must flip one agent to 1
    spec = PerturbSpec(malicious_rate=1.0, malicious_mode="adversarial")
    rng = np.random.default_rng(1)
    q = lambda joint: -float(sum(1 for a in joint if a == 0))
    out = malicious_injector(np.array([0, 0, 0]), q, spec, rng, n_actions=2)
    assert sorted(out.tolist()) == [0, 0, 1]


def test_malicious_injector_rate_zero_and_continuous():
    rng = np.random.default_rng(0)
    a = np.array([1, 0])
    assert malicious_injector(a, None, PerturbSpec(), rng, 2) is a
    cont = np.array([0.5, -0.5])
    spec_adv = PerturbSpec(malicious_rate=1.0, malicious_mode="adversarial")
    with pytest.raises(TypeError):
        malicious_injector(cont, None, spec_adv, rng, 2)
    spec_rand = PerturbSpec(malicious_rate=1.0, malicious_mode="random")
    assert malicious_injector(cont, None, spec_rand, rng, 2) is cont


def test_rollout_deterministic_and_returns():
    env = CoopNavEnv(3)
    act = lambda obs: np.zeros((3, 2))
    spec = PerturbSpec(obs_noise_sigma=0.3)
    traj, rets, g = rollout(env, act, 10, spec, seed=4, record_trajectory=True)
    _, rets2, g2 = rollout(env, act, 10, spec, seed=4)
    assert np.array_equal(rets, rets2) and g == g2
    assert len(traj) == 10
    assert rets.shape == (3,)
    with pytest.raises(ValueError):
        rollout(env, act, 0, spec, seed=0)


def test_rollout_adversarial_requires_q():
    env = GridQueueEnv(2, 2)
    act = lambda obs: np.zeros(4, dtype=int)
    spec = PerturbSpec(malicious_rate=0.5, malicious_mode="adversarial")
    with pytest.raises(ValueError):
        rollout(env, act, 5, spec, seed=0)
    q = lambda gs, joint: 0.0
    _, rets, _ = rollout(env, act, 5, spec, seed=0, q_global_fn=q)
    assert rets.shape == (4,)


def test_rollout_builds_global_state_only_when_the_injector_fires():
    class CountingEnv(GridQueueEnv):
        calls = 0

        def global_state(self, state):
            CountingEnv.calls += 1
            return super().global_state(state)

    env, seen = CountingEnv(2, 2), []
    act = lambda obs: np.zeros(4, dtype=int)
    spec = PerturbSpec(malicious_rate=0.2, malicious_mode="adversarial")

    def q(gs, joint):
        seen.append(gs)
        return float(sum(joint))

    rollout(env, act, 50, spec, seed=3, q_global_fn=q)
    # one Q call per firing with two phases, each on that step's state
    assert 0 < CountingEnv.calls == len(seen) < 50
