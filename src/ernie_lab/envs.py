# Native toy multi-agent environments (cooperative navigation, traffic-style
# queue grid) plus the evaluation-time perturbation harness. Each env is one
# class whose reset, step and global_state are its only implementation; it
# builds its index tables once, and a state holds only per-episode arrays.
# Every state array may carry a leading episode axis: a step on (E, N, ...)
# states steps E episodes at once, each bit for bit as its own (N, ...) call
# would.
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

COOPNAV_DT = 0.1
COOPNAV_VMAX = 1.0
COOPNAV_BOUND = 1.5
COLLISION_DIST = 0.1


# One evaluation condition, built by evaluate.sweep_specs from a resolved
# config's eval leaves, each checked by its rule in config.RULES.
@dataclass(frozen=True)
class PerturbSpec:
    obs_noise_sigma: float = 0.0
    dynamics_scale: float = 1.0
    malicious_rate: float = 0.0
    malicious_mode: str = "random"


# ---------------------------------------------------------------------------
# Cooperative navigation: N agents cover N landmarks in a bounded 2-D world.
# ---------------------------------------------------------------------------

@dataclass
class CoopNavState:
    pos: np.ndarray        # (N, 2), or (E, N, 2) for E episodes
    vel: np.ndarray        # (N, 2)
    landmarks: np.ndarray  # (N, 2)


def _global_reward(rewards: np.ndarray):
    # rewards.mean(axis=-1) bit for bit, which is this sum over the agents
    # divided by their count, without mean's Python-level overhead
    return np.add.reduce(rewards, axis=-1) / rewards.shape[-1]


def _relative_landmarks(state: CoopNavState) -> np.ndarray:
    """(..., N, N, 2): landmark j relative to agent i at [..., i, j, :]."""
    return state.landmarks[..., None, :, :] - state.pos[..., :, None, :]


class CoopNavEnv:
    episode_len = 50
    n_out = 2  # policy output width per agent: the action dimension

    def __init__(self, n_agents: int):
        self.n_agents = n = n_agents
        self.obs_dim = 4 + 2 * n + 2 * (n - 1)
        self.state_dim = 4 * n + 2 * n
        # (i, j) index arrays of the agent pairs i < j in row-major order, and
        # the (N, N - 1) table of each agent's others in index order
        self._pairs = np.triu_indices(n, 1)
        self._others = np.array([[k for k in range(n) if k != a] for a in range(n)], dtype=int)

    def _obs(self, state: CoopNavState, landmarks: np.ndarray) -> np.ndarray:
        # Row i: own position and velocity, landmarks relative to agent i (row
        # i of _relative_landmarks(state)), then the other agents (in index
        # order) relative to agent i.
        pos = state.pos
        rows = pos.shape[:-1]
        others = pos.take(self._others, axis=-2) - pos[..., :, None, :]
        return np.concatenate([pos, state.vel, landmarks.reshape(rows + (-1,)),
                               others.reshape(rows + (-1,))], axis=-1)

    def reset(self, seed: int):
        rng = np.random.default_rng(seed)
        state = CoopNavState(
            pos=rng.uniform(-1.0, 1.0, size=(self.n_agents, 2)),
            vel=np.zeros((self.n_agents, 2)),
            landmarks=rng.uniform(-1.0, 1.0, size=(self.n_agents, 2)),
        )
        return state, self._obs(state, _relative_landmarks(state))

    def step(self, state: CoopNavState, joint_action, dynamics_scale=1.0):
        """vel <- 0.5 vel + 0.5 a vmax scale; pos clamped; shared coverage reward.

        Returns (state, obs, per-agent rewards (N,), global reward); E episodes
        of (E, N, 2) states give (E, N) rewards and (E,) global rewards, and
        take a float scale or an (E, 1, 1) array of per-episode scales."""
        # Clipping leaves values in [-1, 1], -0.0 and NaN as they are.
        a = np.clip(np.asarray(joint_action, dtype=float).reshape(state.pos.shape), -1.0, 1.0)
        vel = 0.5 * state.vel + 0.5 * a * COOPNAV_VMAX * dynamics_scale
        pos = np.clip(state.pos + vel * COOPNAV_DT, -COOPNAV_BOUND, COOPNAV_BOUND)
        new = CoopNavState(pos, vel, state.landmarks)

        # The observation's relative landmarks are minus the agent-landmark
        # differences, whose squares they share bit for bit; the distances
        # are np.linalg.norm(diff, axis=-1)'s own formula.
        landmarks = _relative_landmarks(new)
        dists = np.sqrt(np.add.reduce(landmarks * landmarks, axis=-1))
        coverage = -dists.min(axis=-2).sum(axis=-1)
        i, j = self._pairs
        d = pos.take(i, axis=-2) - pos.take(j, axis=-2)
        # vecdot is each pair's d.dot(d), the same BLAS ddot (which fuses
        # multiply-adds), so the test at the threshold matches a lone pair's;
        # (d * d).sum(-1) rounds differently.
        collisions = (np.sqrt(np.vecdot(d, d)) < COLLISION_DIST).sum(axis=-1)
        r = coverage - 1.0 * collisions
        rewards = np.full(pos.shape[:-1], r[..., None])
        return new, self._obs(new, landmarks), rewards, _global_reward(rewards)

    def global_state(self, state: CoopNavState) -> np.ndarray:
        lead = state.pos.shape[:-2] + (-1,)
        return np.concatenate([state.pos.reshape(lead), state.vel.reshape(lead),
                               state.landmarks.reshape(lead)], axis=-1)


# ---------------------------------------------------------------------------
# Queue grid: one binary-phase intersection per grid cell on a torus.
# Queues are nonnegative reals; deterministic arrivals; a fixed fraction of
# served cars forwards to the downstream neighbor's opposing queue and the
# rest exit the network (full forwarding would conserve total mass and make
# the reward independent of the phase policy).
# ---------------------------------------------------------------------------

GRIDQ_FORWARD_FRAC = 0.5
GRIDQ_SERVE = 1.0  # most cars a served queue releases per step, before dynamics_scale

DIR_N, DIR_S, DIR_E, DIR_W = 0, 1, 2, 3
_OPPOSITE = {DIR_N: DIR_S, DIR_S: DIR_N, DIR_E: DIR_W, DIR_W: DIR_E}
PHASE_SERVES = {0: (DIR_N, DIR_S), 1: (DIR_E, DIR_W)}
# (phase, direction) -> whether the phase serves that direction's queue
_PHASE_MASK = np.array([[d in PHASE_SERVES[p] for d in range(4)] for p in (0, 1)])
_PHASE_MASK.flags.writeable = False


@dataclass
class GridQueueState:
    queues: np.ndarray    # (N, 4) nonnegative reals, or (E, N, 4) for E episodes
    phases: np.ndarray    # (N,) in {0, 1}
    arrivals: np.ndarray  # (N, 4) per-step deterministic arrival volumes


def _neighbor(idx: int, direction: int, rows: int, cols: int) -> int:
    r, c = divmod(idx, cols)
    if direction == DIR_N:
        r = (r - 1) % rows
    elif direction == DIR_S:
        r = (r + 1) % rows
    elif direction == DIR_E:
        c = (c + 1) % cols
    else:
        c = (c - 1) % cols
    return r * cols + c


class GridQueueEnv:
    episode_len = 100
    n_out = 2  # policy output width per agent: one Q-value per phase

    def __init__(self, rows: int = 2, cols: int = 2):
        self.rows, self.cols = rows, cols
        self.n_agents = n = rows * cols
        self.obs_dim = 9
        self.state_dim = n * 5
        # (N, 4) neighbor indices in the order N, S, E, W
        self._neighbors = np.array([[_neighbor(i, d, rows, cols)
                                     for d in (DIR_N, DIR_S, DIR_E, DIR_W)] for i in range(n)])
        # (N * 4,) flat source slot of each flat queue slot: the served cars
        # of (i, d) forward to (neighbor(i, d), opposite(d)). That map is a
        # bijection of the slots, so each slot receives from exactly one
        # source.
        self._inflow = np.empty(n * 4, dtype=int)
        for i in range(n):
            for d in range(4):
                self._inflow[self._neighbors[i, d] * 4 + _OPPOSITE[d]] = i * 4 + d

    def _obs(self, state: GridQueueState, totals=None) -> np.ndarray:
        """Row i: own queues, each neighbor's total queue (N, S, E, W), own
        phase. totals holds each intersection's total queue, (..., N); when
        None it is computed here."""
        queues = state.queues
        if totals is None:
            totals = np.add.reduce(queues, axis=-1)
        obs = np.empty(queues.shape[:-1] + (9,))
        obs[..., :4] = queues
        obs[..., 4:8] = totals[..., self._neighbors]
        obs[..., 8] = state.phases
        return obs

    def reset(self, seed: int):
        rng = np.random.default_rng(seed)
        state = GridQueueState(
            queues=rng.uniform(0.0, 3.0, size=(self.n_agents, 4)),
            phases=np.zeros(self.n_agents, dtype=int),
            arrivals=rng.uniform(0.05, 0.35, size=(self.n_agents, 4)),
        )
        return state, self._obs(state)

    def step(self, state: GridQueueState, joint_action, dynamics_scale=1.0):
        """Serve, forward and arrive one step. Returns (state, obs, per-agent
        rewards (N,), global reward); E episodes of (E, N, 4) queues take
        (E, N) phases and a float scale or an (E, 1, 1) array of per-episode
        scales, and give (E, N) rewards and (E,) global rewards."""
        phases = np.asarray(joint_action, dtype=int)
        # a phase p is 0 or 1 exactly when p >> 1 is 0; the shift keeps a
        # negative p negative
        if phases.shape != state.queues.shape[:-1] or np.count_nonzero(phases >> 1):
            raise ValueError(f"joint phases must be {state.queues.shape[:-1]} values in {{0, 1}}, "
                             f"got {joint_action!r}")
        serve = GRIDQ_SERVE * dynamics_scale
        loaded = state.queues + state.arrivals
        served = np.where(_PHASE_MASK[phases], np.minimum(loaded, serve), 0.0)
        # Each slot gets one addition from its single source; adding a zero
        # (an unserved source) leaves a nonnegative queue's bits as they are.
        slots = served.reshape(served.shape[:-2] + (-1,))
        inflow = slots[..., self._inflow].reshape(served.shape)
        queues = (loaded - served) + GRIDQ_FORWARD_FRAC * inflow
        new = GridQueueState(queues, phases, state.arrivals)
        # one sum per intersection serves the reward and the neighbors' totals
        totals = np.add.reduce(queues, axis=-1)
        rewards = -totals
        return new, self._obs(new, totals), rewards, _global_reward(rewards)

    def global_state(self, state: GridQueueState) -> np.ndarray:
        lead = state.queues.shape[:-2] + (-1,)
        return np.concatenate([state.queues.reshape(lead), state.phases.astype(float)],
                              axis=-1)


def make_env(cfg: dict):
    """The environment of a resolved config; gridq's n_agents is a square."""
    if cfg["env"] == "gridq":
        side = int(round(cfg["n_agents"] ** 0.5))
        return GridQueueEnv(side, side)
    return CoopNavEnv(cfg["n_agents"])


# ---------------------------------------------------------------------------
# Perturbation harness: E episodes in lock step, each under its own PerturbSpec
# ---------------------------------------------------------------------------

def _stack_states(states):
    """One state with a leading episode axis from per-episode states."""
    return type(states[0])(*(np.stack([getattr(s, f.name) for s in states])
                             for f in fields(states[0])))


def episode_rng(seed: int) -> np.random.Generator:
    """The perturbation stream of the evaluation episode seeded by seed."""
    # SeedSequence(seed).spawn(1)[0], built without the parent
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def malicious_injector(env, joint_actions, rate, adversarial, rngs):
    """In each episode e of joint_actions (E, N), with probability rate[e]
    (a coin from rngs[e]), replace the discrete action of one uniformly
    chosen agent; episodes at rate 0 draw nothing.

    adversarial[e] False: a uniform replacement from env.n_out actions;
    True: the victim's phase a becomes 1 - a. A gridq phase is 0 or 1, so
    that is its only alternative and the argmin of any scorer over it; the
    fired episode draws the coin and the victim and nothing else.
    """
    live = np.flatnonzero(rate)
    if not live.size:
        return joint_actions
    actions = np.asarray(joint_actions)
    # rng.random() is the draw rng.uniform() returns, from the same stream.
    # The coin loop runs over Python scalars, which index and compare
    # faster than numpy ones; each fired episode then draws its victim and,
    # in random mode, the replacement.
    fired = [e for e, r in zip(live.tolist(), rate[live].tolist()) if rngs[e].random() < r]
    if not fired:
        return joint_actions
    out = actions.copy()
    for e in fired:
        victim = rngs[e].integers(actions.shape[-1])
        out[e, victim] = 1 - out[e, victim] if adversarial[e] else rngs[e].integers(env.n_out)
    return out


def rollout(env, act_fn, T: int, specs, seeds) -> np.ndarray:
    """len(seeds) episodes of T steps in lock step, episode e under specs[e]:
    perturb observations before acting, inject malicious actions after.
    act_fn maps observations (E, N, d) to joint actions (E, N, ...). Episode
    e starts from env.reset(seeds[e]) and draws from its own stream,
    episode_rng(seeds[e]), in the order a lone episode would: at sigma > 0,
    all T steps' observation noise in one (T, N, d) call before the first
    step, then at each step the malicious coin, victim and (random mode)
    replacement. Each step is one act_fn call, one injector call and one
    env.step for all episodes. Returns the (E,) global returns."""
    if T < 1:
        raise ValueError("T must be >= 1")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("rollout needs at least one episode seed")
    if len(specs) != len(seeds):
        raise ValueError(f"rollout needs one spec per episode seed, got {len(specs)} "
                         f"specs for {len(seeds)} seeds")
    sigma = np.array([s.obs_noise_sigma for s in specs], dtype=float)
    rate = np.array([s.malicious_rate for s in specs], dtype=float)
    adversarial = np.array([s.malicious_mode == "adversarial" for s in specs])
    scale = np.array([s.dynamics_scale for s in specs], dtype=float)
    # (E, 1, 1) broadcasts each episode's scale over its (N, ·) state
    scale = scale[:, None, None] if (scale != 1.0).any() else 1.0
    rngs = [episode_rng(s) for s in seeds]
    starts = [env.reset(s) for s in seeds]
    state = _stack_states([st for st, _ in starts])
    obs = np.stack([ob for _, ob in starts])
    block = np.flatnonzero(sigma > 0.0)
    noise = np.empty((block.size, T) + obs.shape[1:])
    for row, e in zip(noise, block):
        rngs[e].standard_normal(out=row)
    noise *= sigma[block].reshape((-1,) + (1,) * (noise.ndim - 1))
    global_return = np.zeros(len(seeds))
    for t in range(T):
        if block.size:
            # obs is this step's own array, so the noise goes in in place
            obs[block] += noise[:, t]
        actions = malicious_injector(env, act_fn(obs), rate, adversarial, rngs)
        state, obs, _, global_reward = env.step(state, actions, scale)
        global_return += global_reward
    return global_return
