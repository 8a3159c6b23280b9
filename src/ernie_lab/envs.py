# Native toy multi-agent environments (cooperative navigation, traffic-style
# queue grid) plus the evaluation-time perturbation harness. Every state
# array may carry a leading episode axis: a step on (E, N, ...) states steps
# E episodes at once, each bit for bit as its own (N, ...) call would.
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, fields, replace

import numpy as np

log = logging.getLogger(__name__)

COOPNAV_DT = 0.1
COOPNAV_VMAX = 1.0
COOPNAV_BOUND = 1.5
COLLISION_DIST = 0.1


@dataclass(frozen=True)
class PerturbSpec:
    obs_noise_sigma: float = 0.0
    dynamics_scale: float = 1.0
    malicious_rate: float = 0.0
    malicious_mode: str = "random"

    def __post_init__(self):
        if self.obs_noise_sigma < 0:
            raise ValueError("obs_noise_sigma must be >= 0")
        if self.dynamics_scale <= 0:
            raise ValueError("dynamics_scale must be > 0")
        if not 0.0 <= self.malicious_rate <= 1.0:
            raise ValueError("malicious_rate must be in [0,1]")
        if self.malicious_mode not in ("random", "adversarial"):
            raise ValueError("malicious_mode must be 'random' or 'adversarial'")

    def is_identity(self) -> bool:
        return (self.obs_noise_sigma == 0.0 and self.dynamics_scale == 1.0
                and self.malicious_rate == 0.0)


# ---------------------------------------------------------------------------
# Cooperative navigation: N agents cover N landmarks in a bounded 2-D world.
# ---------------------------------------------------------------------------

@dataclass
class CoopNavState:
    pos: np.ndarray        # (N, 2), or (E, N, 2) for E episodes
    vel: np.ndarray        # (N, 2)
    landmarks: np.ndarray  # (N, 2)
    t: int = 0
    bound: float = COOPNAV_BOUND


def _global_reward(rewards: np.ndarray):
    # rewards.mean(axis=-1) bit for bit, which is this sum over the agents
    # divided by their count, without mean's Python-level overhead
    return np.add.reduce(rewards, axis=-1) / rewards.shape[-1]


def coopnav_obs_dim(n_agents: int) -> int:
    return 4 + 2 * n_agents + 2 * (n_agents - 1)


@functools.lru_cache(maxsize=None)
def _agent_pairs(n: int):
    """(i, j) index arrays of the agent pairs i < j in row-major order and
    the (N, N) off-diagonal mask; shared, so read-only."""
    i, j = np.triu_indices(n, 1)
    off_diagonal = ~np.eye(n, dtype=bool)
    for a in (i, j, off_diagonal):
        a.flags.writeable = False
    return i, j, off_diagonal


def _coopnav_obs(state: CoopNavState) -> np.ndarray:
    # Row i: own position and velocity, landmarks relative to agent i, then
    # the other agents (in index order) relative to agent i.
    pos = state.pos
    rows = pos.shape[:-1]
    landmarks = state.landmarks[..., None, :, :] - pos[..., :, None, :]
    others = (pos[..., None, :, :] - pos[..., :, None, :])[..., _agent_pairs(rows[-1])[2], :]
    return np.concatenate([pos, state.vel, landmarks.reshape(rows + (-1,)),
                           others.reshape(rows + (-1,))], axis=-1)


def coopnav_reset(n_agents: int, seed: int):
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    rng = np.random.default_rng(seed)
    state = CoopNavState(
        pos=rng.uniform(-1.0, 1.0, size=(n_agents, 2)),
        vel=np.zeros((n_agents, 2)),
        landmarks=rng.uniform(-1.0, 1.0, size=(n_agents, 2)),
    )
    return state, _coopnav_obs(state)


def coopnav_step(state: CoopNavState, joint_action: np.ndarray, dynamics_scale: float = 1.0):
    """vel <- 0.5 vel + 0.5 a vmax scale; pos clamped; shared coverage reward.

    Returns (state, obs, per-agent rewards (N,), global reward); E episodes
    of (E, N, 2) states give (E, N) rewards and (E,) global rewards."""
    a = np.asarray(joint_action, dtype=float).reshape(state.pos.shape)
    if np.any(np.abs(a) > 1.0):
        log.debug("coopnav action out of [-1,1], clamping")
        a = np.clip(a, -1.0, 1.0)
    vel = 0.5 * state.vel + 0.5 * a * COOPNAV_VMAX * dynamics_scale
    pos = np.clip(state.pos + vel * COOPNAV_DT, -state.bound, state.bound)
    new = CoopNavState(pos, vel, state.landmarks, state.t + 1, state.bound)

    dists = np.linalg.norm(pos[..., :, None, :] - state.landmarks[..., None, :, :], axis=-1)
    coverage = -dists.min(axis=-2).sum(axis=-1)
    i, j, _ = _agent_pairs(pos.shape[-2])
    d = pos.take(i, axis=-2) - pos.take(j, axis=-2)
    # vecdot is each pair's d.dot(d), the same BLAS ddot (which fuses
    # multiply-adds), so the test at the threshold matches a lone pair's;
    # (d * d).sum(-1) rounds differently.
    collisions = (np.sqrt(np.vecdot(d, d)) < COLLISION_DIST).sum(axis=-1)
    r = coverage - 1.0 * collisions
    rewards = np.full(pos.shape[:-1], r[..., None])
    return new, _coopnav_obs(new), rewards, _global_reward(rewards)


class CoopNavEnv:
    """Stateless wrapper bundling the functional API for rollouts."""

    name = "coopnav"
    discrete = False
    episode_len = 50

    def __init__(self, n_agents: int):
        self.n_agents = n_agents
        self.obs_dim = coopnav_obs_dim(n_agents)
        self.state_dim = 4 * n_agents + 2 * n_agents
        self.n_out = 2  # policy output width per agent: the action dimension

    def reset(self, seed: int):
        return coopnav_reset(self.n_agents, seed)

    def step(self, state, joint_action, dynamics_scale: float = 1.0):
        return coopnav_step(state, joint_action, dynamics_scale)

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
    serve: float
    rows: int
    cols: int
    t: int = 0


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


@functools.lru_cache(maxsize=None)
def _neighbor_table(rows: int, cols: int) -> np.ndarray:
    # (N, 4) neighbor indices in the order N, S, E, W; shared, so read-only
    table = np.array([[_neighbor(i, d, rows, cols) for d in (DIR_N, DIR_S, DIR_E, DIR_W)]
                      for i in range(rows * cols)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _inflow_table(rows: int, cols: int) -> np.ndarray:
    # (N * 4,) flat source slot of each flat queue slot: the served cars of
    # (i, d) forward to (neighbor(i, d), opposite(d)). That map is a bijection
    # of the slots, so each slot receives from exactly one source; shared,
    # so read-only.
    table = np.empty(rows * cols * 4, dtype=int)
    for i in range(rows * cols):
        for d in range(4):
            table[_neighbor(i, d, rows, cols) * 4 + _OPPOSITE[d]] = i * 4 + d
    table.flags.writeable = False
    return table


def _gridq_obs(state: GridQueueState) -> np.ndarray:
    # Row i: own queues, each neighbor's total queue (N, S, E, W), own phase.
    neighbor_sums = state.queues[..., _neighbor_table(state.rows, state.cols), :].sum(axis=-1)
    return np.concatenate([state.queues, neighbor_sums, state.phases[..., None]], axis=-1)


def gridq_reset(rows: int, cols: int, seed: int):
    rng = np.random.default_rng(seed)
    n = rows * cols
    state = GridQueueState(
        queues=rng.uniform(0.0, 3.0, size=(n, 4)),
        phases=np.zeros(n, dtype=int),
        arrivals=rng.uniform(0.05, 0.35, size=(n, 4)),
        serve=1.0,
        rows=rows,
        cols=cols,
    )
    return state, _gridq_obs(state)


def gridq_step(state: GridQueueState, joint_phases: np.ndarray, dynamics_scale: float = 1.0):
    """Serve, forward and arrive one step. Returns (state, obs, per-agent
    rewards (N,), global reward); E episodes of (E, N, 4) queues take
    (E, N) phases and give (E, N) rewards and (E,) global rewards."""
    phases = np.asarray(joint_phases, dtype=int)
    if phases.shape != state.queues.shape[:-1] or phases.min() < 0 or phases.max() > 1:
        raise ValueError(f"joint phases must be {state.queues.shape[:-1]} values in {{0, 1}}, "
                         f"got {joint_phases!r}")
    serve = state.serve * dynamics_scale
    loaded = state.queues + state.arrivals
    served = np.where(_PHASE_MASK[phases], np.minimum(loaded, serve), 0.0)
    # Each slot gets one addition from its single source; adding a zero
    # (an unserved source) leaves a nonnegative queue's bits as they are.
    slots = served.reshape(served.shape[:-2] + (-1,))
    inflow = slots[..., _inflow_table(state.rows, state.cols)].reshape(served.shape)
    queues = (loaded - served) + GRIDQ_FORWARD_FRAC * inflow
    new = GridQueueState(queues, phases, state.arrivals, state.serve,
                         state.rows, state.cols, state.t + 1)
    rewards = -queues.sum(axis=-1)
    return new, _gridq_obs(new), rewards, _global_reward(rewards)


class GridQueueEnv:
    name = "gridq"
    discrete = True
    episode_len = 100
    n_phases = 2
    n_out = n_phases  # policy output width per agent: one Q-value per phase

    def __init__(self, rows: int = 2, cols: int = 2):
        self.rows, self.cols = rows, cols
        self.n_agents = rows * cols
        self.obs_dim = 9
        self.state_dim = self.n_agents * 5

    def reset(self, seed: int):
        return gridq_reset(self.rows, self.cols, seed)

    def step(self, state, joint_action, dynamics_scale: float = 1.0):
        return gridq_step(state, joint_action, dynamics_scale)

    def global_state(self, state: GridQueueState) -> np.ndarray:
        lead = state.queues.shape[:-2] + (-1,)
        return np.concatenate([state.queues.reshape(lead), state.phases.astype(float)],
                              axis=-1)


# ---------------------------------------------------------------------------
# Perturbation harness: E episodes of one PerturbSpec in lock step
# ---------------------------------------------------------------------------

def _stack_states(states):
    """One state with a leading episode axis from per-episode states."""
    first = states[0]
    return replace(first, **{f.name: np.stack([getattr(s, f.name) for s in states])
                             for f in fields(first)
                             if isinstance(getattr(first, f.name), np.ndarray)})


def _take_episodes(state, idx):
    """The episodes idx of a state with a leading episode axis."""
    return replace(state, **{f.name: getattr(state, f.name)[idx] for f in fields(state)
                             if isinstance(getattr(state, f.name), np.ndarray)})


def episode_rng(seed: int) -> np.random.Generator:
    """The perturbation stream of the evaluation episode seeded by seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed).spawn(1)[0])


def _perturb_obs(obs, sigma, rngs):
    """obs (E, ...) + sigma * standard normal, row e drawn from rngs[e];
    bitwise identity at sigma = 0."""
    if sigma == 0.0:
        return obs
    noise = np.empty(obs.shape)
    for row, rng in zip(noise, rngs):
        rng.standard_normal(out=row)
    return obs + sigma * noise


def malicious_injector(env, state, joint_actions, spec: PerturbSpec, rngs, q_global=None):
    """In each episode e of joint_actions (E, N), with probability rate
    (a coin from rngs[e]), replace the discrete action of one uniformly
    chosen agent.

    random mode: uniform replacement; adversarial mode: the single-agent
    flip minimizing q_global (an algos.GlobalQ) at the episode's global
    state, the first minimum in action order. The alternatives of every
    episode that fired are scored in one q_global.rows call, and the global
    state is built for those episodes only. Continuous actions pass through
    in random mode and are an error in adversarial mode.
    """
    if spec.malicious_rate == 0.0:
        return joint_actions
    actions = np.asarray(joint_actions)
    adversarial = spec.malicious_mode == "adversarial"
    if not np.issubdtype(actions.dtype, np.integer):
        if adversarial:
            raise TypeError("adversarial malicious mode requires discrete actions")
        return joint_actions
    if adversarial and q_global is None:
        raise ValueError("adversarial injection needs a global Q function")
    # rng.random() is the draw rng.uniform() returns, from the same stream
    fired = np.array([e for e, rng in enumerate(rngs) if rng.random() < spec.malicious_rate],
                     dtype=int)
    if not fired.size:
        return joint_actions
    n_agents, n_actions = actions.shape[-1], env.n_phases
    victims = np.array([rngs[e].integers(n_agents) for e in fired])
    out = actions.copy()
    if not adversarial:
        out[fired, victims] = [rngs[e].integers(n_actions) for e in fired]
        return out
    # Row f: the victim's alternatives in ascending order, skipping its action.
    alts = np.arange(n_actions - 1)[None, :]
    alts = alts + (alts >= out[fired, victims][:, None])
    cands = np.repeat(out[fired][:, None, :], n_actions - 1, axis=1)
    cands[np.arange(fired.size)[:, None], np.arange(n_actions - 1), victims[:, None]] = alts
    states = np.repeat(env.global_state(_take_episodes(state, fired)), n_actions - 1, axis=0)
    q = q_global.rows(states, cands.reshape(-1, n_agents)).reshape(alts.shape)
    out[fired, victims] = alts[np.arange(fired.size), q.argmin(axis=1)]
    return out


def rollout(env, act_fn, T: int, spec: PerturbSpec, seeds, q_global=None) -> np.ndarray:
    """len(seeds) episodes of T steps in lock step: perturb observations
    before acting, inject malicious actions after. act_fn maps observations
    (E, N, d) to joint actions (E, N, ...). Episode e starts from
    env.reset(seeds[e]) and draws from its own stream, episode_rng(seeds[e]),
    in the order a lone episode would: observation noise, then the malicious
    coin, victim and replacement. Returns the (E,) global returns."""
    if T < 1:
        raise ValueError("T must be >= 1")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("rollout needs at least one episode seed")
    rngs = [episode_rng(s) for s in seeds]
    starts = [env.reset(s) for s in seeds]
    state = _stack_states([st for st, _ in starts])
    obs = np.stack([ob for _, ob in starts])
    global_return = np.zeros(len(seeds))
    for _ in range(T):
        actions = act_fn(_perturb_obs(obs, spec.obs_noise_sigma, rngs))
        actions = malicious_injector(env, state, actions, spec, rngs, q_global)
        state, obs, _, global_reward = env.step(state, actions, spec.dynamics_scale)
        global_return += global_reward
    return global_return
