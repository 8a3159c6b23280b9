# Native toy multi-agent environments (cooperative navigation, traffic-style
# queue grid) plus the evaluation-time perturbation harness.
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field, replace

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
    pos: np.ndarray        # (N, 2)
    vel: np.ndarray        # (N, 2)
    landmarks: np.ndarray  # (N, 2)
    t: int = 0
    bound: float = COOPNAV_BOUND


def coopnav_obs_dim(n_agents: int) -> int:
    return 4 + 2 * n_agents + 2 * (n_agents - 1)


def _coopnav_obs(state: CoopNavState) -> np.ndarray:
    # Row i: own position and velocity, landmarks relative to agent i, then
    # the other agents (in index order) relative to agent i.
    pos = state.pos
    n = pos.shape[0]
    landmarks = state.landmarks[None, :, :] - pos[:, None, :]
    others = (pos[None, :, :] - pos[:, None, :])[~np.eye(n, dtype=bool)]
    return np.concatenate([pos, state.vel, landmarks.reshape(n, -1),
                           others.reshape(n, -1)], axis=1)


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
    """vel <- 0.5 vel + 0.5 a vmax scale; pos clamped; shared coverage reward."""
    a = np.asarray(joint_action, dtype=float).reshape(state.pos.shape)
    if np.any(np.abs(a) > 1.0):
        log.debug("coopnav action out of [-1,1], clamping")
        a = np.clip(a, -1.0, 1.0)
    vel = 0.5 * state.vel + 0.5 * a * COOPNAV_VMAX * dynamics_scale
    pos = np.clip(state.pos + vel * COOPNAV_DT, -state.bound, state.bound)
    new = CoopNavState(pos, vel, state.landmarks, state.t + 1, state.bound)

    dists = np.linalg.norm(pos[:, None, :] - state.landmarks[None, :, :], axis=-1)
    coverage = -float(dists.min(axis=0).sum())
    n = pos.shape[0]
    collisions = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = pos[i] - pos[j]
            if np.sqrt(d.dot(d)) < COLLISION_DIST:  # np.linalg.norm(d), without its overhead
                collisions += 1
    r = coverage - 1.0 * collisions
    rewards = np.full(n, r)
    return new, _coopnav_obs(new), rewards, float(rewards.mean())


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
        return np.concatenate([state.pos.ravel(), state.vel.ravel(), state.landmarks.ravel()])


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
    queues: np.ndarray    # (N, 4) nonnegative reals
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
    neighbor_sums = state.queues[_neighbor_table(state.rows, state.cols)].sum(axis=2)
    return np.concatenate([state.queues, neighbor_sums, state.phases[:, None]], axis=1)


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
    phases = np.asarray(joint_phases, dtype=int).ravel()
    if phases.shape != (state.queues.shape[0],) or phases.min() < 0 or phases.max() > 1:
        raise ValueError(f"joint phases must be {state.queues.shape[0]} values in {{0, 1}}, "
                         f"got {joint_phases!r}")
    serve = state.serve * dynamics_scale
    loaded = state.queues + state.arrivals
    served = np.where(_PHASE_MASK[phases], np.minimum(loaded, serve), 0.0)
    # Each slot gets one addition from its single source; adding a zero
    # (an unserved source) leaves a nonnegative queue's bits as they are.
    inflow = served.ravel()[_inflow_table(state.rows, state.cols)].reshape(served.shape)
    queues = (loaded - served) + GRIDQ_FORWARD_FRAC * inflow
    new = GridQueueState(queues, phases, state.arrivals, state.serve,
                         state.rows, state.cols, state.t + 1)
    rewards = -queues.sum(axis=1)
    return new, _gridq_obs(new), rewards, float(rewards.mean())


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
        return np.concatenate([state.queues.ravel(), state.phases.astype(float)])


# ---------------------------------------------------------------------------
# Perturbation harness
# ---------------------------------------------------------------------------

def _perturb_obs_rng(obs, sigma, rng):
    """obs + sigma * standard normal from rng; bitwise identity at sigma = 0."""
    if sigma == 0.0:
        return obs
    return obs + sigma * rng.standard_normal(obs.shape)


def malicious_injector(joint_action, q_global, spec: PerturbSpec,
                       rng: np.random.Generator, n_actions: int):
    """With probability rate, replace one uniformly chosen agent's discrete action.

    random mode: uniform replacement; adversarial mode: single-agent flip
    minimizing q_global over that agent's alternatives.
    """
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


def _lazy_state_q(q_global_fn, env, state):
    """joint -> q_global_fn(global state, joint), building the global state
    on the first call only: the injector fires on few steps."""
    gs = []

    def q_fn(joint):
        if not gs:
            gs.append(env.global_state(state))
        return q_global_fn(gs[0], joint)
    return q_fn


def rollout(env, act_fn, T: int, spec: PerturbSpec, seed: int, q_global_fn=None,
             record_trajectory: bool = False):
    """One episode: perturb observations before acting, inject malicious
    actions after. Returns (trajectory, per-agent returns, global return)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed).spawn(1)[0])
    state, obs = env.reset(seed)
    returns = np.zeros(env.n_agents)
    global_return = 0.0
    trajectory = []
    for t in range(T):
        seen = _perturb_obs_rng(obs, spec.obs_noise_sigma, rng)
        actions = act_fn(seen)
        if env.discrete and spec.malicious_rate > 0.0:
            q_fn = None
            if spec.malicious_mode == "adversarial":
                if q_global_fn is None:
                    raise ValueError("adversarial injection needs a global Q function")
                q_fn = _lazy_state_q(q_global_fn, env, state)
            actions = malicious_injector(actions, q_fn, spec, rng, env.n_phases)
        state, obs, rewards, global_reward = env.step(state, actions, spec.dynamics_scale)
        returns += rewards
        global_return += global_reward
        if record_trajectory:
            trajectory.append({"t": t, "actions": np.asarray(actions).tolist(),
                               "rewards": rewards.tolist()})
    return trajectory, returns, float(global_return)
