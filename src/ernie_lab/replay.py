# Fixed-capacity ring replay buffer held as preallocated arrays, one per
# transition field, with seeded, uniform-with-replacement sampling.
from __future__ import annotations

import numpy as np


class ReplayBuffer:
    """Ring of `capacity` transitions. The arrays are allocated on the first
    push, shaped by its fields; every later push must match those shapes.
    Slot i holds the i-th transition pushed until the ring is full, then
    each push overwrites the oldest slot."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._arrays: dict[str, np.ndarray] = {}
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, *, obs, state, actions, rewards, global_reward, next_obs,
             next_state, done) -> None:
        """Store one transition: obs/next_obs (N, obs_dim), state/next_state
        (state_dim,), actions (N,) int or (N, action_dim) float, rewards (N,),
        global_reward a float and done a bool (stored as 0.0/1.0)."""
        row = {"obs": obs, "state": state, "actions": actions, "rewards": rewards,
               "global_reward": float(global_reward), "next_obs": next_obs,
               "next_state": next_state, "done": float(done)}
        if not self._arrays:
            for key, value in row.items():
                value = np.asarray(value)
                self._arrays[key] = np.empty((self.capacity,) + value.shape, value.dtype)
        for key, value in row.items():
            if np.shape(value) != self._arrays[key].shape[1:]:
                raise ValueError("transition arity does not match buffer contents")
        for key, value in row.items():
            self._arrays[key][self._cursor] = value
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator) -> tuple[dict, np.ndarray]:
        """Uniform with replacement over filled slots, as (field arrays, drawn
        slot indices); a single item can fill a batch. stack_batch gathers
        the rows."""
        if self._size == 0:
            raise RuntimeError("cannot sample from an empty buffer")
        return self._arrays, rng.integers(0, self._size, size=batch)


def stack_batch(sample: tuple[dict, np.ndarray]) -> dict:
    """The sampled rows of every field, as a dict of (batch, ...) arrays keyed
    by push's argument names."""
    arrays, idx = sample
    return {key: values[idx] for key, values in arrays.items()}
