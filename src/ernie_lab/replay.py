# Fixed-capacity ring replay buffer held as one flat float64 record, one row
# per transition, with seeded, uniform-with-replacement sampling.
from __future__ import annotations

import numpy as np

# push's fields, in the order of their columns in a record row
FIELDS = ("obs", "state", "actions", "rewards", "global_reward", "next_obs",
          "next_state", "done")


class ReplayBuffer:
    """Ring of `capacity` transitions, each one float64 row of a
    (capacity, F) record. The layout (each field's columns, shape and
    whether it holds integers) is fixed by the first push; every later push
    must match its shapes and its integer or float kind. Integer fields (the
    discrete actions) are stored as floats, exact below 2**53, and come back
    as int64. Slot i holds the i-th transition pushed until the ring is
    full, then each push overwrites the oldest slot."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._record = None   # (capacity, F), allocated on the first push
        self._row = None      # (F,), where a push is checked and assembled
        self._layout = ()     # per field: (name, columns, shape, integer)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def _lay_out(self, values) -> None:
        layout, k = [], 0
        for name, value in zip(FIELDS, values):
            value = np.asarray(value)
            layout.append((name, slice(k, k + value.size), value.shape,
                           value.dtype.kind in "iu"))
            k += value.size
        self._layout = tuple(layout)
        self._record = np.empty((self.capacity, k))
        self._row = np.empty(k)

    def push(self, *, obs, state, actions, rewards, global_reward, next_obs,
             next_state, done) -> None:
        """Store one transition: obs/next_obs (N, obs_dim), state/next_state
        (state_dim,), actions (N,) int or (N, action_dim) float, rewards (N,),
        global_reward a float and done a bool (stored as 0.0/1.0)."""
        values = (obs, state, actions, rewards, float(global_reward), next_obs,
                  next_state, float(done))
        if self._record is None:
            self._lay_out(values)
        row = self._row
        for (_, cols, shape, integer), value in zip(self._layout, values):
            value = np.asarray(value)
            if value.shape != shape or (value.dtype.kind in "iu") != integer:
                raise ValueError("transition arity does not match buffer contents")
            row[cols] = value.reshape(-1)
        self._record[self._cursor] = row
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator) -> tuple[tuple, np.ndarray]:
        """Uniform with replacement over filled slots, as ((record, layout),
        drawn slot indices); a single item can fill a batch. stack_batch
        gathers the rows."""
        return (self._record, self._layout), rng.integers(0, self._size, size=batch)


def stack_batch(sample: tuple[tuple, np.ndarray]) -> dict:
    """The sampled rows of every field, as a dict of (batch, ...) arrays keyed
    by push's argument names: one gather of the drawn record rows, and each
    float field a view of its columns of that block."""
    (record, layout), idx = sample
    block = record.take(idx, axis=0)
    b = block.shape[0]
    out = {}
    for name, cols, shape, integer in layout:
        field = block[:, cols].reshape((b,) + shape)
        out[name] = field.astype(np.int64) if integer else field
    return out
