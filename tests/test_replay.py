# Replay buffer behavior: ring eviction, arity checks, seeded uniform sampling.
import numpy as np
import pytest

from ernie_lab.replay import ReplayBuffer, stack_batch


def _trans(tag: float, n_agents: int = 2, obs_dim: int = 3) -> dict:
    return dict(
        obs=np.full((n_agents, obs_dim), tag),
        state=np.full(4, tag),
        actions=np.full(n_agents, int(tag)),
        rewards=np.full(n_agents, tag),
        global_reward=float(tag),
        next_obs=np.full((n_agents, obs_dim), tag + 0.5),
        next_state=np.full(4, tag + 0.5),
        done=False,
    )


def _filled(tags, capacity: int) -> ReplayBuffer:
    buf = ReplayBuffer(capacity=capacity)
    for tag in tags:
        buf.push(**_trans(tag))
    return buf


def _all_rows(buf: ReplayBuffer) -> dict:
    # every filled slot, in slot order
    arrays, _ = buf.sample(1, np.random.default_rng(0))
    return stack_batch((arrays, np.arange(len(buf))))


def test_push_grows_then_evicts_oldest():
    buf = _filled(range(3), capacity=3)
    assert len(buf) == 3
    buf.push(**_trans(3))
    assert len(buf) == 3
    # the oldest slot was overwritten: slot order is now 3, 1, 2
    assert _all_rows(buf)["global_reward"].tolist() == [3.0, 1.0, 2.0]
    buf.push(**_trans(4))
    assert _all_rows(buf)["global_reward"].tolist() == [3.0, 4.0, 2.0]


def test_push_rejects_mismatched_arity():
    buf = ReplayBuffer(capacity=4)
    buf.push(**_trans(0, n_agents=2))
    with pytest.raises(ValueError):
        buf.push(**_trans(1, n_agents=3))
    with pytest.raises(ValueError):
        buf.push(**dict(_trans(1), actions=np.zeros((2, 2))))
    assert len(buf) == 1


@pytest.mark.parametrize("first,second", [
    (np.array([0, 1]), np.array([0.7, 1.9])),
    (np.array([0.7, 1.9]), np.array([0, 1])),
], ids=["int_then_float", "float_then_int"])
def test_push_rejects_actions_of_the_other_kind(first, second):
    # The record stores every field as floats; the first push fixes whether
    # actions are integers, so float actions cannot be truncated into an
    # integer buffer, nor integer ones pass as floats.
    buf = ReplayBuffer(capacity=2)
    buf.push(**dict(_trans(0), actions=first))
    with pytest.raises(ValueError, match="transition arity"):
        buf.push(**dict(_trans(1), actions=second))
    assert len(buf) == 1
    got = _all_rows(buf)["actions"]
    assert got.dtype == first.dtype and got.tobytes() == first[None].tobytes()


def test_failed_push_leaves_a_full_ring_untouched():
    # A push is checked in full before it writes, so a rejected transition
    # overwrites no part of the oldest slot.
    buf = _filled(range(2), capacity=2)
    before = {k: v.tobytes() for k, v in _all_rows(buf).items()}
    with pytest.raises(ValueError):
        buf.push(**dict(_trans(5), next_state=np.zeros(3)))
    assert {k: v.tobytes() for k, v in _all_rows(buf).items()} == before


def test_batch_fields_are_views_of_one_gathered_block():
    # float tags: every field but the integer actions is a float field
    buf = _filled([0.0, 1.0, 2.0, 3.0], capacity=4)
    batch = stack_batch(buf.sample(6, np.random.default_rng(1)))
    block = batch["obs"].base
    assert block.shape == (6, 2 * 3 + 4 + 2 + 2 + 1 + 2 * 3 + 4 + 1)
    for k in batch:
        if k != "actions":
            assert batch[k].base is block and batch[k].dtype == np.float64
    assert batch["actions"].base is not block and batch["actions"].dtype == np.int64


def test_single_item_fills_batch():
    # uniform with replacement: size-1 buffer can serve any batch size
    buf = _filled([7], capacity=5)
    got = stack_batch(buf.sample(3, np.random.default_rng(0)))
    assert got["global_reward"].tolist() == [7.0, 7.0, 7.0]


def test_sample_seeded_deterministic():
    buf = _filled(range(10), capacity=10)
    draw = lambda seed: stack_batch(buf.sample(16, np.random.default_rng(seed)))
    a, b, c = draw(42), draw(42), draw(43)
    assert a["global_reward"].tolist() == b["global_reward"].tolist()
    assert a["global_reward"].tolist() != c["global_reward"].tolist()


def test_sample_frequencies_near_uniform():
    buf = _filled(range(4), capacity=4)
    got = stack_batch(buf.sample(100000, np.random.default_rng(3)))
    counts = np.bincount(got["global_reward"].astype(int), minlength=4)
    freqs = counts / 100000.0
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_stack_batch_shapes_and_values():
    buf = _filled(range(3), capacity=3)
    batch = _all_rows(buf)
    assert batch["obs"].shape == (3, 2, 3)
    assert batch["state"].shape == (3, 4)
    assert batch["actions"].shape == (3, 2)
    assert batch["rewards"].shape == (3, 2)
    assert batch["global_reward"].tolist() == [0.0, 1.0, 2.0]
    assert batch["done"].tolist() == [0.0, 0.0, 0.0]
    assert batch["actions"].dtype == np.int64 and batch["done"].dtype == np.float64


@pytest.mark.parametrize("capacity,pushes", [(5, 3), (5, 5), (5, 13), (1, 4)])
def test_batch_is_pushed_rows_at_drawn_indices(capacity, pushes):
    # Oracle: a list of the pushed transitions with the old list buffer's
    # eviction (append, then overwrite at a cursor), sampled by the same
    # rng.integers draw; the gathered batch must equal its rows bit for bit,
    # across ring wrap-around.
    rng = np.random.default_rng(capacity * 100 + pushes)
    buf, items, cursor = ReplayBuffer(capacity), [], 0
    for _ in range(pushes):
        t = _trans(0.0)
        t.update(obs=rng.standard_normal((2, 3)), state=rng.standard_normal(4),
                 actions=rng.integers(0, 3, size=2), rewards=rng.standard_normal(2),
                 global_reward=float(rng.standard_normal()),
                 next_obs=rng.standard_normal((2, 3)), next_state=rng.standard_normal(4),
                 done=bool(rng.integers(2)))
        buf.push(**t)
        if len(items) < capacity:
            items.append(t)
        else:
            items[cursor] = t
        cursor = (cursor + 1) % capacity
    draw_a, draw_b = np.random.default_rng(9), np.random.default_rng(9)
    batch = stack_batch(buf.sample(11, draw_a))
    idx = draw_b.integers(0, len(items), size=11)
    for key in batch:
        want = np.array([items[i][key] for i in idx],
                        dtype=float if key in ("global_reward", "done") else None)
        assert batch[key].tobytes() == want.tobytes()
    assert draw_a.bit_generator.state == draw_b.bit_generator.state
