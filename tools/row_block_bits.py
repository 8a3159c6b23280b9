"""Whether the first R rows of a B-row forward pass are bit for bit a fresh
R-row pass of the same net: the question behind running two passes of one
net (DDPG's two critic passes, or the attack's clean pass beside the actor
update's) as one row block.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/row_block_bits.py [--cases 200] [--seed 0]

It checks the benchmark shapes first: the coopnav critic 24→64→1 at 64 of
128 rows (both halves of the block), and the policy stack 3×(14→64→2) at 32
of 64 rows. Then it draws random shapes (N ≤ 6 agents, a single net at
N = 1; widths 9–30 → 32–128 → 1–5; B 32–256; R 1–64) and counts those where
any layer's output on the R rows changes a bit. One BLAS thread, as the
benchmark runs.
"""
from __future__ import annotations

import argparse
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402


def _net(dims, n, seed):
    from ernie_lab.net import net_init, stack_nets
    if n == 1:
        return net_init(dims, seed=seed)
    return stack_nets([net_init(dims, seed=seed + i) for i in range(n)])


def _same_rows(net, x, rows: slice) -> bool:
    """Every layer output of x[..., rows, :] alone equals that of the full
    block on those rows, byte for byte."""
    from ernie_lab.net import _forward_cached
    full_acts, full_y = _forward_cached(net, x)
    part_acts, part_y = _forward_cached(net, np.ascontiguousarray(x[..., rows, :]))
    return all(np.ascontiguousarray(f[..., rows, :]).tobytes() == p.tobytes()
               for f, p in zip(full_acts[1:] + [full_y], part_acts[1:] + [part_y]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    rng = np.random.default_rng(args.seed)

    critic = _net([24, 64, 1], 1, 1)
    x = rng.standard_normal((128, 24))
    for half in (slice(0, 64), slice(64, 128)):
        print(f"critic 24->64->1, rows {half.start}:{half.stop} of 128: "
              f"{'bitwise' if _same_rows(critic, x, half) else 'CHANGED'}")
    policy = _net([14, 64, 2], 3, 1)
    ok = _same_rows(policy, rng.standard_normal((3, 64, 14)), slice(0, 32))
    print(f"policy 3x(14->64->2), rows 0:32 of 64: {'bitwise' if ok else 'CHANGED'}")

    changed, singles = [], 0
    for case in range(args.cases):
        n = int(rng.integers(1, 7))
        dims = [int(rng.integers(9, 31)), int(rng.integers(32, 129)), int(rng.integers(1, 6))]
        b = int(rng.integers(32, 257))
        r = int(rng.integers(1, min(64, b - 1) + 1))
        singles += n == 1
        net = _net(dims, n, case)
        x = rng.standard_normal((b, dims[0]) if n == 1 else (n, b, dims[0]))
        if not _same_rows(net, x, slice(0, r)):
            changed.append((n, tuple(dims), b, r))
    print(f"random shapes: {len(changed)} of {args.cases} changed bits "
          f"({sum(c[0] == 1 for c in changed)} of {singles} single nets)")
    for n, dims, b, r in changed[:10]:
        print(f"  N={n} dims={dims} rows 0:{r} of {b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
