"""Workloads of the ernie-lab benchmark.

Each workload is one experiment config that is trained with ``train_run`` and
then evaluated with ``evaluate_checkpoint``. The benchmark seed picks the
training seed and the evaluation base seed; the package receives only the
generated config. Step and episode counts are sized so that one
train-then-evaluate repetition takes one to two seconds on a 2-core x86 machine.
"""
from __future__ import annotations

import copy
import random

# Seed for development; claims are checked again on the held-out seed.
DEV_SEED = 1
HELD_OUT_SEED = 7919

_COOPNAV_SWEEP = {"obs_noise_sigmas": [0.0, 0.5, 1.0]}
_PGD = {"enabled": True, "epsilon": 3.0, "k_steps": 2, "lambda": 10.0,
        "reg_rows": 32}

# name -> (base config, full size, tiny size used by the self-test).
# A size is (train_steps, warmup, episodes per sweep spec).
WORKLOADS = {
    # Criterion-8 ERNIE arm: plain DDPG for the first half, PGD after.
    "coopnav_pgd": (
        {"algo": "ddpg", "env": "coopnav", "n_agents": 3,
         "ernie": dict(_PGD, start_frac=0.5), "eval": _COOPNAV_SWEEP},
        (600, 200, 15), (30, 10, 2)),
    # Criterion-9 ERNIE-A arm: discrete path, no PGD.
    "gridq_ernie_a": (
        {"algo": "qcombo", "env": "gridq", "n_agents": 4,
         "ernie_a": {"enabled": True, "k": 1, "lambda": 0.01, "rows": 4},
         "eval": {"obs_noise_sigmas": [0.0], "malicious_rates": [0.03, 0.05],
                  "malicious_mode": "adversarial"}},
        (600, 200, 10), (30, 10, 2)),
    # Same attack as coopnav_pgd through the unrolled Stackelberg gradient.
    "coopnav_stackelberg": (
        {"algo": "ddpg", "env": "coopnav", "n_agents": 3,
         "ernie": dict(_PGD, start_frac=0.0, stackelberg=True),
         "eval": _COOPNAV_SWEEP},
        (120, 100, 15), (14, 10, 2)),
    # Mean-field cloud regularizer on the critic, no observation attack.
    "coopnav_meanfield": (
        {"algo": "mf_ddpg", "env": "coopnav", "n_agents": 3,
         "meanfield": {"enabled": True}, "eval": _COOPNAV_SWEEP},
        (500, 200, 15), (30, 10, 2)),
}


def derive_seeds(name: str, seed: int) -> tuple[int, int]:
    """Training seed and evaluation base seed of one workload and bench seed."""
    rng = random.Random(f"{name}/{seed}")
    return rng.randrange(2 ** 31), rng.randrange(2 ** 20)


def generate(name: str, seed: int, tiny: bool = False) -> tuple[dict, int]:
    """The config document and evaluation base seed of one workload."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    base, full, small = WORKLOADS[name]
    steps, warmup, episodes = small if tiny else full
    train_seed, base_seed = derive_seeds(name, seed)
    doc = copy.deepcopy(base)
    doc.update(seeds=[train_seed], train_steps=steps, warmup=warmup,
               log_interval=max(1, steps // 10))
    doc["eval"]["episodes"] = episodes
    if tiny:
        doc["batch"] = 8
    return doc, base_seed
