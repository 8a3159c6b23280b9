# Acceptance suite: one test per criterion, each printing a pass/fail line.
# Criteria 8 and 9 train real policies and dominate the runtime; they spread
# their independent seed runs over up to two worker processes. Everything else
# completes in a couple of minutes.
import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ernie_lab.actionreg import brute_force_action_attack, greedy_action_attack
from ernie_lab.certify import certify_theorem1, certify_theorem2, certify_theorem3
from ernie_lab.config import resolve_config
from ernie_lab.evaluate import evaluate_checkpoint
from ernie_lab.gradcheck import check_stackelberg
from ernie_lab.meanfield import w_distance
from ernie_lab.train import train_run


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'pass' if passed else 'FAIL'} ({detail})")


def test_criterion_1_q_lipschitz_certificate():
    t0 = time.monotonic()
    report = certify_theorem1(n_instances=200, seed=0)
    elapsed = time.monotonic() - t0
    ok = report["passed"] and elapsed <= 120.0
    _report(1, ok, f"max slack {report['max_slack']:.3e} over 200 MDPs, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_softmax_policy_certificate():
    report = certify_theorem2(n_instances=200, seed=0,
                              epsilon_targets=(0.05, 0.1, 0.2))
    ok = report["passed"]
    _report(2, ok, f"value-gap slack {report['max_value_gap_slack']:.3e}, "
            f"Lipschitz slack {report['max_lipschitz_slack']:.3e}")
    assert ok


def test_criterion_3_perturbed_value_certificate():
    report = certify_theorem3(n_instances=50, seed=0, epsilons=(0.05, 0.1))
    ok = report["passed"]
    _report(3, ok, f"max gap-bound slack {report['max_slack']:.3e} "
            f"over 50 instances")
    assert ok


def test_criterion_4_stackelberg_gradient():
    t0 = time.monotonic()
    report = check_stackelberg(n_trials=100, seed=0)
    elapsed = time.monotonic() - t0
    ok = report["passed"] and report["max_rel_err"] < 1e-4 and elapsed <= 60.0
    _report(4, ok, f"max rel err {report['max_rel_err']:.3e} over 100 nets, "
            f"{elapsed:.1f}s")
    assert ok


class _TableQ:
    """A global Q read from a table keyed by joint action, behind the rows
    interface of algos.GlobalQ that training attacks through."""

    def __init__(self, table, n_actions):
        self.table, self.n_actions = table, n_actions

    def rows(self, states, joints):
        return np.array([self.table[tuple(j)] for j in joints.tolist()])


def _attack_one(attack, q, base, k):
    """attack on the single row base (one placeholder state), with the
    result read back as that row's value and evaluation count."""
    res = attack(q, np.zeros((1, 1)), np.array([base]), k)
    return SimpleNamespace(value=float(res.value[0]), evals=res.evals)


def test_criterion_5_action_attack_oracle():
    rng = np.random.default_rng(0)
    ok = True
    worst = ""
    for trial in range(500):
        n = int(rng.integers(2, 5))
        a_count = int(rng.integers(2, 6))
        table = {j: float(rng.standard_normal())
                 for j in itertools.product(range(a_count), repeat=n)}
        q = _TableQ(table, a_count)
        base = tuple(int(x) for x in rng.integers(0, a_count, size=n))
        g1 = _attack_one(greedy_action_attack, q, base, k=1)
        b1 = _attack_one(brute_force_action_attack, q, base, k=1)
        if g1.value != b1.value:
            ok, worst = False, f"K=1 mismatch on trial {trial}"
            break
        if g1.evals > a_count * n * 1:
            ok, worst = False, f"K=1 eval budget exceeded on trial {trial}"
            break
        for k in (2, 3):
            g = _attack_one(greedy_action_attack, q, base, k=k)
            b = _attack_one(brute_force_action_attack, q, base, k=k)
            if g.value > b.value or g.evals > a_count * n * k:
                ok, worst = False, f"K={k} violation on trial {trial}"
                break
        if not ok:
            break
    _report(5, ok, worst or "greedy==brute at K=1, greedy<=brute at K in {2,3}, "
            "eval budget respected, 500 tables")
    assert ok


def test_criterion_6_wasserstein_oracles():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(200):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((n, d))
        if w_distance(a, b, "identity_coupling") < \
                w_distance(a, b, "exact_matching") - 1e-12:
            ok = False
            break
    max_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, 1))
        b = rng.standard_normal((n, 1))
        gap = abs(w_distance(a, b, "closed_form_1d")
                  - w_distance(a, b, "exact_matching"))
        max_gap = max(max_gap, gap)
    ok = ok and max_gap <= 1e-9
    _report(6, ok, f"identity >= exact on 200 clouds, 1-D closed-form gap "
            f"{max_gap:.2e}")
    assert ok


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _train_metrics(doc: dict, seed: int, root: Path) -> bytes:
    cfg = resolve_config({**doc, "seeds": [seed]})
    res = train_run(cfg, root)
    return (Path(res[0]["out_dir"]) / "metrics.csv").read_bytes()


def test_criterion_7_disabled_regularizer_identity(workdir):
    off = {"ernie": {"enabled": True, "epsilon": 0.0, "k_steps": 0,
                     "lambda": 0.0}}
    ok = True
    for algo, env in [("qcombo", "gridq"), ("ddpg", "coopnav")]:
        doc = {"algo": algo, "env": env, "train_steps": 300, "warmup": 200,
               "batch": 16, "hidden": 16}
        for seed in (0, 1, 2):
            base = _train_metrics(doc, seed, workdir / f"c7_{algo}_base_{seed}")
            reg = _train_metrics({**doc, **off}, seed,
                                 workdir / f"c7_{algo}_reg_{seed}")
            if base != reg:
                ok = False
    _report(7, ok, "lambda=0/eps=0/K=0 metrics byte-identical to baseline, "
            "3 seeds, both algorithms")
    assert ok


def _robustness_run(doc: dict, seed: int, root: Path) -> dict:
    cfg = resolve_config({**doc, "seeds": [seed]})
    res = train_run(cfg, root)
    out = evaluate_checkpoint(cfg, res[0]["final_checkpoint"],
                              Path(res[0]["out_dir"]) / "eval")
    return {(s["spec"]["obs_noise_sigma"], s["spec"]["malicious_rate"]):
            s["mean"] for s in out["specs"]}


def _robustness_runs(jobs: list) -> list:
    """_robustness_run over (doc, seed, root) jobs, two at a time where two
    CPUs are available, results in job order.

    Each run is seeded on its own and writes only under its root, so the
    results do not depend on which worker ran it.
    """
    workers = min(2, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_robustness_run, *zip(*jobs)))


@pytest.mark.slow
def test_criterion_8_observation_noise_robustness(workdir):
    t0 = time.monotonic()
    seeds = [0, 1, 2, 3, 4]
    doc = {"algo": "ddpg", "env": "coopnav", "train_steps": 20000,
           "eval": {"obs_noise_sigmas": [0.0, 0.5, 1.0], "episodes": 100}}
    ernie = {"ernie": {"enabled": True, "epsilon": 3.0, "k_steps": 2,
                       "lambda": 10.0, "reg_rows": 32, "start_frac": 0.5}}
    runs = _robustness_runs(
        [({**doc, **ernie}, seed, workdir / f"c8_ernie_{seed}") for seed in seeds]
        + [(doc, seed, workdir / f"c8_base_{seed}") for seed in seeds])
    reg, base = dict(zip(seeds, runs[:5])), dict(zip(seeds, runs[5:]))
    elapsed = time.monotonic() - t0
    means = {}
    for sigma in (0.5, 1.0):
        means[sigma] = (np.mean([reg[s][(sigma, 0.0)] for s in seeds]),
                        np.mean([base[s][(sigma, 0.0)] for s in seeds]))
    mean_ok = all(r >= b for r, b in means.values())
    slope_wins = sum(
        (reg[s][(0.0, 0.0)] - reg[s][(1.0, 0.0)])
        < (base[s][(0.0, 0.0)] - base[s][(1.0, 0.0)]) for s in seeds)
    ok = mean_ok and slope_wins >= 4 and elapsed <= 45 * 60
    _report(8, ok, "ERNIE vs baseline at sigma 0.5: "
            f"{means[0.5][0]:.1f} vs {means[0.5][1]:.1f}, sigma 1.0: "
            f"{means[1.0][0]:.1f} vs {means[1.0][1]:.1f}, slope wins "
            f"{slope_wins}/5, {elapsed / 60:.1f} min")
    assert ok


@pytest.mark.slow
def test_criterion_9_malicious_action_robustness(workdir):
    t0 = time.monotonic()
    seeds = [0, 1, 2, 3, 4]
    doc = {"algo": "qcombo", "env": "gridq", "train_steps": 12000,
           "eval": {"obs_noise_sigmas": [0.0], "malicious_rates": [0.03, 0.05],
                    "malicious_mode": "adversarial", "episodes": 100}}
    ernie_a = {"ernie_a": {"enabled": True, "k": 1, "lambda": 0.01, "rows": 4}}
    runs = _robustness_runs(
        [({**doc, **ernie_a}, seed, workdir / f"c9_ernie_a_{seed}") for seed in seeds]
        + [(doc, seed, workdir / f"c9_base_{seed}") for seed in seeds])
    wins = {0.03: 0, 0.05: 0}
    for reg, base in zip(runs[:5], runs[5:]):
        for rate in (0.03, 0.05):
            wins[rate] += reg[(0.0, rate)] >= base[(0.0, rate)]
    elapsed = time.monotonic() - t0
    ok = wins[0.03] >= 4 and wins[0.05] >= 4 and elapsed <= 30 * 60
    _report(9, ok, f"ERNIE-A wins {wins[0.03]}/5 at rate 0.03, "
            f"{wins[0.05]}/5 at rate 0.05, {elapsed / 60:.1f} min")
    assert ok


def test_criterion_10_gaussian_sigma_zero_sanity(workdir):
    doc = {"algo": "qcombo", "env": "gridq", "train_steps": 100, "warmup": 50,
           "batch": 16, "hidden": 16, "log_interval": 10}
    gauss = {"ernie": {"enabled": True, "mode": "gaussian", "epsilon": 1e-12,
                       "lambda": 0.1}}
    base = _train_metrics(doc, 0, workdir / "c10_base").decode().splitlines()
    reg = _train_metrics({**doc, **gauss}, 0, workdir / "c10_gauss") \
        .decode().splitlines()
    header = base[0].split(",")
    loss_cols = [i for i, name in enumerate(header) if name.startswith("loss_")]
    b_row = next(r.split(",") for r in base if r.startswith("100,"))
    g_row = next(r.split(",") for r in reg if r.startswith("100,"))
    max_diff = max(abs(float(b_row[i]) - float(g_row[i])) for i in loss_cols)
    ok = max_diff <= 1e-9
    _report(10, ok, f"max loss difference at step 100: {max_diff:.2e}")
    assert ok
