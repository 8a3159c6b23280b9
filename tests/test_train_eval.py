# Trainer and evaluation harness behavior: artifacts, byte determinism, the
# disabled-regularizer identity, atomic checkpoints and fail-loud updates.
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

import ernie_lab
import ernie_lab.train as train_mod
from ernie_lab.advreg import AttackConfig, pgd_attack, reg_value_and_grads, stackelberg_grad
from ernie_lab.config import resolve_config
import ernie_lab.evaluate as evaluate_mod
from ernie_lab.envs import PerturbSpec, rollout
from ernie_lab.evaluate import (build_policy, evaluate_checkpoint, evaluate_spec,
                                load_checkpoint, sweep_specs)
from ernie_lab.net import net_forward, net_init, stack_nets
from ernie_lab.train import (DDPG_HEADER, QCOMBO_HEADER, _obs_regularizer, make_env,
                             train_run)


def _ddpg_doc(**over):
    doc = {"algo": "ddpg", "env": "coopnav", "train_steps": 250,
           "warmup": 200, "batch": 8, "hidden": 8,
           "eval": {"obs_noise_sigmas": [0.0, 0.2], "episodes": 2}}
    doc.update(over)
    return doc


def _qcombo_doc(**over):
    doc = {"algo": "qcombo", "env": "gridq", "train_steps": 250,
           "warmup": 200, "batch": 8, "hidden": 8,
           "eval": {"obs_noise_sigmas": [0.0, 0.2], "episodes": 2}}
    doc.update(over)
    return doc


def test_zero_steps_writes_initial_artifacts(tmp_path):
    cfg = resolve_config(_ddpg_doc(train_steps=0))
    res = train_run(cfg, tmp_path)
    run_dir = Path(res[0]["out_dir"])
    metrics = (run_dir / "metrics.csv").read_text().splitlines()
    assert metrics == [DDPG_HEADER]
    ckpt = run_dir / "ckpt_000000"
    assert ckpt.is_dir()
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["step"] == 0 and manifest["algo"] == "ddpg"


def test_run_manifest_names_versions_and_config(tmp_path):
    cfg = resolve_config(_ddpg_doc(train_steps=0))
    run_dir = Path(train_run(cfg, tmp_path)[0]["out_dir"])
    doc = json.loads((run_dir / "run.json").read_text())
    assert doc == {"config_sha256": hashlib.sha256(cfg.to_json().encode()).hexdigest(),
                   "versions": {"ernie-lab": ernie_lab.__version__,
                                "numpy": np.__version__,
                                "python": platform.python_version(),
                                "scipy": scipy.__version__}}
    other = resolve_config(_ddpg_doc(train_steps=0, lr=2e-3))
    doc2 = json.loads((Path(train_run(other, tmp_path / "b")[0]["out_dir"])
                       / "run.json").read_text())
    assert doc2["config_sha256"] != doc["config_sha256"]


def test_metrics_headers():
    assert QCOMBO_HEADER.startswith("step,seed,episodic_return_mean")
    assert "loss_ind" in QCOMBO_HEADER and "loss_critic" in DDPG_HEADER
    assert QCOMBO_HEADER.endswith("attack_norm_mean")


@pytest.mark.parametrize("doc_fn", [_ddpg_doc, _qcombo_doc])
def test_rerun_is_byte_identical(doc_fn, tmp_path):
    cfg = resolve_config(doc_fn())
    a = Path(train_run(cfg, tmp_path / "a")[0]["out_dir"])
    b = Path(train_run(cfg, tmp_path / "b")[0]["out_dir"])
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "run.json").read_bytes() == (b / "run.json").read_bytes()
    for f in sorted(p.name for p in (a / "ckpt_000250").iterdir()):
        if f == "manifest.json":
            continue
        assert (a / "ckpt_000250" / f).read_bytes() == \
            (b / "ckpt_000250" / f).read_bytes()


@pytest.mark.parametrize("doc_fn", [_ddpg_doc, _qcombo_doc])
def test_disabled_regularizer_matches_baseline(doc_fn, tmp_path):
    # lambda=0, epsilon=0, K=0 must leave the update stream untouched
    base = resolve_config(doc_fn())
    off = resolve_config(doc_fn(ernie={"enabled": True, "epsilon": 0.0,
                                       "k_steps": 0, "lambda": 0.0}))
    a = Path(train_run(base, tmp_path / "base")[0]["out_dir"])
    b = Path(train_run(off, tmp_path / "off")[0]["out_dir"])
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_ernie_changes_metrics(tmp_path):
    base = resolve_config(_ddpg_doc())
    reg = resolve_config(_ddpg_doc(ernie={"enabled": True, "epsilon": 0.5,
                                          "k_steps": 1, "lambda": 0.1,
                                          "reg_rows": 4}))
    a = Path(train_run(base, tmp_path / "base")[0]["out_dir"])
    b = Path(train_run(reg, tmp_path / "reg")[0]["out_dir"])
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()


def test_start_frac_delays_regularizer(tmp_path):
    # rows before the start step must match the baseline stream exactly
    base = resolve_config(_ddpg_doc(log_interval=10))
    late = resolve_config(_ddpg_doc(log_interval=10,
                                    ernie={"enabled": True, "epsilon": 0.5,
                                           "k_steps": 1, "lambda": 0.1,
                                           "reg_rows": 4, "start_frac": 0.88}))
    a = Path(train_run(base, tmp_path / "base")[0]["out_dir"])
    b = Path(train_run(late, tmp_path / "late")[0]["out_dir"])
    rows_a = (a / "metrics.csv").read_text().splitlines()
    rows_b = (b / "metrics.csv").read_text().splitlines()
    start = 0.88 * 250
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if int(ra.split(",")[0]) < start:
            assert ra == rb
    assert rows_a != rows_b


def test_sweep_specs_order_and_content():
    cfg = resolve_config(_qcombo_doc(eval={
        "obs_noise_sigmas": [0.5, 0.0, 0.2], "dynamics_scales": [1.0, 0.8],
        "malicious_rates": [0.0, 0.05], "malicious_mode": "adversarial",
        "episodes": 2}))
    specs = sweep_specs(cfg)
    sigmas = [s.obs_noise_sigma for s in specs if s.dynamics_scale == 1.0
              and s.malicious_rate == 0.0]
    assert sigmas == sorted(sigmas)
    assert any(s.dynamics_scale == 0.8 for s in specs)
    assert any(s.malicious_rate == 0.05 and s.malicious_mode == "adversarial"
               for s in specs)


def test_evaluate_outputs_rows_per_spec(tmp_path):
    cfg = resolve_config(_ddpg_doc(train_steps=5, warmup=2, batch=4))
    res = train_run(cfg, tmp_path)
    out = tmp_path / "eval"
    doc = evaluate_checkpoint(cfg, res[0]["final_checkpoint"], out)
    lines = (out / "results.csv").read_text().splitlines()
    n_specs = len(sweep_specs(cfg))
    assert len(lines) == 1 + 2 * n_specs  # header + episodes per spec
    assert len(doc["specs"]) == n_specs
    for row in doc["specs"]:
        assert row["p10"] <= row["p50"] <= row["p90"]
    # repeat evaluation is byte identical
    out2 = tmp_path / "eval2"
    evaluate_checkpoint(cfg, res[0]["final_checkpoint"], out2)
    assert (out / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_checkpoint_round_trip(tmp_path):
    cfg = resolve_config(_qcombo_doc(train_steps=3, warmup=1, batch=4))
    res = train_run(cfg, tmp_path)
    ckpt = load_checkpoint(res[0]["final_checkpoint"])
    assert ckpt["manifest"]["env"] == "gridq"
    assert ckpt["manifest"]["step"] == 3
    assert len(ckpt["nets"]) >= 2


def test_evaluate_env_mismatch_raises(tmp_path):
    cfg = resolve_config(_ddpg_doc(train_steps=2, warmup=1, batch=2))
    res = train_run(cfg, tmp_path)
    other = resolve_config(_qcombo_doc())
    with pytest.raises(ValueError):
        evaluate_checkpoint(other, res[0]["final_checkpoint"], tmp_path / "e")


def test_evaluate_agent_count_mismatch_names_both(tmp_path):
    # a 3-agent coopnav checkpoint under n_agents 2 fails before any rollout
    cfg = resolve_config(_ddpg_doc(train_steps=2, warmup=1, batch=2))
    res = train_run(cfg, tmp_path)
    other = resolve_config(_ddpg_doc(n_agents=2))
    with pytest.raises(ValueError, match="checkpoint has 3 agents, config env 'coopnav' has 2"):
        evaluate_checkpoint(other, res[0]["final_checkpoint"], tmp_path / "e")


def test_evaluate_nonfinite_return_names_spec_episode_and_seed(tmp_path, monkeypatch):
    cfg = resolve_config(_ddpg_doc(train_steps=2, warmup=1, batch=2,
                                   eval={"obs_noise_sigmas": [0.0, 0.2], "episodes": 3}))
    res = train_run(cfg, tmp_path)
    real = evaluate_mod.build_policy

    def poisoned(ckpt):
        act, q = real(ckpt)

        def act_nan(obs):
            a = act(obs)
            a[1] = np.nan  # episode 1 of every spec
            return a
        return act_nan, q

    monkeypatch.setattr(evaluate_mod, "build_policy", poisoned)
    seed = int(np.random.default_rng(np.random.SeedSequence([0, 1])).integers(2 ** 31))
    with pytest.raises(FloatingPointError,
                       match=rf"non-finite return nan in episode 1 \(seed {seed}\) under "
                             r"PerturbSpec\(obs_noise_sigma=0.0,"):
        evaluate_checkpoint(cfg, res[0]["final_checkpoint"], tmp_path / "e")


@pytest.mark.parametrize("doc_fn,spec",
                         [(_ddpg_doc, PerturbSpec(obs_noise_sigma=0.5, dynamics_scale=1.25)),
                          (_qcombo_doc, PerturbSpec(malicious_rate=0.5,
                                                    malicious_mode="adversarial")),
                          (_qcombo_doc, PerturbSpec(obs_noise_sigma=0.5, malicious_rate=0.5,
                                                    malicious_mode="random"))],
                         ids=["ddpg", "qcombo_adversarial", "qcombo_random"])
def test_lockstep_evaluation_matches_lone_episodes(doc_fn, spec, tmp_path):
    # A trained checkpoint's lock-step returns and actions are bit for bit
    # those of each episode run alone and each episode's own (N, d) call.
    cfg = resolve_config(doc_fn(train_steps=20, warmup=10, batch=4))
    ckpt = load_checkpoint(train_run(cfg, tmp_path)[0]["final_checkpoint"])
    env = make_env(cfg)
    act, q_global = build_policy(ckpt)
    rets = evaluate_spec(env, act, spec, 6, base_seed=11, q_global=q_global)
    seeds = [int(np.random.default_rng(np.random.SeedSequence([11, ep])).integers(2 ** 31))
             for ep in range(6)]
    alone = [rollout(env, act, env.episode_len, spec, [s], q_global)[0] for s in seeds]
    assert rets.tobytes() == np.array(alone).tobytes()
    obs = np.random.default_rng(0).uniform(-2.0, 2.0, size=(6, env.n_agents, env.obs_dim))
    assert act(obs).tobytes() == np.stack([act(o[None])[0] for o in obs]).tobytes()


def test_mf_ddpg_runs_and_differs_from_ddpg(tmp_path):
    base = resolve_config(_ddpg_doc())
    mf = resolve_config(_ddpg_doc(algo="mf_ddpg",
                                  meanfield={"enabled": True},
                                  ernie={"enabled": True, "epsilon": 0.5,
                                         "k_steps": 1, "lambda": 0.1,
                                         "reg_rows": 4}))
    a = Path(train_run(base, tmp_path / "ddpg")[0]["out_dir"])
    b = Path(train_run(mf, tmp_path / "mf")[0]["out_dir"])
    assert (b / "metrics.csv").exists()
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()


def test_stackelberg_logs_the_attack_it_differentiates():
    # One PGD draw per call: the logged value and norm come from the delta^K
    # the Stackelberg gradient differentiates through, and the attack stream
    # advances exactly as in plain PGD mode.
    policy = stack_nets([net_init([5, 8, 2], activation="tanh", seed=3)])
    obs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1, 6, 5))
    acfg = AttackConfig(epsilon=0.5, k_steps=2, seed=0)
    logged = {}
    for stackelberg in (False, True):
        rng = np.random.default_rng(4)
        value, norm, _ = _obs_regularizer(policy, obs, acfg, "pgd", rng, stackelberg)
        logged[stackelberg] = (value.tolist(), norm.tolist(), rng.bit_generator.state)
    assert logged[True] == logged[False]


def _obs_regularizer_per_agent(policy, obs, acfg, mode, rng, stackelberg):
    # The per-agent loop that _obs_regularizer's one stacked call replaces.
    values, norms, grads = [], [], []
    for i in range(len(policy)):
        net, rows = policy[i], obs[i]
        if stackelberg:
            gt, delta, vals = stackelberg_grad(net, rows, acfg, rng=rng, return_attack=True)
        else:
            if mode == "gaussian":
                delta = (np.zeros_like(rows) if acfg.epsilon == 0.0
                         else acfg.epsilon * rng.standard_normal(rows.shape))
            else:
                delta = pgd_attack(net, rows, acfg, rng=rng)
            vals, _, gt = reg_value_and_grads(net, rows, delta, acfg.metric)
        values.append(np.mean(vals))
        norms.append(np.mean(np.linalg.norm(delta, axis=-1)))
        grads.append(gt / rows.shape[0])
    return np.array(values), np.array(norms), np.stack(grads)


# name -> (mode, AttackConfig fields beyond epsilon 0.5 and K 2, stackelberg)
_OBS_REG_CASES = {
    "pgd_l2": ("pgd", {}, False),
    "pgd_linf": ("pgd", {"norm": "linf"}, False),
    "gaussian": ("gaussian", {}, False),
    "gaussian_sigma0": ("gaussian", {"epsilon": 0.0}, False),
    "stackelberg_sq_l2": ("pgd", {}, True),
    "stackelberg_kl": ("pgd", {"metric": "kl"}, True),
}


@pytest.mark.parametrize("rows", [1, 32])
@pytest.mark.parametrize("n_agents", [1, 2, 3])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("case", sorted(_OBS_REG_CASES))
def test_obs_regularizer_stack_matches_per_agent_loop(case, activation, n_agents, rows):
    mode, fields, stackelberg = _OBS_REG_CASES[case]
    acfg = AttackConfig(**{"epsilon": 0.5, "k_steps": 2, **fields})
    policy = stack_nets([net_init([6, 8, 2], activation=activation, seed=10 + i, scale=2.0)
                         for i in range(n_agents)])
    # agent-major rows of a (B, N, d) batch, as the trainer passes them
    obs = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, n_agents, 6))
    obs = obs.transpose(1, 0, 2)
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = _obs_regularizer(policy, obs, acfg, mode, got_rng, stackelberg)
    want = _obs_regularizer_per_agent(policy, obs, acfg, mode, want_rng, stackelberg)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_global_q_takes_action_count_from_individual_nets():
    # 2 agents with 3 actions each: the joint one-hot is 6 wide
    state_dim, n, a_count = 4, 2, 3
    nets = {f"ind_{i}": net_init([3, 5, a_count], seed=i) for i in range(n)}
    nets["glob"] = net_init([state_dim + n * a_count, 5, 1], seed=9)
    _, q = build_policy({"manifest": {"algo": "qcombo", "n_agents": n}, "nets": nets})
    state = np.random.default_rng(0).uniform(-1, 1, size=state_dim)
    for joint in [(0, 0), (2, 1), (1, 2)]:
        onehot = np.zeros(n * a_count)
        onehot[[a_count * i + a for i, a in enumerate(joint)]] = 1.0
        want = float(net_forward(nets["glob"], np.concatenate([state, onehot]))[0])
        assert q(state, joint) == want


def test_interrupted_checkpoint_is_not_complete(tmp_path, monkeypatch):
    # save_net fails after the first net: nothing named ckpt_* may appear
    real, calls = train_mod.save_net, []

    def flaky(net, path):
        if calls:
            raise OSError("disk full")
        calls.append(path)
        real(net, path)

    monkeypatch.setattr(train_mod, "save_net", flaky)
    cfg = resolve_config(_ddpg_doc(train_steps=0))
    with pytest.raises(OSError):
        train_run(cfg, tmp_path)
    run_dir = tmp_path / "seed_0"
    assert calls and not list(run_dir.glob("ckpt_*"))
    with pytest.raises(FileNotFoundError):
        load_checkpoint(run_dir / "ckpt_000000")
    # the next save of that step replaces the leftover and completes
    monkeypatch.setattr(train_mod, "save_net", real)
    train_run(cfg, tmp_path)
    assert [p.name for p in run_dir.glob("*ckpt_*")] == ["ckpt_000000"]
    assert load_checkpoint(run_dir / "ckpt_000000")["manifest"]["step"] == 0


@pytest.mark.parametrize("doc_fn,learner,net,index,name",
                         [(_ddpg_doc, "ddpg_updates", "central", 0, "critic"),
                          (_qcombo_doc, "qcombo_losses", "central", 0, "glob"),
                          (_ddpg_doc, "ddpg_updates", "policy", (1, 5), "actor_1"),
                          (_qcombo_doc, "qcombo_losses", "policy", (3, 0), "ind_3")],
                         ids=["ddpg", "qcombo", "ddpg_actor_row", "qcombo_ind_row"])
def test_nonfinite_parameters_fail_loudly(doc_fn, learner, net, index, name, tmp_path,
                                          monkeypatch):
    # A poisoned row of an agent stack is named by its checkpoint name.
    real = getattr(train_mod, learner)

    def poisoned(batch, agents, *args):
        losses, grads = real(batch, agents, *args)
        grads[net][index] = float("nan")
        return losses, grads

    monkeypatch.setattr(train_mod, learner, poisoned)
    cfg = resolve_config(doc_fn(train_steps=5, warmup=3, batch=2, seeds=[4]))
    with pytest.raises(FloatingPointError,
                       match=f"non-finite parameters in {name} after the update "
                             "at step 3, seed 4"):
        train_run(cfg, tmp_path)


def _poison_loss(name):
    def poison(real):
        def poisoned(*args):
            losses, grads = real(*args)
            return dict(losses, **{name: float("inf")}), grads
        return poisoned
    return poison


def _poison_obs_values(real):
    def poisoned(*args):
        values, norms, grads = real(*args)
        return values * np.nan, norms, grads
    return poisoned


@pytest.mark.parametrize("doc_fn,target,poison,column",
                         [(_ddpg_doc, "ddpg_updates", _poison_loss("critic"), "loss_critic"),
                          (_ddpg_doc, "ddpg_updates", _poison_loss("actor_obj"), "actor_obj"),
                          (_qcombo_doc, "qcombo_losses", _poison_loss("glob"), "loss_glob"),
                          (_qcombo_doc, "_obs_regularizer", _poison_obs_values,
                           "reg_value_mean")],
                         ids=["critic", "actor_obj", "glob", "reg_value"])
def test_nonfinite_losses_fail_loudly(doc_fn, target, poison, column, tmp_path,
                                      monkeypatch):
    # The gradients stay finite: the loss check, not the parameter check, fires.
    monkeypatch.setattr(train_mod, target, poison(getattr(train_mod, target)))
    cfg = resolve_config(doc_fn(train_steps=5, warmup=3, batch=2, seeds=[4],
                                ernie={"enabled": True, "reg_rows": 2}))
    with pytest.raises(FloatingPointError,
                       match=f"non-finite {column} in the update at step 3, seed 4"):
        train_run(cfg, tmp_path)
