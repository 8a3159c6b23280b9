# Trainer and evaluation harness behavior: artifacts, byte determinism, the
# disabled-regularizer identity, atomic checkpoints and fail-loud updates.
import dataclasses
import hashlib
import json
import platform
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import ernie_lab
import ernie_lab.train as train_mod
from ernie_lab.cli import EXIT_CONFIG, EXIT_OK, main as cli_main
from ernie_lab.advreg import AttackConfig, pgd_attack, reg_value_and_grads, stackelberg_grad
from ernie_lab.algos import (NET_NAMES, Agents, select_action_continuous, select_action_discrete,
                             trainable)
from ernie_lab.config import config_json, resolve_config
import ernie_lab.evaluate as evaluate_mod
from ernie_lab.envs import PerturbSpec, make_env, rollout
from ernie_lab.evaluate import (build_policy, evaluate_checkpoint, evaluate_specs,
                                load_checkpoint, sweep_specs)
from ernie_lab.net import net_forward, net_init, net_vjp, stack_nets
from ernie_lab.train import DDPG_HEADER, QCOMBO_HEADER, _obs_regularizer, train_run


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


# The two combined-regularizer configs: an observation attack on the policy
# stack plus a regularizer on the central net.
def _qcombo_ernie_a_doc(**over):
    return _qcombo_doc(ernie={"enabled": True, "metric": "kl", "reg_rows": 4},
                       ernie_a={"enabled": True, "rows": 4}, **over)


def _mf_ddpg_cloud_doc(**over):
    return _ddpg_doc(algo="mf_ddpg", ernie={"enabled": True, "reg_rows": 4},
                     meanfield={"enabled": True}, **over)


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
    assert doc == {"config_sha256": hashlib.sha256(config_json(cfg).encode()).hexdigest(),
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


@pytest.mark.parametrize("doc_fn", [_ddpg_doc, _qcombo_doc, _qcombo_ernie_a_doc,
                                    _mf_ddpg_cloud_doc])
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


def test_every_spec_field_is_in_both_outputs(tmp_path):
    # results.csv's spec columns and each summary.json "spec" hold every
    # PerturbSpec field in field order: floats as their repr, the mode as
    # an unquoted string.
    cfg = resolve_config(_qcombo_doc(train_steps=3, warmup=1, batch=2, eval={
        "obs_noise_sigmas": [0.2], "dynamics_scales": [0.8], "malicious_rates": [0.5],
        "malicious_mode": "adversarial", "episodes": 1}))
    out = tmp_path / "e"
    evaluate_checkpoint(cfg, train_run(cfg, tmp_path)[0]["final_checkpoint"], out)
    names = [f.name for f in dataclasses.fields(PerturbSpec)]
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()]
    assert rows[0] == names + ["episode", "episodic_return"]
    assert [row[:len(names)] for row in rows[1:]] == [
        ["0.2", "1.0", "0.0", "random"], ["0.0", "0.8", "0.0", "random"],
        ["0.0", "1.0", "0.5", "adversarial"]]
    summary = json.loads((out / "summary.json").read_text())
    assert [entry["spec"] for entry in summary["specs"]] == \
        [dataclasses.asdict(spec) for spec in sweep_specs(cfg)]
    assert all(list(entry["spec"]) == names for entry in summary["specs"])


def test_checkpoint_round_trip(tmp_path):
    cfg = resolve_config(_qcombo_doc(train_steps=3, warmup=1, batch=4))
    res = train_run(cfg, tmp_path)
    ckpt = load_checkpoint(res[0]["final_checkpoint"])
    assert ckpt["manifest"]["env"] == "gridq"
    assert ckpt["manifest"]["step"] == 3
    assert len(ckpt["nets"]) >= 2


def test_final_checkpoint_written_off_the_cadence(tmp_path):
    # Checkpoints come every steps // 10 steps and at the last step, so a
    # run whose step count is no multiple of the interval still writes the
    # final checkpoint it names, and evaluate reads it.
    doc = _ddpg_doc(train_steps=25, warmup=5, batch=4,
                    eval={"obs_noise_sigmas": [0.0], "episodes": 1})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    res = train_run(resolve_config(doc), tmp_path / "run")[0]
    assert res["final_checkpoint"].endswith("ckpt_000025")
    assert sorted(p.name for p in Path(res["out_dir"]).glob("ckpt_*")) == \
        [f"ckpt_{t:06d}" for t in (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 25)]
    assert load_checkpoint(res["final_checkpoint"])["manifest"]["step"] == 25
    assert cli_main(["evaluate", "--config", str(cfg_path), "--checkpoint",
                     res["final_checkpoint"], "--out", str(tmp_path / "e")]) == EXIT_OK


@pytest.mark.parametrize("doc_fn,names", [(_ddpg_doc, ("actor", "critic")),
                                           (_qcombo_doc, ("ind", "glob"))],
                         ids=["ddpg", "qcombo"])
def test_checkpoint_holds_the_trained_stacks(doc_fn, names, tmp_path, monkeypatch):
    # Each checkpoint writes the policy agent stack as one (N, P) block and
    # the central net as one vector, bit for bit the nets training holds.
    real, updated = train_mod.apply_grad, {}

    def recorded(net, buf, grad, lr):
        real(net, buf, grad, lr)
        updated[net.stacked] = trainable(net)[0]  # a copy of the updated net

    monkeypatch.setattr(train_mod, "apply_grad", recorded)
    cfg = resolve_config(doc_fn(train_steps=4, warmup=2, batch=2))
    run_dir = Path(train_run(cfg, tmp_path)[0]["out_dir"])
    ckpts = sorted(run_dir.glob("ckpt_*"))
    assert [p.name for p in ckpts] == [f"ckpt_{t:06d}" for t in range(5)]
    for ck in ckpts:
        assert sorted(p.name for p in ck.iterdir()) == sorted(
            ["manifest.json", f"{names[0]}.npy", f"{names[1]}.npy"])
    manifest = json.loads((ckpts[-1] / "manifest.json").read_text())
    assert sorted(manifest) == ["algo", "env", "nets", "seed", "step"]
    env = make_env(cfg)
    for name, net in zip(names, (updated[True], updated[False])):
        saved = np.load(ckpts[-1] / f"{name}.npy", allow_pickle=False)
        assert saved.shape == net.theta.shape and saved.tobytes() == net.theta.tobytes()
    assert updated[True].theta.shape[0] == env.n_agents
    loaded = load_checkpoint(ckpts[-1])["nets"]
    assert loaded[names[0]].stacked and not loaded[names[1]].stacked
    assert loaded[names[0]].theta.tobytes() == updated[True].theta.tobytes()


@pytest.mark.parametrize("doc_fn", [_ddpg_doc, _qcombo_doc], ids=["ddpg", "qcombo"])
def test_each_net_owns_its_parameter_buffer(doc_fn):
    # Each of the four nets is a read-only view of its own writable buffer;
    # no two share memory, so an in-place update of one moves no other.
    cfg = resolve_config(doc_fn())
    agents, bufs = train_mod.build_agents(cfg, make_env(cfg), 3)
    fields = [f.name for f in dataclasses.fields(Agents)]
    assert sorted(bufs) == sorted(fields)
    nets = [getattr(agents, f) for f in fields]
    for i, net in enumerate(nets):
        assert not net.theta.flags.writeable and bufs[fields[i]].flags.writeable
        assert net.theta.base is bufs[fields[i]]
        for other in nets[i + 1:]:
            assert not np.shares_memory(net.theta, other.theta)
    assert agents.policy_target.theta.tobytes() == agents.policy.theta.tobytes()
    assert agents.central_target.theta.tobytes() == agents.central.theta.tobytes()


@pytest.mark.parametrize("doc_fn", [_ddpg_doc, _qcombo_doc], ids=["ddpg", "qcombo"])
def test_one_trained_step_updates_the_buffers_in_place(doc_fn, tmp_path, monkeypatch):
    # One update step: each net, copied before its SGD step or soft update,
    # becomes theta - lr * g or (1 - tau) * t + tau * o byte for byte.
    real_sgd, real_soft, calls = train_mod.apply_grad, train_mod.soft_update, []

    def sgd(net, buf, grad, lr):
        before = net.theta.copy()
        real_sgd(net, buf, grad, lr)
        calls.append(("sgd", net, before, grad.copy(), lr))

    def soft(target, buf, online, tau):
        before = target.theta.copy()
        real_soft(target, buf, online, tau)
        calls.append(("soft", target, before, online.theta.copy(), tau))

    monkeypatch.setattr(train_mod, "apply_grad", sgd)
    monkeypatch.setattr(train_mod, "soft_update", soft)
    train_run(resolve_config(doc_fn(train_steps=2, warmup=2, batch=2)), tmp_path)
    assert [c[0] for c in calls] == ["sgd", "sgd", "soft", "soft"]
    for kind, net, before, other, x in calls:
        want = before - x * other if kind == "sgd" else (1.0 - x) * before + x * other
        assert net.theta.tobytes() == want.tobytes()
        assert net.theta.tobytes() != before.tobytes()


def test_checkpoint_row_count_and_old_layout_rejected(tmp_path, capsys):
    cfg_doc = _ddpg_doc(train_steps=2, warmup=1, batch=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    ck = Path(train_run(resolve_config(cfg_doc), tmp_path / "run")[0]["final_checkpoint"])
    # a policy block whose row count is not the env's agent count
    short = tmp_path / "short"
    shutil.copytree(ck, short)
    np.save(short / "actor.npy", np.load(ck / "actor.npy")[:2])
    with pytest.raises(ValueError, match="checkpoint has 2 agents, config env 'coopnav' has 3"):
        evaluate_checkpoint(resolve_config(cfg_doc), short, tmp_path / "e")
    # the per-agent layout: one actor_<i>.npy per row, n_agents in the manifest
    old = tmp_path / "old"
    old.mkdir()
    manifest = json.loads((ck / "manifest.json").read_text())
    entry = manifest["nets"].pop("actor")
    for i, row in enumerate(np.load(ck / "actor.npy")):
        np.save(old / f"actor_{i}.npy", row)
        manifest["nets"][f"actor_{i}"] = dict(entry, file=f"actor_{i}.npy")
    shutil.copy(ck / "critic.npy", old / "critic.npy")
    (old / "manifest.json").write_text(json.dumps(dict(manifest, n_agents=3, hidden=8)))
    with pytest.raises(ValueError, match="no 'actor' net"):
        load_checkpoint(old)
    capsys.readouterr()
    assert cli_main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(old),
                     "--out", str(tmp_path / "e")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "no 'actor' net" in err and "Traceback" not in err
    # a central net saved as a block is not a checkpoint either
    np.save(short / "actor.npy", np.load(ck / "actor.npy"))
    np.save(short / "critic.npy", np.load(ck / "critic.npy")[None, :])
    with pytest.raises(ValueError, match="'critic' is not a"):
        load_checkpoint(short)


@pytest.mark.parametrize("algo", ["foo", None, ["ddpg"]], ids=["unknown", "missing", "list"])
def test_checkpoint_with_unknown_algo_rejected(algo, tmp_path, capsys):
    cfg_doc = _ddpg_doc(train_steps=2, warmup=1, batch=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    ck = Path(train_run(resolve_config(cfg_doc), tmp_path / "run")[0]["final_checkpoint"])
    manifest = json.loads((ck / "manifest.json").read_text())
    if algo is None:
        del manifest["algo"]
    else:
        manifest["algo"] = algo
    (ck / "manifest.json").write_text(json.dumps(manifest))
    msg = f"checkpoint algo {algo!r} is not one of ['ddpg', 'mf_ddpg', 'qcombo']"
    with pytest.raises(ValueError, match=re.escape(msg)):
        load_checkpoint(ck)
    capsys.readouterr()
    assert cli_main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(ck),
                     "--out", str(tmp_path / "e")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert msg in err and "Traceback" not in err


@pytest.mark.parametrize("drop", ["env", "nets", "file", "layer_dims", "activation", None,
                                  "nets_list", "truncated", "file_int", "layer_dims_int",
                                  "activation_list", "layer_dims_short", "file_abs",
                                  "file_up", "file_sub"],
                         ids=["env", "nets", "file", "layer_dims", "activation", "not_object",
                              "nets_not_object", "truncated", "file_not_string",
                              "layer_dims_not_list", "activation_not_a_name",
                              "layer_dims_one_width", "file_absolute", "file_in_parent_dir",
                              "file_in_subdir"])
def test_checkpoint_with_malformed_manifest_rejected(drop, tmp_path, capsys):
    # A manifest that is not JSON, not a JSON object, that lacks a key the
    # loader reads or gives one a value of the wrong type, or names a net
    # file outside the checkpoint directory, is a bad checkpoint (exit 2),
    # not a crash (exit 1) or an I/O error (exit 4), and the message names
    # the checkpoint, and the net when one is bad.
    cfg_doc = _ddpg_doc(train_steps=2, warmup=1, batch=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    ck = Path(train_run(resolve_config(cfg_doc), tmp_path / "run")[0]["final_checkpoint"])
    text = (ck / "manifest.json").read_text()
    manifest, where = json.loads(text), f"{ck}: "
    if drop == "truncated":
        where, msg = f"{ck / 'manifest.json'}: ", "not valid JSON: Expecting"
    elif drop is None:
        manifest, msg = [manifest], "manifest.json is not a JSON object"
    elif drop == "nets_list":
        manifest["nets"] = list(manifest["nets"].values())
        msg = "manifest 'nets' is not a JSON object"
    elif drop == "file_int":
        manifest["nets"]["actor"]["file"] = 5
        msg = "manifest net 'actor' 'file' is not a string: 5"
    elif drop == "layer_dims_int":
        manifest["nets"]["actor"]["layer_dims"] = 5
        msg = "manifest net 'actor' 'layer_dims' is not a list of integers: 5"
    elif drop == "activation_list":
        manifest["nets"]["actor"]["activation"] = ["relu"]
        msg = "manifest net 'actor': checkpoint activation must be one of"
    elif drop == "layer_dims_short":
        manifest["nets"]["actor"]["layer_dims"] = [14]
        msg = "manifest net 'actor': layer_dims needs at least an input and an output width"
    elif drop.startswith("file_"):
        # a valid copy of the actor's weights sits where the entry points
        name = {"file_abs": str(tmp_path / "elsewhere" / "stolen.npy"),
                "file_up": "../stolen.npy", "file_sub": "sub/x.npy"}[drop]
        (ck / name).parent.mkdir(exist_ok=True)
        shutil.copyfile(ck / manifest["nets"]["actor"]["file"], ck / name)
        manifest["nets"]["actor"]["file"] = name
        msg = f"manifest net 'actor' 'file' is not a file name in the checkpoint: {name!r}"
    elif drop in manifest:
        del manifest[drop]
        msg = f"manifest.json has no {drop!r} key"
    else:
        del manifest["nets"]["actor"][drop]
        msg = f"manifest net 'actor' has no {drop!r} key"
    (ck / "manifest.json").write_text(text[:len(text) // 2] if drop == "truncated"
                                      else json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(where + msg)):
        load_checkpoint(ck)
    capsys.readouterr()
    out = tmp_path / "e"
    assert cli_main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(ck),
                     "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert where + msg in err and "Traceback" not in err
    assert not out.exists()


def test_failed_evaluation_leaves_no_output_directory(tmp_path, capsys):
    # The checkpoint's env and agent count are checked before evaluate
    # writes anything.
    ck = train_run(resolve_config(_ddpg_doc(train_steps=2, warmup=1, batch=2)),
                   tmp_path / "run")[0]["final_checkpoint"]
    out = tmp_path / "e"
    for doc, msg in ((_qcombo_doc(), "checkpoint env 'coopnav' does not match config env 'gridq'"),
                     (_ddpg_doc(n_agents=2), "checkpoint has 3 agents, config env 'coopnav' has 2")):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(ck),
                         "--out", str(out)]) == EXIT_CONFIG
        assert msg in capsys.readouterr().err
        assert not out.exists()


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
        act = real(ckpt)

        def act_nan(obs):
            a = act(obs)
            a[1] = np.nan  # episode 1 of the first spec
            return a
        return act_nan

    monkeypatch.setattr(evaluate_mod, "build_policy", poisoned)
    seed = int(np.random.default_rng(np.random.SeedSequence([0, 1])).integers(2 ** 31))
    with pytest.raises(FloatingPointError,
                       match=rf"non-finite return nan in episode 1 \(seed {seed}\) under "
                             r"PerturbSpec\(obs_noise_sigma=0.0,"):
        evaluate_checkpoint(cfg, res[0]["final_checkpoint"], tmp_path / "e")
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("doc_fn,spec",
                         [(_ddpg_doc, PerturbSpec(obs_noise_sigma=0.5, dynamics_scale=1.25)),
                          (_qcombo_doc, PerturbSpec(malicious_rate=0.5,
                                                    malicious_mode="adversarial")),
                          (_qcombo_doc, PerturbSpec(obs_noise_sigma=0.5, malicious_rate=0.5,
                                                    malicious_mode="random"))],
                         ids=["ddpg", "qcombo_adversarial", "qcombo_random"])
def test_lockstep_evaluation_matches_lone_episodes(doc_fn, spec, tmp_path):
    # A trained checkpoint's lock-step returns and actions are bit for bit
    # those of each episode run alone and of each episode's own (N, d) call
    # of training's action head at zero exploration.
    cfg = resolve_config(doc_fn(train_steps=20, warmup=10, batch=4))
    ckpt = load_checkpoint(train_run(cfg, tmp_path)[0]["final_checkpoint"])
    env = make_env(cfg)
    act = build_policy(ckpt)
    rets = evaluate_specs(env, act, [spec], 6, [11])[0]
    seeds = [int(np.random.default_rng(np.random.SeedSequence([11, ep])).integers(2 ** 31))
             for ep in range(6)]
    alone = [rollout(env, act, env.episode_len, [spec], [s])[0] for s in seeds]
    assert rets.tobytes() == np.array(alone).tobytes()
    obs = np.random.default_rng(0).uniform(-2.0, 2.0, size=(6, env.n_agents, env.obs_dim))
    policy = ckpt["nets"][NET_NAMES[cfg["algo"]][0]]
    if cfg["algo"] == "qcombo":
        one = [select_action_discrete(policy, o, 0.0, None) for o in obs]
    else:
        one = [select_action_continuous(policy, o, 0.0, None) for o in obs]
    assert act(obs).tobytes() == np.stack(one).tobytes()


_SWEEP = [PerturbSpec(), PerturbSpec(obs_noise_sigma=0.5), PerturbSpec(dynamics_scale=0.8),
          PerturbSpec(dynamics_scale=1.25)]


@pytest.mark.parametrize("doc_fn,specs",
                         [(_qcombo_doc, _SWEEP + [
                             PerturbSpec(malicious_rate=0.5, malicious_mode="adversarial"),
                             PerturbSpec(malicious_rate=0.5, malicious_mode="random")]),
                          (_ddpg_doc, _SWEEP)],
                         ids=["qcombo", "ddpg"])
def test_sweep_rollout_matches_each_spec_and_lone_episodes(doc_fn, specs, tmp_path):
    # One lock-step rollout over the whole sweep returns, bit for bit, each
    # spec's own rollout and each episode run alone, with one policy call
    # per lock-step; specs given the same base seed run the same episode
    # seeds.
    cfg = resolve_config(doc_fn(train_steps=20, warmup=10, batch=4))
    ckpt = load_checkpoint(train_run(cfg, tmp_path)[0]["final_checkpoint"])
    env = make_env(cfg)
    act = build_policy(ckpt)
    steps, resets = [], []
    reset = env.reset

    def act_logged(obs):
        steps.append(obs.shape)
        return act(obs)

    def reset_logged(seed):
        resets.append(seed)
        return reset(seed)

    env.reset = reset_logged
    episodes = 4
    rets = evaluate_specs(env, act_logged, specs, episodes, [11] * len(specs))
    assert rets.shape == (len(specs), episodes)
    assert steps == [(len(specs) * episodes, env.n_agents, env.obs_dim)] * env.episode_len
    seeds = [int(np.random.default_rng(np.random.SeedSequence([11, ep])).integers(2 ** 31))
             for ep in range(episodes)]
    assert resets == seeds * len(specs)
    for spec, got in zip(specs, rets):
        own = rollout(env, act, env.episode_len, [spec] * episodes, seeds)
        alone = [rollout(env, act, env.episode_len, [spec], [s])[0] for s in seeds]
        assert got.tobytes() == own.tobytes() == np.array(alone).tobytes(), spec
    # every spec perturbs something, so no spec's returns stand in for another's
    assert len({r.tobytes() for r in rets}) == len(specs)
    with pytest.raises(ValueError, match="one spec per episode seed"):
        rollout(env, act, env.episode_len, specs, seeds[:len(specs) - 1])


_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, -113.5, 2.5])


@settings(max_examples=300, deadline=None)
@given(x=st.integers(1, 200).flatmap(lambda n: st.lists(
           st.one_of(_TIES, st.floats(allow_nan=False, allow_infinity=False)),
           min_size=n, max_size=n)),
       q=st.sampled_from([10, 50, 90]))
def test_percentile_matches_numpy_bit_for_bit(x, q):
    # Signed zeros and ties make the partition order matter: the value at a
    # kth index is numpy's only if the partition is numpy's own.
    x = np.array(x)
    before = x.copy()
    want = np.percentile(x, q)
    got = evaluate_mod._percentile(x, q)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)
    assert x.tobytes() == before.tobytes()  # the partition works on a copy


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
    acfg = AttackConfig(epsilon=0.5, k_steps=2)
    logged = {}
    for stackelberg in (False, True):
        rng = np.random.default_rng(4)
        value, norm, _ = _obs_regularizer(policy, obs, acfg, "pgd", rng, stackelberg)
        logged[stackelberg] = (value.tolist(), norm.tolist(), rng.bit_generator.state)
    assert logged[True] == logged[False]


def _obs_regularizer_per_agent(policy, obs, acfg, mode, rng, stackelberg):
    # The per-agent loop that _obs_regularizer's one stacked call replaces.
    values, norms, grads = [], [], []
    for i in range(policy.theta.shape[0]):
        net, rows = policy[i], obs[i]
        clean = net_vjp(net, rows)
        if stackelberg:
            gt, delta, vals = stackelberg_grad(net, rows, acfg, rng, clean)
        else:
            if mode == "gaussian":
                delta = (np.zeros_like(rows) if acfg.epsilon == 0.0
                         else acfg.epsilon * rng.standard_normal(rows.shape))
            else:
                delta = pgd_attack(net, rows, acfg, rng, clean)
            vals, _, gt = reg_value_and_grads(net, rows, delta, acfg.metric, clean)
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


def test_action_regularizer_takes_action_count_from_individual_nets():
    # 2 agents with 3 actions each: the joint one-hot is 6 wide, and the
    # attack on each row picks the worst of its 2 * 2 single-agent flips
    state_dim, n, a_count = 4, 2, 3
    ind = stack_nets([net_init([3, 5, a_count], seed=i) for i in range(n)])
    glob = net_init([state_dim + n * a_count, 5, 1], seed=9)
    rng = np.random.default_rng(0)
    batch = {"state": rng.uniform(-1, 1, size=(3, state_dim)),
             "actions": np.array([[0, 0], [2, 1], [1, 2]])}

    def q(state, joint):
        onehot = np.zeros(n * a_count)
        onehot[[a_count * i + a for i, a in enumerate(joint)]] = 1.0
        return float(net_forward(glob, np.concatenate([state, onehot]))[0])

    want = []
    for state, joint in zip(batch["state"], batch["actions"].tolist()):
        flips = [joint[:i] + [a] + joint[i + 1:]
                 for i in range(n) for a in range(a_count) if a != joint[i]]
        assert len(flips) == n * (a_count - 1)
        want.append(max((q(state, joint) - q(state, f)) ** 2 for f in flips))
    value, grad, hits = train_mod._action_regularizer_grad(Agents(ind, glob, ind, glob),
                                                           batch, 1, 3)
    assert hits == 3 and grad.shape == glob.theta.shape
    assert value == pytest.approx(np.mean(want), rel=1e-12)


_REGULARIZERS = ("_obs_regularizer", "_action_regularizer_grad", "_cloud_regularizer_grad")


@pytest.mark.parametrize("doc_fn,update,central",
                         [(_qcombo_ernie_a_doc, "qcombo_losses", "_action_regularizer_grad"),
                          (_mf_ddpg_cloud_doc, "ddpg_updates", "_cloud_regularizer_grad")],
                         ids=["qcombo_ernie_a", "mf_ddpg_cloud"])
def test_regularizers_run_in_order_and_share_reg_value(doc_fn, update, central, tmp_path,
                                                       monkeypatch):
    # Each update runs the observation regularizer, then the central one, and
    # logs the sum of their values as reg_value_mean.
    calls = []

    def record(name):
        real = getattr(train_mod, name)

        def wrapped(*args):
            out = real(*args)
            calls[-1].append((name, out[0]))
            return out
        return wrapped

    real_update = getattr(train_mod, update)

    def marked(*args):
        calls.append([])
        return real_update(*args)

    for name in _REGULARIZERS:
        monkeypatch.setattr(train_mod, name, record(name))
    monkeypatch.setattr(train_mod, update, marked)
    run_dir = Path(train_run(resolve_config(doc_fn(train_steps=210, log_interval=1)),
                             tmp_path)[0]["out_dir"])
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    col = lines[0].split(",").index("reg_value_mean")
    logged = [float(line.split(",")[col]) for line in lines[200:]]
    assert len(calls) == len(logged) == 11
    for step_calls, value in zip(calls, logged):
        assert [name for name, _ in step_calls] == ["_obs_regularizer", central]
        (_, obs_vals), (_, central_value) = step_calls
        assert value == float(np.mean(obs_vals)) + central_value
    assert any(central_value > 0 for _, (_, central_value) in calls)


def test_zero_hit_action_regularizer_adds_no_gradient(tmp_path, monkeypatch):
    # With no flipped row, the NaN gradient must never reach the global Q:
    # the run stays finite and logs what a run without ERNIE-A logs.
    def no_hits(agents, batch, k, rows):
        return 0.0, np.full(agents.central.theta.shape, np.nan), 0

    base = resolve_config(_qcombo_doc(ernie={"enabled": True, "metric": "kl",
                                             "reg_rows": 4}))
    a = Path(train_run(base, tmp_path / "base")[0]["out_dir"])
    monkeypatch.setattr(train_mod, "_action_regularizer_grad", no_hits)
    b = Path(train_run(resolve_config(_qcombo_ernie_a_doc()), tmp_path / "none")[0]["out_dir"])
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert all(np.isfinite(net.theta).all()
               for net in load_checkpoint(b / "ckpt_000250")["nets"].values())


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


@pytest.mark.parametrize("target,message", [("pgd_attack", "non-finite attack gradient"),
                                            ("stackelberg_grad", "non-finite leader gradient")])
def test_failed_attack_names_step_and_seed(target, message, tmp_path, monkeypatch):
    # The observation attack's own non-finite check fires before the loss
    # check can; the trainer re-raises it with the step and seed.
    def failing(*args, **kwargs):
        raise FloatingPointError(message)

    monkeypatch.setattr(train_mod, target, failing)
    cfg = resolve_config(_ddpg_doc(train_steps=5, warmup=3, batch=2, seeds=[4],
                                   ernie={"enabled": True, "reg_rows": 2,
                                          "stackelberg": target == "stackelberg_grad"}))
    with pytest.raises(FloatingPointError, match=f"{message} in the update at step 3, seed 4"):
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
