# Config resolution rules and the command-line entry points.
import hashlib
import json
from dataclasses import fields

import pytest

from ernie_lab.advreg import AttackConfig
from ernie_lab.cli import EXIT_CONFIG, EXIT_OK, _out_dir, main
from ernie_lab.config import (
    DEFAULTS,
    RULES,
    ConfigError,
    config_json,
    echo_config,
    load_config,
    resolve_config,
)
from ernie_lab.envs import PerturbSpec
from ernie_lab.evaluate import evaluate_checkpoint, sweep_specs
from ernie_lab.train import train_run


def test_empty_doc_resolves_to_defaults():
    cfg = resolve_config({})
    assert cfg["algo"] == "qcombo"
    assert cfg["env"] == "gridq"
    assert cfg["n_agents"] == 4
    assert cfg["seeds"] == [0]
    assert cfg["ernie"]["enabled"] is False
    assert cfg["gamma"] == 0.95


def test_coopnav_default_agents():
    cfg = resolve_config({"algo": "ddpg", "env": "coopnav"})
    assert cfg["n_agents"] == 3


def test_algo_env_compatibility():
    with pytest.raises(ConfigError):
        resolve_config({"algo": "qcombo", "env": "coopnav"})
    with pytest.raises(ConfigError):
        resolve_config({"algo": "ddpg", "env": "gridq"})
    with pytest.raises(ConfigError):
        resolve_config({"algo": "mf_ddpg", "env": "gridq"})


def test_ernie_a_requires_gridq():
    with pytest.raises(ConfigError):
        resolve_config({"algo": "ddpg", "env": "coopnav",
                        "ernie_a": {"enabled": True}})
    cfg = resolve_config({"ernie_a": {"enabled": True}})
    assert cfg["ernie_a"]["enabled"] is True


def test_ernie_a_k_above_agent_count_rejected():
    # the greedy attack flips each agent at most once, so k > n_agents
    # would be cut to n_agents without a word
    with pytest.raises(ConfigError, match="ernie_a.k 5 exceeds n_agents 4"):
        resolve_config({"ernie_a": {"enabled": True, "k": 5}})
    with pytest.raises(ConfigError, match="ernie_a.k 2 exceeds n_agents 1"):
        resolve_config({"n_agents": 1, "ernie_a": {"enabled": True, "k": 2}})
    assert resolve_config({"ernie_a": {"enabled": True, "k": 4}})["ernie_a"]["k"] == 4


@pytest.mark.parametrize("algo", ["ddpg", "mf_ddpg"])
@pytest.mark.parametrize("mode", ["random", "adversarial"])
def test_malicious_rates_require_gridq(algo, mode):
    # The injector replaces discrete actions only: on coopnav a positive
    # rate would write rows equal to an unperturbed run's.
    doc = {"algo": algo, "env": "coopnav", "eval": {"malicious_mode": mode}}
    with pytest.raises(ConfigError, match="malicious_rates > 0 requires env gridq.*"
                                          "continuous actions"):
        resolve_config(dict(doc, eval=dict(doc["eval"], malicious_rates=[0.0, 0.05])))
    assert resolve_config(dict(doc, eval=dict(doc["eval"], malicious_rates=[0.0]))
                          )["eval"]["malicious_rates"] == [0.0]
    cfg = resolve_config({"eval": {"malicious_mode": mode, "malicious_rates": [0.05]}})
    assert cfg["eval"]["malicious_rates"] == [0.05]


def test_gridq_agents_must_be_square():
    with pytest.raises(ConfigError):
        resolve_config({"n_agents": 5})
    cfg = resolve_config({"n_agents": 9})
    assert cfg["n_agents"] == 9


def test_start_frac_range_checked():
    cfg = resolve_config({"ernie": {"start_frac": 0.5}})
    assert cfg["ernie"]["start_frac"] == 0.5
    with pytest.raises(ConfigError):
        resolve_config({"ernie": {"start_frac": 1.5}})
    with pytest.raises(ConfigError):
        resolve_config({"ernie": {"start_frac": -0.1}})


def test_stackelberg_requires_pgd_mode():
    cfg = resolve_config({"ernie": {"stackelberg": True}})
    assert cfg["ernie"]["stackelberg"] is True
    with pytest.raises(ConfigError):
        resolve_config({"ernie": {"stackelberg": True, "mode": "gaussian"}})


@pytest.mark.parametrize("doc,key", [
    ({"actor_lr": 1e-3}, "actor_lr"),
    ({"actor_noise": 0.2}, "actor_noise"),
    ({"algo": "ddpg", "env": "coopnav", "lambda_q": 2.0}, "lambda_q"),
    ({"algo": "ddpg", "env": "coopnav", "explore_final": 0.1}, "explore_final"),
    ({"algo": "mf_ddpg", "env": "coopnav", "lambda_q": 0.5}, "lambda_q"),
    ({"algo": "mf_ddpg", "env": "coopnav", "explore_final": 0.2}, "explore_final"),
])
def test_other_learners_keys_rejected(doc, key):
    # A value the chosen learner would never read is an error; the default,
    # which every resolved config holds, is not.
    algo = doc.get("algo", "qcombo")
    with pytest.raises(ConfigError, match=f"{key} is not read by algo {algo}"):
        resolve_config(doc)
    assert resolve_config(dict(doc, **{key: DEFAULTS[key]}))[key] == DEFAULTS[key]
    own = ({"algo": "ddpg", "env": "coopnav"} if key in ("actor_lr", "actor_noise")
           else {"algo": "qcombo"})
    assert resolve_config(dict(own, **{key: doc[key]}))[key] == doc[key]


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"learning_rate": 0.1})
    with pytest.raises(ConfigError):
        resolve_config({"ernie": {"epsilonn": 0.5}})


@pytest.mark.parametrize("doc,section", [
    ({"ernie": 3}, "ernie"),
    ({"eval": [0.5]}, "eval"),
    ({"paths": "runs"}, "paths"),
])
def test_section_must_be_object(doc, section):
    with pytest.raises(ConfigError, match=f"^{section} must be an object$"):
        resolve_config(doc)


@pytest.mark.parametrize("doc,digest", [
    ({}, "7ea85d4343bb36598196670441cc72789a37bc8e686deb380f2c671b80525267"),
    ({"algo": "ddpg", "env": "coopnav"},
     "27a5d86a6e9ab5dcc425c3809cd42bd0d0738cf68798ef1094ec3fbaa14639ed"),
    ({"algo": "mf_ddpg", "env": "coopnav", "meanfield": {"enabled": True}},
     "72a52a830aed63c34fd804f04db520f34a06aac78d9740bac6cbe1284bad8237"),
])
def test_resolved_defaults_keep_their_bytes(doc, digest):
    # run.json records the SHA-256 of config.resolved.json, so a dropped leaf
    # or a changed default would change the bytes of every run's outputs.
    assert hashlib.sha256(config_json(resolve_config(doc)).encode()).hexdigest() == digest


@pytest.mark.parametrize("doc,key", [
    ({"ernie_a": {"mode": "brute"}}, "ernie_a.mode"),
    ({"meanfield": {"attack_avg_action": True}}, "meanfield.attack_avg_action"),
])
def test_removed_keys_rejected_as_unknown(doc, key):
    # No code path read these keys; a config that sets one is rejected
    # instead of being silently ignored.
    with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
        resolve_config(doc)


def test_resolved_config_round_trips(tmp_path):
    cfg = resolve_config({"algo": "ddpg", "env": "coopnav",
                          "ernie": {"enabled": True, "epsilon": 0.3}})
    path = echo_config(cfg, tmp_path)
    again = load_config(path)
    assert again == cfg
    assert config_json(again) == config_json(cfg)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(arr)


def _write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_train_and_evaluate_ok(tmp_path):
    cfg_path = _write_cfg(tmp_path, {
        "algo": "ddpg", "env": "coopnav", "train_steps": 5,
        "warmup": 2, "batch": 4,
        "eval": {"obs_noise_sigmas": [0.0], "episodes": 2},
    })
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    assert (out / "config.resolved.json").exists()
    assert (out / "seed_0" / "metrics.csv").exists()
    # the run manifest hashes the resolved config the CLI echoes
    manifest = json.loads((out / "seed_0" / "run.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(
        (out / "config.resolved.json").read_bytes()).hexdigest()
    ckpt = out / "seed_0" / "ckpt_000005"
    assert main(["evaluate", "--config", cfg_path, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == EXIT_OK
    assert (out / "eval" / "results.csv").exists()
    assert (out / "eval" / "summary.json").exists()


def test_cli_train_bad_config_exits_2(tmp_path):
    cfg_path = _write_cfg(tmp_path, {"algo": "qcombo", "env": "coopnav"})
    assert main(["train", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("doc", [
    {"ernie": {"metric": "l1"}}, {"ernie": {"eta": -1}}, {"ernie": {"eta": 0}},
    {"ernie": {"reg_rows": 0}}, {"ernie_a": {"rows": 0}}, {"log_interval": 0},
    {"tau": 2.0}, {"tau": -0.1}, {"explore_final": 1.5},
    {"algo": "ddpg", "env": "coopnav", "actor_noise": -0.1},
    {"batch": 0}, {"hidden": 0}, {"replay_capacity": 0}, {"n_agents": 0},
    {"n_agents": -4}, {"algo": "ddpg", "env": "coopnav", "n_agents": 0},
    {"gamma": 1.5}, {"gamma": -0.1}, {"ernie_a": {"enabled": True, "k": 0}},
    {"ernie": {"metric": None}},
    {"batch": "8"}, {"batch": 8.0}, {"hidden": True}, {"replay_capacity": 1e5},
    {"algo": "ddpg", "env": "coopnav", "n_agents": 2.5}, {"train_steps": 10.5},
    {"warmup": "10"}, {"log_interval": 10.0}, {"seeds": ["a"]}, {"seeds": [True]},
    {"seeds": 0}, {"ernie": {"k_steps": 1.5}}, {"ernie": {"reg_rows": "4"}},
    {"ernie_a": {"k": 1.0}}, {"ernie_a": {"rows": False}},
    {"algo": "mf_ddpg", "env": "coopnav", "meanfield": {"mf_steps": 2.5}},
    {"eval": {"episodes": 2.5}}, {"gamma": "0.9"}, {"lr": True}, {"tau": None},
    {"ernie": {"epsilon": "0.5"}}, {"ernie": {"eta": False}},
    {"algo": "ddpg", "env": "coopnav", "actor_lr": "1e-3"},
    {"eval": {"obs_noise_sigmas": [-0.1]}}, {"eval": {"obs_noise_sigmas": ["0.5"]}},
    {"eval": {"obs_noise_sigmas": 0.5}}, {"eval": {"dynamics_scales": [0]}},
    {"eval": {"dynamics_scales": [-1.0]}}, {"eval": {"malicious_rates": [1.5]}},
    {"eval": {"malicious_rates": [-0.1]}}, {"eval": {"malicious_rates": [True]}},
    {"ernie_a": {"enabled": True, "k": 5}},
    {"ernie": {"enabled": "false"}}, {"ernie": {"stackelberg": "false"}},
    {"ernie_a": {"enabled": 0}},
    {"algo": "mf_ddpg", "env": "coopnav", "meanfield": {"enabled": "false"}},
    {"lr": float("nan")}, {"lambda_q": float("nan")}, {"ernie": {"epsilon": float("inf")}},
    {"ernie": {"eta": float("inf")}}, {"ernie_a": {"lambda": float("-inf")}},
    {"algo": "ddpg", "env": "coopnav", "actor_noise": float("inf")},
    {"eval": {"obs_noise_sigmas": [float("inf")]}},
    {"eval": {"dynamics_scales": [float("inf")]}},
    {"lr": 0}, {"lr": -1e-3}, {"algo": "ddpg", "env": "coopnav", "actor_lr": 0.0},
    {"algo": "mf_ddpg", "env": "coopnav", "meanfield": {"mf_eta": 0}},
    {"lr_decay": 2.0}, {"lr_decay": -0.5}, {"lambda_q": -1.0},
    {"ernie": {"lambda": -0.1}}, {"ernie_a": {"lambda": -0.1}},
    {"algo": "mf_ddpg", "env": "coopnav", "meanfield": {"lambda_w": float("inf")}},
    {"warmup": -5}, {"seeds": [-1]}, {"seeds": [0, 0]}, {"env": ["gridq"]},
    {"algo": ["qcombo"]}, {"paths": {"out_dir": 5}},
    {"eval": {"obs_noise_sigmas": [0.5, 0.5]}}, {"eval": {"dynamics_scales": [1.25, 1.25]}},
    {"eval": {"malicious_rates": [0.05, 0.05]}},
    {"ernie": {"epsilon": -0.1}}, {"ernie": {"k_steps": -1}}, {"ernie": {"norm": "l1"}},
    {"eval": {"malicious_mode": "sneaky"}},
])
def test_values_training_rejects_fail_before_training(tmp_path, doc):
    # resolve_config is the one check on these values: most used to pass it
    # and fail (or be ignored) only once training was under way, after the
    # run directory was written; the rest were re-checked by the package.
    with pytest.raises(ConfigError):
        resolve_config(doc)
    out = tmp_path / "o"
    assert main(["train", "--config", _write_cfg(tmp_path, doc),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_every_leaf_has_one_rule():
    # resolve_config checks each value a config sets against its leaf's rule
    # and takes DEFAULTS unchecked, so every default must pass its own rule.
    for key in RULES:
        section, _, leaf = key.rpartition(".")
        val = (DEFAULTS[section] if section else DEFAULTS)[leaf]
        assert RULES[key][1](val), key


# The eval leaf each PerturbSpec field is built from, by evaluate.sweep_specs.
_PERTURB_LEAF = {"obs_noise_sigma": "eval.obs_noise_sigmas",
                 "dynamics_scale": "eval.dynamics_scales",
                 "malicious_rate": "eval.malicious_rates",
                 "malicious_mode": "eval.malicious_mode"}


def test_attack_and_perturb_fields_have_their_rules():
    # RULES is the only check on the values of AttackConfig and PerturbSpec,
    # records built from a resolved config, so a field added to either
    # without its config leaf would go unchecked.
    leaves = ([f"ernie.{f.name}" for f in fields(AttackConfig)]
              + [_PERTURB_LEAF.get(f.name, f.name) for f in fields(PerturbSpec)])
    assert [leaf for leaf in leaves if leaf not in RULES] == []


def test_rejected_value_is_named():
    with pytest.raises(ConfigError, match=r"^ernie.enabled must be true or false, "
                                          r"got 'false'$"):
        resolve_config({"ernie": {"enabled": "false"}})
    with pytest.raises(ConfigError, match=r"^seeds must be a non-empty list of distinct "
                                          r"values, each an integer >= 0, got \[0, 0\]$"):
        resolve_config({"seeds": [0, 0]})
    with pytest.raises(ConfigError, match=r"^lr must be a finite number > 0, got nan$"):
        resolve_config({"lr": float("nan")})


@pytest.mark.parametrize("command,flag,value,rule", [
    ("certify", "--instances", "0", ">= 1"), ("certify", "--instances", "-3", ">= 1"),
    ("certify", "--instances", "2.5", ">= 1"), ("certify", "--seed", "-1", ">= 0"),
    ("gradcheck", "--seed", "-1", ">= 0"), ("gradcheck", "--seed", "x", ">= 0"),
])
def test_cli_counts_rejected_at_parse_time(tmp_path, capsys, command, flag, value, rule):
    # Zero instances would certify nothing and write "max_slack": -Infinity;
    # a negative seed fails inside numpy after the suites start.
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert f"{flag}: must be an integer {rule}, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_evaluate_env_mismatch_exits_2(tmp_path):
    train_cfg = _write_cfg(tmp_path, {
        "algo": "ddpg", "env": "coopnav", "train_steps": 2, "warmup": 1,
        "batch": 2}, name="train.json")
    out = tmp_path / "out"
    assert main(["train", "--config", train_cfg, "--out", str(out)]) == EXIT_OK
    other_cfg = _write_cfg(tmp_path, {"algo": "qcombo", "env": "gridq"},
                           name="other.json")
    ckpt = out / "seed_0" / "ckpt_000002"
    assert main(["evaluate", "--config", other_cfg, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == EXIT_CONFIG


@pytest.mark.parametrize("ev", [
    {"obs_noise_sigmas": []},
    {"obs_noise_sigmas": [], "dynamics_scales": [1.0], "malicious_rates": [0.0]},
])
def test_empty_eval_sweep_rejected(tmp_path, ev):
    # The dropped defaults (dynamics 1.0, rate 0.0) leave no spec: evaluate
    # would run nothing and write a header-only results.csv.
    with pytest.raises(ConfigError, match="eval.obs_noise_sigmas.*eval.dynamics_scales"
                                          ".*eval.malicious_rates"):
        resolve_config({"eval": ev})
    train_cfg = _write_cfg(tmp_path, {"train_steps": 2, "warmup": 1, "batch": 2},
                           name="train.json")
    out = tmp_path / "out"
    assert main(["train", "--config", train_cfg, "--out", str(out)]) == EXIT_OK
    empty_cfg = _write_cfg(tmp_path, {"eval": ev}, name="empty.json")
    assert main(["evaluate", "--config", empty_cfg,
                 "--checkpoint", str(out / "seed_0" / "ckpt_000002"),
                 "--out", str(tmp_path / "eval")]) == EXIT_CONFIG
    assert not (tmp_path / "eval").exists()
    for one in ({"obs_noise_sigmas": [], "dynamics_scales": [0.8]},
                {"obs_noise_sigmas": [], "malicious_rates": [0.05]}):
        assert len(sweep_specs(resolve_config({"eval": one}))) == 1


def test_cli_certify_writes_report(tmp_path):
    out = tmp_path / "cert"
    assert main(["certify", "--instances", "8", "--seed", "0",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "theory_report.json").read_text())
    assert report["passed"] is True
    for key in ("theorem1", "theorem2", "theorem3", "negative_control"):
        assert report[key]["passed"] is True


def test_cli_gradcheck_writes_report(tmp_path):
    out = tmp_path / "grad"
    assert main(["gradcheck", "--seed", "0", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "gradcheck_report.json").read_text())
    assert report["passed"] is True
    for key in ("net_grads", "hvp", "stackelberg", "cloud_coupling"):
        assert report[key]["passed"] is True
    assert report["hvp"]["joint_grad_dir_rel_err"] < 1e-6


def test_cli_out_env_var(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("ERNIE_LAB_OUT", str(out))
    cfg_path = _write_cfg(tmp_path, {
        "algo": "ddpg", "env": "coopnav", "train_steps": 1, "warmup": 1,
        "batch": 2})
    assert main(["train", "--config", cfg_path]) == EXIT_OK
    assert (out / "seed_0" / "metrics.csv").exists()
    # explicit --out beats the environment variable
    flag_out = tmp_path / "flagout"
    assert main(["train", "--config", cfg_path, "--out", str(flag_out)]) == EXIT_OK
    assert (flag_out / "seed_0" / "metrics.csv").exists()


def test_cli_seed_override(tmp_path):
    cfg_path = _write_cfg(tmp_path, {
        "algo": "ddpg", "env": "coopnav", "train_steps": 1, "warmup": 1,
        "batch": 2, "seeds": [3, 4]})
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path, "--seed", "7",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "seed_7" / "metrics.csv").exists()
    assert not (out / "seed_3").exists()


class _Recorder(dict):
    """A config dict that records the dotted name of every key read."""

    def __init__(self, doc, seen, prefix=""):
        super().__init__({k: _Recorder(v, seen, f"{prefix}{k}.") if isinstance(v, dict)
                          else v for k, v in doc.items()})
        self.seen, self.prefix = seen, prefix

    def __getitem__(self, key):
        self.seen.add(self.prefix + key)
        return super().__getitem__(key)


def _leaves(doc, prefix=""):
    return {name for k, v in doc.items()
            for name in (_leaves(v, f"{prefix}{k}.") if isinstance(v, dict)
                         else [prefix + k])}


def test_every_default_leaf_is_read(tmp_path, monkeypatch):
    # Between them, a qcombo run (gaussian ERNIE, ERNIE-A, dynamics and
    # malicious sweeps) and an mf_ddpg run (Stackelberg ERNIE, cloud attack)
    # read every config leaf in train, evaluate and the CLI's out-dir lookup.
    monkeypatch.delenv("ERNIE_LAB_OUT", raising=False)
    small = {"seeds": [1], "train_steps": 12, "warmup": 4, "batch": 4, "hidden": 4,
             "log_interval": 4}
    docs = [
        dict(small, algo="qcombo", env="gridq",
             ernie={"enabled": True, "mode": "gaussian", "reg_rows": 2},
             ernie_a={"enabled": True, "rows": 2},
             eval={"obs_noise_sigmas": [0.0], "dynamics_scales": [0.8],
                   "malicious_rates": [0.1], "episodes": 1}),
        dict(small, algo="mf_ddpg", env="coopnav",
             ernie={"enabled": True, "stackelberg": True, "k_steps": 1, "reg_rows": 2},
             meanfield={"enabled": True, "mf_steps": 1},
             eval={"obs_noise_sigmas": [0.0], "episodes": 1}),
    ]
    seen = set()
    for i, doc in enumerate(docs):
        cfg = _Recorder(resolve_config(doc), seen)
        run = train_run(cfg, tmp_path / f"train{i}")[0]
        evaluate_checkpoint(cfg, run["final_checkpoint"], tmp_path / f"eval{i}")
        _out_dir(None, cfg)
    assert sorted(_leaves(DEFAULTS) - seen) == []
