# Experiment configuration: JSON in, defaults filled, cross-field validation.
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "algo": "qcombo",            # qcombo | ddpg | mf_ddpg
    "env": "gridq",              # gridq | coopnav
    "n_agents": None,            # default depends on env
    "seeds": [0],
    "train_steps": 2000,
    "gamma": 0.95,
    "tau": 0.01,
    "lambda_q": 1.0,
    "lr": 1e-3,
    "actor_lr": None,   # None: use lr
    "lr_decay": 0.9,    # linear decay of both rates to (1 - lr_decay) * lr
    "batch": 64,
    "replay_capacity": 100000,
    "hidden": 64,
    "warmup": 200,
    "log_interval": 100,
    "explore_final": 0.05,       # linear 1.0 -> this over the first 30% of steps
    "actor_noise": 0.1,
    "ernie": {
        "enabled": False,
        "stackelberg": False,
        "mode": "pgd",           # pgd | gaussian (smoothing baseline)
        "epsilon": 0.5,
        "k_steps": 2,
        "eta": None,             # None -> 2.5 eps / K
        "lambda": 0.1,
        "metric": None,          # None -> sq_l2 for q/actor heads
        "norm": "l2",
        "reg_rows": 64,          # batch rows fed to the attack per update
        "start_frac": 0.0,       # apply the regularizer from this fraction of steps
    },
    "ernie_a": {
        "enabled": False,
        "k": 1,
        "lambda": 0.1,
        "rows": 8,
    },
    "meanfield": {
        "enabled": False,
        "lambda_w": 1.0,
        "mf_steps": 10,
        "mf_eta": 0.05,
    },
    "eval": {
        "obs_noise_sigmas": [0.0, 0.1, 0.25, 0.5, 1.0],
        "dynamics_scales": [1.0],
        "malicious_rates": [0.0],
        "malicious_mode": "adversarial",
        "episodes": 20,
    },
    "paths": {
        "out_dir": "runs",
    },
}

_ENV_DEFAULT_AGENTS = {"gridq": 4, "coopnav": 3}
_DISCRETE_ALGOS = {"qcombo"}
_CONTINUOUS_ALGOS = {"ddpg", "mf_ddpg"}
# Top-level leaves that only one kind of learner reads.
_LEARNER_ONLY = {"actor_lr": _CONTINUOUS_ALGOS, "actor_noise": _CONTINUOUS_ALGOS,
                 "lambda_q": _DISCRETE_ALGOS, "explore_final": _DISCRETE_ALGOS}


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        dotted = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key: {dotted}")
        if isinstance(defaults[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{dotted} must be an object")
            out[key] = _merge(defaults[key], val, prefix=dotted + ".")
        else:
            out[key] = val
    return out


@dataclass
class ExperimentConfig:
    raw: dict = field(repr=False)

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def algo(self):
        return self.raw["algo"]

    @property
    def env(self):
        return self.raw["env"]

    @property
    def seeds(self):
        return list(self.raw["seeds"])

    @property
    def n_agents(self):
        return self.raw["n_agents"]

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"


def resolve_config(user: dict) -> ExperimentConfig:
    raw = _merge(DEFAULTS, user)
    if raw["algo"] not in _DISCRETE_ALGOS | _CONTINUOUS_ALGOS:
        raise ConfigError(f"unknown algo: {raw['algo']}")
    if raw["env"] not in _ENV_DEFAULT_AGENTS:
        raise ConfigError(f"unknown env: {raw['env']}")
    if raw["n_agents"] is None:
        raw["n_agents"] = _ENV_DEFAULT_AGENTS[raw["env"]]

    # compatibility: qcombo and ernie_a are discrete-only, ddpg continuous-only
    if raw["algo"] in _DISCRETE_ALGOS and raw["env"] != "gridq":
        raise ConfigError(f"algo {raw['algo']} requires a discrete env (gridq)")
    if raw["algo"] in _CONTINUOUS_ALGOS and raw["env"] != "coopnav":
        raise ConfigError(f"algo {raw['algo']} requires a continuous env (coopnav)")
    if raw["ernie_a"]["enabled"] and raw["env"] != "gridq":
        raise ConfigError("ernie_a requires a discrete env")
    # A resolved config holds every leaf, so only a changed value is an error.
    for key, algos in _LEARNER_ONLY.items():
        if raw[key] != DEFAULTS[key] and raw["algo"] not in algos:
            raise ConfigError(f"{key} is not read by algo {raw['algo']}; it applies "
                              f"to {' and '.join(sorted(algos))} only")
    if raw["meanfield"]["enabled"] and raw["algo"] != "mf_ddpg":
        raise ConfigError("meanfield.enabled requires algo mf_ddpg, whose critic "
                          "the cloud attack regularizes")

    if raw["env"] == "gridq":
        side = int(round(raw["n_agents"] ** 0.5))
        if side * side != raw["n_agents"]:
            raise ConfigError("gridq n_agents must be a perfect square")
    if raw["train_steps"] < 0:
        raise ConfigError("train_steps must be >= 0")
    if not raw["seeds"]:
        raise ConfigError("seeds must be non-empty")
    if raw["ernie"]["mode"] not in ("pgd", "gaussian"):
        raise ConfigError("ernie.mode must be 'pgd' or 'gaussian'")
    if raw["ernie"]["stackelberg"] and raw["ernie"]["mode"] != "pgd":
        raise ConfigError("ernie.stackelberg needs ernie.mode 'pgd': the gaussian "
                          "baseline has no attack to differentiate through")
    if raw["ernie"]["norm"] not in ("l2", "linf"):
        raise ConfigError("ernie.norm must be 'l2' or 'linf'")
    if raw["ernie"]["epsilon"] < 0:
        raise ConfigError("ernie.epsilon must be >= 0")
    if raw["ernie"]["k_steps"] < 0:
        raise ConfigError("ernie.k_steps must be >= 0")
    if not 0.0 <= raw["ernie"]["start_frac"] <= 1.0:
        raise ConfigError("ernie.start_frac must be in [0, 1]")
    if raw["ernie_a"]["k"] < 0:
        raise ConfigError("ernie_a.k must be >= 0")
    if raw["meanfield"]["mf_steps"] < 0:
        raise ConfigError("meanfield.mf_steps must be >= 0")
    if raw["meanfield"]["lambda_w"] < 0:
        raise ConfigError("meanfield.lambda_w must be >= 0")
    if raw["eval"]["episodes"] < 1:
        raise ConfigError("eval.episodes must be >= 1")
    if raw["eval"]["malicious_mode"] not in ("random", "adversarial"):
        raise ConfigError("eval.malicious_mode must be 'random' or 'adversarial'")
    if raw["env"] != "gridq" and any(float(r) > 0.0
                                     for r in raw["eval"]["malicious_rates"]):
        raise ConfigError("eval.malicious_rates > 0 requires env gridq: the injector "
                          "replaces discrete actions only, so continuous actions "
                          "would never be replaced")
    return ExperimentConfig(raw=raw)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        user = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return resolve_config(user)


def echo_config(cfg: ExperimentConfig, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "config.resolved.json"
    target.write_text(cfg.to_json())
    return target
