# Experiment configuration: JSON in, each value checked against its leaf's
# rule, defaults filled, cross-field validation.
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .advreg import METRICS, NORMS


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "algo": "qcombo",
    "env": "gridq",
    "n_agents": None,
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
        "mode": "pgd",
        "epsilon": 0.5,
        "k_steps": 2,
        "eta": None,             # None -> 2.5 eps / K
        "lambda": 0.1,
        "metric": "sq_l2",
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


# A rule is a pair: what a leaf must be, in words, and the test of a value.
def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def count_rule(lo: int):
    return f"an integer >= {lo}", lambda v: _is_int(v) and v >= lo


def _real(what: str, ok):
    return (f"a finite number {what}",
            lambda v: (_is_int(v) or (isinstance(v, float) and math.isfinite(v))) and ok(v))


def _or_null(rule):
    what, ok = rule
    return f"{what}, or null", lambda v: v is None or ok(v)


def _one_of(choices):
    return (f"one of {', '.join(map(repr, choices))}",
            lambda v: isinstance(v, str) and v in choices)


def _distinct(rule, nonempty: bool = False):
    what, ok = rule
    return (f"a {'non-empty ' * nonempty}list of distinct values, each {what}",
            lambda v: (isinstance(v, list) and len(v) >= nonempty and all(map(ok, v))
                       and len(set(v)) == len(v)))


_NONNEG = _real(">= 0", lambda v: v >= 0)
_POSITIVE = _real("> 0", lambda v: v > 0)
_UNIT = _real("in [0, 1]", lambda v: 0 <= v <= 1)
_FLAG = ("true or false", lambda v: isinstance(v, bool))

# What each leaf of DEFAULTS accepts, checked for every value a config sets.
RULES = {
    "algo": _one_of(sorted(_DISCRETE_ALGOS | _CONTINUOUS_ALGOS)),
    "env": _one_of(tuple(_ENV_DEFAULT_AGENTS)),
    "n_agents": _or_null(count_rule(1)),       # null: the env's default
    "seeds": _distinct(count_rule(0), nonempty=True),
    "train_steps": count_rule(0), "warmup": count_rule(0), "log_interval": count_rule(1),
    "batch": count_rule(1), "replay_capacity": count_rule(1), "hidden": count_rule(1),
    "gamma": _UNIT, "tau": _UNIT, "lambda_q": _NONNEG, "explore_final": _UNIT,
    "lr": _POSITIVE, "actor_lr": _or_null(_POSITIVE), "lr_decay": _UNIT,
    "actor_noise": _NONNEG,
    "ernie.enabled": _FLAG, "ernie.stackelberg": _FLAG,
    "ernie.mode": _one_of(("pgd", "gaussian")),   # gaussian: the smoothing baseline
    "ernie.epsilon": _NONNEG, "ernie.k_steps": count_rule(0),
    "ernie.eta": _or_null(_POSITIVE), "ernie.lambda": _NONNEG,
    "ernie.metric": _one_of(METRICS), "ernie.norm": _one_of(NORMS),
    "ernie.reg_rows": count_rule(1), "ernie.start_frac": _UNIT,
    "ernie_a.enabled": _FLAG, "ernie_a.k": count_rule(1), "ernie_a.lambda": _NONNEG,
    "ernie_a.rows": count_rule(1),
    "meanfield.enabled": _FLAG, "meanfield.lambda_w": _NONNEG,
    "meanfield.mf_steps": count_rule(0), "meanfield.mf_eta": _POSITIVE,
    "eval.obs_noise_sigmas": _distinct(_NONNEG),
    "eval.dynamics_scales": _distinct(_POSITIVE),
    "eval.malicious_rates": _distinct(_UNIT),
    "eval.malicious_mode": _one_of(("random", "adversarial")),
    "eval.episodes": count_rule(1),
    "paths.out_dir": ("a string", lambda v: isinstance(v, str)),
}


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
            continue
        what, ok = RULES[dotted]
        if not ok(val):
            raise ConfigError(f"{dotted} must be {what}, got {val!r}")
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
    """DEFAULTS overlaid with user, each value it sets checked against its
    leaf's rule in RULES (DEFAULTS' own values pass theirs), then the rules
    that tie leaves together."""
    raw = _merge(DEFAULTS, user)
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
    if raw["ernie_a"]["k"] > raw["n_agents"]:
        raise ConfigError(f"ernie_a.k {raw['ernie_a']['k']} exceeds n_agents "
                          f"{raw['n_agents']}: the attack flips each agent at most once")
    if raw["env"] == "gridq":
        side = int(round(raw["n_agents"] ** 0.5))
        if side * side != raw["n_agents"]:
            raise ConfigError("gridq n_agents must be a perfect square")
    if raw["ernie"]["stackelberg"] and raw["ernie"]["mode"] != "pgd":
        raise ConfigError("ernie.stackelberg needs ernie.mode 'pgd': the gaussian "
                          "baseline has no attack to differentiate through")
    ev = raw["eval"]
    if not (ev["obs_noise_sigmas"] or any(d != 1.0 for d in ev["dynamics_scales"])
            or any(r > 0 for r in ev["malicious_rates"])):
        raise ConfigError("the evaluation sweep is empty: give eval.obs_noise_sigmas a "
                          "sigma, eval.dynamics_scales a scale other than 1.0 or "
                          "eval.malicious_rates a rate above 0")
    if raw["env"] != "gridq" and any(r > 0 for r in ev["malicious_rates"]):
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
