# Experiment configuration: one table declares each leaf's default and rule;
# JSON in, each value checked against its leaf's rule, defaults filled,
# cross-field validation; out comes the plain nested dict of every leaf, whose
# text is config_json.
from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .advreg import METRICS, NORMS


class ConfigError(ValueError):
    pass


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

# Every leaf of the config, once: (its default, the rule each value it is set
# to must pass), nested by section.
_TABLE = {
    "algo": ("qcombo", _one_of(sorted(_DISCRETE_ALGOS | _CONTINUOUS_ALGOS))),
    "env": ("gridq", _one_of(tuple(_ENV_DEFAULT_AGENTS))),
    "n_agents": (None, _or_null(count_rule(1))),   # None: the env's default
    "seeds": ([0], _distinct(count_rule(0), nonempty=True)),
    "train_steps": (2000, count_rule(0)),
    "gamma": (0.95, _UNIT),
    "tau": (0.01, _UNIT),
    "lambda_q": (1.0, _NONNEG),
    "lr": (1e-3, _POSITIVE),
    "actor_lr": (None, _or_null(_POSITIVE)),   # None: use lr
    "lr_decay": (0.9, _UNIT),   # linear decay of both rates to (1 - lr_decay) * lr
    "batch": (64, count_rule(1)),
    "replay_capacity": (100000, count_rule(1)),
    "hidden": (64, count_rule(1)),
    "warmup": (200, count_rule(0)),
    "log_interval": (100, count_rule(1)),
    "explore_final": (0.05, _UNIT),   # linear 1.0 -> this over the first 30% of steps
    "actor_noise": (0.1, _NONNEG),
    "ernie": {
        "enabled": (False, _FLAG),
        "stackelberg": (False, _FLAG),
        "mode": ("pgd", _one_of(("pgd", "gaussian"))),   # gaussian: the smoothing baseline
        "epsilon": (0.5, _NONNEG),
        "k_steps": (2, count_rule(0)),
        "eta": (None, _or_null(_POSITIVE)),   # None -> 2.5 eps / K
        "lambda": (0.1, _NONNEG),
        "metric": ("sq_l2", _one_of(METRICS)),
        "norm": ("l2", _one_of(NORMS)),
        "reg_rows": (64, count_rule(1)),   # batch rows fed to the attack per update
        "start_frac": (0.0, _UNIT),   # apply the regularizer from this fraction of steps
    },
    "ernie_a": {
        "enabled": (False, _FLAG),
        "k": (1, count_rule(1)),
        "lambda": (0.1, _NONNEG),
        "rows": (8, count_rule(1)),
    },
    "meanfield": {
        "enabled": (False, _FLAG),
        "lambda_w": (1.0, _NONNEG),
        "mf_steps": (10, count_rule(0)),
        "mf_eta": (0.05, _POSITIVE),
    },
    "eval": {
        "obs_noise_sigmas": ([0.0, 0.1, 0.25, 0.5, 1.0], _distinct(_NONNEG)),
        "dynamics_scales": ([1.0], _distinct(_POSITIVE)),
        "malicious_rates": ([0.0], _distinct(_UNIT)),
        "malicious_mode": ("adversarial", _one_of(("random", "adversarial"))),
        "episodes": (20, count_rule(1)),
    },
    "paths": {
        "out_dir": ("runs", ("a string", lambda v: isinstance(v, str))),
    },
}


def _split(table: dict, prefix: str = "") -> tuple[dict, dict]:
    """A table's nested defaults, and its rules keyed by dotted leaf name."""
    defaults, rules = {}, {}
    for key, row in table.items():
        if isinstance(row, dict):
            defaults[key], section_rules = _split(row, f"{prefix}{key}.")
            rules.update(section_rules)
        else:
            defaults[key], rules[prefix + key] = row
    return defaults, rules


DEFAULTS, RULES = _split(_TABLE)


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


def resolve_config(user: dict) -> dict:
    """The nested dict of every leaf: DEFAULTS overlaid with user, each value
    it sets checked against its leaf's rule in RULES (DEFAULTS' own values pass
    theirs), then the rules that tie leaves together."""
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
    return raw


def load_config(path) -> dict:
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


def config_json(cfg: dict) -> str:
    """A resolved config's text: config.resolved.json, and what run.json hashes."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def echo_config(cfg: dict, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "config.resolved.json"
    target.write_text(config_json(cfg))
    return target
