# Experiment configuration: one table declares each leaf's default, rule and
# condition; JSON in, each value checked against both, defaults filled,
# cross-field checks; out comes the plain nested dict of every leaf (config_json).
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


# A condition is a pair too: when a leaf applies, in words, and its test.
def _get(cfg: dict, dotted: str):
    section, _, leaf = dotted.rpartition(".")
    return (cfg[section] if section else cfg)[leaf]


def _is(dotted: str, *values):
    return (f"{dotted} is {' or '.join(map(json.dumps, values))}",
            lambda c: _get(c, dotted) in values)


_CONTINUOUS, _QCOMBO = _is("algo", *sorted(_CONTINUOUS_ALGOS)), _is("algo", "qcombo")
_ERNIE, _CLOUD = _is("ernie.enabled", True), _is("meanfield.enabled", True)
_ERNIE_A = _is("ernie_a.enabled", True)
_PGD = (f'{_ERNIE[0]} and ernie.mode is "pgd"',
        lambda c: _ERNIE[1](c) and c["ernie"]["mode"] == "pgd")
_ERNIE_OR_CLOUD = (f"{_ERNIE[0]} or {_CLOUD[0]}", lambda c: _ERNIE[1](c) or _CLOUD[1](c))
_MALICIOUS = ("eval.malicious_rates holds a rate above 0",
              lambda c: any(r > 0 for r in c["eval"]["malicious_rates"]))

# Every leaf of the config, once: (its default, the rule each value it is set
# to must pass[, the condition under which it applies]), nested by section.
_TABLE = {
    "algo": ("qcombo", _one_of(sorted(_DISCRETE_ALGOS | _CONTINUOUS_ALGOS))),
    "env": ("gridq", _one_of(tuple(_ENV_DEFAULT_AGENTS))),
    "n_agents": (None, _or_null(count_rule(1))),   # None: the env's default
    "seeds": ([0], _distinct(count_rule(0), nonempty=True)),
    "train_steps": (2000, count_rule(0)),
    "gamma": (0.95, _UNIT),
    "tau": (0.01, _UNIT),
    "lambda_q": (1.0, _NONNEG, _QCOMBO),
    "lr": (1e-3, _POSITIVE),
    "actor_lr": (None, _or_null(_POSITIVE), _CONTINUOUS),   # None: use lr
    "lr_decay": (0.9, _UNIT),   # linear decay of both rates to (1 - lr_decay) * lr
    "batch": (64, count_rule(1)),
    "replay_capacity": (100000, count_rule(1)),
    "hidden": (64, count_rule(1)),
    "warmup": (200, count_rule(0)),
    "log_interval": (100, count_rule(1)),
    "explore_final": (0.05, _UNIT, _QCOMBO),   # linear 1.0 -> this over the first 30% of steps
    "actor_noise": (0.1, _NONNEG, _CONTINUOUS),
    "ernie": {
        "enabled": (False, _FLAG),
        "stackelberg": (False, _FLAG, _PGD),
        "mode": ("pgd", _one_of(("pgd", "gaussian")), _ERNIE),   # gaussian: smoothing baseline
        "epsilon": (0.5, _NONNEG, _ERNIE),
        "k_steps": (2, count_rule(0), _PGD),
        "eta": (None, _or_null(_POSITIVE), _PGD),   # None -> 2.5 eps / K
        "lambda": (0.1, _NONNEG, _ERNIE_OR_CLOUD),   # weighs the cloud's penalty too
        "metric": ("sq_l2", _one_of(METRICS), _ERNIE),
        "norm": ("l2", _one_of(NORMS), _PGD),
        "reg_rows": (64, count_rule(1), _ERNIE_OR_CLOUD),   # batch rows fed to either attack
        "start_frac": (0.0, _UNIT, _ERNIE),   # the regularizer applies from this step fraction
    },
    "ernie_a": {
        "enabled": (False, _FLAG, _QCOMBO),
        "k": (1, count_rule(1), _ERNIE_A),
        "lambda": (0.1, _NONNEG, _ERNIE_A),
        "rows": (8, count_rule(1), _ERNIE_A),
    },
    "meanfield": {
        "enabled": (False, _FLAG, _is("algo", "mf_ddpg")),
        "lambda_w": (1.0, _NONNEG, _CLOUD),
        "mf_steps": (10, count_rule(0), _CLOUD),
        "mf_eta": (0.05, _POSITIVE, _CLOUD),
    },
    "eval": {
        "obs_noise_sigmas": ([0.0, 0.1, 0.25, 0.5, 1.0], _distinct(_NONNEG)),
        "dynamics_scales": ([1.0], _distinct(_POSITIVE)),
        "malicious_rates": ([0.0], _distinct(_UNIT), _is("env", "gridq")),
        "malicious_mode": ("adversarial", _one_of(("random", "adversarial")), _MALICIOUS),
        "episodes": (20, count_rule(1)),
    },
    "paths": {"out_dir": ("runs", ("a string", lambda v: isinstance(v, str)))},
}


def _split(table: dict, prefix: str = "") -> tuple[dict, dict]:
    """A table's nested defaults, and the rest of each row by dotted leaf name."""
    defaults, rows = {}, {}
    for key, row in table.items():
        if isinstance(row, dict):
            defaults[key], section_rows = _split(row, f"{prefix}{key}.")
            rows.update(section_rows)
        else:
            defaults[key], rows[prefix + key] = row[0], row[1:]
    return defaults, rows


DEFAULTS, _ROWS = _split(_TABLE)
RULES = {key: row[0] for key, row in _ROWS.items()}
CONDITIONS = {key: row[1] for key, row in _ROWS.items() if len(row) > 1}


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
    theirs) and, unless it is the default, its condition in CONDITIONS."""
    raw = _merge(DEFAULTS, user)
    if raw["n_agents"] is None:
        raw["n_agents"] = _ENV_DEFAULT_AGENTS[raw["env"]]
    # compatibility: qcombo is discrete-only, ddpg and mf_ddpg continuous-only
    if raw["algo"] in _DISCRETE_ALGOS and raw["env"] != "gridq":
        raise ConfigError(f"algo {raw['algo']} requires a discrete env (gridq)")
    if raw["algo"] in _CONTINUOUS_ALGOS and raw["env"] != "coopnav":
        raise ConfigError(f"algo {raw['algo']} requires a continuous env (coopnav)")
    # A resolved config holds every leaf, so only a changed value is an error.
    for dotted, (when, applies) in CONDITIONS.items():
        val = _get(raw, dotted)
        if val != _get(DEFAULTS, dotted) and not applies(raw):
            raise ConfigError(f"{dotted} is set to {val!r}, but it applies only when {when}")
    if raw["ernie_a"]["k"] > raw["n_agents"]:
        raise ConfigError(f"ernie_a.k {raw['ernie_a']['k']} exceeds n_agents "
                          f"{raw['n_agents']}: the attack flips each agent at most once")
    if raw["env"] == "gridq":
        side = int(round(raw["n_agents"] ** 0.5))
        if side * side != raw["n_agents"]:
            raise ConfigError("gridq n_agents must be a perfect square")
    ev = raw["eval"]
    if not (ev["obs_noise_sigmas"] or any(d != 1.0 for d in ev["dynamics_scales"])
            or any(r > 0 for r in ev["malicious_rates"])):
        raise ConfigError("the evaluation sweep is empty: give eval.obs_noise_sigmas a "
                          "sigma, eval.dynamics_scales a scale other than 1.0 or "
                          "eval.malicious_rates a rate above 0")
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
