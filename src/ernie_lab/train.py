# One training loop for QCOMBO (gridq) and MADDPG-style DDPG (coopnav) with the
# adversarial-regularization hooks; a per-learner record holds what differs.
# Single-threaded per seed; all randomness comes from two named streams so the
# regularizer path never shifts the environment stream.
from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import shutil
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .actionreg import greedy_action_attack
from .advreg import AttackConfig, pgd_attack, reg_value_and_grads, stackelberg_grad
from .algos import (NET_NAMES, Agents, GlobalQ, _joint_onehot, apply_grad,
                    ddpg_updates, qcombo_losses, select_action_continuous,
                    select_action_discrete, soft_update)
from .config import ExperimentConfig
from .envs import make_env
from .net import (_backward, _forward_cached, n_params, net_init, net_vjp, save_net,
                  stack_nets)
from .replay import ReplayBuffer, stack_batch

QCOMBO_HEADER = ("step,seed,episodic_return_mean,episodic_return_std,"
                 "loss_ind,loss_glob,loss_reg,loss_total,reg_value_mean,attack_norm_mean")
DDPG_HEADER = ("step,seed,episodic_return_mean,episodic_return_std,"
               "loss_critic,actor_obj,loss_reg,loss_total,reg_value_mean,attack_norm_mean")


def _fmt(x) -> str:
    return repr(float(x))


def _explore_rate(t: int, steps: int, final: float) -> float:
    frac = min(1.0, t / (0.3 * steps))
    return 1.0 + (final - 1.0) * frac


def _lr_at(t: int, steps: int, lr: float, decay: float) -> float:
    return lr * (1.0 - decay * t / steps)


def _net_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4e45]))
    return [int(s) for s in rng.integers(2 ** 31, size=count)]


def build_agents(cfg: ExperimentConfig, env, seed: int) -> Agents:
    """The policy agent stack and the central net, each target starting as a
    copy of its net."""
    hid = cfg["hidden"]
    n = env.n_agents
    seeds = _net_seeds(seed, n + 1)
    policy = stack_nets([net_init([env.obs_dim, hid, env.n_out], seed=seeds[i])
                         for i in range(n)])
    central = net_init([env.state_dim + n * env.n_out, hid, 1], seed=seeds[n])
    return Agents(policy=policy, central=central, policy_target=policy,
                  central_target=central)


def _attack_config(cfg: ExperimentConfig) -> AttackConfig:
    e = cfg["ernie"]
    return AttackConfig(epsilon=float(e["epsilon"]), k_steps=int(e["k_steps"]),
                        eta=e["eta"], norm=e["norm"], metric=e["metric"])


def _obs_regularizer(policy, obs, acfg: AttackConfig, mode: str,
                     attack_rng: np.random.Generator, stackelberg: bool):
    """Per-agent mean regularizer values (N,), mean attack norms (N,) and
    the (N, P) mean parameter gradient of the policy agent stack on its
    (N, R, d) observation rows, all from one attack drawn from attack_rng."""
    if stackelberg:
        gt, delta, vals = stackelberg_grad(policy, obs, acfg, rng=attack_rng)
    else:
        clean = net_vjp(policy, obs)
        if mode == "gaussian":
            sigma = acfg.epsilon
            delta = (np.zeros_like(obs) if sigma == 0.0
                     else sigma * attack_rng.standard_normal(obs.shape))
        else:
            delta = pgd_attack(policy, obs, acfg, rng=attack_rng, clean=clean)
        vals, _, gt = reg_value_and_grads(policy, obs, delta, acfg.metric, clean=clean)
    return (np.mean(vals, axis=-1), np.mean(np.linalg.norm(delta, axis=-1), axis=-1),
            gt / obs.shape[-2])


def _squared_change(net, x: np.ndarray, q_ref: np.ndarray, vjp_ref, rows: int):
    """sum((Q(x) - q_ref)^2) / rows over x's rows, and its parameter
    gradient, given the reference pass's outputs q_ref (M,) and its vjp."""
    q, vjp = net_vjp(net, x)
    diff = q[:, 0] - q_ref
    up = (2.0 * diff / rows)[:, None]
    return (float(np.sum(diff ** 2) / rows),
            vjp(up, wrt="theta").grad_theta - vjp_ref(up, wrt="theta").grad_theta)


def _action_regularizer_grad(agents: Agents, batch: dict, k: int, rows: int):
    """Mean (Q(s,a) - Q(s, a_adv))^2 over the first rows of the batch, with its
    gradient w.r.t. the global Q (central) parameters. One greedy attack covers
    all rows."""
    rows = min(rows, batch["state"].shape[0])
    glob, n_actions = agents.central, agents.policy.out_dim
    states, actions = batch["state"][:rows], batch["actions"][:rows]
    res = greedy_action_attack(GlobalQ(glob, n_actions), states, actions, k)
    keep = np.flatnonzero((res.perturbed != actions).any(axis=1))
    if not keep.size:
        return 0.0, np.zeros(n_params(glob)), 0
    xc = np.concatenate([states[keep], _joint_onehot(actions[keep], n_actions)], axis=1)
    xa = np.concatenate([states[keep], _joint_onehot(res.perturbed[keep], n_actions)],
                        axis=1)
    qc, vjp_c = net_vjp(glob, xc)
    value, grad = _squared_change(glob, xa, qc[:, 0], vjp_c, rows)
    return value, grad, len(keep)


# Radius of the Gaussian jitter that starts the cloud ascent off the clean
# positions, where the squared critic change has a zero gradient.
CLOUD_JITTER = 0.01


def _cloud_regularizer_grad(critic, batch: dict, n_agents: int, rows: int,
                            steps: int, eta: float, lam_w: float, jitter: float,
                            attack_rng: np.random.Generator):
    """Mean-field cloud regularizer on the centralized critic: penalized
    ascent on the agent-position block (the empirical state cloud), with the
    differentiable identity-coupling transport penalty. The ascent steps run
    input-only reverse passes; only the final pass computes the parameter
    gradient."""
    rows = min(rows, batch["state"].shape[0])
    acts = batch["actions"][:rows].reshape(rows, -1)
    x0 = np.concatenate([batch["state"][:rows], acts], axis=1)
    q0, vjp0 = net_vjp(critic, x0)
    q0 = q0[:, 0]
    pdim = 2 * n_agents
    pos0 = x0[:, :pdim]
    pos = pos0 + (jitter * attack_rng.standard_normal(pos0.shape) if jitter > 0
                  else 0.0)
    x = x0.copy()
    for _ in range(steps):
        x[:, :pdim] = pos
        layer_in, q = _forward_cached(critic, x)
        gin = _backward(critic, layer_in, (2.0 * (q[:, 0] - q0))[:, None],
                        wrt="input").grad_input[:, :pdim]
        dpos = (pos - pos0).reshape(rows, n_agents, 2)
        # np.linalg.norm(dpos, axis=2, keepdims=True), by its own formula
        nrm = np.sqrt(np.add.reduce(dpos * dpos, axis=2, keepdims=True))
        pen = np.where(nrm > 1e-12, dpos / np.maximum(nrm, 1e-12), 0.0)
        pos = pos + eta * (gin - lam_w * pen.reshape(rows, pdim) / n_agents)
    x[:, :pdim] = pos
    value, grad = _squared_change(critic, x, q0, vjp0, rows)
    move = float(np.mean(np.linalg.norm((pos - pos0).reshape(rows, n_agents, 2), axis=2)))
    return value, grad, move


def _versions() -> dict:
    # scipy's version module is read without importing scipy, whose import
    # costs more than a short training run. importlib.metadata.version would
    # also avoid it, but importing importlib.metadata adds 1.3-1.8 MB to the
    # peak RSS (Python 3.11, numpy 2.4: 32.7 -> 34.0 MB at import), most of
    # the 5 % that the benchmark allows on a run's ~38 MB peak RSS.
    spec = importlib.util.find_spec("scipy")
    path = Path(spec.submodule_search_locations[0]) / "version.py"
    scipy_version = importlib.util.spec_from_file_location("_scipy_version", path)
    mod = importlib.util.module_from_spec(scipy_version)
    scipy_version.loader.exec_module(mod)
    return {"ernie-lab": __version__, "numpy": np.__version__,
            "python": platform.python_version(), "scipy": mod.version}


def _write_run_manifest(out_dir: Path, cfg: ExperimentConfig) -> None:
    """run.json: package versions and the resolved config's SHA-256. It
    holds no wall-clock time, so a rerun writes it byte-identical."""
    doc = {"config_sha256": hashlib.sha256(cfg.to_json().encode()).hexdigest(),
           "versions": _versions()}
    (out_dir / "run.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class _MetricsWriter:
    def __init__(self, path: Path, header: str):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(header + "\n")

    def row(self, values):
        with self.path.open("a") as fh:
            fh.write(",".join(values) + "\n")


def _save_checkpoint(out: Path, step: int, nets: dict, meta: dict) -> Path:
    """Write ckpt_<step>/: one save_net file per net, an agent stack as its
    (N, P) block, and a manifest with each net's file, layer dims and
    activation. Everything goes into a hidden sibling directory that is
    renamed into place only after the manifest is written, so a run killed
    part-way leaves no ckpt_* to be read as complete."""
    ck = out / f"ckpt_{step:06d}"
    tmp = out / f".{ck.name}.tmp"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    entries = {}
    for name, net in nets.items():
        save_net(net, tmp / f"{name}.npy")
        entries[name] = {"file": f"{name}.npy", "layer_dims": list(net.layer_dims),
                         "activation": net.activation}
    manifest = dict(meta, step=step, nets=entries)
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if ck.exists():
        shutil.rmtree(ck)
    tmp.rename(ck)
    return ck


def _check_finite(nets: dict, step: int, seed: int) -> None:
    # Run on the SGD-updated nets only: each target is a convex mix of its
    # previous value and a checked net. A non-finite row i of an agent stack
    # `name` is reported as name_i, agent i's net.
    for name, net in nets.items():
        finite = np.isfinite(net.theta)
        if not finite.all():
            if net.stacked:
                name = f"{name}_{int(np.flatnonzero(~finite.all(axis=1))[0])}"
            raise FloatingPointError(f"non-finite parameters in {name} after the "
                                     f"update at step {step}, seed {seed}")


def _check_finite_losses(header: str, values, step: int, seed: int) -> None:
    # values: the header's four loss columns and reg_value_mean, in order
    for name, value in zip(header.split(",")[4:9], values):
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite {name} in the update at step {step}, seed {seed}")


def _env_step(env, buf: ReplayBuffer, state, obs, gs, actions, ep_len: int):
    """One environment step from (state, obs, global state gs), pushed to buf.
    Returns the next (state, obs, global state), the global reward and
    whether the episode ends."""
    nstate, nobs, rewards, g_reward = env.step(state, actions)
    ngs = env.global_state(nstate)
    done = ep_len + 1 >= env.episode_len
    buf.push(obs=obs, state=gs, actions=actions, rewards=rewards, global_reward=g_reward,
             next_obs=nobs, next_state=ngs, done=done)
    return nstate, nobs, ngs, g_reward, done


def _episode_stats(recent) -> tuple[float, float]:
    if not recent:
        return float("nan"), float("nan")
    arr = np.asarray(recent, dtype=float)
    return float(arr.mean()), float(arr.std())


@dataclass(frozen=True)
class _Learner:
    """What the training loop does differently for QCOMBO and for DDPG."""
    header: str
    act: Callable           # (policy stack, obs, step, env_rng) -> joint action
    update: Callable        # (batch, agents) -> losses, {"policy", "central"} grads
    policy_lr: float
    columns: Callable       # (losses, regularizer value) -> the four loss columns


def _learner(cfg: ExperimentConfig, env, steps: int) -> _Learner:
    # The closures, like train_seed's regularizer calls, look the functions
    # up by name when called, so that wrapping them in this module (tracing,
    # tests) takes effect.
    if cfg.algo == "qcombo":
        return _Learner(
            QCOMBO_HEADER,
            lambda policy, obs, t, rng: select_action_discrete(
                policy, obs, _explore_rate(t, steps, cfg["explore_final"]), rng,
                env.n_out),
            lambda batch, agents: qcombo_losses(batch, agents, cfg["gamma"],
                                                cfg["lambda_q"]),
            cfg["lr"],
            lambda losses, reg_val: (losses["ind"], losses["glob"], losses["reg"],
                                     losses["total"]))
    return _Learner(
        DDPG_HEADER,
        lambda policy, obs, t, rng: select_action_continuous(policy, obs,
                                                             cfg["actor_noise"], rng),
        lambda batch, agents: ddpg_updates(batch, agents, cfg["gamma"]),
        cfg["lr"] if cfg["actor_lr"] is None else cfg["actor_lr"],
        lambda losses, reg_val: (losses["critic"], losses["actor_obj"], reg_val,
                                 losses["critic"] + reg_val))


def train_seed(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    env = make_env(cfg)
    agents = build_agents(cfg, env, seed)
    steps = int(cfg["train_steps"])
    learner = _learner(cfg, env, steps)
    policy_name, central_name = NET_NAMES[cfg.algo]
    ss = np.random.SeedSequence(seed)
    env_rng, attack_rng = [np.random.default_rng(c) for c in ss.spawn(2)]
    buf = ReplayBuffer(min(cfg["replay_capacity"], max(steps, 1)))
    metrics = _MetricsWriter(out_dir / "metrics.csv", learner.header)
    _write_run_manifest(out_dir, cfg)
    meta = {"algo": cfg.algo, "env": cfg.env, "seed": seed}
    nets = lambda: {policy_name: agents.policy, central_name: agents.central}
    _save_checkpoint(out_dir, 0, nets(), meta)
    interval = max(1, steps // 10)

    # The regularizers run, draw from attack_rng and add to reg_val in this
    # order: the observation attack on the policy stack, then ERNIE-A (qcombo
    # only, no draws) or the mean-field cloud (mf_ddpg only) on the central net.
    ecfg, ea, mf = cfg["ernie"], cfg["ernie_a"], cfg["meanfield"]
    acfg = _attack_config(cfg)
    ernie_on = bool(ecfg["enabled"]) and ecfg["lambda"] != 0.0
    ernie_a_on = bool(ea["enabled"]) and ea["lambda"] != 0.0
    cloud_on = bool(mf["enabled"]) and ecfg["lambda"] != 0.0

    state, obs = env.reset(int(env_rng.integers(2 ** 31)))
    gs = env.global_state(state)
    recent = deque(maxlen=10)
    ep_ret, ep_len = 0.0, 0
    t0 = time.monotonic()
    for t in range(1, steps + 1):
        actions = learner.act(agents.policy, obs, t, env_rng)
        state, obs, gs, g_reward, done = _env_step(env, buf, state, obs, gs, actions,
                                                   ep_len)
        ep_ret += g_reward
        ep_len += 1
        if done:
            recent.append(ep_ret)
            ep_ret, ep_len = 0.0, 0
            state, obs = env.reset(int(env_rng.integers(2 ** 31)))
            gs = env.global_state(state)

        columns, reg_val, atk_norm = (0.0, 0.0, 0.0, 0.0), 0.0, 0.0
        if t >= cfg["warmup"]:
            batch = stack_batch(buf.sample(cfg["batch"], env_rng))
            losses, grads = learner.update(batch, agents)
            if ernie_on and t >= ecfg["start_frac"] * steps:
                rows = min(int(ecfg["reg_rows"]), batch["obs"].shape[0])
                vals, norms, gt = _obs_regularizer(
                    agents.policy, batch["obs"][:rows].transpose(1, 0, 2), acfg,
                    ecfg["mode"], attack_rng, bool(ecfg["stackelberg"]))
                grads["policy"] += ecfg["lambda"] * gt
                reg_val = float(np.mean(vals))
                atk_norm = float(np.mean(norms))
            if ernie_a_on:
                value, g, hits = _action_regularizer_grad(agents, batch, int(ea["k"]),
                                                          int(ea["rows"]))
                if hits:  # adding a zero gradient could turn a -0.0 into 0.0
                    grads["central"] += ea["lambda"] * g
                reg_val += value
            if cloud_on:
                value, g, _ = _cloud_regularizer_grad(
                    agents.central, batch, env.n_agents, int(ecfg["reg_rows"]),
                    int(mf["mf_steps"]), float(mf["mf_eta"]), float(mf["lambda_w"]),
                    CLOUD_JITTER, attack_rng)
                grads["central"] += ecfg["lambda"] * g
                reg_val += value
            columns = learner.columns(losses, reg_val)
            _check_finite_losses(learner.header, (*columns, reg_val), t, seed)
            lr_t = _lr_at(t, steps, cfg["lr"], cfg["lr_decay"])
            policy_lr_t = _lr_at(t, steps, learner.policy_lr, cfg["lr_decay"])
            agents.policy = apply_grad(agents.policy, grads["policy"], policy_lr_t)
            agents.central = apply_grad(agents.central, grads["central"], lr_t)
            _check_finite(nets(), t, seed)
            agents.policy_target = soft_update(agents.policy_target, agents.policy,
                                               cfg["tau"])
            agents.central_target = soft_update(agents.central_target, agents.central,
                                                cfg["tau"])

        if t % cfg["log_interval"] == 0:
            m, s = _episode_stats(recent)
            metrics.row([str(t), str(seed)]
                        + [_fmt(x) for x in (m, s, *columns, reg_val, atk_norm)])
        if t % interval == 0 or t == steps:
            _save_checkpoint(out_dir, t, nets(), meta)

    (out_dir / "timings.json").write_text(json.dumps(
        {"seed": seed, "steps": steps,
         "wall_ms": (time.monotonic() - t0) * 1000.0}) + "\n")
    return {"out_dir": str(out_dir), "final_checkpoint": str(out_dir / f"ckpt_{steps:06d}")}


def train_run(cfg: ExperimentConfig, out_root) -> list[dict]:
    out_root = Path(out_root)
    return [train_seed(cfg, int(seed), out_root / f"seed_{seed}") for seed in cfg.seeds]
