# Perturbation-sweep evaluation of a trained checkpoint: episodic returns per
# PerturbSpec plus a percentile summary.
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .algos import NET_NAMES, GlobalQ
from .config import ExperimentConfig
from .envs import PerturbSpec, rollout
from .net import load_net, net_forward, stack_nets
from .train import make_env

RESULTS_HEADER = "obs_noise_sigma,dynamics_scale,malicious_rate,malicious_mode,episode,episodic_return"


def load_checkpoint(path) -> dict:
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    nets = {name: load_net(path / e["file"], e["layer_dims"], e["activation"])
            for name, e in manifest["nets"].items()}
    return {"manifest": manifest, "nets": nets}


def build_policy(ckpt: dict):
    """Greedy/deterministic execution policy from a checkpoint, mapping the
    observations (E, N, d) of E episodes to their joint actions, plus the
    global Q used by the adversarial injector (qcombo only). All agents'
    nets run as one agent stack on E row stacks: each episode's actions are
    bit for bit those of its own (N, d) call."""
    manifest, nets = ckpt["manifest"], ckpt["nets"]
    policy_name, central_name = NET_NAMES[manifest["algo"]]
    policy = stack_nets(nets[f"{policy_name}_{i}"] for i in range(manifest["n_agents"]))

    def out(obs):
        return net_forward(policy, obs[:, :, None, :])[:, :, 0, :]

    if manifest["algo"] == "qcombo":
        q_global = GlobalQ(nets[central_name], policy.out_dim)
        return lambda obs: np.argmax(out(obs), axis=-1), q_global
    return lambda obs: np.clip(out(obs), -1.0, 1.0), None


def sweep_specs(cfg: ExperimentConfig) -> list[PerturbSpec]:
    ev = cfg["eval"]
    specs = [PerturbSpec(obs_noise_sigma=float(s))
             for s in sorted(ev["obs_noise_sigmas"])]
    specs += [PerturbSpec(dynamics_scale=float(d))
              for d in sorted(ev["dynamics_scales"]) if float(d) != 1.0]
    specs += [PerturbSpec(malicious_rate=float(r), malicious_mode=ev["malicious_mode"])
              for r in sorted(ev["malicious_rates"]) if float(r) > 0.0]
    return specs


def evaluate_spec(env, act_fn, spec: PerturbSpec, episodes: int, base_seed: int,
                  q_global=None) -> np.ndarray:
    """The global returns of episodes episodes under spec, run in lock step.
    A non-finite return raises FloatingPointError naming its episode and seed."""
    seeds = [int(np.random.default_rng(np.random.SeedSequence([base_seed, ep]))
                 .integers(2 ** 31)) for ep in range(episodes)]
    rets = rollout(env, act_fn, env.episode_len, spec, seeds, q_global)
    bad = np.flatnonzero(~np.isfinite(rets))
    if bad.size:
        ep = int(bad[0])
        raise FloatingPointError(f"non-finite return {float(rets[ep])!r} in episode {ep} "
                                 f"(seed {seeds[ep]}) under {spec}")
    return rets


def evaluate_checkpoint(cfg: ExperimentConfig, checkpoint_path, out_dir,
                        base_seed: int = 0) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = load_checkpoint(checkpoint_path)
    if ckpt["manifest"]["env"] != cfg.env:
        raise ValueError(f"checkpoint env {ckpt['manifest']['env']!r} "
                         f"does not match config env {cfg.env!r}")
    env = make_env(cfg)
    if ckpt["manifest"]["n_agents"] != env.n_agents:
        raise ValueError(f"checkpoint has {ckpt['manifest']['n_agents']} agents, "
                         f"config env {cfg.env!r} has {env.n_agents}")
    act_fn, q_global = build_policy(ckpt)
    episodes = int(cfg["eval"]["episodes"])

    lines = [RESULTS_HEADER]
    summary = []
    for idx, spec in enumerate(sweep_specs(cfg)):
        rets = evaluate_spec(env, act_fn, spec, episodes,
                             base_seed * 100003 + idx, q_global)
        for ep, r in enumerate(rets):
            lines.append(",".join([repr(spec.obs_noise_sigma),
                                   repr(spec.dynamics_scale),
                                   repr(spec.malicious_rate), spec.malicious_mode,
                                   str(ep), repr(float(r))]))
        summary.append({
            "spec": {"obs_noise_sigma": spec.obs_noise_sigma,
                     "dynamics_scale": spec.dynamics_scale,
                     "malicious_rate": spec.malicious_rate,
                     "malicious_mode": spec.malicious_mode},
            "mean": float(rets.mean()), "std": float(rets.std()),
            "p10": float(np.percentile(rets, 10)),
            "p50": float(np.percentile(rets, 50)),
            "p90": float(np.percentile(rets, 90)),
        })
    (out / "results.csv").write_text("\n".join(lines) + "\n")
    doc = {"checkpoint": str(checkpoint_path), "episodes_per_spec": episodes,
           "specs": summary}
    (out / "summary.json").write_text(json.dumps(doc, indent=2) + "\n")
    return doc
