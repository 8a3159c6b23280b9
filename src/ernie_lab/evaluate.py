# Perturbation-sweep evaluation of a trained checkpoint: episodic returns per
# PerturbSpec, every spec's episodes in one lock-step rollout, plus a
# percentile summary.
from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .algos import NET_NAMES, select_action_continuous, select_action_discrete
from .envs import PerturbSpec, make_env, rollout
from .net import load_net

# results.csv's spec columns, like each summary.json "spec", are PerturbSpec's fields
RESULTS_HEADER = ",".join([f.name for f in fields(PerturbSpec)] + ["episode", "episodic_return"])


def _json_object(path, doc, what: str, keys=()) -> dict:
    """doc, checked to be a JSON object that holds every one of keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{path}: {what} has no {key!r} key")
    return doc


def load_checkpoint(path) -> dict:
    """The manifest and the two nets of a checkpoint: its algo's policy agent
    stack, an (N, P) block, and its central net, a (P,) vector."""
    path = Path(path)
    try:
        doc = json.loads((path / "manifest.json").read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path / 'manifest.json'}: not valid JSON: {exc}") from None
    manifest = _json_object(path, doc, "manifest.json", ("env", "nets"))
    algo = manifest.get("algo")
    if not isinstance(algo, str) or algo not in NET_NAMES:
        raise ValueError(f"{path}: checkpoint algo {algo!r} is not one of {sorted(NET_NAMES)}")
    entries = _json_object(path, manifest["nets"], "manifest 'nets'")
    nets = {}
    for name, stacked in zip(NET_NAMES[algo], (True, False)):
        if name not in entries:
            raise ValueError(f"{path}: no {name!r} net in the checkpoint, which has "
                             f"{sorted(entries)}")
        e = _json_object(path, entries[name], f"manifest net {name!r}",
                         ("file", "layer_dims", "activation"))
        if not isinstance(e["file"], str):
            raise ValueError(f"{path}: manifest net {name!r} 'file' is not a string: "
                             f"{e['file']!r}")
        # a bare name in the checkpoint directory: an absolute path or one
        # with a directory part would load a file from elsewhere
        if e["file"] in ("", ".", "..") or Path(e["file"]).name != e["file"]:
            raise ValueError(f"{path}: manifest net {name!r} 'file' is not a file name in "
                             f"the checkpoint: {e['file']!r}")
        if not (isinstance(e["layer_dims"], list)
                and all(type(d) is int for d in e["layer_dims"])):
            raise ValueError(f"{path}: manifest net {name!r} 'layer_dims' is not a list "
                             f"of integers: {e['layer_dims']!r}")
        try:
            nets[name] = load_net(path / e["file"], e["layer_dims"], e["activation"])
        except ValueError as exc:
            raise ValueError(f"{path}: manifest net {name!r}: {exc}") from None
        if nets[name].stacked != stacked:
            raise ValueError(f"{path}: {name!r} is not "
                             f"{'an (N, P) agent stack' if stacked else 'a (P,) vector'}")
    return {"manifest": manifest, "nets": nets}


def build_policy(ckpt: dict):
    """Greedy/deterministic execution policy from a checkpoint, mapping the
    observations (E, N, d) of E episodes to their joint actions: training's
    action head at zero exploration, so each episode's actions are bit for
    bit those of its own (N, d) call."""
    manifest, nets = ckpt["manifest"], ckpt["nets"]
    policy = nets[NET_NAMES[manifest["algo"]][0]]
    if manifest["algo"] == "qcombo":
        return lambda obs: select_action_discrete(policy, obs, 0.0, None)
    return lambda obs: select_action_continuous(policy, obs, 0.0, None)


def sweep_specs(cfg: dict) -> list[PerturbSpec]:
    ev = cfg["eval"]
    specs = [PerturbSpec(obs_noise_sigma=float(s))
             for s in sorted(ev["obs_noise_sigmas"])]
    specs += [PerturbSpec(dynamics_scale=float(d))
              for d in sorted(ev["dynamics_scales"]) if float(d) != 1.0]
    specs += [PerturbSpec(malicious_rate=float(r), malicious_mode=ev["malicious_mode"])
              for r in sorted(ev["malicious_rates"]) if float(r) > 0.0]
    return specs


def evaluate_specs(env, act_fn, specs, episodes: int, base_seeds) -> np.ndarray:
    """The (S, episodes) global returns of episodes episodes under each of
    the S specs, all run in one lock-step rollout. Spec s's episode seeds
    derive from base_seeds[s] alone, so specs given the same base seed run
    the same episodes. A non-finite return raises FloatingPointError naming
    its spec, episode and seed."""
    seeds = [[int(np.random.default_rng(np.random.SeedSequence([base_seed, ep]))
                  .integers(2 ** 31)) for ep in range(episodes)] for base_seed in base_seeds]
    rets = rollout(env, act_fn, env.episode_len,
                   [spec for spec in specs for _ in range(episodes)],
                   [seed for row in seeds for seed in row])
    rets = rets.reshape(len(specs), episodes)
    bad = np.argwhere(~np.isfinite(rets))
    if bad.size:
        s, ep = (int(i) for i in bad[0])
        raise FloatingPointError(f"non-finite return {float(rets[s, ep])!r} in episode {ep} "
                                 f"(seed {seeds[s][ep]}) under {specs[s]}")
    return rets


def _percentile(x, q: float) -> float:
    """np.percentile(x, q) of a 1-D array of finite values, bit for bit, by
    the same linear method: numpy's partition of a copy, with the kth set
    numpy builds, and its _lerp. numpy builds that set with np.unique, whose
    import of numpy.ma costs more than a small sweep's rollout."""
    arr = np.array(x, dtype=float)
    n = arr.size
    index = (n - 1) * (q / 100)
    prev = math.floor(index)
    nxt = prev + 1
    if index >= n - 1:
        prev = nxt = -1
    arr.partition(sorted({0, -1, prev, nxt}))
    a, b = arr[prev], arr[nxt]
    t = index - prev
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def evaluate_checkpoint(cfg: dict, checkpoint_path, out_dir, base_seed: int = 0) -> dict:
    ckpt = load_checkpoint(checkpoint_path)
    if ckpt["manifest"]["env"] != cfg["env"]:
        raise ValueError(f"checkpoint env {ckpt['manifest']['env']!r} "
                         f"does not match config env {cfg['env']!r}")
    env = make_env(cfg)
    n_agents = ckpt["nets"][NET_NAMES[ckpt["manifest"]["algo"]][0]].theta.shape[0]
    if n_agents != env.n_agents:
        raise ValueError(f"checkpoint has {n_agents} agents, "
                         f"config env {cfg['env']!r} has {env.n_agents}")
    act_fn = build_policy(ckpt)
    episodes = int(cfg["eval"]["episodes"])

    specs = sweep_specs(cfg)
    returns = evaluate_specs(env, act_fn, specs, episodes,
                             [base_seed * 100003 + idx for idx in range(len(specs))])
    lines = [RESULTS_HEADER]
    summary = []
    for spec, rets in zip(specs, returns):
        values = asdict(spec)
        # a float column is its repr, the mode its unquoted string
        cells = [v if isinstance(v, str) else repr(v) for v in values.values()]
        for ep, r in enumerate(rets):
            lines.append(",".join(cells + [str(ep), repr(float(r))]))
        summary.append({
            "spec": values,
            "mean": float(rets.mean()), "std": float(rets.std()),
            "p10": _percentile(rets, 10),
            "p50": _percentile(rets, 50),
            "p90": _percentile(rets, 90),
        })
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text("\n".join(lines) + "\n")
    doc = {"checkpoint": str(checkpoint_path), "episodes_per_spec": episodes,
           "specs": summary}
    (out / "summary.json").write_text(json.dumps(doc, indent=2) + "\n")
    return doc
