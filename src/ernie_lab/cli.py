# Command-line entry points: train / evaluate / certify / gradcheck.
# Exit codes: 0 success, 2 config error, 3 certification or gradient-check
# failure, 4 I/O error.
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .certify import run_certification
from .config import ConfigError, count_rule, echo_config, load_config, resolve_config
from .evaluate import evaluate_checkpoint
from .gradcheck import run_gradcheck
from .train import train_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_IO = 4


def _out_dir(cli_out: str | None, cfg: dict | None) -> Path:
    env_out = os.environ.get("ERNIE_LAB_OUT")
    if cli_out:
        return Path(cli_out)
    if env_out:
        return Path(env_out)
    if cfg is not None:
        return Path(cfg["paths"]["out_dir"])
    return Path("runs")


def _load(path: str, seed_override: int | None = None) -> dict:
    cfg = load_config(path)
    if seed_override is not None:
        cfg = resolve_config(dict(cfg, seeds=[seed_override]))
    return cfg


def cmd_train(args) -> int:
    try:
        cfg = _load(args.config, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args.out, cfg)
    try:
        echo_config(cfg, out)
        results = train_run(cfg, out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for r in results:
        print(f"trained: {r['out_dir']} (final checkpoint {r['final_checkpoint']})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    try:
        cfg = _load(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args.out, cfg) / "eval"
    try:
        doc = evaluate_checkpoint(cfg, args.checkpoint, out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for row in doc["specs"]:
        print(f"{row['spec']} mean={row['mean']:.4f} p50={row['p50']:.4f}")
    print(f"results: {out / 'results.csv'}")
    return EXIT_OK


def _write_report(cli_out: str | None, name: str, report: dict, suites) -> int:
    """Write a suite report as sorted JSON under the output directory, print
    each suite's verdict and map the overall verdict to an exit code."""
    out = _out_dir(cli_out, None)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for key in suites:
        print(f"{key}: {'pass' if report[key]['passed'] else 'FAIL'}")
    return EXIT_OK if report["passed"] else EXIT_CHECK


def cmd_certify(args) -> int:
    return _write_report(args.out, "theory_report.json",
                         run_certification(n_instances=args.instances, seed=args.seed),
                         ("theorem1", "theorem2", "theorem3", "negative_control"))


def cmd_gradcheck(args) -> int:
    return _write_report(args.out, "gradcheck_report.json", run_gradcheck(seed=args.seed),
                         ("net_grads", "hvp", "stackelberg", "cloud_coupling"))


def _count_arg(lo: int):
    """An argparse type: an integer that passes the config's count rule."""
    what, ok = count_rule(lo)

    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            val = None
        if not ok(val):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return val
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ernie-lab",
                                description="Adversarially regularized MARL lab")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train per-seed runs from a config")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=_count_arg(0), default=None)
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("evaluate", help="perturbation sweep on a checkpoint")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_evaluate)

    c = sub.add_parser("certify", help="run the theorem certification suites")
    c.add_argument("--instances", type=_count_arg(1), default=200)
    c.add_argument("--seed", type=_count_arg(0), default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_certify)

    g = sub.add_parser("gradcheck", help="run the finite-difference suites")
    g.add_argument("--seed", type=_count_arg(0), default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
