"""SHA-256 of every file that training and evaluating the benchmark workloads
write: the byte-identity check between two source trees.

Usage, from the repository root:

    PYTHONPATH=<tree>/src python3 tools/output_digests.py [--seeds 1 7919]
        [--workloads W ...] [--tiny] > digests.txt

Each workload of bench/workloads.py is trained with ``train_run`` and its
final checkpoint evaluated with ``evaluate_checkpoint``, as one benchmark
repetition does, in a temporary directory that is removed afterwards. The
resolved config is echoed beside the training runs, as ``ernie-lab train``
echoes it. One line ``<workload>/<seed>/<path> <sha256>`` is printed per
output file, in sorted order. ``timings.json`` holds wall-clock time and is
skipped; the checkpoint path inside ``summary.json`` is made relative to the
run's directory. Run it with PYTHONPATH set to one tree's ``src`` and then to
another's, and diff the two outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads  # noqa: E402  (bench/workloads.py)

SKIPPED = {"timings.json"}


def run_digests(name: str, seed: int, root: Path, tiny: bool = False) -> dict:
    """{relative path: sha256} of every file one workload and bench seed
    write under root."""
    from ernie_lab.config import echo_config, resolve_config
    from ernie_lab.evaluate import evaluate_checkpoint
    from ernie_lab.train import train_run

    doc, base_seed = workloads.generate(name, seed, tiny=tiny)
    cfg = resolve_config(doc)
    echo_config(cfg, root / "train")
    run = train_run(cfg, root / "train")[0]
    evaluate_checkpoint(cfg, run["final_checkpoint"], root / "eval", base_seed=base_seed)
    summary = root / "eval" / "summary.json"
    summary.write_text(summary.read_text().replace(str(root) + os.sep, ""))
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name not in SKIPPED}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=sorted(workloads.WORKLOADS),
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int,
                   default=[workloads.DEV_SEED, workloads.HELD_OUT_SEED])
    p.add_argument("--tiny", action="store_true",
                   help="the self-test's small sizes instead of the full ones")
    args = p.parse_args(argv)
    for name in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                for path, digest in run_digests(name, seed, Path(tmp), args.tiny).items():
                    print(f"{name}/{seed}/{path} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
