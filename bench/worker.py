"""One benchmark repetition, in a fresh interpreter.

Usage: python3 bench/worker.py JOB_DIR

Reads JOB_DIR/job.json, imports the package, resolves the config, trains it
with ``train_run`` and evaluates the final checkpoint with
``evaluate_checkpoint``, timing each call from outside the package. It then
checks the outputs and writes JOB_DIR/result.json. ``bench/run.py`` starts
this script with ``src`` on PYTHONPATH and the BLAS thread count pinned.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

# Exit code for a traced run whose wrap target is gone.
EXIT_TRACE_TARGET_MISSING = 3

CALIBRATION_ITERS = 4000

_NOT_LOSS_COLUMNS = {"step", "seed", "episodic_return_mean", "episodic_return_std"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(cfg, run: dict, summary: dict, evaluate) -> list[str]:
    """Reasons the run's outputs are wrong; empty when they pass."""
    errors = []
    lines = (Path(run["out_dir"]) / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    interval, steps = int(cfg["log_interval"]), int(cfg["train_steps"])
    expected = [str(k * interval) for k in range(1, steps // interval + 1)]
    if [r[0] for r in rows] != expected:
        errors.append(f"metrics.csv log rows {[r[0] for r in rows]} != {expected}")
    for row in rows:
        for name, value in zip(header, row):
            if name not in _NOT_LOSS_COLUMNS and not math.isfinite(float(value)):
                errors.append(f"metrics.csv {name} is {value} at step {row[0]}")
    try:
        ckpt = evaluate.load_checkpoint(run["final_checkpoint"])
        if ckpt["manifest"]["step"] != steps:
            errors.append(f"final checkpoint is step {ckpt['manifest']['step']}")
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"final checkpoint does not load: {exc!r}")
    n_specs = len(evaluate.sweep_specs(cfg))
    if len(summary["specs"]) != n_specs:
        errors.append(f"eval summary has {len(summary['specs'])} specs, not {n_specs}")
    for s in summary["specs"]:
        if not math.isfinite(s.get("mean", math.nan)):
            errors.append(f"eval summary mean is not finite for {s['spec']}")
    return errors


def _package_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def calibrate() -> float:
    """Seconds taken by a fixed numpy loop shaped like a small-network forward
    pass. It does not touch the package, so it tracks only the host's speed."""
    import numpy as np
    rng = np.random.default_rng(0)
    w1, w2 = rng.standard_normal((64, 20)), rng.standard_normal((2, 64))
    x = rng.standard_normal((32, 20))

    def loop(iters):
        nonlocal x
        for _ in range(iters):
            y = np.maximum(x @ w1.T, 0.0) @ w2.T
            x = np.concatenate([x[1:], x[:1] + 1e-3 * y[:1, :1]])

    loop(CALIBRATION_ITERS // 20)  # first calls pay one-time costs
    t = time.perf_counter()
    loop(CALIBRATION_ITERS)
    return time.perf_counter() - t


def _train_and_evaluate(job: dict, cfg, train, evaluate, out: Path) -> dict:
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        targets = spans.TARGETS + tuple(tuple(t) for t in job["extra_targets"])
        try:
            spans.install(tracer, targets)
        except spans.TraceTargetMissing as exc:
            print(f"trace target missing: {exc}", file=sys.stderr)
            sys.exit(EXIT_TRACE_TARGET_MISSING)

    t = time.perf_counter()
    run = train.train_run(cfg, out / "train")[0]
    train_s = time.perf_counter() - t
    calib_mid = calibrate()
    t = time.perf_counter()
    summary = evaluate.evaluate_checkpoint(cfg, run["final_checkpoint"], out / "eval",
                                           base_seed=int(job["base_seed"]))
    eval_s = time.perf_counter() - t
    calib_end = calibrate()

    result = {
        "train_s": train_s, "eval_s": eval_s, "calib_s": [calib_mid, calib_end],
        "train_steps": int(cfg["train_steps"]),
        "episodes": len(summary["specs"]) * int(summary["episodes_per_spec"]),
    }
    if tracer is not None:
        # Before the checks, whose checkpoint load would add spans.
        tracer.save(out / "spans.npz")
        result["trace"] = tracer.summary()
    result.update(errors=check_outputs(cfg, run, summary, evaluate),
                  metrics_sha256=_sha256(Path(run["out_dir"]) / "metrics.csv"),
                  results_sha256=_sha256(out / "eval" / "results.csv"))
    return result


def main(job_dir: Path) -> None:
    job = json.loads((job_dir / "job.json").read_text())
    t0 = time.perf_counter()
    from ernie_lab import evaluate, train
    from ernie_lab.config import resolve_config
    cfg = resolve_config(job["config"])
    result = {"setup_s": time.perf_counter() - t0, "calib_s": [calibrate()]}
    if job["setup_only"]:
        result["facts"] = _package_facts()
    else:
        done = _train_and_evaluate(job, cfg, train, evaluate, job_dir)
        result.update(done, calib_s=result["calib_s"] + done["calib_s"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (job_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
