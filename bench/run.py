"""The ernie-lab benchmark.

Usage, from the repository root:

    python3 bench/run.py --workload coopnav_pgd --seed 1 --seconds 30 --trace 0

One repetition trains and evaluates a workload's generated config in a fresh
process (``bench/worker.py``). Repetitions run one after another, a single
caller with no concurrency, until ``--seconds`` have passed. All of them use
the same seed, so they must write byte-identical ``metrics.csv`` and
``results.csv``; a repetition that raises, fails an output check or differs
counts as failed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, medians over the repetitions. With ``--trace 1``
untraced and traced repetitions alternate, and the object holds the
per-layer metrics of the traced ones plus the tracing overhead. Machine
facts and a readable table go to stderr. BENCHMARK.json lists the metrics;
bench/DESIGN.md explains them.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import EXIT_TRACE_TARGET_MISSING

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPS = 3
MIN_TRACE_REPS = 4     # two untraced, two traced
MAX_REPS = 40
REP_TIMEOUT_S = 60     # a repetition takes 1-3 s
DEADLINE_S = 150       # an invocation must end within 180 s, even if workers hang
# Times are reported at the host speed where worker.calibrate() takes this
# long; see "Host speed" in bench/DESIGN.md.
NOMINAL_CALIB_S = 0.05


class BenchError(RuntimeError):
    pass


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))])


def tail_percentile(n: int) -> float:
    """The highest percentile, at most 99, with at least ten samples beyond it."""
    return min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / n))) if n else 99.0


def _worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    return env


def run_rep(job: dict, rep_dir: Path) -> dict:
    """Run one worker process to completion and return its result."""
    rep_dir.mkdir(parents=True)
    (rep_dir / "job.json").write_text(json.dumps(job))
    t = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(rep_dir)],
                              env=_worker_env(), capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "wall_s": time.monotonic() - t,
                "error": f"timed out after {REP_TIMEOUT_S} s"}
    wall_s = time.monotonic() - t
    if proc.returncode == EXIT_TRACE_TARGET_MISSING:
        raise BenchError(proc.stderr.strip())
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"ok": False, "wall_s": wall_s, "error": f"exit {proc.returncode}: {tail}"}
    result = json.loads((rep_dir / "result.json").read_text())
    result["wall_s"] = wall_s
    result["ok"] = not result.get("errors")
    if not result["ok"]:
        result["error"] = "; ".join(result["errors"])
    return result


def _check_digests(reps: list[dict]) -> None:
    """Fail every repetition whose outputs differ from the first good one."""
    good = [r for r in reps if r["ok"]]
    if not good:
        return
    ref = (good[0]["metrics_sha256"], good[0]["results_sha256"])
    for r in good[1:]:
        if (r["metrics_sha256"], r["results_sha256"]) != ref:
            r["ok"] = False
            r["error"] = "metrics.csv or results.csv differs from the first repetition"


def _at_nominal_speed(calibs) -> float:
    """Factor that turns a rate measured between calibrations that took
    mean(calibs) seconds into the rate at the nominal host speed."""
    return statistics.fmean(calibs) / NOMINAL_CALIB_S


def train_rate(r: dict) -> float:
    return r["train_steps"] / r["train_s"] * _at_nominal_speed(r["calib_s"][:2])


def eval_rate(r: dict) -> float:
    return r["episodes"] / r["eval_s"] * _at_nominal_speed(r["calib_s"][1:])


def setup_time(r: dict) -> float:
    return r["setup_s"] / _at_nominal_speed(r["calib_s"][:1])


def end_to_end_metrics(reps: list[dict], setups: list[dict]) -> dict:
    good = [r for r in reps if r["ok"]]
    return {
        "train_steps_per_s": (_median([train_rate(r) for r in good]), "steps/s"),
        "eval_episodes_per_s": (_median([eval_rate(r) for r in good]), "episodes/s"),
        "setup_s": (_median([setup_time(r) for r in setups]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in good]), "MB"),
        "runs_ok_frac": (len(good) / len(reps), "fraction"),
    }


def raw_medians(reps: list[dict]) -> dict:
    """Unnormalized medians and the calibration time, for the stderr report."""
    good = [r for r in reps if r["ok"]]
    return {"train_steps_per_s": _median([r["train_steps"] / r["train_s"] for r in good]),
            "eval_episodes_per_s": _median([r["episodes"] / r["eval_s"] for r in good]),
            "setup_s": _median([r["setup_s"] for r in good]),
            "calib_s": _median([c for r in good for c in r["calib_s"]])}


def layer_metrics(reps: list[dict]) -> dict:
    good = [r for r in reps if r["ok"]]
    traced = [r for r in good if "trace" in r]
    untraced = [r for r in good if "trace" not in r]
    if not traced or not untraced:
        raise BenchError("a traced run needs a good traced and a good untraced repetition")
    out = {}
    for span in traced[0]["trace"]["spans"]:
        per = [r["trace"]["spans"][span] for r in traced]
        out[f"{span}.calls"] = (_median([p["calls"] for p in per]), "count")
        out[f"{span}.self_ms"] = (_median([p["self_ms"] for p in per]), "ms")
        if "durations_us" in per[0]:
            pooled = [d for p in per for d in p["durations_us"]]
            out[f"{span}.p50_us"] = (_percentile(pooled, 50.0), "us")
            out[f"{span}.p99_us"] = (_percentile(pooled, tail_percentile(len(pooled))), "us")
            out[f"{span}.samples"] = (len(pooled), "count")

    def counter(key):
        return [r["trace"]["counters"].get(key, 0) for r in traced]

    for span in ("net.forward", "net.grads"):
        calls = sum(r["trace"]["spans"][span]["calls"] for r in traced)
        out[f"{span}.rows_per_call"] = (sum(counter(f"{span}.rows")) / calls if calls else 0.0,
                                        "rows")
    rows = sum(counter("advreg.pgd_attack.rows"))
    out["advreg.pgd_attack.boundary_frac"] = (
        sum(counter("advreg.pgd_attack.boundary_rows")) / rows if rows else 0.0, "fraction")
    out["actionreg.greedy_action_attack.q_evals"] = (
        _median(counter("actionreg.greedy_action_attack.q_evals")), "count")
    out["net.save_net.bytes"] = (_median(counter("net.save_net.bytes")), "bytes")

    with_trace = _median([train_rate(r) for r in traced])
    without = _median([train_rate(r) for r in untraced])
    out["trace.train_steps_per_s"] = (with_trace, "steps/s")
    out["trace.untraced_train_steps_per_s"] = (without, "steps/s")
    out["trace.overhead_frac"] = (1.0 - with_trace / without, "fraction")
    return out


def select_metrics(computed: dict, listed: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    metrics = {}
    for entry in listed:
        name = entry["name"]
        if name not in computed:
            raise BenchError(f"metric {name} is listed in BENCHMARK.json but not measured")
        value, unit = computed[name]
        if unit != entry["unit"]:
            raise BenchError(f"metric {name} is measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "blas_threads": BLAS_THREADS, "loadavg_start": os.getloadavg()}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            extra_targets=()) -> tuple[dict, list[dict], dict]:
    """Run one benchmark invocation. Returns (result, repetitions, facts)."""
    doc, base_seed = workloads.generate(workload, seed, tiny)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if trace else "end_to_end"]
    job = {"config": doc, "base_seed": base_seed, "trace": False, "setup_only": False,
           "extra_targets": [list(t) for t in extra_targets]}
    out = RUNS / workload
    shutil.rmtree(out, ignore_errors=True)
    facts = machine_facts()
    start = time.monotonic()

    first = run_rep(dict(job, setup_only=True), out / "setup")
    if not first["ok"]:
        raise BenchError(f"set-up failed: {first['error']}")
    facts.update(first["facts"])

    reps = []
    min_reps = MIN_TRACE_REPS if trace else MIN_REPS
    while len(reps) < MAX_REPS:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(dict(job, trace=traced), out / f"rep_{len(reps):02d}"))
        reps[-1]["traced"] = traced
        end = time.monotonic() - start + _median([r["wall_s"] for r in reps])
        if len(reps) >= min_reps and end > seconds or end > DEADLINE_S:
            break
    _check_digests(reps)
    facts["loadavg_end"] = os.getloadavg()

    failed = sum(not r["ok"] for r in reps)
    if failed == len(reps):
        raise BenchError(f"every repetition failed; first: {reps[0]['error']}")
    setups = [first] + [r for r in reps if r["ok"]]
    computed = layer_metrics(reps) if trace else end_to_end_metrics(reps, setups)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": select_metrics(computed, listed)}
    return result, reps, facts


def _report(workload: str, seed: int, result: dict, reps: list[dict], facts: dict) -> None:
    err = sys.stderr
    print("machine: " + json.dumps(facts), file=err)
    print(f"workload {workload}, seed {seed}: {result['attempted']} repetitions, "
          f"{result['failed']} failed, runs_failed_frac = "
          f"{result['failed'] / result['attempted']:.4g} fraction", file=err)
    print("raw medians, before host-speed normalization: "
          + json.dumps(raw_medians(reps)), file=err)
    for i, r in enumerate(reps):
        if not r["ok"]:
            print(f"  repetition {i} failed: {r['error']}", file=err)
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}", file=err)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "ernie_lab" / "__init__.py").is_file():
        print(f"bench: no ernie_lab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result, reps, facts = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, args.seed, result, reps, facts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
