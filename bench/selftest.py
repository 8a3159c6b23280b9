"""Self-test of the benchmark's own code, at tiny sizes.

Run from the repository root (about 30 s on 2 cores):

    python3 bench/selftest.py

Checks that, for every workload in BENCHMARK.json, an untraced and a traced
invocation emit every listed metric with its unit and no failed repetition;
that traced and untraced repetitions write identical metrics.csv and
results.csv; that span self times add up to the traced wall time; and that
a missing wrap target makes the run fail.
"""
from __future__ import annotations

import json
import sys

import run
import spans
import workloads


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_benchmark_json(bench: dict) -> None:
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "metric names are unique")
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "every end-to-end bound is in (0, 0.25]")
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads match bench/workloads.py")


def check_workload(name: str, bench: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, reps, _ = run.measure(name, workloads.DEV_SEED, 1, trace, tiny=True)
        errors = [r.get("error") for r in reps if not r["ok"]]
        check(result["correct"] and result["failed"] == 0 and not errors,
              f"{name} trace={int(trace)}: {result['attempted']} repetitions pass {errors}")
        listed = {m["name"]: m["unit"] for m in bench[key]}
        emitted = {k: m["unit"] for k, m in result["metrics"].items()}
        check(emitted == listed, f"{name} trace={int(trace)}: every {key} metric emitted "
              "with its unit")
        if trace:
            digests = {(r["metrics_sha256"], r["results_sha256"], r["traced"]) for r in reps}
            check(len({d[:2] for d in digests}) == 1 and len(digests) == 2,
                  f"{name}: traced and untraced outputs are identical")
            traced = next(r for r in reps if r["traced"])
            total = sum(s["self_ms"] for s in traced["trace"]["spans"].values())
            wall_ms = 1000.0 * (traced["train_s"] + traced["eval_s"])
            check(0.97 * wall_ms <= total <= wall_ms,
                  f"{name}: span self times sum to {total:.0f} of {wall_ms:.0f} ms wall")


def check_missing_target() -> None:
    bogus = ("train.gone", "ernie_lab.train", "no_such_function")
    try:
        run.measure("coopnav_pgd", workloads.DEV_SEED, 1, True, tiny=True,
                    extra_targets=[bogus])
    except run.BenchError as exc:
        check("no_such_function" in str(exc), "a missing wrap target fails the run")
    else:
        check(False, "a missing wrap target fails the run")
    try:
        spans.install(spans.Tracer(), [("x", "ernie_lab.envs", "CoopNavEnv.gone")])
    except spans.TraceTargetMissing:
        check(True, "a missing method target raises TraceTargetMissing")
    else:
        check(False, "a missing method target raises TraceTargetMissing")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    check_benchmark_json(bench)
    check(run.tail_percentile(2000) == 99.0 and run.tail_percentile(100) == 90.0,
          "tail percentile keeps ten samples beyond it")
    for w in bench["workloads"]:
        check_workload(w["name"], bench)
    check_missing_target()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
