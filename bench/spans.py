"""In-memory span tracer for the ernie-lab benchmark.

The tracer wraps the public entry point of each layer from outside the
package. Callers bind names with ``from .net import net_forward``, so a
function is replaced in every loaded ``ernie_lab`` module that holds it;
methods are replaced on their class. A target that no longer exists raises
``TraceTargetMissing``: the benchmark fails instead of reporting zero.

Spans (name, start, end, parent) are kept in memory and written out once,
when the traced run ends.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

import numpy as np

# (span, module, attribute); "Class.method" is wrapped on the class. Several
# targets may share one span.
TARGETS = (
    ("replay.push", "ernie_lab.replay", "ReplayBuffer.push"),
    ("replay.sample", "ernie_lab.replay", "ReplayBuffer.sample"),
    ("replay.stack_batch", "ernie_lab.replay", "stack_batch"),
    ("advreg.pgd_attack", "ernie_lab.advreg", "pgd_attack"),
    ("advreg.stackelberg_grad", "ernie_lab.advreg", "stackelberg_grad"),
    ("advreg.reg_value_and_grads", "ernie_lab.advreg", "reg_value_and_grads"),
    ("net.forward", "ernie_lab.net", "net_forward"),
    ("net.grads", "ernie_lab.net", "net_grads"),
    ("net.vector_to_net", "ernie_lab.net", "vector_to_net"),
    ("net.hvp", "ernie_lab.net", "hvp"),
    ("net.save_net", "ernie_lab.net", "save_net"),
    ("net.load_net", "ernie_lab.net", "load_net"),
    ("algos.select_action", "ernie_lab.algos", "select_action_discrete"),
    ("algos.select_action", "ernie_lab.algos", "select_action_continuous"),
    ("algos.ddpg_updates", "ernie_lab.algos", "ddpg_updates"),
    ("algos.qcombo_losses", "ernie_lab.algos", "qcombo_losses"),
    ("algos.apply_grad", "ernie_lab.algos", "apply_grad"),
    ("algos.soft_update", "ernie_lab.algos", "soft_update"),
    ("actionreg.greedy_action_attack", "ernie_lab.actionreg", "greedy_action_attack"),
    ("envs.step", "ernie_lab.envs", "CoopNavEnv.step"),
    ("envs.step", "ernie_lab.envs", "GridQueueEnv.step"),
    ("envs.rollout", "ernie_lab.envs", "rollout"),
    # The cloud regularizer has no public entry point yet.
    ("train.cloud_reg", "ernie_lab.train", "_cloud_regularizer_grad"),
    ("train.loop", "ernie_lab.train", "train_run"),
    ("evaluate.loop", "ernie_lab.evaluate", "evaluate_checkpoint"),
)

# Spans whose per-call durations are kept for percentiles.
PERCENTILE_SPANS = ("replay.stack_batch", "advreg.pgd_attack",
                    "advreg.stackelberg_grad", "algos.ddpg_updates",
                    "algos.qcombo_losses", "actionreg.greedy_action_attack")


class TraceTargetMissing(RuntimeError):
    pass


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _note_net(span):
    def note(counters, args, kwargs, out):
        counters[span + ".rows"] += _rows(args[1] if len(args) > 1 else kwargs["x"])
    return note


def _note_pgd(counters, args, kwargs, out):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    delta = np.atleast_2d(out)
    if cfg.norm == "linf":
        size = np.max(np.abs(delta), axis=-1)
    else:
        size = np.linalg.norm(delta, axis=-1)
    counters["advreg.pgd_attack.rows"] += delta.shape[0]
    if cfg.epsilon > 0.0:
        counters["advreg.pgd_attack.boundary_rows"] += int(
            np.sum(size >= cfg.epsilon * (1.0 - 1e-9)))


def _note_greedy(counters, args, kwargs, out):
    counters["actionreg.greedy_action_attack.q_evals"] += out.evals


def _note_save(counters, args, kwargs, out):
    counters["net.save_net.bytes"] += os.path.getsize(
        args[1] if len(args) > 1 else kwargs["path"])


# Counters measured where the work happens, from a wrapped call's
# arguments and result.
NOTES = {
    "net.forward": _note_net("net.forward"),
    "net.grads": _note_net("net.grads"),
    "advreg.pgd_attack": _note_pgd,
    "actionreg.greedy_action_attack": _note_greedy,
    "net.save_net": _note_save,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, span: str):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        sid = self._ids[span]
        note = NOTES.get(span)
        names, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack, counters, clock = self._stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                note(counters, args, kwargs, out)
            return out
        return traced

    def arrays(self) -> dict:
        return {"span": np.asarray(self.span_name, dtype=np.int32),
                "start_ns": np.asarray(self.start, dtype=np.int64),
                "end_ns": np.asarray(self.end, dtype=np.int64),
                "parent": np.asarray(self.parent, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span: calls, self time (duration minus child spans) and, for
        PERCENTILE_SPANS, every call's duration; plus the counters."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=dur.size)
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(a["span"], minlength=k)
        self_total = np.bincount(a["span"], weights=self_ns, minlength=k)
        spans = {}
        for sid, name in enumerate(self.names):
            entry = {"calls": int(calls[sid]), "self_ms": float(self_total[sid]) / 1e6}
            if name in PERCENTILE_SPANS:
                entry["durations_us"] = (dur[a["span"] == sid] / 1e3).tolist()
            spans[name] = entry
        return {"spans": spans, "counters": dict(self.counters)}


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "ernie_lab" or n.startswith("ernie_lab."))]


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Replace every target by its traced wrapper."""
    for span, modname, attr in targets:
        try:
            mod = importlib.import_module(modname)
        except ImportError as exc:
            raise TraceTargetMissing(f"{span}: cannot import {modname}: {exc}") from exc
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = vars(owner).get(fn_name) if isinstance(owner, type) else None
            if original is None:
                raise TraceTargetMissing(f"{span}: {modname}.{attr} does not exist")
            setattr(owner, fn_name, tracer.wrap(original, span))
            continue
        original = getattr(mod, fn_name, None)
        if not callable(original):
            raise TraceTargetMissing(f"{span}: {modname}.{attr} does not exist")
        wrapped = tracer.wrap(original, span)
        for m in _package_modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
