# Dead-code guard: every module-level function and class, and every method
# but the dunder ones, must be loaded by some code in the package, and every
# dataclass field and function or method parameter read. An import alone
# does not count, so a function that only tests call fails here and gets
# deleted rather than kept "for later". Every name a module of the package,
# the tests or the tools imports must be read in that module.
# Layering guards beside it: importing the CLI leaves scipy unloaded,
# training and evaluating leave numpy.ma unloaded, the trainer, the evaluator
# and a coopnav rollout leave logging and the tabular lab unloaded, evaluate
# imports nothing from the trainer, and the envs and evaluate import nothing
# from the config.
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ernie_lab"

# Oracles the acceptance suite holds the package's fast paths to: the brute
# force behind the greedy action attack (criterion 5). The transport distance
# that criterion 6 judges needs no entry: the gradcheck suite holds the cloud
# attack's penalty to w_distance, and the two share one per-particle distance.
ORACLES = {"brute_force_action_attack"}


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(trees) -> set:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _definitions(tree):
    """(qualified name, node) of each module-level function and class of tree
    and of each method of its classes but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_function_is_loaded_in_the_package():
    trees = _trees()
    loaded = _loaded_names(trees)
    unused = sorted(f"{module}:{qualname}"
                    for module, tree in trees.items() for qualname, node in _definitions(tree)
                    if node.name not in loaded and node.name not in ORACLES)
    assert not unused, f"definitions that no code in the package loads: {unused}"


# Dataclass fields that only readers outside the package read: criterion 5
# compares greedy's values with brute force's, and the benchmark's q_evals
# counter sums the attack's evaluation counts.
READ_OUTSIDE = {"ActionAttackResult.value", "ActionAttackResult.evals"}


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def test_every_dataclass_field_is_read():
    # A field that no code reads as an attribute is a value computed and
    # stored in vain.
    trees = _trees()
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = sorted(f"{module}:{node.name}.{stmt.target.id}"
                    for module, tree in trees.items() for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    and any(_is_dataclass(d) for d in node.decorator_list)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in read
                    and f"{node.name}.{stmt.target.id}" not in READ_OUTSIDE)
    assert not unread, f"dataclass fields that no code in the package reads: {unread}"


def test_every_parameter_is_read():
    # A parameter that its function's body never reads is an option that
    # changes nothing: callers set it in vain. A method's first parameter
    # (self or cls) is not checked.
    unread = []
    for module, tree in _trees().items():
        for qualname, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            params = params[1:] if "." in qualname else params
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{module}:{qualname}({p})" for p in params if p not in read]
    assert not unread, f"parameters that their function never reads: {unread}"


def test_every_import_is_read():
    # An import that its module never reads is a stale one: a refactor moved
    # the last use away and left the import behind.
    unread = []
    for path in sorted(p for d in (PACKAGE, ROOT / "tests", ROOT / "tools")
                       for p in d.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += [f"{path.relative_to(ROOT)}:{node.lineno}:{name}"
                       for name in names if name not in read]
    assert not unread, f"imports that their module never reads: {unread}"


def test_cli_import_leaves_scipy_unloaded():
    # train._versions reads scipy's version without importing scipy, whose
    # import would dwarf a short run's setup time and peak RSS; the CLI's
    # import chain must not load it either.
    assert _run_python("import sys, ernie_lab.cli; print('scipy' in sys.modules)") == "False"


def _run_python(code: str, *args: str) -> str:
    """The stdout of code run in a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_evaluation_leaves_numpy_ma_unloaded(tmp_path):
    # np.percentile imports numpy.ma (through np.unique), which costs a fresh
    # process more than a small sweep's rollout; evaluate._percentile
    # computes the summary without it. A tiny qcombo run evaluated under
    # every kind of perturbation must leave numpy.ma unloaded.
    code = """
import sys
from ernie_lab.config import resolve_config
from ernie_lab.evaluate import evaluate_checkpoint
from ernie_lab.train import train_run
cfg = resolve_config({"train_steps": 4, "warmup": 2, "batch": 2, "hidden": 4,
                      "eval": {"obs_noise_sigmas": [0.0, 0.5], "dynamics_scales": [1.25],
                               "malicious_rates": [0.5], "episodes": 2}})
ckpt = train_run(cfg, sys.argv[1])[0]["final_checkpoint"]
evaluate_checkpoint(cfg, ckpt, sys.argv[1] + "/eval")
print("numpy.ma" in sys.modules)
"""
    assert _run_python(code, str(tmp_path)) == "False"


def test_train_and_evaluate_leave_logging_and_mdp_unloaded():
    # No training or evaluation path logs, and the tabular lab (mdp.py)
    # serves certification alone; the package's __init__ re-exports nothing,
    # so importing the trainer and the evaluator, as the benchmark's set-up
    # does, loads neither. The rollout's actions lie outside [-1, 1], so the
    # step's clip runs.
    code = """
import sys
import numpy as np
import ernie_lab.evaluate, ernie_lab.train
from ernie_lab.envs import CoopNavEnv, PerturbSpec, rollout
specs = [PerturbSpec(), PerturbSpec(obs_noise_sigma=0.5), PerturbSpec(dynamics_scale=1.25)]
rollout(CoopNavEnv(3), lambda obs: np.full(obs.shape[:-1] + (2,), 2.0), 5, specs, [0, 1, 2])
print(sorted(m for m in ("logging", "ernie_lab.mdp") if m in sys.modules))
"""
    assert _run_python(code) == "[]"


def _imported_modules(tree) -> list:
    mods = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods += [node.module] if node.module else [a.name for a in node.names]
    return mods


def test_evaluate_does_not_import_the_trainer():
    # Evaluation reads checkpoints and the envs; the trainer stays out of it.
    mods = _imported_modules(_trees()["evaluate.py"])
    assert not [m for m in mods if m in ("train", "ernie_lab.train")], mods
    for src in ("from .train import make_env", "from . import train",
                "import ernie_lab.train"):
        assert set(_imported_modules(ast.parse(src))) & {"train", "ernie_lab.train"}


def test_envs_and_evaluate_do_not_import_the_config():
    # A resolved config is a plain dict, so the envs and the evaluator read
    # its leaves by key and depend on no config module.
    trees = _trees()
    for module in ("envs.py", "evaluate.py"):
        mods = _imported_modules(trees[module])
        assert not [m for m in mods if m in ("config", "ernie_lab.config")], (module, mods)
