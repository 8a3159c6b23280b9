# Dead-code guard: every module-level function in the package must be loaded
# by some code in the package. An import alone does not count, so a function
# that only tests call fails here and gets deleted rather than kept "for later".
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ernie_lab"

# Oracles the acceptance suite holds the package's fast paths to: the brute
# force behind the greedy action attack (criterion 5) and the exact transport
# distance behind the identity coupling (criterion 6).
ORACLES = {"brute_force_action_attack", "w_distance"}


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


def test_every_function_is_loaded_in_the_package():
    trees = _trees()
    loaded = _loaded_names(trees)
    unused = sorted(f"{module}:{node.name}"
                    for module, tree in trees.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name not in loaded and node.name not in ORACLES)
    assert not unused, f"functions that no code in the package loads: {unused}"


def test_every_parameter_is_read():
    # A parameter that its function's body never reads is an option that
    # changes nothing: callers set it in vain.
    unread = []
    for module, tree in _trees().items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{module}:{node.name}({p})" for p in params if p not in read]
    assert not unread, f"parameters that their function never reads: {unread}"
