# Every entry point the benchmark tracer wraps must exist, so a refactor that
# drops or renames a traced name fails here rather than in the benchmark; and
# every config the benchmark generates must resolve, so a stricter resolver
# fails here rather than in every bench run. bench/spans.py and
# bench/workloads.py are loaded read-only; nothing is wrapped.
import importlib
import importlib.util
from pathlib import Path

import pytest

from ernie_lab.config import resolve_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = _load("workloads")


@pytest.mark.parametrize("span,module,attr", _load("spans").TARGETS)
def test_trace_target_resolves(span, module, attr):
    owner = importlib.import_module(module)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        assert isinstance(owner, type), f"{span}: {module}.{owner_name} is not a class"
        assert callable(vars(owner).get(name)), f"{span}: {module}.{attr} is missing"
    else:
        assert callable(getattr(owner, name, None)), f"{span}: {module}.{attr} is missing"


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("seed", [WORKLOADS.DEV_SEED, WORKLOADS.HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_config_resolves(name, seed, tiny):
    doc, _ = WORKLOADS.generate(name, seed, tiny=tiny)
    assert resolve_config(doc)["algo"] == doc["algo"]
