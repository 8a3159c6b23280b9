# Every entry point the benchmark tracer wraps must exist, so a refactor that
# drops or renames a traced name fails here rather than in the benchmark.
# bench/spans.py is loaded read-only; nothing is wrapped.
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("span,module,attr", _targets())
def test_trace_target_resolves(span, module, attr):
    owner = importlib.import_module(module)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        assert isinstance(owner, type), f"{span}: {module}.{owner_name} is not a class"
        assert callable(vars(owner).get(name)), f"{span}: {module}.{attr} is missing"
    else:
        assert callable(getattr(owner, name, None)), f"{span}: {module}.{attr} is missing"
