# Smoke test of tools/row_block_bits.py, the row-block bit check behind the
# "Numerics rule" data point of ROADMAP.md. Its verdicts depend on the BLAS
# build, so only the report's form is checked.
import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "row_block_bits.py"


def test_reports_the_bench_shapes_and_a_count(capsys):
    spec = importlib.util.spec_from_file_location("row_block_bits", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.main(["--cases", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 4
    for line in lines[:3]:
        assert re.fullmatch(r"(critic|policy) .*: (bitwise|CHANGED)", line), line
    assert re.fullmatch(r"random shapes: \d of 4 changed bits \(\d of \d single nets\)",
                        lines[3]), lines[3]
