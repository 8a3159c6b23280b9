# Smoke test of tools/output_digests.py, the byte-identity check between two
# source trees, on the tiny size of one benchmark workload.
import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digests_cover_every_output_and_do_not_depend_on_the_directory(tmp_path, capsys):
    tool = _tool()
    assert tool.main(["--tiny", "--workloads", "gridq_ernie_a", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = {}
    for line in lines:
        m = re.fullmatch(r"gridq_ernie_a/1/(\S+) ([0-9a-f]{64})", line)
        assert m, line
        printed[m[1]] = m[2]
    assert list(printed) == sorted(printed)
    # A run in another directory gives the same digests: summary.json's
    # checkpoint path is made relative, and nothing else names the directory.
    root = tmp_path / "elsewhere"
    assert tool.run_digests("gridq_ernie_a", 1, root, tiny=True) == printed
    names = {Path(p).name for p in printed}
    assert {"config.resolved.json", "metrics.csv", "run.json", "results.csv",
            "summary.json", "manifest.json", "ind.npy", "glob.npy"} <= names
    assert "timings.json" not in names and any(root.rglob("timings.json"))
    assert str(root) not in (root / "eval" / "summary.json").read_text()
