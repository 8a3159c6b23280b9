# The declared dependency floor: envs.CoopNavEnv.step (the collision test) and
# advreg.sample_ball (every attack start) call np.vecdot, new in NumPy 2.0.
# requires-python is 3.10, which has no tomllib, so the floor is read by regex.
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_floor_has_vecdot():
    deps = re.findall(r'"numpy\s*>=\s*(\d+)(?:\.(\d+))?[^"]*"',
                      (ROOT / "pyproject.toml").read_text())
    assert len(deps) == 1, f"expected one numpy floor in pyproject.toml, found {deps}"
    major, minor = deps[0]
    assert (int(major), int(minor or 0)) >= (2, 0)
