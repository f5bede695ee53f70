"""Each demo's stdout, byte for byte.

The expected files under golden/demos/ hold what each demo printed when they
were recorded.  Re-record them only when an output change is intended:

    python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
SRC = str(Path(__file__).parent.parent / "src")
GOLDEN = Path(__file__).parent / "golden" / "demos"
# three_way_check.py prints its own elapsed time, which no golden can hold
ELAPSED = "total time: "


def run(demo: Path) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(ELAPSED))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    assert run(demo) == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.txt").write_text(run(demo), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
