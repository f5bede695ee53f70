"""Each demo's stdout, byte for byte, and the README quickstart's printed lines.

The expected files under golden/demos/ hold what each demo printed when they
were recorded.  Re-record them only when an output change is intended:

    python tests/test_demos.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(ROOT / "src")
GOLDEN = Path(__file__).parent / "golden" / "demos"
# three_way_check.py prints its own elapsed time, which no golden can hold
ELAPSED = "total time: "


def run(demo: Path | str) -> str:
    """The stdout of a demo file, or of a string of Python code, run with warnings as errors."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    command = [str(demo)] if isinstance(demo, Path) else ["-c", demo]
    done = subprocess.run(
        [sys.executable, "-W", "error", *command],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(ELAPSED))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    assert run(demo) == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")


def test_readme_quickstart_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # each print line ends in a comment that begins with what it prints
    comments = [
        line.partition("#")[2].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    printed = run(code).splitlines()
    assert len(printed) == len(comments) == 4
    for line, comment in zip(printed, comments):
        assert line and comment.startswith(line), (line, comment)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.txt").write_text(run(demo), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
