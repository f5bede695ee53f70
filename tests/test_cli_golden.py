"""Byte-for-byte CLI output: stdout or the --out file, stderr and exit code per invocation.

The expected files under golden/cli/ hold what each invocation printed when
they were recorded.  Re-record them only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mosaicforest.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
EXPECTED = GOLDEN / "expected.json"

FORMATS = {"md": "markdown", "csv": "csv", "jsonl": "jsonl"}

CASES = {}
for _ext, _fmt in FORMATS.items():
    CASES[f"counts_4_5_L10.{_ext}"] = ["counts", "--p", "4", "--q", "5", "--levels", "10",
                                       "--format", _fmt]
    CASES[f"constants_4_5.{_ext}"] = ["constants", "--p", "4", "--q", "5", "--format", _fmt]
    CASES[f"constants_4_6_P40.{_ext}"] = ["constants", "--p", "4", "--q", "6",
                                          "--precision", "40", "--format", _fmt]
    for _mode in ("asymptotic", "exact", "both"):
        CASES[f"probs_{_mode}_4_5_L7.{_ext}"] = ["probs", "--p", "4", "--q", "5", "--levels", "7",
                                                 "--mode", _mode, "--format", _fmt]
CASES["probs_exact_4_4_L5.md"] = ["probs", "--p", "4", "--q", "4", "--levels", "5",
                                  "--mode", "exact"]
CASES["verify_L3.txt"] = ["verify", "--levels", "3"]
CASES["verify_corrupt_L3.txt"] = ["verify", "--levels", "3", "--symbols", "4:5,4:4",
                                  "--inject-corruption"]
CASES["verify_degenerate_3_7.txt"] = ["verify", "--levels", "3", "--symbols", "4:5,3:7"]
CASES["verify_refused_7_3_3_4.txt"] = ["verify", "--levels", "2", "--symbols", "4:5,7:3,3:4"]
for _p, _q, _levels in (("3", "7", "3"), ("4", "5", "2")):
    for _what in ("forest", "spanning", "mosaic-edges"):
        CASES[f"export_{_what}_{_p}_{_q}_L{_levels}.txt"] = [
            "export", "--what", _what, "--p", _p, "--q", _q, "--levels", _levels]
CASES["error_counts_3_7.txt"] = ["counts", "--p", "3", "--q", "7", "--levels", "4"]
CASES["error_counts_negative_levels.txt"] = ["counts", "--p", "4", "--q", "5", "--levels", "-1"]
CASES["error_constants_4_4.txt"] = ["constants", "--p", "4", "--q", "4"]
CASES["error_probs_level_0.txt"] = ["probs", "--p", "4", "--q", "5", "--levels", "0"]
CASES["error_verify_level_0.txt"] = ["verify", "--levels", "0", "--symbols", "4:5"]
CASES["error_export_level_0.txt"] = ["export", "--what", "forest", "--p", "4", "--q", "5",
                                     "--levels", "0"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(name, monkeypatch):
    monkeypatch.delenv("MOSAICFOREST_CAP", raising=False)
    expected = json.loads(EXPECTED.read_text())[name]
    code, out, err = run(CASES[name])
    assert (code, err) == (expected["exit"], expected["stderr"])
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_with_out_file(name, monkeypatch, tmp_path):
    monkeypatch.delenv("MOSAICFOREST_CAP", raising=False)
    expected = json.loads(EXPECTED.read_text())[name]
    target = tmp_path / name
    code, out, err = run([*CASES[name], "--out", str(target)])
    assert (code, out, err) == (expected["exit"], "", expected["stderr"])
    if code == 2:
        assert list(tmp_path.iterdir()) == []
    else:
        assert target.read_bytes() == (GOLDEN / name).read_bytes()


def record() -> None:
    expected = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = run(argv)
        (GOLDEN / name).write_text(out, encoding="utf-8")
        expected[name] = {"exit": code, "stderr": err}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(record())
